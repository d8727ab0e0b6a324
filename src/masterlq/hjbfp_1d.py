"""1D finite-difference solver for the coupled HJB / Fokker-Planck systems.

Backward HJB (value u) and forward FP (density m) on a truncated interval,
coupled through the first moment of m (the only measure statistic the LQ
data sees) and, for MFC, the mean gradient E[u_x] of the measure term; the
fixed point is found by Anderson-accelerated iteration on those paths:

    -du/dt - (sigma^2/2) u_xx = H(x, ybar, u_x)   [+ measure term, MFC]
     dm/dt - (sigma^2/2) m_xx + (G m)_x = 0

Scheme: diffusion implicit (LU-factored once per sweep, one tridiagonal
solve per step), advection / Hamiltonian gradient explicit with sign-of-
velocity upwinding.  Boundaries: zero-flux (reflecting) for m, one-sided
differences for u.  Each density slice is renormalized to unit mass.

The sweeps check their steps a block of SWEEP_BLOCK time steps at a time:
the Courant number of each step's velocity, and for the HJB whether each
new slice is finite (the FP's mass check stays per step, since the
normalization needs that mass).  They raise the first failure in sweep
order, as a check after every step would, and compute with floating-point
warnings off, so the steps run past a failure inside its block print
nothing.  A problem is the quadratic form H = h0 + g0 q - brb q^2 / 2 and
its q-derivative, the drift G = g0 - brb q.  The HJB sweep forms the
q-free rows (h0, g0 and the MFC measure term) from the mean path a block
of SWEEP_BLOCK nodes at a time, and the FP sweep reads the central
differences of u, times brb, a block of rows at a time; each step does only
the q-dependent work.  Each sweep makes its shifted views once and hands
numpy its constants as 0-d arrays: fewer numpy calls and temporaries per
step, the same bits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import lq_model as lq
from . import riccati as ric
from . import master_verifier as mv

ANDERSON_DEPTH = 5     # Anderson history depth of picard_solve
PICARD_TOL = 1e-6      # picard_solve stops once max |F(z) - z| is below it
PICARD_MAX_ITER = 200  # picard_solve raises NonConvergence after this many iterations
CROSSVAL_ROWS = 64     # time nodes per block of cross_validate_lq: small temporaries
SWEEP_BLOCK = 16       # time steps per block of sweep checks: buffers of a few tens of KB


class CFLViolation(RuntimeError):
    def __init__(self, courant: float, dt: float, dx: float):
        super().__init__(
            f"advective Courant number {courant:.3f} > 1 (dt = {dt:.3e}, dx = {dx:.3e}); reduce dt")
        self.courant = courant


class NonConvergence(RuntimeError):
    def __init__(self, history: list[float]):
        super().__init__(f"Picard iteration did not converge ({len(history)} iterations, "
                         f"last delta {history[-1]:.3e})")
        self.history = history


@dataclass(frozen=True)
class SpaceGrid1D:
    x_min: float
    x_max: float
    Nx: int

    def __post_init__(self):
        if not -np.inf < self.x_min < self.x_max < np.inf:    # NaN compares false
            raise ValueError(f"grid bounds must be finite with x_min < x_max, "
                             f"got x_min={self.x_min}, x_max={self.x_max}")
        if self.Nx < 16:
            raise ValueError("need Nx >= 16")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.Nx - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.Nx)


@dataclass
class PDEFields:
    u: np.ndarray             # (Nt+1, Nx)
    m: np.ndarray             # (Nt+1, Nx)
    grid: SpaceGrid1D
    tgrid: ric.TimeGrid
    iterations: int = 0
    history: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class Problem1D:
    """Scalar problem data for the FD solver.

    The population enters only through the mean y of the law: the
    Hamiltonian is one quadratic form in q,
        H(x, y, q) = h0(x, y) + g0(x, y) q - brb q^2 / 2,
    and the drift is its q-derivative G = g0(x, y) - brb q.  h0 and g0 return
    a new array and broadcast over x and y: the HJB sweep hands them a column
    of means, one row per time node.  terminal(x, ybar) gives u(x, T).  A
    problem whose data ignore y is solved on its mean path all the same.
    dHdm_coeff, set exactly for an MFC problem, gives the linear-in-x
    coefficient of the measure-derivative term:
    term(x) = dHdm_coeff(ybar, qbar) * x; it too broadcasts.
    """
    h0: callable
    g0: callable
    brb: float
    terminal: callable
    sigma: float
    T: float
    dHdm_coeff: callable | None = None

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"diffusion coefficient sigma must be finite and > 0 for the "
                             f"FD solver, got {self.sigma}")


def _scalars(*values: float) -> list[np.ndarray]:
    """The values as 0-d float arrays.  A ufunc on a few hundred elements
    takes a 0-d array in about two thirds of the time it takes to convert a
    Python float, and computes the same bits."""
    return [np.array(v, dtype=float) for v in values]


def problem_from_lq(model: lq.LQModelSpec, kind: str = "MFG") -> Problem1D:
    """The MFG or MFC problem of a scalar LQ model (kind "MFG" or "MFC").
    Only the MFC problem has the measure term dHdm_coeff, and its terminal
    adds the measure-derivative correction of h at ybar(T) = y."""
    if kind not in ("MFG", "MFC"):
        raise ValueError(f"kind must be MFG or MFC, got {kind!r}")
    if model.n != 1 or model.d != 1:
        raise ValueError("FD solver handles scalar (n = d = 1) models only")
    if model.beta > 0.0:
        raise ValueError(f"FD solver has no common noise: needs beta = 0, got beta = {model.beta:g}")
    A = float(model.A[0, 0]); Ab = float(model.Abar[0, 0])
    Q = float(model.Q[0, 0]); Qb = float(model.Qbar[0, 0]); S = float(model.S[0, 0])
    QT = float(model.QT[0, 0]); QbT = float(model.QbarT[0, 0]); ST = float(model.ST[0, 0])
    # the FP sweep calls g0 at every step: its factor of x as a 0-d array (see _scalars)
    c_yy, (c_A,) = 0.5 * S * Qb * S, _scalars(A)

    def h0(x, y):
        return 0.5 * (Q + Qb) * x * x - Qb * S * x * y + c_yy * y * y

    def g0(x, y):
        return c_A * x + Ab * y

    def terminal(x, y):
        return 0.5 * (QT * x * x + QbT * (x - ST * y) ** 2)

    def terminal_mfc(x, y):
        return terminal(x, y) - (y - ST * y) * QbT * ST * x

    def dHdm_coeff(y, qbar):
        return -y * Qb * S + y * S * Qb * S + qbar * Ab

    mfc = kind == "MFC"
    return Problem1D(h0=h0, g0=g0, brb=float(model.BRB()[0, 0]),
                     terminal=terminal_mfc if mfc else terminal, sigma=model.sigma, T=model.T,
                     dHdm_coeff=dHdm_coeff if mfc else None)


def cosine_demo(sigma: float = 0.5, T: float = 0.5, kappa: float = 0.5) -> Problem1D:
    """Non-LQ demonstration: quadratic control cost with a cosine potential."""
    return Problem1D(h0=lambda x, y: kappa * (1.0 - np.cos(x)), g0=lambda x, y: np.zeros_like(x),
                     brb=1.0, terminal=lambda x, y: np.zeros_like(x),
                     sigma=sigma, T=T)


# ---------------------------------------------------------------------------
# building blocks

def _diffusion_banded(nu_dt: float, dx: float, Nx: int, neumann: bool) -> np.ndarray:
    """Banded (I - nu dt D2) with zero-flux (neumann) or one-sided closure."""
    r = nu_dt / dx ** 2
    ab = np.zeros((3, Nx))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    if neumann:
        # reflecting: interior flux only at the single inner interface
        ab[1, 0] = 1.0 + r
        ab[1, -1] = 1.0 + r
    else:
        # linear extrapolation: u_xx = 0 at the boundary rows
        ab[1, 0] = 1.0
        ab[0, 1] = 0.0
        ab[1, -1] = 1.0
        ab[2, -2] = 0.0
    return ab


def _diffusion_lu(ab: np.ndarray) -> tuple:
    """LU factors of banded ab for dgttrs(*lu, b).  ab is strictly diagonally
    dominant: no row is swapped, so solves equal solve_banded's bit for bit."""
    *lu, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise np.linalg.LinAlgError("singular diffusion matrix")
    return lu


def _diffusion(sigma: float, grid: SpaceGrid1D, tgrid: ric.TimeGrid, neumann: bool) -> tuple:
    """_diffusion_lu of a sweep's step I - nu dt D2, nu = sigma^2 / 2, with the
    FP's zero-flux closure (neumann) or the HJB's one-sided one.  A grid on
    which dx^2 underflows to 0, or the operator rounds to a singular one (1 + r
    rounds to r = nu dt / dx^2), is bad input: a ValueError."""
    nu_dt, dx = 0.5 * sigma ** 2 * tgrid.h, grid.dx
    try:
        return _diffusion_lu(_diffusion_banded(nu_dt, dx, grid.Nx, neumann))
    except (ZeroDivisionError, np.linalg.LinAlgError):
        raise ValueError(f"the diffusion step cannot be formed on the grid: "
                         f"nu dt = {nu_dt:.3g}, dx = {dx:.3g}") from None


def check_diffusion(sigma: float, grid: SpaceGrid1D, tgrid: ric.TimeGrid) -> None:
    """Raise _diffusion's ValueError if either sweep's step cannot be formed."""
    for neumann in (True, False):
        _diffusion(sigma, grid, tgrid, neumann)


def _mass(m: np.ndarray, dx: float) -> float:
    return float(np.add.reduce(m) * dx)


def _check_block(vel: np.ndarray, dt: float, dx: float, nodes: range,
                 finite: np.ndarray | None = None) -> None:
    """The checks of a block of sweep steps, in sweep order: row i of vel is
    step i's velocity, nodes[i] its time node and finite[i] whether its new
    slice is finite.  Raises the first failure a check after every step
    would have raised: within a step, CFLViolation (Courant > 1) or
    NumericalFailure (NaN velocity) before NumericalFailure (non-finite
    slice)."""
    courant = np.abs(vel).max(axis=1) * dt / dx
    ok = courant <= 1.0
    if finite is not None:
        ok &= finite
    if ok.all():
        return
    i = int(ok.argmin())
    if courant[i] > 1.0:
        raise CFLViolation(float(courant[i]), dt, dx)
    raise ric.NumericalFailure(nodes[i])


def first_moment(m: np.ndarray, x: np.ndarray, dx: float) -> float:
    return float(np.add.reduce(x * m) * dx / max(_mass(m, dx), 1e-300))


# ---------------------------------------------------------------------------
# forward / backward sweeps

def solve_fp_forward(drift_fn, sigma: float, m0: np.ndarray,
                     grid: SpaceGrid1D, tgrid: ric.TimeGrid) -> np.ndarray:
    """Forward FP sweep.  drift_fn(k, x, m_slice) -> G at time node k, called
    for k = 0, 1, ..., K-1 in order.

    Semi-implicit: diffusion implicit with reflecting boundaries, advection
    explicit donor-cell upwind.  Each slice is renormalized to unit mass.
    Raises CFLViolation (Courant > 1) or NumericalFailure (non-finite value),
    the first in sweep order; the Courant numbers are checked per block of
    SWEEP_BLOCK steps, and at a slice whose mass fails.
    """
    if sigma <= 0.0:
        raise ValueError("sigma > 0 required")
    x, dx, dt, K, Nx = grid.nodes(), grid.dx, tgrid.h, tgrid.K, grid.Nx
    lu = _diffusion(sigma, grid, tgrid, neumann=True)
    m = np.empty((K + 1, Nx))
    m[0] = np.maximum(m0, 0.0)
    m[0] /= _mass(m[0], dx)
    vel = np.empty((SWEEP_BLOCK, Nx))
    Gf, div, right = np.empty(Nx - 1), np.empty(Nx), np.empty(Nx - 1, dtype=bool)
    # the interface fluxes between a +0.0 and a -0.0 end: their differences
    # are flux[0] - 0.0 = flux[0] and -0.0 - flux[-1] = -flux[-1], bit for bit
    padded = np.zeros(Nx + 1)
    padded[-1] = -0.0
    # the shifted views every step reads, made once
    m_hi, m_lo, vel_hi, vel_lo = m[:, 1:], m[:, :-1], vel[:, 1:], vel[:, :-1]
    flux, pad_hi, pad_lo = padded[1:-1], padded[1:], padded[:-1]
    zero, half, c_dx, c_dt = _scalars(0.0, 0.5, dx, dt)
    with np.errstate(all="ignore"):
        for k in range(K):
            i = k % SWEEP_BLOCK
            mk, nxt = m[k], m[k + 1]
            vel[i] = drift_fn(k, x, mk)
            # (G m)_x with donor-cell upwind fluxes and zero boundary flux
            np.add(vel_lo[i], vel_hi[i], out=Gf)
            Gf *= half
            np.greater(Gf, zero, out=right)
            np.multiply(Gf, m_hi[k], out=flux)
            np.multiply(Gf, m_lo[k], out=flux, where=right)
            np.subtract(pad_hi, pad_lo, out=div)
            div /= c_dx
            div *= c_dt
            np.subtract(mk, div, out=nxt)
            dgttrs(*lu, nxt, "N", 1)     # trans "N", overwrite_b: in place
            np.maximum(nxt, zero, out=nxt)
            mass = _mass(nxt, dx)
            if not 0.0 < mass < np.inf:     # a NaN, infinite or all-zero slice
                _check_block(vel[:i + 1], dt, dx, range(k - i, k + 1))
                raise ric.NumericalFailure(k + 1)
            nxt /= mass
            if i == SWEEP_BLOCK - 1 or k == K - 1:
                _check_block(vel[:i + 1], dt, dx, range(k - i, k + 1))
    return m


def solve_hjb_backward(ybar: np.ndarray, prob: Problem1D, grid: SpaceGrid1D,
                       tgrid: ric.TimeGrid, qbar: np.ndarray | None = None) -> np.ndarray:
    """Backward HJB sweep given the mean path ybar[0..K] and, exactly when the
    problem has the MFC measure term, the path qbar[0..K-1] of the mean
    gradient E[D_x u].  Raises CFLViolation (Courant > 1) or NumericalFailure
    (non-finite value), the first in sweep order; both are checked per block
    of SWEEP_BLOCK steps."""
    if (qbar is None) != (prob.dHdm_coeff is None):
        raise ValueError("qbar is given exactly when the problem has the MFC measure term")
    x, dx, dt, K, Nx = grid.nodes(), grid.dx, tgrid.h, tgrid.K, grid.Nx
    # boundary rows carry u_xx = 0 (linear extrapolation)
    lu = _diffusion(prob.sigma, grid, tgrid, neumann=False)
    ys = np.asarray(ybar, dtype=float)
    u = np.empty((K + 1, Nx))
    u[-1] = prob.terminal(x, float(ys[K]))
    # the paths in sweep order, as columns: step j = K-1-k reads node k
    y_rev = ys[-2::-1, None]
    q_rev = None if qbar is None else np.asarray(qbar, dtype=float)[::-1, None]
    # the q-free rows of H and G, formed from them a block of steps at a time
    vel, h0, g0 = (np.empty((SWEEP_BLOCK, Nx)) for _ in range(3))
    measure = None if q_rev is None else np.empty((SWEEP_BLOCK, Nx))
    fwd, q_c, q, H, w = np.empty(Nx - 1), np.empty(Nx), np.empty(Nx), np.empty(Nx), np.empty(Nx)
    bwd = np.empty(Nx - 2, dtype=bool)
    zero, c_dx, c_dx2, c_dt, c_brb, c_half_brb = _scalars(0.0, dx, 2.0 * dx, dt, prob.brb,
                                                          0.5 * prob.brb)
    # the shifted views every step reads, made once; q_c is np.gradient(u, dx):
    # (u[j+1] - u[j-1]) / (2 dx) inside, the one-sided fwd values at the ends
    u_hi, u_lo, u_hi2, u_lo2 = u[:, 1:], u[:, :-1], u[:, 2:], u[:, :-2]
    vel_mid, fwd_lo, q_lo, q_mid, q_c_mid = vel[:, 1:-1], fwd[:-1], q[:-1], q[1:-1], q_c[1:-1]
    with np.errstate(all="ignore"):
        for k in range(K - 1, -1, -1):
            j = K - 1 - k
            i = j % SWEEP_BLOCK
            if i == 0:
                y = y_rev[j:j + SWEEP_BLOCK]
                h0[:len(y)] = prob.h0(x, y)
                g0[:len(y)] = prob.g0(x, y)
                if measure is not None:
                    np.multiply(x, prob.dHdm_coeff(y, q_rev[j:j + SWEEP_BLOCK]),
                                out=measure[:len(y)])
            nxt, v = u[k], vel[i]
            np.subtract(u_hi[k + 1], u_lo[k + 1], out=fwd)
            fwd /= c_dx
            np.subtract(u_hi2[k + 1], u_lo2[k + 1], out=q_c_mid)
            q_c_mid /= c_dx2
            q_c[0] = fwd[0]
            q_c[-1] = fwd[-1]
            # G = g0 - brb q at the central differences
            np.multiply(q_c, c_brb, out=v)
            np.subtract(g0[i], v, out=v)
            # upwind u_x: backward difference where v > 0, forward elsewhere
            q_lo[...] = fwd
            q[-1] = fwd[-1]
            np.greater(vel_mid[i], zero, out=bwd)
            np.copyto(q_mid, fwd_lo, where=bwd)
            # H = h0 - brb q^2 / 2 + g0 q [+ the measure term], term by term
            np.multiply(q, c_half_brb, out=H)
            H *= q
            np.subtract(h0[i], H, out=H)
            np.multiply(g0[i], q, out=w)
            H += w
            if measure is not None:
                H += measure[i]
            H *= c_dt
            np.add(u[k + 1], H, out=nxt)
            dgttrs(*lu, nxt, "N", 1)     # trans "N", overwrite_b: in place
            if i == SWEEP_BLOCK - 1 or k == 0:
                _check_block(vel[:i + 1], dt, dx, range(k + i, k - 1, -1),
                             np.isfinite(u[k:k + i + 1]).all(axis=1)[::-1])
    return u


def _statistics(u: np.ndarray, m: np.ndarray, x: np.ndarray, prob: Problem1D) -> np.ndarray:
    """The statistics the HJB sweep of prob reads, from (u, m): ybar_k = E[X_k]
    for k = 0..K, then for MFC qbar_k = sum_j D_c u[k+1]_j m[k]_j dx for
    k = 0..K-1, with D_c np.gradient's central difference (one-sided at the
    ends; dx cancels).  Written as sums of products, so no (K+1) x Nx
    temporary is formed."""
    ybar = np.einsum("kj,j->k", m, x) / m.sum(axis=1)
    if prob.dHdm_coeff is None:
        return ybar
    un, mk = u[1:], m[:-1]
    inner = (np.einsum("kj,kj->k", un[:, 2:], mk[:, 1:-1])
             - np.einsum("kj,kj->k", un[:, :-2], mk[:, 1:-1]))
    return np.concatenate([ybar, 0.5 * inner + (un[:, 1] - un[:, 0]) * mk[:, 0]
                           + (un[:, -1] - un[:, -2]) * mk[:, -1]])


def picard_solve(prob: Problem1D, grid: SpaceGrid1D, tgrid: ric.TimeGrid,
                 m0: np.ndarray) -> PDEFields:
    """Anderson-accelerated fixed point on the statistics z the HJB reads.

    The problem alone decides MFC or MFG: z holds the mean path ybar_0..ybar_K
    and, when the problem has the measure term (MFC), the mean gradient path
    qbar_0..qbar_{K-1}.  F(z) runs one HJB sweep on z, one FP sweep on the
    resulting drift, and reads z back from the new (u, m).
    Each step is an undamped Type-II Anderson step (Walker-Ni) of depth
    ANDERSON_DEPTH, z <- z + f - (dZ + dF) gamma; the iteration stops when
    max |F(z) - z| < PICARD_TOL and returns that evaluation's u and m, or
    raises NonConvergence after PICARD_MAX_ITER iterations.
    """
    mfc = prob.dHdm_coeff is not None
    x, dx, K = grid.nodes(), grid.dx, tgrid.K
    m0 = np.maximum(np.asarray(m0, dtype=float), 0.0)
    m0 = m0 / _mass(m0, dx)
    z = np.concatenate([np.full(K + 1, first_moment(m0, x, dx)), np.zeros(K if mfc else 0)])
    history: list[float] = []
    dZ: deque = deque(maxlen=ANDERSON_DEPTH)
    dF: deque = deque(maxlen=ANDERSON_DEPTH)
    z_prev = f_prev = None
    bq, sums = np.empty((SWEEP_BLOCK, grid.Nx)), np.empty((2, grid.Nx))

    def drift_fn(k, xs, m_slice):
        # the FP sweep asks for k = 0, 1, ... in order: brb times
        # np.gradient(u, dx) comes a block of rows at a time, (u[j+1] - u[j-1])
        # / (2 dx) inside and one-sided differences at the ends
        i = k % SWEEP_BLOCK
        if i == 0:
            rows = u[k:k + SWEEP_BLOCK]
            c = bq[:len(rows)]
            np.subtract(rows[:, 2:], rows[:, :-2], out=c[:, 1:-1])
            c[:, 1:-1] /= 2.0 * dx
            np.subtract(rows[:, 1], rows[:, 0], out=c[:, 0])
            np.subtract(rows[:, -1], rows[:, -2], out=c[:, -1])
            c[:, [0, -1]] /= dx
            c *= prob.brb
        # first_moment(m_slice, xs, dx): the sums of x * m and of m are one
        # row-wise reduce, each row summed as a 1-D reduce sums it
        np.multiply(xs, m_slice, out=sums[0])
        sums[1] = m_slice
        xm, mass = np.add.reduce(sums, axis=1).tolist()
        g = prob.g0(xs, xm * dx / max(mass * dx, 1e-300))
        g -= bq[i]
        return g

    for it in range(1, PICARD_MAX_ITER + 1):
        u = m = None    # free the previous iterate before the next sweep
        u = solve_hjb_backward(z[:K + 1], prob, grid, tgrid, qbar=z[K + 1:] if mfc else None)
        m = solve_fp_forward(drift_fn, prob.sigma, m0, grid, tgrid)
        f = _statistics(u, m, x, prob) - z
        delta = float(np.max(np.abs(f)))
        history.append(delta)
        if delta < PICARD_TOL:
            return PDEFields(u=u, m=m, grid=grid, tgrid=tgrid,
                             iterations=it, history=history)
        if z_prev is not None:
            dZ.append(z - z_prev)
            dF.append(f - f_prev)
        z_prev, f_prev = z, f
        z = z + f
        if dF:
            Fm, Zm = np.column_stack(dF), np.column_stack(dZ)
            gamma = np.linalg.lstsq(Fm, f, rcond=None)[0]
            z -= (Zm + Fm) @ gamma
    raise NonConvergence(history)


# ---------------------------------------------------------------------------
# cross-validation against the Riccati machinery

def cross_validate_lq(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                      pde: PDEFields) -> dict:
    """Compare the PDE u and the Riccati-built reference over the nodes of
    crossval_window, and the density's first moment against the mean ODE."""
    grid, tgrid = pde.grid, pde.tgrid
    x, dx = grid.nodes(), grid.dx
    mask = crossval_window(grid)

    y0 = np.array([first_moment(pde.m[0], x, dx)])
    flow = mv.mean_flow_ode(model, sol, y0, tgrid)[:, 0]

    # Blocks of CROSSVAL_ROWS time nodes at once, from one eval_at on every
    # node.  Each term keeps the per-node grouping, yb ** 2 stays a Python
    # float power, and the rows are contiguous so that each row's sum and
    # mean reduce as a 1-D array's would.
    times = tgrid.nodes()
    ev = ric.eval_at(sol, times)
    at = lambda name: ev[name].reshape(len(times), 1)
    P, Sig, yb = at("P"), at("Sigma"), flow[:, None]
    if sol.kind == "MFG":
        Gam, mu = at("Gamma"), at("mu")
        yb2 = np.array([y ** 2 for y in flow.tolist()])[:, None]
    xm = x[mask]
    xm2 = xm ** 2
    sup = l2 = 0.0
    moment = np.empty(len(times))
    for j in range(0, len(times), CROSSVAL_ROWS):
        r = slice(j, j + CROSSVAL_ROWS)
        # first_moment of each row: a row-wise reduce sums each row as the
        # 1-D reduce does
        m_r = np.ascontiguousarray(pde.m[r])
        moment[r] = np.add.reduce(x * m_r, axis=1) * dx / np.maximum(
            np.add.reduce(m_r, axis=1) * dx, 1e-300)
        u_ref = 0.5 * P[r] * xm2 + Sig[r] * xm * yb[r]
        if sol.kind == "MFG":
            u_ref = u_ref + 0.5 * Gam[r] * yb2[r] + mu[r]
        diff = np.ascontiguousarray(pde.u[r][:, mask] - u_ref)
        if sol.kind == "MFC":
            # MFC u is pinned only up to an additive function of time
            diff = diff - np.mean(diff, axis=1, keepdims=True)
        sup = max(sup, float(np.max(np.abs(diff))))
        for row_sum in np.sum(diff ** 2, axis=1).tolist():
            l2 += row_sum * dx * tgrid.h
    moment_err = float(np.max(np.abs(moment - flow)))
    return {"sup_diff": sup, "l2_diff": float(np.sqrt(l2)), "mean_flow_diff": moment_err}


def crossval_window(grid: SpaceGrid1D) -> np.ndarray:
    """The mask of grid's nodes with |x| <= max(|x_min|, |x_max|) / 2, the
    central subdomain; a ValueError if it holds none."""
    half = 0.5 * max(abs(grid.x_min), abs(grid.x_max))
    mask = np.abs(grid.nodes()) <= half
    if not mask.any():
        raise ValueError(f"the LQ cross-validation window |x| <= {half:g} holds no node of "
                         f"the grid [{grid.x_min:g}, {grid.x_max:g}]")
    return mask


def gaussian_density(grid: SpaceGrid1D, mean: float, std: float) -> np.ndarray:
    if not np.isfinite(mean):
        raise ValueError(f"initial density mean must be finite, got {mean}")
    if not 0.0 < std < np.inf:
        raise ValueError(f"initial density std must be finite and > 0, got {std}")
    with np.errstate(over="ignore"):    # a far-off mean or tiny std: mass 0, refused below
        m = np.exp(-0.5 * ((grid.nodes() - mean) / std) ** 2)
    mass = np.sum(m) * grid.dx
    if not 0.0 < mass < np.inf:
        raise ValueError(f"initial density with mean {mean:g} and std {std:g} has no mass on "
                         f"the grid [{grid.x_min:g}, {grid.x_max:g}]")
    return m / mass
