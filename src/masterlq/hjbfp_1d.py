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
nothing.  The FP reads the central differences of u a block of rows at a
time, and problem_from_lq and cosine_demo compute their x-only terms once
per node array.
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

    hamiltonian(x, ybar, q) and drift(x, ybar, q) are vectorized over x, q;
    terminal(x, ybar) gives u(x, T).  dHdm_coeff, when set, returns the
    linear-in-x coefficient of the measure-derivative term (LQ closed form,
    used for the MFC variant): term(x) = dHdm_coeff(ybar, qbar) * x.  The
    hamiltonian and drift of problem_from_lq and cosine_demo keep their
    x-only terms for the last node array they were given (see _per_grid).
    """
    hamiltonian: callable
    drift: callable
    terminal: callable
    sigma: float
    T: float
    dHdm_coeff: callable | None = None
    uses_mean: bool = True

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"diffusion coefficient sigma must be finite and > 0 for the "
                             f"FD solver, got {self.sigma}")


def _per_grid(fn):
    """fn(x), computed again only when x is not the node array of the last
    call.  The entry holds that array itself, so its id cannot be reused;
    the sweeps pass one array at every step and never write to it."""
    last = (None, None)

    def terms(x):
        nonlocal last
        hit = last
        if hit[0] is not x:
            hit = last = (x, fn(x))
        return hit[1]
    return terms


def problem_from_lq(model: lq.LQModelSpec, kind: str = "MFG") -> Problem1D:
    """The MFG or MFC problem of a scalar LQ model.  The MFC terminal adds
    the measure-derivative correction of h at ybar(T) = y."""
    if model.n != 1 or model.d != 1:
        raise ValueError("FD solver handles scalar (n = d = 1) models only")
    if model.beta > 0.0:
        raise ValueError(f"FD solver has no common noise: needs beta = 0, got beta = {model.beta:g}")
    A = float(model.A[0, 0]); Ab = float(model.Abar[0, 0])
    Q = float(model.Q[0, 0]); Qb = float(model.Qbar[0, 0]); S = float(model.S[0, 0])
    QT = float(model.QT[0, 0]); QbT = float(model.QbarT[0, 0]); ST = float(model.ST[0, 0])
    BRB = float(model.BRB()[0, 0])

    x_terms = _per_grid(lambda x: (0.5 * (Q + Qb) * x * x, Qb * S * x, A * x))

    def ham(x, y, q):
        xx, sx, ax = x_terms(x)
        return (xx - sx * y + 0.5 * S * Qb * S * y * y
                - 0.5 * BRB * q * q + q * (ax + Ab * y))

    def drift(x, y, q):
        return x_terms(x)[2] + Ab * y - BRB * q

    def terminal(x, y):
        return 0.5 * (QT * x * x + QbT * (x - ST * y) ** 2)

    def terminal_mfc(x, y):
        return terminal(x, y) - (y - ST * y) * QbT * ST * x

    def dHdm_coeff(y, qbar):
        return -y * Qb * S + y * S * Qb * S + qbar * Ab

    return Problem1D(hamiltonian=ham, drift=drift,
                     terminal=terminal_mfc if kind == "MFC" else terminal,
                     sigma=model.sigma, T=model.T, dHdm_coeff=dHdm_coeff)


def cosine_demo(sigma: float = 0.5, T: float = 0.5, kappa: float = 0.5) -> Problem1D:
    """Non-LQ demonstration: quadratic control cost with a cosine potential."""
    x_terms = _per_grid(lambda x: (kappa * (1.0 - np.cos(x)), np.zeros_like(x)))

    def ham(x, y, q):
        potential, zero = x_terms(x)
        return -0.5 * q * q + potential + zero * y

    def drift(x, y, q):
        return -q + x_terms(x)[1]

    def terminal(x, y):
        return np.zeros_like(x)

    return Problem1D(hamiltonian=ham, drift=drift, terminal=terminal,
                     sigma=sigma, T=T, uses_mean=False)


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


def _differences(u: np.ndarray, dx: float, fwd: np.ndarray, central: np.ndarray) -> None:
    """Along the last axis of u (one slice or a block of rows): forward
    differences (u[j+1] - u[j]) / dx into fwd, and np.gradient(u, dx) into
    central: second order inside, the one-sided fwd values at the ends."""
    np.subtract(u[..., 1:], u[..., :-1], out=fwd)
    fwd /= dx
    np.subtract(u[..., 2:], u[..., :-2], out=central[..., 1:-1])
    central[..., 1:-1] /= 2.0 * dx
    central[..., 0] = fwd[..., 0]
    central[..., -1] = fwd[..., -1]


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
    nu = 0.5 * sigma ** 2
    lu = _diffusion_lu(_diffusion_banded(nu * dt, dx, Nx, neumann=True))
    m = np.empty((K + 1, Nx))
    m[0] = np.maximum(m0, 0.0)
    m[0] /= _mass(m[0], dx)
    vel = np.empty((SWEEP_BLOCK, Nx))
    Gf, flux, div = np.empty(Nx - 1), np.empty(Nx - 1), np.empty(Nx)
    right = np.empty(Nx - 1, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(K):
            i = k % SWEEP_BLOCK
            G, mk, nxt = vel[i], m[k], m[k + 1]
            G[...] = drift_fn(k, x, mk)
            # (G m)_x with donor-cell upwind fluxes and zero boundary flux
            np.add(G[:-1], G[1:], out=Gf)
            Gf *= 0.5
            np.greater(Gf, 0.0, out=right)
            np.multiply(Gf, mk[1:], out=flux)
            np.multiply(Gf, mk[:-1], out=flux, where=right)
            np.subtract(flux[1:], flux[:-1], out=div[1:-1])
            div[0] = flux[0]
            div[-1] = -flux[-1]
            div /= dx
            div *= dt
            np.subtract(mk, div, out=nxt)
            dgttrs(*lu, nxt, overwrite_b=1)
            np.maximum(nxt, 0.0, out=nxt)
            mass = _mass(nxt, dx)
            if not 0.0 < mass < np.inf:     # a NaN, infinite or all-zero slice
                _check_block(vel[:i + 1], dt, dx, range(k - i, k + 1))
                raise ric.NumericalFailure(k + 1)
            nxt /= mass
            if i == SWEEP_BLOCK - 1 or k == K - 1:
                _check_block(vel[:i + 1], dt, dx, range(k - i, k + 1))
    return m


def solve_hjb_backward(ybar: np.ndarray | None, prob: Problem1D, grid: SpaceGrid1D,
                       tgrid: ric.TimeGrid, qbar: np.ndarray | None = None) -> np.ndarray:
    """Backward HJB sweep given the mean path ybar[0..K] (read only when the
    problem uses the mean) and, for the MFC measure term, the path
    qbar[0..K-1] of the mean gradient E[D_x u].
    Raises CFLViolation (Courant > 1) or NumericalFailure (non-finite value),
    the first in sweep order; both are checked per block of SWEEP_BLOCK steps."""
    if qbar is not None and prob.dHdm_coeff is None:
        raise ValueError("MFC variant needs the closed-form measure term")
    x, dx, dt, K, Nx = grid.nodes(), grid.dx, tgrid.h, tgrid.K, grid.Nx
    nu = 0.5 * prob.sigma ** 2
    # boundary rows carry u_xx = 0 (linear extrapolation)
    lu = _diffusion_lu(_diffusion_banded(nu * dt, dx, Nx, neumann=False))
    ys = np.asarray(ybar, dtype=float).tolist() if prob.uses_mean else [0.0] * (K + 1)
    qs = None if qbar is None else np.asarray(qbar, dtype=float).tolist()
    u = np.empty((K + 1, Nx))
    u[-1] = prob.terminal(x, ys[K])
    vel = np.empty((SWEEP_BLOCK, Nx))
    fwd, q_c, q, H_dt = np.empty(Nx - 1), np.empty(Nx), np.empty(Nx), np.empty(Nx)
    bwd = np.empty(Nx - 2, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(K - 1, -1, -1):
            i = (K - 1 - k) % SWEEP_BLOCK
            yb, v, nxt = ys[k], vel[i], u[k]
            _differences(u[k + 1], dx, fwd, q_c)
            v[...] = prob.drift(x, yb, q_c)
            # upwind u_x: backward difference where v > 0, forward elsewhere
            q[:-1] = fwd
            q[-1] = fwd[-1]
            np.greater(v[1:-1], 0.0, out=bwd)
            np.copyto(q[1:-1], fwd[:-1], where=bwd)
            H = prob.hamiltonian(x, yb, q)
            if qs is None:
                np.multiply(H, dt, out=H_dt)
            else:
                np.multiply(x, prob.dHdm_coeff(yb, qs[k]), out=H_dt)
                np.add(H, H_dt, out=H_dt)
                H_dt *= dt
            np.add(u[k + 1], H_dt, out=nxt)
            dgttrs(*lu, nxt, overwrite_b=1)
            if i == SWEEP_BLOCK - 1 or k == 0:
                _check_block(vel[:i + 1], dt, dx, range(k + i, k - 1, -1),
                             np.isfinite(u[k:k + i + 1]).all(axis=1)[::-1])
    return u


def _statistics(u: np.ndarray, m: np.ndarray, x: np.ndarray,
                uses_mean: bool, mfc: bool) -> np.ndarray:
    """The statistics the HJB sweep reads, from (u, m): ybar_k = E[X_k] for
    k = 0..K when the problem uses the mean, then for MFC
    qbar_k = sum_j D_c u[k+1]_j m[k]_j dx for k = 0..K-1, with D_c the central
    difference of _differences (one-sided at the ends; dx cancels).  Written
    as sums of products, so no (K+1) x Nx temporary is formed."""
    parts = []
    if uses_mean:
        parts.append(np.einsum("kj,j->k", m, x) / m.sum(axis=1))
    if mfc:
        un, mk = u[1:], m[:-1]
        inner = (np.einsum("kj,kj->k", un[:, 2:], mk[:, 1:-1])
                 - np.einsum("kj,kj->k", un[:, :-2], mk[:, 1:-1]))
        parts.append(0.5 * inner + (un[:, 1] - un[:, 0]) * mk[:, 0]
                     + (un[:, -1] - un[:, -2]) * mk[:, -1])
    return np.concatenate(parts) if parts else np.empty(0)


def picard_solve(prob: Problem1D, grid: SpaceGrid1D, tgrid: ric.TimeGrid,
                 m0: np.ndarray, kind: str = "MFG", damping: float = 0.5,
                 max_iter: int = 200, tol: float = 1e-6) -> PDEFields:
    """Anderson-accelerated fixed point on the statistics z the HJB reads.

    z holds the mean path ybar_0..ybar_K (when the problem uses the mean)
    and, for MFC, the mean gradient path qbar_0..qbar_{K-1}.  F(z) runs one
    HJB sweep on z, one FP sweep on the resulting drift, and reads z back
    from the new (u, m).  Each step is a Type-II Anderson step (Walker-Ni)
    of depth ANDERSON_DEPTH with mixing `damping`; the iteration stops when
    max |F(z) - z| < tol and returns that evaluation's u and m.  An empty z
    (a problem that never reads m) converges after one HJB + FP pair.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if kind not in ("MFG", "MFC"):
        raise ValueError("kind must be MFG or MFC")
    mfc = kind == "MFC"
    x, dx, K = grid.nodes(), grid.dx, tgrid.K
    m0 = np.maximum(np.asarray(m0, dtype=float), 0.0)
    m0 = m0 / _mass(m0, dx)
    nY = K + 1 if prob.uses_mean else 0
    z = np.concatenate([np.full(nY, first_moment(m0, x, dx)), np.zeros(K if mfc else 0)])
    history: list[float] = []
    dZ: deque = deque(maxlen=ANDERSON_DEPTH)
    dF: deque = deque(maxlen=ANDERSON_DEPTH)
    z_prev = f_prev = None
    fwd, q = np.empty((SWEEP_BLOCK, grid.Nx - 1)), np.empty((SWEEP_BLOCK, grid.Nx))

    def drift_fn(k, xs, m_slice):
        # the FP sweep asks for k = 0, 1, ... in order: the central differences
        # of u come a block of rows at a time
        i = k % SWEEP_BLOCK
        if i == 0:
            rows = u[k:k + SWEEP_BLOCK]
            _differences(rows, dx, fwd[:len(rows)], q[:len(rows)])
        yb = first_moment(m_slice, xs, dx) if prob.uses_mean else 0.0
        return prob.drift(xs, yb, q[i])

    for it in range(1, max_iter + 1):
        u = m = None    # free the previous iterate before the next sweep
        u = solve_hjb_backward(z[:nY], prob, grid, tgrid, qbar=z[nY:] if mfc else None)
        m = solve_fp_forward(drift_fn, prob.sigma, m0, grid, tgrid)
        f = _statistics(u, m, x, prob.uses_mean, mfc) - z
        delta = float(np.max(np.abs(f))) if f.size else 0.0
        history.append(delta)
        if delta < tol:
            return PDEFields(u=u, m=m, grid=grid, tgrid=tgrid,
                             iterations=it, history=history)
        if z_prev is not None:
            dZ.append(z - z_prev)
            dF.append(f - f_prev)
        z_prev, f_prev = z, f
        z = z + damping * f
        if dF:
            Fm, Zm = np.column_stack(dF), np.column_stack(dZ)
            gamma = np.linalg.lstsq(Fm, f, rcond=None)[0]
            z -= (Zm + damping * Fm) @ gamma
    raise NonConvergence(history)


# ---------------------------------------------------------------------------
# cross-validation against the Riccati machinery

def cross_validate_lq(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                      pde: PDEFields) -> dict:
    """Compare the PDE u and the Riccati-built reference over the central
    subdomain |x| <= x_max / 2, and the density's first moment against the
    mean ODE."""
    grid, tgrid = pde.grid, pde.tgrid
    x, dx = grid.nodes(), grid.dx
    half = 0.5 * max(abs(grid.x_min), abs(grid.x_max))
    mask = np.abs(x) <= half

    y0 = np.array([first_moment(pde.m[0], x, dx)])
    flow = mv.mean_flow_ode(model, sol, y0, tgrid)[:, 0]

    # Blocks of CROSSVAL_ROWS time nodes at once, with eval_at's weights.
    # Each term keeps the per-node grouping, yb ** 2 stays a Python float
    # power, and the rows are contiguous so that each row's sum and mean
    # reduce as a 1-D array's would.
    times = tgrid.nodes()
    at = lambda v: ric._interp(v, sol.grid, times)[:, None]
    P, Sig, yb = at(sol.P[:, 0, 0]), at(sol.Sigma[:, 0, 0]), flow[:, None]
    if sol.kind == "MFG":
        Gam, mu = at(sol.Gamma[:, 0, 0]), at(sol.mu)
        yb2 = np.array([y ** 2 for y in flow.tolist()])[:, None]
    xm = x[mask]
    xm2 = xm ** 2
    sup = l2 = 0.0
    for j in range(0, len(times), CROSSVAL_ROWS):
        r = slice(j, j + CROSSVAL_ROWS)
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
    moment_err = float(np.max(np.abs(
        np.array([first_moment(pde.m[k], x, dx) for k in range(len(times))]) - flow)))
    return {"sup_diff": sup, "l2_diff": float(np.sqrt(l2)), "mean_flow_diff": moment_err}


def gaussian_density(grid: SpaceGrid1D, mean: float, std: float) -> np.ndarray:
    if not np.isfinite(mean):
        raise ValueError(f"initial density mean must be finite, got {mean}")
    if not 0.0 < std < np.inf:
        raise ValueError(f"initial density std must be finite and > 0, got {std}")
    x = grid.nodes()
    m = np.exp(-0.5 * ((x - mean) / std) ** 2)
    return m / (np.sum(m) * grid.dx)
