"""1D finite-difference solver for the coupled HJB / Fokker-Planck systems.

Backward HJB (value u) and forward FP (density m) on a truncated interval,
coupled through the first moment of m (the only measure statistic the LQ
data sees) and solved by damped Picard iteration:

    -du/dt - (sigma^2/2) u_xx = H(x, ybar, u_x)   [+ measure term, MFC]
     dm/dt - (sigma^2/2) m_xx + (G m)_x = 0

Scheme: diffusion implicit (LU-factored once per sweep, one tridiagonal
solve per step), advection / Hamiltonian gradient explicit with sign-of-
velocity upwinding.  Boundaries: zero-flux (reflecting) for m, one-sided
differences for u.  Each density slice is renormalized to unit mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import lq_model as lq
from . import riccati as ric
from . import master_verifier as mv


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
        if self.x_min >= self.x_max:
            raise ValueError("x_min must be below x_max")
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
    used for the MFC variant): term(x) = dHdm_coeff(ybar, qbar) * x.
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


def problem_from_lq(model: lq.LQModelSpec) -> Problem1D:
    if model.n != 1 or model.d != 1:
        raise ValueError("FD solver handles scalar (n = d = 1) models only")
    A = float(model.A[0, 0]); Ab = float(model.Abar[0, 0])
    Q = float(model.Q[0, 0]); Qb = float(model.Qbar[0, 0]); S = float(model.S[0, 0])
    QT = float(model.QT[0, 0]); QbT = float(model.QbarT[0, 0]); ST = float(model.ST[0, 0])
    BRB = float(model.BRB()[0, 0])

    def ham(x, y, q):
        return (0.5 * (Q + Qb) * x * x - Qb * S * x * y + 0.5 * S * Qb * S * y * y
                - 0.5 * BRB * q * q + q * (A * x + Ab * y))

    def drift(x, y, q):
        return A * x + Ab * y - BRB * q

    def terminal(x, y):
        return 0.5 * (QT * x * x + QbT * (x - ST * y) ** 2)

    def dHdm_coeff(y, qbar):
        return -y * Qb * S + y * S * Qb * S + qbar * Ab

    return Problem1D(hamiltonian=ham, drift=drift, terminal=terminal,
                     sigma=model.sigma, T=model.T, dHdm_coeff=dHdm_coeff)


def terminal_mfc_lq(model: lq.LQModelSpec, x: np.ndarray, y: float) -> np.ndarray:
    """h + measure-derivative correction, the MFC terminal slice."""
    QT = float(model.QT[0, 0]); QbT = float(model.QbarT[0, 0]); ST = float(model.ST[0, 0])
    return (0.5 * (QT * x * x + QbT * (x - ST * y) ** 2)
            - (y - ST * y) * QbT * ST * x)


def cosine_demo(sigma: float = 0.5, T: float = 0.5, kappa: float = 0.5) -> Problem1D:
    """Non-LQ demonstration: quadratic control cost with a cosine potential."""
    def ham(x, y, q):
        return -0.5 * q * q + kappa * (1.0 - np.cos(x)) + np.zeros_like(x) * y

    def drift(x, y, q):
        return -q + np.zeros_like(x)

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
    return float(m.sum() * dx)


def _check_cfl(vel: np.ndarray, dt: float, dx: float, k: int) -> None:
    courant = float(np.abs(vel).max()) * dt / dx
    if courant > 1.0:
        raise CFLViolation(courant, dt, dx)
    if not courant <= 1.0:      # NaN velocity
        raise ric.NumericalFailure(k)


def _upwind_divergence(G: np.ndarray, m: np.ndarray, dx: float) -> np.ndarray:
    """(G m)_x with donor-cell upwind fluxes and zero boundary flux."""
    Gf = 0.5 * (G[:-1] + G[1:])
    flux = np.where(Gf > 0.0, Gf * m[:-1], Gf * m[1:])
    div = np.zeros_like(m)
    div[0] = flux[0] / dx
    div[1:-1] = (flux[1:] - flux[:-1]) / dx
    div[-1] = -flux[-1] / dx
    return div


def _differences(u: np.ndarray, dx: float, fwd: np.ndarray, central: np.ndarray) -> None:
    """Forward differences (u[j+1] - u[j]) / dx into fwd, and np.gradient(u, dx)
    into central: second order inside, the one-sided fwd values at the ends."""
    np.subtract(u[1:], u[:-1], out=fwd)
    fwd /= dx
    np.subtract(u[2:], u[:-2], out=central[1:-1])
    central[1:-1] /= 2.0 * dx
    central[0] = fwd[0]
    central[-1] = fwd[-1]


def first_moment(m: np.ndarray, x: np.ndarray, dx: float) -> float:
    return float((x * m).sum() * dx / max(_mass(m, dx), 1e-300))


# ---------------------------------------------------------------------------
# forward / backward sweeps

def solve_fp_forward(drift_fn, sigma: float, m0: np.ndarray,
                     grid: SpaceGrid1D, tgrid: ric.TimeGrid) -> np.ndarray:
    """Forward FP sweep.  drift_fn(k, x, m_slice) -> G at time node k.

    Semi-implicit: diffusion implicit with reflecting boundaries, advection
    explicit donor-cell upwind.  Each slice is renormalized to unit mass.
    Raises CFLViolation (Courant > 1) or NumericalFailure (non-finite value).
    """
    if sigma <= 0.0:
        raise ValueError("sigma > 0 required")
    x, dx, dt = grid.nodes(), grid.dx, tgrid.h
    nu = 0.5 * sigma ** 2
    lu = _diffusion_lu(_diffusion_banded(nu * dt, dx, grid.Nx, neumann=True))
    m = np.empty((tgrid.K + 1, grid.Nx))
    m[0] = np.maximum(m0, 0.0)
    m[0] /= _mass(m[0], dx)
    for k in range(tgrid.K):
        G = drift_fn(k, x, m[k])
        _check_cfl(G, dt, dx, k)
        nxt = m[k + 1]
        np.subtract(m[k], dt * _upwind_divergence(G, m[k], dx), out=nxt)
        dgttrs(*lu, nxt, overwrite_b=1)
        np.maximum(nxt, 0.0, out=nxt)
        mass = _mass(nxt, dx)
        if not 0.0 < mass < np.inf:     # a NaN, infinite or all-zero slice
            raise ric.NumericalFailure(k + 1)
        nxt /= mass
    return m


def solve_hjb_backward(m: np.ndarray, prob: Problem1D, grid: SpaceGrid1D,
                       tgrid: ric.TimeGrid, mfc_extra: bool = False,
                       terminal_override: np.ndarray | None = None) -> np.ndarray:
    """Backward HJB sweep given the full density array m[(Nt+1), Nx].
    Raises CFLViolation (Courant > 1) or NumericalFailure (non-finite value)."""
    if mfc_extra and prob.dHdm_coeff is None:
        raise ValueError("MFC variant needs the closed-form measure term")
    x, dx, dt = grid.nodes(), grid.dx, tgrid.h
    nu = 0.5 * prob.sigma ** 2
    # boundary rows carry u_xx = 0 (linear extrapolation)
    lu = _diffusion_lu(_diffusion_banded(nu * dt, dx, grid.Nx, neumann=False))
    u = np.empty_like(m)
    yT = first_moment(m[-1], x, dx) if prob.uses_mean else 0.0
    u[-1] = terminal_override if terminal_override is not None else prob.terminal(x, yT)
    fwd, q_c, q = np.empty(grid.Nx - 1), np.empty(grid.Nx), np.empty(grid.Nx)
    for k in range(tgrid.K - 1, -1, -1):
        yb = first_moment(m[k], x, dx) if prob.uses_mean else 0.0
        _differences(u[k + 1], dx, fwd, q_c)
        vel = prob.drift(x, yb, q_c)
        _check_cfl(vel, dt, dx, k)
        # upwind u_x: backward difference where vel > 0, forward elsewhere
        q[0] = fwd[0]
        q[1:-1] = np.where(vel[1:-1] > 0.0, fwd[:-1], fwd[1:])
        q[-1] = fwd[-1]
        H = prob.hamiltonian(x, yb, q)
        if mfc_extra:
            qbar = float((q_c * m[k]).sum() * dx)
            H = H + prob.dHdm_coeff(yb, qbar) * x
        nxt = u[k]
        np.add(u[k + 1], dt * H, out=nxt)
        dgttrs(*lu, nxt, overwrite_b=1)
        if not np.isfinite(nxt).all():
            raise ric.NumericalFailure(k)
    return u


def picard_solve(prob: Problem1D, grid: SpaceGrid1D, tgrid: ric.TimeGrid,
                 m0: np.ndarray, kind: str = "MFG", damping: float = 0.5,
                 max_iter: int = 200, tol: float = 1e-6,
                 terminal_override=None) -> PDEFields:
    """Damped Picard iteration on the density between HJB and FP sweeps."""
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if kind not in ("MFG", "MFC"):
        raise ValueError("kind must be MFG or MFC")
    x, dx = grid.nodes(), grid.dx
    m0 = np.maximum(np.asarray(m0, dtype=float), 0.0)
    m0 = m0 / _mass(m0, dx)
    m = np.tile(m0, (tgrid.K + 1, 1))
    history: list[float] = []
    fwd, q = np.empty(grid.Nx - 1), np.empty(grid.Nx)
    u = None

    def drift_fn(k, xs, m_slice):
        yb = first_moment(m_slice, xs, dx) if prob.uses_mean else 0.0
        _differences(u[k], dx, fwd, q)
        return prob.drift(xs, yb, q)

    for it in range(1, max_iter + 1):
        u = solve_hjb_backward(m, prob, grid, tgrid, mfc_extra=(kind == "MFC"),
                               terminal_override=terminal_override)

        m_new = solve_fp_forward(drift_fn, prob.sigma, m0, grid, tgrid)
        delta = float(np.max(np.abs(m_new - m)))
        history.append(delta)
        m = damping * m_new + (1.0 - damping) * m
        m /= np.sum(m, axis=1, keepdims=True) * dx
        if delta < tol:
            return PDEFields(u=u, m=m, grid=grid, tgrid=tgrid,
                             iterations=it, history=history)
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

    sup = 0.0
    l2 = 0.0
    times = tgrid.nodes()
    for k, t in enumerate(times):
        ev = ric.eval_at(sol, t)
        P = float(ev["P"][0, 0]); Sig = float(ev["Sigma"][0, 0])
        yb = flow[k]
        if sol.kind == "MFG":
            Gam = float(ev["Gamma"][0, 0])
            u_ref = 0.5 * P * x ** 2 + Sig * x * yb + 0.5 * Gam * yb ** 2 + ev["mu"]
            diff = pde.u[k] - u_ref
        else:
            # MFC u is pinned only up to an additive function of time
            u_ref = 0.5 * P * x ** 2 + Sig * x * yb
            diff = pde.u[k] - u_ref
            diff = diff - np.mean(diff[mask])
        sup = max(sup, float(np.max(np.abs(diff[mask]))))
        l2 += float(np.sum(diff[mask] ** 2) * dx) * tgrid.h
    moment_err = float(np.max(np.abs(
        np.array([first_moment(pde.m[k], x, dx) for k in range(len(times))]) - flow)))
    return {"sup_diff": sup, "l2_diff": float(np.sqrt(l2)), "mean_flow_diff": moment_err}


def gaussian_density(grid: SpaceGrid1D, mean: float, std: float) -> np.ndarray:
    x = grid.nodes()
    m = np.exp(-0.5 * ((x - mean) / std) ** 2)
    return m / (np.sum(m) * grid.dx)
