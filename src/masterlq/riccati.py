"""Backward matrix Riccati systems for the LQ mean-field problems.

Two backward systems on [0, T]:

MFC (value function V = 1/2 E X*PX + 1/2 (EX)* Sigma EX + lambda):
    P'     + PA + A*P - P BRB P + Q + Qbar = 0
    Sigma' + Sigma M + M* Sigma - Sigma BRB Sigma
           + S*Qbar S - Qbar S - S*Qbar + P Abar + Abar* P = 0,
           with M = A + Abar - BRB P
    lambda' + 1/2 sigma^2 tr P + 1/2 beta^2 tr(P + Sigma) = 0

MFG (bivariate field U = 1/2 x*Px + x*Sigma EX + 1/2 EX*Gamma EX + mu):
    P'     same as above
    Sigma' + Sigma M + (A* - P BRB) Sigma - Sigma BRB Sigma - Qbar S + P Abar = 0
    Gamma' + Gamma N + N* Gamma + S*Qbar S - Sigma BRB Sigma
           + Sigma Abar + Abar* Sigma = 0, with N = A + Abar - BRB (P + Sigma)
    mu' + (beta^2 + sigma^2)/2 tr P + beta^2/2 tr Gamma + beta^2 tr Sigma = 0

Integrated by fixed-step classical RK4 on a uniform grid, on one packed
state vector [P, Sigma, (Gamma,) lambda or mu] per node, with per-step
symmetrization of P (and of Sigma in the MFC case only: MFG Sigma is
genuinely non-symmetric unless Abar = 0 and Qbar S = S* Qbar).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .lq_model import SYM_TOL, LQModelSpec

BLOWUP_THRESHOLD = 1e12


class RiccatiBlowUp(RuntimeError):
    """Finite-escape detected before reaching t = 0."""

    def __init__(self, escape_time: float):
        self.escape_time = escape_time
        super().__init__(f"Riccati solution exceeds {BLOWUP_THRESHOLD:.0e} near t = {escape_time:.6g}")


class NumericalFailure(RuntimeError):
    """Non-finite value produced by the integrator."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"non-finite value at node {node}")


@dataclass(frozen=True)
class TimeGrid:
    T: float
    K: int

    def __post_init__(self):
        if self.K < 1 or not 0.0 < self.T < np.inf:
            raise ValueError(f"need K >= 1 and a finite horizon T > 0, got K={self.K}, T={self.T}")

    @property
    def h(self) -> float:
        return self.T / self.K

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.K + 1)


@dataclass
class RiccatiSolution:
    kind: str                      # "MFC" | "MFG"
    grid: TimeGrid
    P: np.ndarray                  # (K+1, n, n)
    Sigma: np.ndarray              # (K+1, n, n)
    lam: np.ndarray | None = None    # (K+1,), MFC
    Gamma: np.ndarray | None = None  # (K+1, n, n), MFG
    mu: np.ndarray | None = None     # (K+1,), MFG
    # ODE right-hand sides at the nodes, stored at solve time.  Residual
    # checks interpolate these instead of re-deriving them from (possibly
    # tampered) node values, which is what makes corruption detectable.
    dP: np.ndarray = field(default=None, repr=False)
    dSigma: np.ndarray = field(default=None, repr=False)
    dGamma: np.ndarray = field(default=None, repr=False)
    dmu: np.ndarray = field(default=None, repr=False)


def _mfc_rhs(model: LQModelSpec):
    A, Abar, Q, Qbar, S = model.A, model.Abar, model.Q, model.Qbar, model.S
    BRB = model.BRB()
    # State-independent products, formed as the rhs expressions group them,
    # so hoisting them leaves every result bit unchanged.
    AAbar, AT, AbarT = A + Abar, A.T, Abar.T
    STQbar = S.T @ Qbar
    STQbarS, QbarS = STQbar @ S, Qbar @ S
    ca, cb = 0.5 * model.sigma ** 2, 0.5 * model.beta ** 2
    n = model.n
    nn = n * n

    def make_rhs(y, out):
        P, Sig = y[:nn].reshape(n, n), y[nn:2 * nn].reshape(n, n)
        dP, dSig = out[:nn].reshape(n, n), out[nn:2 * nn].reshape(n, n)
        dgP, dgS = P.diagonal(), Sig.diagonal()

        def rhs(t):
            M = AAbar - BRB @ P
            np.negative(P @ A + AT @ P - P @ BRB @ P + Q + Qbar, out=dP)
            np.negative(Sig @ M + M.T @ Sig - Sig @ BRB @ Sig
                        + STQbarS - QbarS - STQbar
                        + P @ Abar + AbarT @ P, out=dSig)
            out[-1] = -(ca * dgP.sum() + cb * (dgP + dgS).sum())

        return rhs

    return make_rhs


def _mfg_rhs(model: LQModelSpec):
    A, Abar, Q, Qbar, S = model.A, model.Abar, model.Q, model.Qbar, model.S
    BRB = model.BRB()
    AAbar, AT, AbarT = A + Abar, A.T, Abar.T
    STQbarS, QbarS = (S.T @ Qbar) @ S, Qbar @ S
    a, b2 = model.sigma ** 2, model.beta ** 2
    cP, cG = 0.5 * (b2 + a), 0.5 * b2
    n = model.n
    nn = n * n

    def make_rhs(y, out):
        P, Sig, Gam = (y[i * nn:(i + 1) * nn].reshape(n, n) for i in range(3))
        dP, dSig, dGam = (out[i * nn:(i + 1) * nn].reshape(n, n) for i in range(3))
        dgP, dgS, dgG = P.diagonal(), Sig.diagonal(), Gam.diagonal()

        def rhs(t):
            PB = P @ BRB
            SBS = Sig @ BRB @ Sig
            M = AAbar - BRB @ P
            N = AAbar - BRB @ (P + Sig)
            np.negative(P @ A + AT @ P - PB @ P + Q + Qbar, out=dP)
            np.negative(Sig @ M + (AT - PB) @ Sig - SBS - QbarS + P @ Abar, out=dSig)
            np.negative(Gam @ N + N.T @ Gam + STQbarS - SBS + Sig @ Abar + AbarT @ Sig, out=dGam)
            out[-1] = -(cP * dgP.sum() + cG * dgG.sum() + b2 * dgS.sum())

        return rhs

    return make_rhs


def _integrate(make_rhs, y0, t0: float, h: float, K: int, sym: int):
    """K classical RK4 steps of signed size h from (t0, y0) on one packed
    float64 state vector, with per-step symmetrization and blow-up detection.

    y0 is the tuple of state blocks (arrays or scalars), packed in order;
    the first `sym` blocks are n x n matrices that each step symmetrizes.
    make_rhs(y, out) returns rhs(t), which reads the state from the vector y
    and writes its derivative into the vector out.  The steps run forward
    from t = 0 (h > 0) or backward from t = K|h| (h < 0).  Returns the
    (K+1, L) node array and the rhs at each node, row i at grid node i
    counted from t = 0; a NumericalFailure names the node the same way.
    The rhs at a node is the next step's first stage, so K steps make
    4K + 1 calls.
    """
    blocks = [np.asarray(b, dtype=float) for b in y0]
    ends = np.cumsum([b.size for b in blocks]).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    Y, D = np.empty((K + 1, ends[-1])), np.empty((K + 1, ends[-1]))
    u, f, k2, k3 = (np.empty(ends[-1]) for _ in range(4))
    n = blocks[0].shape[0]
    square = u[:sym * n * n].reshape(sym, n, n)
    square_T = square.transpose(0, 2, 1)
    rhs = make_rhs(u, f)
    step, i = (1, 0) if h > 0 else (-1, K)
    u[:] = np.concatenate([b.ravel() for b in blocks])
    rhs(t0)
    Y[i], D[i] = u, f
    t = t0
    for _ in range(K):
        y, k1 = Y[i], D[i]
        np.add(y, (0.5 * h) * k1, out=u)
        rhs(t + 0.5 * h)
        k2[:] = f
        np.add(y, (0.5 * h) * k2, out=u)
        rhs(t + 0.5 * h)
        k3[:] = f
        np.add(y, h * k3, out=u)
        rhs(t + h)
        # (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right; f holds k4
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += f
        k2 *= h / 6.0
        np.add(y, k2, out=u)
        if sym:
            np.multiply(0.5, square + square_T, out=square)
        t += h
        i += step
        if not np.abs(u).max() <= BLOWUP_THRESHOLD:    # NaN compares false
            for a, b in bounds:                        # first failing block decides
                m = np.abs(u[a:b]).max()
                if not m <= BLOWUP_THRESHOLD:
                    raise NumericalFailure(i) if not np.isfinite(m) else RiccatiBlowUp(t)
        rhs(t)
        Y[i], D[i] = u, f
    return Y, D


def _split(A: np.ndarray, n: int, names: tuple) -> dict:
    """Views of the packed (K+1, L) rows by name: (K+1, n, n) matrices, then
    the scalar column (left out when its name is None)."""
    nn = n * n
    *mats, scalar = names
    out = {name: A[:, j * nn:(j + 1) * nn].reshape(-1, n, n) for j, name in enumerate(mats)}
    if scalar:
        out[scalar] = A[:, -1]
    return out


def solve_mfc(model: LQModelSpec, grid: TimeGrid) -> RiccatiSolution:
    """Solve the MFC system (P, Sigma, lambda) backward from t = T."""
    ST, QbT = model.ST, model.QbarT
    P_T = model.QT + QbT
    Sig_T = ST.T @ QbT @ ST - (ST.T @ QbT + QbT @ ST)
    Y, D = _integrate(_mfc_rhs(model), (P_T, Sig_T, 0.0), grid.T, -grid.h, grid.K, 2)
    return RiccatiSolution(kind="MFC", grid=grid,
                           **_split(Y, model.n, ("P", "Sigma", "lam")),
                           **_split(D, model.n, ("dP", "dSigma", None)))


def solve_mfg(model: LQModelSpec, grid: TimeGrid) -> RiccatiSolution:
    """Solve the MFG system (P, Sigma, Gamma, mu) backward from t = T.
    Only P is symmetrized: MFG Sigma asymmetry is a feature, not roundoff."""
    ST, QbT = model.ST, model.QbarT
    state = (model.QT + QbT, -QbT @ ST, ST.T @ QbT @ ST, 0.0)
    Y, D = _integrate(_mfg_rhs(model), state, grid.T, -grid.h, grid.K, 1)
    return RiccatiSolution(kind="MFG", grid=grid,
                           **_split(Y, model.n, ("P", "Sigma", "Gamma", "mu")),
                           **_split(D, model.n, ("dP", "dSigma", "dGamma", "dmu")))


@dataclass(frozen=True)
class SymmetryDiagnosis:
    terminal_commutes: bool    # QbarT ST = ST* QbarT
    running_commutes: bool     # Qbar S = S* Qbar
    abar_zero: bool
    self_adjoint_possible: bool


def check_symmetry_conditions(model: LQModelSpec) -> SymmetryDiagnosis:
    """Diagnose whether a self-adjoint MFG master field can exist."""
    t_ok = np.max(np.abs(model.QbarT @ model.ST - model.ST.T @ model.QbarT)) <= SYM_TOL
    r_ok = np.max(np.abs(model.Qbar @ model.S - model.S.T @ model.Qbar)) <= SYM_TOL
    a_ok = np.max(np.abs(model.Abar)) <= SYM_TOL
    return SymmetryDiagnosis(bool(t_ok), bool(r_ok), bool(a_ok), bool(t_ok and r_ok and a_ok))


def _interp(values: np.ndarray, grid: TimeGrid, t):
    """Linear interpolation of the node values at time t, or at each time of
    a 1-D array t (one result row per time, each with the scalar weights)."""
    if isinstance(t, np.ndarray):
        if not np.all((0.0 <= t) & (t <= grid.T + 1e-12)):
            raise ValueError(f"times outside [0, {grid.T}]")
        s = np.minimum(t, grid.T) / grid.h
        k = np.minimum(np.floor(s).astype(int), grid.K - 1)
        w = (s - k).reshape((-1,) + (1,) * (values.ndim - 1))
        return (1.0 - w) * values[k] + w * values[k + 1]
    if not 0.0 <= t <= grid.T + 1e-12:
        raise ValueError(f"t = {t} outside [0, {grid.T}]")
    s = min(t, grid.T) / grid.h
    k = min(int(np.floor(s)), grid.K - 1)
    w = s - k
    return (1.0 - w) * values[k] + w * values[k + 1]


def eval_at(sol: RiccatiSolution, t: float) -> dict:
    """Linear interpolation of all solution components at time t."""
    out = {"P": _interp(sol.P, sol.grid, t), "Sigma": _interp(sol.Sigma, sol.grid, t)}
    if sol.kind == "MFC":
        out["lam"] = float(_interp(sol.lam, sol.grid, t))
    else:
        out["Gamma"] = _interp(sol.Gamma, sol.grid, t)
        out["mu"] = float(_interp(sol.mu, sol.grid, t))
    return out


def deriv_at(sol: RiccatiSolution, t: float) -> dict:
    """Interpolated solve-time ODE right-hand sides (time derivatives)."""
    out = {"dP": _interp(sol.dP, sol.grid, t), "dSigma": _interp(sol.dSigma, sol.grid, t)}
    if sol.kind == "MFG":
        out["dGamma"] = _interp(sol.dGamma, sol.grid, t)
        out["dmu"] = float(_interp(sol.dmu, sol.grid, t))
    return out


def _write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    """One header row, then one row per table row, every float as its repr
    so that it reads back exactly.  A repr never needs csv quoting, so the
    rows are joined by hand, in the csv module's bytes and \\r\\n line ends.
    Rows are converted one at a time: a whole-table tolist() would hold a
    Python float per cell at once."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in table)


def to_csv(sol: RiccatiSolution, path: str) -> None:
    """One row per node: t, P_ij row-major, Sigma_ij, then lambda or (Gamma_ij, mu)."""
    n = sol.P.shape[1]
    ij = [(i, j) for i in range(n) for j in range(n)]
    header = ["t"] + [f"P_{i}{j}" for i, j in ij] + [f"Sigma_{i}{j}" for i, j in ij]
    cols = [sol.grid.nodes(), sol.P, sol.Sigma]
    if sol.kind == "MFC":
        header += ["lambda"]
        cols += [sol.lam]
    else:
        header += [f"Gamma_{i}{j}" for i, j in ij] + ["mu"]
        cols += [sol.Gamma, sol.mu]
    _write_csv(path, header, np.hstack([c.reshape(sol.grid.K + 1, -1) for c in cols]))
