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

Integrated by fixed-step classical RK4 on a uniform grid, with per-step
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


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _mfc_rhs(model: LQModelSpec):
    A, Abar, Q, Qbar, S = model.A, model.Abar, model.Q, model.Qbar, model.S
    BRB = model.BRB()
    # State-independent products, formed as the rhs expressions group them,
    # so hoisting them leaves every result bit unchanged.
    AAbar, AT, AbarT = A + Abar, A.T, Abar.T
    STQbar = S.T @ Qbar
    STQbarS, QbarS = STQbar @ S, Qbar @ S
    ca, cb = 0.5 * model.sigma ** 2, 0.5 * model.beta ** 2

    def rhs(t, state):
        P, Sig, _ = state
        M = AAbar - BRB @ P
        dP = -(P @ A + AT @ P - P @ BRB @ P + Q + Qbar)
        dSig = -(Sig @ M + M.T @ Sig - Sig @ BRB @ Sig
                 + STQbarS - QbarS - STQbar
                 + P @ Abar + AbarT @ P)
        dlam = -(ca * P.trace() + cb * (P + Sig).trace())
        return dP, dSig, dlam

    return rhs


def _mfg_rhs(model: LQModelSpec):
    A, Abar, Q, Qbar, S = model.A, model.Abar, model.Q, model.Qbar, model.S
    BRB = model.BRB()
    AAbar, AT, AbarT = A + Abar, A.T, Abar.T
    STQbarS, QbarS = (S.T @ Qbar) @ S, Qbar @ S
    a, b2 = model.sigma ** 2, model.beta ** 2
    cP, cG = 0.5 * (b2 + a), 0.5 * b2

    def rhs(t, state):
        P, Sig, Gam, _ = state
        PB = P @ BRB
        SBS = Sig @ BRB @ Sig
        M = AAbar - BRB @ P
        N = AAbar - BRB @ (P + Sig)
        dP = -(P @ A + AT @ P - PB @ P + Q + Qbar)
        dSig = -(Sig @ M + (AT - PB) @ Sig - SBS - QbarS + P @ Abar)
        dGam = -(Gam @ N + N.T @ Gam + STQbarS - SBS + Sig @ Abar + AbarT @ Sig)
        dmu = -(cP * P.trace() + cG * Gam.trace() + b2 * Sig.trace())
        return dP, dSig, dGam, dmu

    return rhs


def _integrate(rhs, state, t0: float, h: float, K: int, symmetrize):
    """K classical RK4 steps of signed size h from (t0, state), over a
    tuple-valued state, with per-step symmetrization and blow-up detection.

    The steps run forward from t = 0 (h > 0) or backward from t = K|h|
    (h < 0); a NumericalFailure names the grid node, counted from t = 0.
    Returns the nodes and the rhs at each node, in step order.  The rhs at
    a node is the next step's first stage, so K steps make 4K + 1 calls.
    """
    nodes = [state]
    derivs = [rhs(t0, state)]
    t = t0
    for k in range(K):
        k1 = derivs[-1]
        k2 = rhs(t + 0.5 * h, _axpy(state, k1, 0.5 * h))
        k3 = rhs(t + 0.5 * h, _axpy(state, k2, 0.5 * h))
        k4 = rhs(t + h, _axpy(state, k3, h))
        state = symmetrize(tuple(s + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
                                 for s, c1, c2, c3, c4 in zip(state, k1, k2, k3, k4)))
        t += h
        for comp in state:
            m = np.abs(comp).max()
            if not m <= BLOWUP_THRESHOLD:    # NaN compares false
                node = k + 1 if h > 0 else K - 1 - k
                raise NumericalFailure(node) if not np.isfinite(m) else RiccatiBlowUp(t)
        nodes.append(state)
        derivs.append(rhs(t, state))
    return nodes, derivs


def _axpy(state, direction, scale):
    return tuple(s + scale * d for s, d in zip(state, direction))


def solve_mfc(model: LQModelSpec, grid: TimeGrid) -> RiccatiSolution:
    """Solve the MFC system (P, Sigma, lambda) backward from t = T."""
    ST, QbT = model.ST, model.QbarT
    P_T = model.QT + QbT
    Sig_T = ST.T @ QbT @ ST - (ST.T @ QbT + QbT @ ST)
    state = (P_T, Sig_T, 0.0)

    def symmetrize(s):
        return (_sym(s[0]), _sym(s[1]), s[2])

    nodes, derivs = _integrate(_mfc_rhs(model), state, grid.T, -grid.h, grid.K, symmetrize)
    nodes.reverse()
    derivs.reverse()
    return RiccatiSolution(
        kind="MFC", grid=grid,
        P=np.array([s[0] for s in nodes]),
        Sigma=np.array([s[1] for s in nodes]),
        lam=np.array([s[2] for s in nodes]),
        dP=np.array([d[0] for d in derivs]),
        dSigma=np.array([d[1] for d in derivs]),
    )


def solve_mfg(model: LQModelSpec, grid: TimeGrid) -> RiccatiSolution:
    """Solve the MFG system (P, Sigma, Gamma, mu) backward from t = T."""
    ST, QbT = model.ST, model.QbarT
    state = (model.QT + QbT, -QbT @ ST, ST.T @ QbT @ ST, 0.0)

    def symmetrize(s):
        # only P; MFG Sigma asymmetry is a feature, not roundoff
        return (_sym(s[0]), s[1], s[2], s[3])

    nodes, derivs = _integrate(_mfg_rhs(model), state, grid.T, -grid.h, grid.K, symmetrize)
    nodes.reverse()
    derivs.reverse()
    return RiccatiSolution(
        kind="MFG", grid=grid,
        P=np.array([s[0] for s in nodes]),
        Sigma=np.array([s[1] for s in nodes]),
        Gamma=np.array([s[2] for s in nodes]),
        mu=np.array([s[3] for s in nodes]),
        dP=np.array([d[0] for d in derivs]),
        dSigma=np.array([d[1] for d in derivs]),
        dGamma=np.array([d[2] for d in derivs]),
        dmu=np.array([d[3] for d in derivs]),
    )


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


def _interp(values: np.ndarray, grid: TimeGrid, t: float):
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
    so that it reads back exactly.  Rows are converted one at a time: a
    whole-table tolist() would hold a Python float per cell at once."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in table:
            w.writerow(map(repr, row.tolist()))


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
