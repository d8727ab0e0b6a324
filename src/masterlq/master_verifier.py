"""Value functions, master fields, and LQ master-equation residuals.

All residuals assemble the master-equation terms independently, term by
term, and take the time derivative of the ansatz from the solve-time ODE
right-hand sides stored on the RiccatiSolution.  A correct solve makes the
terms cancel to roundoff; tampering with the stored P or Sigma nodes leaves
the stored derivatives untouched and the residual picks up the corruption.
"""

from __future__ import annotations

import numpy as np

from . import lq_model as lq
from . import riccati as ric

TIME_PANEL_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0 - 1e-9)


def time_panel(T: float) -> list[float]:
    return [f * T for f in TIME_PANEL_FRACTIONS]


def eval_value(sol: ric.RiccatiSolution, X: np.ndarray, t: float) -> float:
    """MFC value V = 1/2 E X*PX + 1/2 (EX)* Sigma EX + lambda, empirically."""
    if sol.kind != "MFC":
        raise ValueError("eval_value requires an MFC solution")
    ev = ric.eval_at(sol, t)
    X = np.atleast_2d(X)
    yb = X.mean(axis=0)
    quad = float(np.mean(lq._quad(X, ev["P"])))
    return 0.5 * quad + 0.5 * float(yb @ ev["Sigma"] @ yb) + ev["lam"]


def _drift_matrix(AAbar: np.ndarray, BRB: np.ndarray, P: np.ndarray,
                  Sig: np.ndarray) -> np.ndarray:
    """A + Abar - BRB (P + Sigma), for one (P, Sigma) or for stacks of them;
    AAbar = A + Abar and BRB = B R^{-1} B*."""
    return AAbar - BRB @ (P + Sig)


def _linear_field_terms(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                        X: np.ndarray, t: float):
    """For the field U(X) = PX + Sigma EX on the rows of X: the mean ybar,
    U, D U(X) G(X) with G the optimal drift (D U(X) Z = PZ + Sigma EZ),
    D_x H(x, ybar, U) and dU/dt from the stored derivatives."""
    ev = ric.eval_at(sol, t)
    P, Sig = ev["P"], ev["Sigma"]
    X = np.atleast_2d(X)
    yb = X.mean(axis=0)
    U = X @ P.T + yb @ Sig.T
    G = lq.drift_G(X, yb, U, model)
    DU_G = G @ P.T + G.mean(axis=0) @ Sig.T
    DxH = lq.dx_hamiltonian(X, yb, U, model)
    dU = X @ ev["dP"].T + yb @ ev["dSigma"].T
    return yb, U, DU_G, DxH, dU


def residual_master_mfc(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                        X: np.ndarray, t: float) -> dict:
    """Residual of the MFC master equation for the linear field ansatz.

    For U(X) = PX + Sigma EX the second-derivative noise terms vanish
    identically; the remaining terms are linear in (x, ybar) and are
    assembled directly from the equation, not from the ODE grouping.
    """
    if sol.kind != "MFC":
        raise ValueError("kind mismatch: need MFC solution")
    yb, U, DU_G, DxH, dU = _linear_field_terms(model, sol, X, t)
    copy = lq.measure_term(yb, U.mean(axis=0), model)
    resid = dU + DU_G + DxH + copy
    norm = float(np.max(np.linalg.norm(resid, axis=1)))
    return {
        "residual_norm": norm,
        "term_breakdown": {
            "dU_dt": float(np.max(np.abs(dU))),
            "DU_times_G": float(np.max(np.abs(DU_G))),
            "Dx_H": float(np.max(np.abs(DxH))),
            "measure_copy_term": float(np.max(np.abs(copy))),
        },
    }


def residual_master_mfg_gradient(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                                 X: np.ndarray, t: float) -> dict:
    """Residual of the MFG gradient-form master equation, plus the
    self-adjointness violation of D U (max asymmetry of Sigma over nodes)."""
    if sol.kind != "MFG":
        raise ValueError("kind mismatch: need MFG solution")
    _, _, DU_G, DxH, dU = _linear_field_terms(model, sol, X, t)
    resid = dU + DU_G + DxH
    sym_violation = float(np.max(np.abs(sol.Sigma - np.swapaxes(sol.Sigma, 1, 2))))
    return {
        "residual_norm": float(np.max(np.linalg.norm(resid, axis=1))),
        "symmetry_violation": sym_violation,
    }


def residual_master_mfg_scalar(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                               X: np.ndarray, t: float) -> dict:
    """Residual of the MFG master equation for the scalar-valued field
    U(x, X, t) = 1/2 x*Px + x*Sigma EX + 1/2 EX*Gamma EX + mu, at each row
    x of X with EX the mean of the rows.  The equation holds at any n and
    at any EX; this is the one residual that reads Gamma, mu and the
    common-noise terms.  The Gaussian term D_X^2 U (Gamma_w, Gamma_w) is
    zero (E[N] = 0) and has no entry."""
    if sol.kind != "MFG":
        raise ValueError("kind mismatch: need MFG solution with Gamma, mu")
    ev = ric.eval_at(sol, t)
    P, Sig, Gam = ev["P"], ev["Sigma"], ev["Gamma"]
    s2, b2 = model.sigma ** 2, model.beta ** 2
    X = np.atleast_2d(X)
    yb = X.mean(axis=0)
    mean_flow = _drift_matrix(model.A + model.Abar, model.BRB(), P, Sig) @ yb
    terms = {
        "dU_dt": (0.5 * lq._quad(X, ev["dP"]) + X @ (ev["dSigma"] @ yb)
                  + 0.5 * yb @ ev["dGamma"] @ yb + ev["dmu"]),
        "laplacian_x": 0.5 * (s2 + b2) * np.trace(P),
        "ek_sum": 0.5 * b2 * np.trace(Gam),
        "divergence": b2 * np.trace(Sig),
        "DXU_inner": X @ (Sig @ mean_flow) + Gam @ yb @ mean_flow,   # (Sigma*x + Gamma EX).flow
        "quadratic_form": lq.hamiltonian(X, yb, X @ P.T + yb @ Sig.T, model),
    }
    resid = sum(terms.values())
    return {
        "residual_norm": float(np.max(np.abs(resid))),
        "term_breakdown": {name: float(np.max(np.abs(v))) for name, v in terms.items()},
    }


def mean_flow_ode(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                  y0: np.ndarray, grid: ric.TimeGrid) -> np.ndarray:
    """The mean flow dy/dt = a(t) y, a = A + Abar - BRB (P + Sigma), from
    y(0) = y0, at the nodes of grid: a (K+1, 1) array.  n = 1 only.

    a is the linear interpolant of its values a_j at sol's nodes, as eval_at
    gives P and Sigma, and the flow is exact for it: y(t) = y0 exp(int_0^t a),
    the integral being C_k + h w (a_k + w (a_{k+1} - a_k) / 2) at the time
    that lies at node k of sol's grid plus the fraction w of its step h, with
    C_k the trapezoid sum of a over [0, t_k]."""
    if model.n != 1:
        raise ValueError(f"mean_flow_ode solves n = 1 only, got n = {model.n}")
    a = _drift_matrix(model.A + model.Abar, model.BRB(), sol.P, sol.Sigma)[:, 0, 0]
    h = sol.grid.h
    C = np.concatenate([[0.0], np.cumsum(0.5 * h * (a[:-1] + a[1:]))])
    k, w = ric._locate(sol.grid, grid.nodes())
    integral = C[k] + h * w * (a[k] + 0.5 * w * (a[k + 1] - a[k]))
    return np.exp(integral)[:, None] * y0


def seeded_state_panel(n: int, count: int, seed: int) -> np.ndarray:
    """count rows from N(1, I): a mean away from 0 lets residuals see Gamma (1/2 EX*Gamma EX)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal((count, n)) + 1.0
