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
    quad = float(np.mean(np.einsum("ij,jk,ik->i", X, ev["P"], X)))
    return 0.5 * quad + 0.5 * float(yb @ ev["Sigma"] @ yb) + ev["lam"]


def _mean_drift(AAbar: np.ndarray, BRB: np.ndarray, P: np.ndarray, Sig: np.ndarray,
                y: np.ndarray) -> np.ndarray:
    """The mean flow's drift (A + Abar - BRB (P + Sigma)) y, i.e. E[G] for the
    linear field PX + Sigma EX; AAbar = A + Abar and BRB = B R^{-1} B*."""
    return (AAbar - BRB @ (P + Sig)) @ y


def _linear_field_terms(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                        X: np.ndarray, t: float):
    """For the field U(X) = PX + Sigma EX on the rows of X: the mean ybar,
    U, D U(X) G(X) with G the optimal drift (D U(X) Z = PZ + Sigma EZ),
    D_x H(x, ybar, U) and dU/dt from the stored derivatives."""
    ev, dv = ric.eval_at(sol, t), ric.deriv_at(sol, t)
    P, Sig = ev["P"], ev["Sigma"]
    X = np.atleast_2d(X)
    yb = X.mean(axis=0)
    U = X @ P.T + yb @ Sig.T
    G = lq.drift_G(X, yb, U, model)
    DU_G = G @ P.T + G.mean(axis=0) @ Sig.T
    DxH = lq.dx_hamiltonian(X, yb, U, model)
    dU = X @ dv["dP"].T + yb @ dv["dSigma"].T
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
    second_deriv_terms = np.zeros_like(U)   # identically zero for the linear ansatz
    resid = dU + second_deriv_terms + DU_G + DxH + copy
    norm = float(np.max(np.linalg.norm(resid, axis=1)))
    return {
        "residual_norm": norm,
        "term_breakdown": {
            "dU_dt": float(np.max(np.abs(dU))),
            "second_derivative_terms": float(np.max(np.abs(second_deriv_terms))),
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
                               x: np.ndarray, X: np.ndarray, t: float) -> dict:
    """Scalar bivariate master equation residual for the ansatz
    U(x, X, t) = 1/2 x*Px + x*Sigma EX + 1/2 EX*Gamma EX + mu."""
    if sol.kind != "MFG":
        raise ValueError("kind mismatch: need MFG solution with Gamma, mu")
    ev, dv = ric.eval_at(sol, t), ric.deriv_at(sol, t)
    P, Sig, Gam = ev["P"], ev["Sigma"], ev["Gamma"]
    s2, b2 = model.sigma ** 2, model.beta ** 2
    x = np.asarray(x, dtype=float).reshape(model.n)
    X = np.atleast_2d(X)
    yb = X.mean(axis=0)

    dU = (0.5 * x @ dv["dP"] @ x + x @ dv["dSigma"] @ yb
          + 0.5 * yb @ dv["dGamma"] @ yb + dv["dmu"])
    lap_x = 0.5 * (s2 + b2) * np.trace(P)
    d2X_gauss = 0.0                       # D_X^2 U (Gamma_w, Gamma_w): E[N] = 0
    ek_sum = 0.5 * b2 * np.trace(Gam)
    div_term = b2 * np.trace(Sig)
    DXU = Sig.T @ x + Gam @ yb
    mean_flow = _mean_drift(model.A + model.Abar, model.BRB(), P, Sig, yb)
    inner = float(DXU @ mean_flow)
    quad = lq.hamiltonian(x, yb, P @ x + Sig @ yb, model)
    terms = {
        "dU_dt": float(dU), "laplacian_x": float(lap_x),
        "D2X_gaussian": float(d2X_gauss), "ek_sum": float(ek_sum),
        "divergence": float(div_term), "DXU_inner": inner,
        "quadratic_form": float(quad),
    }
    resid = sum(terms.values())
    return {"residual": float(resid), "term_breakdown": terms}


def mean_flow_ode(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                  y0: np.ndarray, grid: ric.TimeGrid) -> np.ndarray:
    """RK4 on dy/dt = (A + Abar - BRB (P + Sigma)) y, forward from y(0)."""
    AAbar, BRB = model.A + model.Abar, model.BRB()

    def make_rhs(y, out):
        def rhs(t):
            out[:] = _mean_drift(AAbar, BRB, ric._interp(sol.P, sol.grid, t),
                                 ric._interp(sol.Sigma, sol.grid, t), y)
        return rhs

    y0 = np.asarray(y0, dtype=float).reshape(model.n)
    return ric._integrate(make_rhs, (y0,), 0.0, grid.h, grid.K, 0)[0]


def consistency_uncoupling(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                           y0: np.ndarray, x_pts: np.ndarray,
                           t_pts: np.ndarray | None = None) -> dict:
    """Check that u(x,t) = U(x, m(t), t) built along the mean flow solves
    the HJB side analytically for the quadratic ansatz.

    MFG: residual of -du/dt + Au - H(x, ybar, Du).  MFC: same with the
    measure-derivative term of the Hamiltonian added; the residual is
    evaluated after removing its spatial constant (the MFC u is defined up
    to an additive function of time here).
    """
    if model.beta > 0.0:
        raise ValueError("uncoupling check applies to the deterministic (beta = 0) system")
    if t_pts is None:
        t_pts = np.asarray(time_panel(model.T))
    flow_grid = ric.TimeGrid(model.T, 2000)
    flow = mean_flow_ode(model, sol, y0, flow_grid)
    AAbar, BRB = model.A + model.Abar, model.BRB()
    x_pts = np.asarray(x_pts, dtype=float).reshape(-1, model.n)

    worst = 0.0
    for t in t_pts:
        ev, dv = ric.eval_at(sol, t), ric.deriv_at(sol, t)
        P, Sig = ev["P"], ev["Sigma"]
        yb = ric._interp(flow, flow_grid, t)
        ydot = _mean_drift(AAbar, BRB, P, Sig, yb)
        H = lq.hamiltonian(x_pts, yb, x_pts @ P.T + Sig @ yb, model)
        du_dt = (0.5 * np.einsum("ij,jk,ik->i", x_pts, dv["dP"], x_pts)
                 + x_pts @ (dv["dSigma"] @ yb + Sig @ ydot))
        Au = -0.5 * model.sigma ** 2 * np.trace(P)
        if sol.kind == "MFG":
            du_dt += 0.5 * (yb @ dv["dGamma"] @ yb + 2.0 * yb @ ev["Gamma"] @ ydot) + dv["dmu"]
            res = -du_dt + Au - H
        else:
            qbar = P @ yb + Sig @ yb   # int Du(xi) m(dxi) for the linear gradient
            res = -du_dt + Au - H - x_pts @ lq.measure_term(yb, qbar, model)
            res = res - np.mean(res)   # x-independent offset not pinned for MFC
        worst = max(worst, float(np.max(np.abs(res))))
    return {"max_residual": worst}


def corrupt_P(sol: ric.RiccatiSolution, delta: float = 1e-3) -> ric.RiccatiSolution:
    """Copy of the solution with P shifted; stored derivatives untouched.
    Used to demonstrate residual detector sensitivity."""
    from dataclasses import replace
    return replace(sol, P=sol.P + delta)


def seeded_state_panel(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal((count, n))
