"""Master-equation residuals and consistency checks."""
from __future__ import annotations

import numpy as np
import pytest

from masterlq import lq_model, master_verifier as mv, riccati
from masterlq.lq_model import scalar_model
from masterlq.master_verifier import (consistency_uncoupling, corrupt_P, eval_value,
                                      mean_flow_ode, residual_master_mfc,
                                      residual_master_mfg_gradient,
                                      residual_master_mfg_scalar,
                                      seeded_state_panel, time_panel)

from conftest import make_asymmetric_2x2


@pytest.fixture(scope="module")
def panel():
    return seeded_state_panel(1, 64, 3)


# ---------------------------------------------------------------------------
# value / field evaluation

def test_eval_value_terminal_equals_terminal_cost(scalar_coupled, sol_coupled_mfc):
    X = seeded_state_panel(1, 32, 1)
    V = eval_value(sol_coupled_mfc, X, scalar_coupled.T)
    yb = X.mean(axis=0)
    h = np.mean([lq_model.terminal_cost(x, yb, scalar_coupled) for x in X])
    assert V == pytest.approx(h, abs=1e-10)


def test_eval_value_zero_solution():
    m = scalar_model(R=1.0, T=1.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(1.0, 100))
    X = seeded_state_panel(1, 16, 2)
    assert eval_value(sol, X, 0.5) == 0.0


def test_eval_value_scalar_lqr(sol_lqr):
    X = seeded_state_panel(1, 1000, 4)
    V = eval_value(sol_lqr, X, 0.0)
    assert V == pytest.approx(0.5 * np.tanh(1.0) * np.mean(X ** 2), rel=1e-8)


def _master_field(sol, X, t):
    """Oracle: the per-particle field P(t) x_i + Sigma(t) ybar."""
    ev = riccati.eval_at(sol, t)
    return X @ ev["P"].T + X.mean(axis=0) @ ev["Sigma"].T


def test_master_field_linear_form(scalar_coupled, sol_coupled_mfc, panel):
    # the field U that the master residuals differentiate
    U = mv._linear_field_terms(scalar_coupled, sol_coupled_mfc, panel, 0.3)[1]
    assert np.array_equal(U, _master_field(sol_coupled_mfc, panel, 0.3))


def test_master_field_is_lifted_value_gradient(scalar_coupled, sol_coupled_mfc):
    # finite-difference gradient of eval_value in particle i = U_i / N
    X = seeded_state_panel(1, 64, 5)
    t = 0.4
    U = _master_field(sol_coupled_mfc, X, t)
    h = 1e-6
    for i in (0, 17, 63):
        Xp, Xm = X.copy(), X.copy()
        Xp[i] += h
        Xm[i] -= h
        fd = (eval_value(sol_coupled_mfc, Xp, t) - eval_value(sol_coupled_mfc, Xm, t)) / (2 * h)
        assert abs(fd - U[i, 0] / len(X)) / max(abs(fd), 1e-12) < 1e-6


# ---------------------------------------------------------------------------
# MFC master residual

def test_mfc_residual_small_on_panel(scalar_coupled, sol_coupled_mfc, panel):
    for t in time_panel(scalar_coupled.T):
        r = residual_master_mfc(scalar_coupled, sol_coupled_mfc, panel, t)
        assert r["residual_norm"] <= 1e-6


def test_mfc_residual_zero_model(panel):
    m = scalar_model(R=1.0, sigma=0.3, T=1.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(1.0, 200))
    r = residual_master_mfc(m, sol, panel, 0.5)
    assert r["residual_norm"] == 0.0


def test_mfc_second_derivative_terms_identically_zero(scalar_coupled, sol_coupled_mfc, panel):
    r = residual_master_mfc(scalar_coupled, sol_coupled_mfc, panel, 0.25)
    assert r["term_breakdown"]["second_derivative_terms"] == 0.0


def test_mfc_residual_detects_corruption(scalar_coupled, sol_coupled_mfc, panel):
    bad = corrupt_P(sol_coupled_mfc, 1e-3)
    r = residual_master_mfc(scalar_coupled, bad, panel, 0.5)
    assert r["residual_norm"] > 1e-4


def test_mfc_residual_kind_mismatch(scalar_coupled, sol_coupled_mfg, panel):
    with pytest.raises(ValueError):
        residual_master_mfc(scalar_coupled, sol_coupled_mfg, panel, 0.5)


# ---------------------------------------------------------------------------
# MFG residuals

def test_mfg_gradient_residual_small(scalar_coupled, sol_coupled_mfg, panel):
    for t in time_panel(scalar_coupled.T):
        r = residual_master_mfg_gradient(scalar_coupled, sol_coupled_mfg, panel, t)
        assert r["residual_norm"] <= 1e-6


def test_mfg_gradient_symmetry_violation_flagged(asymmetric_2x2):
    sol = riccati.solve_mfg(asymmetric_2x2, riccati.TimeGrid(1.0, 1000))
    X = seeded_state_panel(2, 32, 6)
    r = residual_master_mfg_gradient(asymmetric_2x2, sol, X, 0.5)
    assert r["symmetry_violation"] > 1e-6
    assert r["residual_norm"] <= 1e-6     # the ODEs are still satisfied


def test_mfg_gradient_symmetric_model_clean():
    m = scalar_model(A=0.1, B=1.0, Q=1.0, Qbar=0.5, R=1.0, QT=0.2,
                     QbarT=0.1, sigma=0.3, T=1.0)   # Abar=0, S=ST=0
    sol = riccati.solve_mfg(m, riccati.TimeGrid(1.0, 1000))
    X = seeded_state_panel(1, 32, 7)
    r = residual_master_mfg_gradient(m, sol, X, 0.5)
    assert r["symmetry_violation"] <= 1e-9
    assert r["residual_norm"] <= 1e-6


def test_mfg_scalar_residual_small(scalar_coupled, sol_coupled_mfg, panel):
    x = np.array([0.7])
    for t in time_panel(scalar_coupled.T):
        r = residual_master_mfg_scalar(scalar_coupled, sol_coupled_mfg, x, panel, t)
        assert abs(r["residual"]) <= 1e-6


def test_mfg_scalar_constant_term_identity():
    # beta=1, sigma=0: mu' + tr(P)/2 + tr(Gamma)/2 + tr(Sigma) = 0
    m = scalar_model(A=0.1, Abar=0.2, B=1.0, Q=1.0, Qbar=0.5, S=0.3, R=1.0,
                     QT=0.4, QbarT=0.2, ST=0.1, sigma=0.0, beta=1.0, T=1.0)
    sol = riccati.solve_mfg(m, riccati.TimeGrid(1.0, 2000))
    for k in (0, 500, 1500):
        lhs = (sol.dmu[k] + 0.5 * np.trace(sol.P[k]) + 0.5 * np.trace(sol.Gamma[k])
               + np.trace(sol.Sigma[k]))
        assert abs(lhs) < 1e-10


def test_mfg_scalar_terminal_residual_zero(scalar_coupled, sol_coupled_mfg, panel):
    t = scalar_coupled.T * (1 - 1e-9)
    r = residual_master_mfg_scalar(scalar_coupled, sol_coupled_mfg,
                                   np.array([1.3]), panel, t)
    assert abs(r["residual"]) < 1e-6


# ---------------------------------------------------------------------------
# MFG vs MFC divergence

def test_sigma_differs_between_kinds():
    m = scalar_model(A=0.0, Abar=1.0, B=1.0, Q=1.0, Qbar=1.0, S=1.0, R=1.0, T=1.0)
    g = riccati.TimeGrid(1.0, 1000)
    a = riccati.solve_mfc(m, g)
    b = riccati.solve_mfg(m, g)
    assert np.max(np.abs(a.Sigma - b.Sigma)) > 1e-6


# ---------------------------------------------------------------------------
# uncoupling along the mean flow

def test_uncoupling_mfg(crowd_mfg):
    sol = riccati.solve_mfg(crowd_mfg, riccati.TimeGrid(crowd_mfg.T, 2000))
    xp = np.linspace(-2, 2, 50)
    rep = consistency_uncoupling(crowd_mfg, sol, np.array([1.0]), xp)
    assert rep["max_residual"] <= 1e-6


def test_uncoupling_mfc(crowd_mfg):
    sol = riccati.solve_mfc(crowd_mfg, riccati.TimeGrid(crowd_mfg.T, 2000))
    xp = np.linspace(-2, 2, 50)
    rep = consistency_uncoupling(crowd_mfg, sol, np.array([1.0]), xp)
    assert rep["max_residual"] <= 1e-6


def test_uncoupling_rejects_common_noise(scalar_coupled, sol_coupled_mfg):
    with pytest.raises(ValueError):
        consistency_uncoupling(scalar_coupled, sol_coupled_mfg,
                               np.array([1.0]), np.linspace(-1, 1, 5))


def test_mean_flow_ode_exponential():
    # no control influence: ydot = A y
    m = scalar_model(A=0.5, R=1.0, T=1.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(1.0, 1000))
    flow = mean_flow_ode(m, sol, np.array([1.0]), riccati.TimeGrid(1.0, 1000))
    assert flow[-1, 0] == pytest.approx(np.exp(0.5), rel=1e-10)


# ---------------------------------------------------------------------------
# infrastructure

def test_time_panel_layout():
    tp = time_panel(2.0)
    assert tp[0] == 0.0 and tp[2] == 1.0
    assert tp[-1] < 2.0


def test_state_panel_reproducible():
    a = seeded_state_panel(2, 16, 9)
    b = seeded_state_panel(2, 16, 9)
    assert np.array_equal(a, b)
    assert a.shape == (16, 2)


# ---------------------------------------------------------------------------
# bitwise against the formulation that wrote each LQ form out in place

def _ref_mean_flow_ode(model, sol, y0, grid):
    """Mean-flow RK4 with its own loop and the full eval_at per stage."""
    BRB = model.BRB()

    def rhs(t, y):
        ev = riccati.eval_at(sol, t)
        return (model.A + model.Abar - BRB @ (ev["P"] + ev["Sigma"])) @ y

    h = grid.h
    out = np.empty((grid.K + 1, model.n))
    y = np.asarray(y0, dtype=float).reshape(model.n)
    out[0] = y
    t = 0.0
    for k in range(grid.K):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
        t += h
    return out


def _ref_residual_terms(model, sol, X, t):
    ev, dv = riccati.eval_at(sol, t), riccati.deriv_at(sol, t)
    P, Sig = ev["P"], ev["Sigma"]
    A, Abar, Q, Qb, S = model.A, model.Abar, model.Q, model.Qbar, model.S
    BRB = model.BRB()
    X = np.atleast_2d(X)
    yb = X.mean(axis=0)
    U = X @ P.T + yb @ Sig.T
    G = X @ A.T + yb @ Abar.T - U @ BRB.T
    DU_G = G @ P.T + G.mean(axis=0) @ Sig.T
    DxH = X @ (Q + Qb).T - yb @ (Qb @ S).T + U @ A
    copy = yb @ (-S.T @ Qb + S.T @ Qb @ S).T + U.mean(axis=0) @ Abar
    dU = X @ dv["dP"].T + yb @ dv["dSigma"].T
    return dU, DU_G, DxH, copy


def _ref_residual_master_mfc(model, sol, X, t):
    dU, DU_G, DxH, copy = _ref_residual_terms(model, sol, X, t)
    second = np.zeros_like(dU)
    resid = dU + second + DU_G + DxH + copy
    return {
        "residual_norm": float(np.max(np.linalg.norm(resid, axis=1))),
        "term_breakdown": {
            "dU_dt": float(np.max(np.abs(dU))),
            "second_derivative_terms": float(np.max(np.abs(second))),
            "DU_times_G": float(np.max(np.abs(DU_G))),
            "Dx_H": float(np.max(np.abs(DxH))),
            "measure_copy_term": float(np.max(np.abs(copy))),
        },
    }


def _ref_residual_master_mfg_gradient(model, sol, X, t):
    dU, DU_G, DxH, _ = _ref_residual_terms(model, sol, X, t)
    resid = dU + DU_G + DxH
    return {
        "residual_norm": float(np.max(np.linalg.norm(resid, axis=1))),
        "symmetry_violation": float(np.max(np.abs(sol.Sigma - np.swapaxes(sol.Sigma, 1, 2)))),
    }


@pytest.mark.parametrize("K", [50, 2000])
@pytest.mark.parametrize("kind", ["mfc", "mfg"])
@pytest.mark.parametrize("name", ["crowd_mfg", "scalar_coupled", "coupled_2x2"])
def test_mean_flow_ode_bitwise_equal_reference(request, name, kind, K):
    m = request.getfixturevalue(name)
    solve = riccati.solve_mfc if kind == "mfc" else riccati.solve_mfg
    sol = solve(m, riccati.TimeGrid(m.T, 400))
    y0 = np.linspace(1.0, -0.5, m.n)
    grid = riccati.TimeGrid(m.T, K)
    assert np.array_equal(mean_flow_ode(m, sol, y0, grid), _ref_mean_flow_ode(m, sol, y0, grid))


def _dense_3x3():
    """Dense n = 3 data, so that regrouping any product changes its bits."""
    rng = np.random.default_rng(11)
    small = lambda: 0.3 * rng.normal(size=(3, 3))
    psd = lambda: (lambda G: G @ G.T / 3)(rng.normal(size=(3, 3)))
    return lq_model.LQModelSpec(n=3, d=3, T=1.0, A=small(), Abar=small(), B=np.eye(3) + small(),
                                Q=psd() + np.eye(3), Qbar=psd(), S=small(), R=psd() + np.eye(3),
                                QT=psd(), QbarT=psd(), ST=small(), sigma=0.3, beta=0.1)


@pytest.mark.parametrize("name", ["scalar_coupled", "coupled_2x2", "asymmetric_2x2", "dense_3x3"])
def test_master_residuals_equal_reference(request, name):
    m = _dense_3x3() if name == "dense_3x3" else request.getfixturevalue(name)
    grid = riccati.TimeGrid(m.T, 500)
    mfc, mfg = riccati.solve_mfc(m, grid), riccati.solve_mfg(m, grid)
    X = seeded_state_panel(m.n, 64, 8)
    for t in time_panel(m.T):
        yb, U, DU_G, DxH, dU = mv._linear_field_terms(m, mfc, X, t)
        terms = (dU, DU_G, DxH, lq_model.measure_term(yb, U.mean(axis=0), m))
        for got, ref in zip(terms, _ref_residual_terms(m, mfc, X, t)):
            assert np.array_equal(got, ref)
        assert residual_master_mfc(m, mfc, X, t) == _ref_residual_master_mfc(m, mfc, X, t)
        assert (residual_master_mfg_gradient(m, mfg, X, t)
                == _ref_residual_master_mfg_gradient(m, mfg, X, t))


@pytest.mark.parametrize("name", ["crowd_mfg", "scalar_coupled", "coupled_2x2", "asymmetric_2x2",
                                  "dense_3x3"])
def test_mean_drift_equals_old_lines(request, name):
    m = _dense_3x3() if name == "dense_3x3" else request.getfixturevalue(name)
    grid = riccati.TimeGrid(m.T, 500)
    AAbar, BRB = m.A + m.Abar, m.BRB()
    for sol in (riccati.solve_mfc(m, grid), riccati.solve_mfg(m, grid)):
        for t, y in zip(time_panel(m.T) + [0.3 * m.T], seeded_state_panel(m.n, 6, 5)):
            P, Sig = riccati._interp(sol.P, sol.grid, t), riccati._interp(sol.Sigma, sol.grid, t)
            got = mv._mean_drift(AAbar, BRB, P, Sig, y)
            PS = P + Sig
            assert np.array_equal(got, (AAbar - BRB @ PS) @ y)              # mean_flow_ode
            assert np.array_equal(got, (AAbar - BRB @ (P + Sig)) @ y)       # ydot
            assert np.array_equal(got, (m.A + m.Abar - m.BRB() @ (P + Sig)) @ y)   # mean_flow
