"""Master-equation residuals, the value and the mean flow."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from masterlq import lq_model, master_verifier as mv, riccati
from masterlq.lq_model import scalar_model
from masterlq.master_verifier import (eval_value, mean_flow_ode, residual_master_mfc,
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
    h = np.mean(lq_model.terminal_cost(X, yb, scalar_coupled))
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

def test_mfc_residual_small_on_panel(scalar_coupled, sol_coupled_mfc, crowd_mfg, panel):
    crowd = riccati.solve_mfc(crowd_mfg, riccati.TimeGrid(crowd_mfg.T, 2000))
    for m, sol in ((scalar_coupled, sol_coupled_mfc), (crowd_mfg, crowd)):
        for t in time_panel(m.T):
            r = residual_master_mfc(m, sol, panel, t)
            assert r["residual_norm"] <= 1e-6


def test_mfc_residual_zero_model(panel):
    m = scalar_model(R=1.0, sigma=0.3, T=1.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(1.0, 200))
    r = residual_master_mfc(m, sol, panel, 0.5)
    assert r["residual_norm"] == 0.0


def test_mfc_residual_detects_corruption(scalar_coupled, sol_coupled_mfc, panel):
    bad = dataclasses.replace(sol_coupled_mfc, P=sol_coupled_mfc.P + 1e-3)
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


def test_mfg_scalar_residual_small(request, scalar_coupled, sol_coupled_mfg):
    # at n >= 2 the residual reads Gamma's Sigma*BRB Sigma and Sigma*Abar terms
    cases = [(scalar_coupled, sol_coupled_mfg)]
    for name in ("crowd_mfg", "asymmetric_2x2", "coupled_2x2", "seeded_n8"):
        m = request.getfixturevalue(name)
        cases.append((m, riccati.solve_mfg(m, riccati.TimeGrid(m.T, 2000))))
    for m, sol in cases:
        X = seeded_state_panel(m.n, 64, 3)
        for t in time_panel(m.T):
            r = residual_master_mfg_scalar(m, sol, X, t)
            assert r["residual_norm"] <= 1e-6
            assert set(r["term_breakdown"]) == {"dU_dt", "laplacian_x", "ek_sum", "divergence",
                                                "DXU_inner", "quadratic_form"}


@pytest.mark.parametrize("block", ["P", "Sigma"])
def test_mfg_scalar_residual_detects_corruption(crowd_mfg, panel, block):
    # a Sigma error enters with EX, so the panel is moved off mean zero
    sol = riccati.solve_mfg(crowd_mfg, riccati.TimeGrid(crowd_mfg.T, 2000))
    bad = dataclasses.replace(sol, **{block: getattr(sol, block) + 1e-3})
    r = residual_master_mfg_scalar(crowd_mfg, bad, panel + 1.0, 0.5 * crowd_mfg.T)
    assert r["residual_norm"] > 1e-4


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
    r = residual_master_mfg_scalar(scalar_coupled, sol_coupled_mfg, panel, t)
    assert r["residual_norm"] < 1e-6


# ---------------------------------------------------------------------------
# MFG vs MFC divergence

def test_sigma_differs_between_kinds():
    m = scalar_model(A=0.0, Abar=1.0, B=1.0, Q=1.0, Qbar=1.0, S=1.0, R=1.0, T=1.0)
    g = riccati.TimeGrid(1.0, 1000)
    a = riccati.solve_mfc(m, g)
    b = riccati.solve_mfg(m, g)
    assert np.max(np.abs(a.Sigma - b.Sigma)) > 1e-6


# ---------------------------------------------------------------------------
# mean flow

def test_mean_flow_ode_exponential():
    # no control influence: ydot = A y
    m = scalar_model(A=0.5, R=1.0, T=1.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(1.0, 1000))
    flow = mean_flow_ode(m, sol, np.array([1.0]), riccati.TimeGrid(1.0, 1000))
    assert flow[-1, 0] == pytest.approx(np.exp(0.5), rel=1e-10)


# crowd's data with a coupled terminal cost, QbarT * ST != 0
COUPLED_TERMINAL = scalar_model(A=0.0, Abar=0.5, B=1.0, Q=1.0, Qbar=1.0, S=1.0, R=1.0, QT=0.2,
                                QbarT=0.8, ST=0.5, sigma=0.5, T=0.5)


def _dop853_mean_flow(model, sol, y0, grid):
    """y' = a(t) y by scipy's DOP853 at the nodes of grid, with
    a = A + Abar - B R^-1 B* (P + Sigma) at sol's nodes and np.interp between them."""
    b, r = model.B.item(), model.R.item()
    a = model.A.item() + model.Abar.item() - b * b / r * (sol.P[:, 0, 0] + sol.Sigma[:, 0, 0])
    res = solve_ivp(lambda t, y: np.interp(t, sol.grid.nodes(), a) * y, (0.0, grid.T), [y0],
                    method="DOP853", t_eval=grid.nodes(), rtol=1e-13, atol=1e-15,
                    max_step=sol.grid.h)
    assert res.success
    return res.y[0]


@pytest.mark.parametrize("Nt", [2000, 300, 50])
@pytest.mark.parametrize("kind", ["mfc", "mfg"])
@pytest.mark.parametrize("name", ["crowd_mfg", "coupled_terminal"])
def test_mean_flow_ode_equals_dop853(request, name, kind, Nt):
    # the hjbfp cross-validation's grids: the flow at Nt nodes, the Riccati
    # reference at max(Nt, 1000); a drift without Sigma, or the trapezoid
    # rule on the Nt nodes (2e-6 off at Nt = 50), misses the gate
    m = COUPLED_TERMINAL if name == "coupled_terminal" else request.getfixturevalue(name)
    solve = riccati.solve_mfc if kind == "mfc" else riccati.solve_mfg
    sol = solve(m, riccati.TimeGrid(m.T, max(Nt, 1000)))
    grid = riccati.TimeGrid(m.T, Nt)
    flow = mean_flow_ode(m, sol, np.array([1.0]), grid)
    assert flow.shape == (Nt + 1, 1)
    assert np.max(np.abs(flow[:, 0] - _dop853_mean_flow(m, sol, 1.0, grid))) <= 1e-13


def test_mean_flow_ode_rejects_n2(coupled_2x2):
    grid = riccati.TimeGrid(coupled_2x2.T, 50)
    sol = riccati.solve_mfc(coupled_2x2, grid)
    with pytest.raises(ValueError, match="n = 1 only, got n = 2"):
        mean_flow_ode(coupled_2x2, sol, np.ones(2), grid)


# ---------------------------------------------------------------------------
# infrastructure

def test_verify_runs_every_residual(monkeypatch, coupled_2x2):
    from masterlq import cli
    names = [name for name in dir(mv) if name.startswith("residual_master_")]
    called = set()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(mv, name, spy(name, getattr(mv, name)))
    man = {"seed": 0, "tolerances": cli.TOLERANCES["master"]}
    reports = cli._suite_master(man, coupled_2x2, riccati.TimeGrid(coupled_2x2.T, 200))
    assert len(names) == 3 and called == set(names)
    assert all(r["pass"] for r in reports)


def test_verify_master_sees_gamma_error(monkeypatch, crowd_mfg):
    # crowd's Gamma enters the scalar residual only through 1/2 EX*Gamma EX: a
    # panel drawn around 0 (EX near 0.1) let Gamma + 1e-4 pass the gate
    from masterlq import cli
    solve_mfg = riccati.solve_mfg

    def gamma_off(*args):
        sol = solve_mfg(*args)
        return dataclasses.replace(sol, Gamma=sol.Gamma + 1e-4)

    monkeypatch.setattr(riccati, "solve_mfg", gamma_off)
    man = {"seed": 0, "tolerances": cli.TOLERANCES["master"]}
    reports = cli._suite_master(man, crowd_mfg, riccati.TimeGrid(crowd_mfg.T, 1000))
    scalar = [r for r in reports if r["check"] == "master_mfg_scalar"]
    assert max(r["residual_norm"] for r in scalar) > 10 * man["tolerances"]["master_residual"]
    assert not all(r["pass"] for r in scalar)


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

def _ref_residual_terms(model, sol, X, t):
    ev = riccati.eval_at(sol, t)
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
    dU = X @ ev["dP"].T + yb @ ev["dSigma"].T
    return dU, DU_G, DxH, copy


def _ref_residual_master_mfc(model, sol, X, t):
    dU, DU_G, DxH, copy = _ref_residual_terms(model, sol, X, t)
    resid = dU + DU_G + DxH + copy
    return {
        "residual_norm": float(np.max(np.linalg.norm(resid, axis=1))),
        "term_breakdown": {
            "dU_dt": float(np.max(np.abs(dU))),
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
            ev = riccati.eval_at(sol, t)
            P, Sig = ev["P"], ev["Sigma"]
            got = mv._drift_matrix(AAbar, BRB, P, Sig) @ y
            PS = P + Sig
            assert np.array_equal(got, (AAbar - BRB @ PS) @ y)              # mean_flow_ode
            assert np.array_equal(got, (AAbar - BRB @ (P + Sig)) @ y)       # ydot
            assert np.array_equal(got, (m.A + m.Abar - m.BRB() @ (P + Sig)) @ y)   # mean_flow
