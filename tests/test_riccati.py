"""Backward Riccati systems: closed forms, terminals, order, blow-up."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from masterlq import lq_model, riccati
from masterlq.riccati import (RiccatiBlowUp, TimeGrid, check_symmetry_conditions,
                              eval_at, solve_mfc, solve_mfg, to_csv)
from masterlq.lq_model import scalar_model

from conftest import make_asymmetric_2x2, make_coupled_2x2


# ---------------------------------------------------------------------------
# RK4 on scalar_lqr, where P' = P^2 - 1 and P(1) = 0 give P(t) = tanh(1 - t)

def test_rk4_zero_rhs_constant(scalar_lqr):
    # P(T) = 1 is a rest point of P' = P^2 - 1: every stage is exactly zero
    sol = solve_mfc(dataclasses.replace(scalar_lqr, QT=1.0), TimeGrid(1.0, 10))
    assert np.all(sol.P == 1.0) and np.all(sol.dP == 0.0)


def test_rk4_tanh_closed_form(scalar_lqr):
    sol = solve_mfc(scalar_lqr, TimeGrid(1.0, 1000))
    assert abs(sol.P[0, 0, 0] - np.tanh(1.0)) < 1e-10


def test_rk4_fourth_order_on_tanh(scalar_lqr):
    errs = []
    for K in (50, 100, 200):
        sol = solve_mfc(scalar_lqr, TimeGrid(1.0, K))
        errs.append(np.max(np.abs(sol.P[:, 0, 0] - np.tanh(1 - sol.grid.nodes()))))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert 3.8 <= order1 <= 4.2
    assert 3.8 <= order2 <= 4.2


# ---------------------------------------------------------------------------
# solve_mfc

def test_mfc_tanh_closed_form(scalar_lqr, sol_lqr):
    t = sol_lqr.grid.nodes()
    assert np.max(np.abs(sol_lqr.P[:, 0, 0] - np.tanh(1 - t))) <= 1e-8
    assert np.max(np.abs(sol_lqr.Sigma)) == 0.0
    assert np.max(np.abs(sol_lqr.lam)) == 0.0      # sigma = beta = 0


def test_mfc_lambda_closed_form(scalar_lqr_sigma1):
    sol = solve_mfc(scalar_lqr_sigma1, TimeGrid(1.0, 1000))
    # lambda(0) = 1/2 * int_0^1 tanh(1-s) ds = 1/2 ln cosh 1
    assert sol.lam[0] == pytest.approx(0.5 * np.log(np.cosh(1.0)), abs=1e-10)


def test_mfc_zero_model_is_fixed_point():
    m = scalar_model(R=1.0, sigma=1.0, beta=1.0)
    sol = solve_mfc(m, TimeGrid(1.0, 100))
    assert np.all(sol.P == 0) and np.all(sol.Sigma == 0) and np.all(sol.lam == 0)


def test_mfc_terminal_conditions_exact(scalar_coupled, sol_coupled_mfc):
    m = scalar_coupled
    PT = m.QT + m.QbarT
    SigT = m.ST.T @ m.QbarT @ m.ST - (m.ST.T @ m.QbarT + m.QbarT @ m.ST)
    assert np.array_equal(sol_coupled_mfc.P[-1], PT)
    assert np.array_equal(sol_coupled_mfc.Sigma[-1], SigT)
    assert sol_coupled_mfc.lam[-1] == 0.0


def test_mfc_sigma_symmetric_all_nodes(coupled_2x2):
    sol = solve_mfc(coupled_2x2, TimeGrid(1.0, 500))
    asym = np.max(np.abs(sol.Sigma - np.swapaxes(sol.Sigma, 1, 2)))
    assert asym <= 1e-9


def test_mfc_p_symmetric_exactly(coupled_2x2):
    sol = solve_mfc(coupled_2x2, TimeGrid(1.0, 500))
    assert np.max(np.abs(sol.P - np.swapaxes(sol.P, 1, 2))) == 0.0


def test_mfc_p_psd_for_convex_model():
    m = lq_model.LQModelSpec(
        n=2, d=2, T=2.0,
        A=np.array([[0.1, 0.3], [-0.2, 0.0]]), Abar=np.zeros((2, 2)),
        B=np.eye(2), Q=np.eye(2), Qbar=0.5 * np.eye(2), S=np.zeros((2, 2)),
        R=np.eye(2), QT=np.eye(2), QbarT=np.eye(2), ST=np.zeros((2, 2)),
        sigma=0.2, beta=0.1, convex=True)
    sol = solve_mfc(m, TimeGrid(2.0, 800))
    for P in sol.P:
        assert np.linalg.eigvalsh(P).min() >= -1e-9


def test_mfc_blowup_detected():
    # nonconvex cost: backward dP/ds = -(P^2 + 4) escapes at s = pi/4 < T
    m = scalar_model(B=1.0, R=1.0, Q=-4.0, T=1.0)
    with pytest.raises(RiccatiBlowUp) as exc:
        solve_mfc(m, TimeGrid(1.0, 4000))
    escape = exc.value.escape_time
    assert abs((1.0 - escape) - np.pi / 4.0) < 0.05


# ---------------------------------------------------------------------------
# solve_mfg

def test_mfg_matches_mfc_without_coupling(scalar_lqr):
    g = TimeGrid(1.0, 500)
    a = solve_mfc(scalar_lqr, g)
    b = solve_mfg(scalar_lqr, g)
    assert np.allclose(a.P, b.P, atol=0)
    assert np.all(b.Sigma == 0) and np.all(b.Gamma == 0)


def test_mfg_eikonal_closed_form():
    # sigma=beta=0, Q=Qbar=0, A=Abar=0, B=R=1, Q_T=1: P(t) = 1/(2-t)
    m = scalar_model(B=1.0, R=1.0, QT=1.0, T=1.0)
    sol = solve_mfg(m, TimeGrid(1.0, 1000))
    t = sol.grid.nodes()
    assert np.max(np.abs(sol.P[:, 0, 0] - 1.0 / (2.0 - t))) < 1e-9


def test_mfg_terminal_conditions_exact(scalar_coupled, sol_coupled_mfg):
    m = scalar_coupled
    assert np.array_equal(sol_coupled_mfg.P[-1], m.QT + m.QbarT)
    assert np.array_equal(sol_coupled_mfg.Sigma[-1], -m.QbarT @ m.ST)
    assert np.array_equal(sol_coupled_mfg.Gamma[-1], m.ST.T @ m.QbarT @ m.ST)
    assert sol_coupled_mfg.mu[-1] == 0.0


def test_mfg_and_mfc_sigma_differ_when_coupled():
    m = scalar_model(A=0.0, Abar=1.0, B=1.0, Q=1.0, Qbar=1.0, S=1.0, R=1.0, T=1.0)
    g = TimeGrid(1.0, 1000)
    a, b = solve_mfc(m, g), solve_mfg(m, g)
    assert np.max(np.abs(a.Sigma - b.Sigma)) > 1e-6


def test_mu_lambda_vanish_without_noise(scalar_coupled):
    m = lq_model.scalar_model(A=0.2, Abar=0.3, B=1.0, Q=1.0, Qbar=0.5,
                              S=0.4, R=1.0, QT=0.5, QbarT=0.3, ST=0.2, T=1.0)
    g = TimeGrid(1.0, 200)
    assert np.all(solve_mfc(m, g).lam == 0)
    assert np.all(solve_mfg(m, g).mu == 0)


# ---------------------------------------------------------------------------
# symmetry diagnosis

def test_symmetry_conditions_trivially_satisfied():
    m = scalar_model(Q=1.0, R=1.0, Qbar=1.0)
    d = check_symmetry_conditions(m)
    assert d.self_adjoint_possible


def test_symmetry_conditions_2x2_obstruction(asymmetric_2x2):
    d = check_symmetry_conditions(asymmetric_2x2)
    assert not d.running_commutes
    assert not d.terminal_commutes
    assert not d.self_adjoint_possible


def test_symmetry_conditions_abar_nonzero():
    m = scalar_model(Abar=1.0, Q=1.0, R=1.0)
    assert not check_symmetry_conditions(m).self_adjoint_possible


def test_mfg_sigma_asymmetry_on_obstructed_model(asymmetric_2x2):
    sol = solve_mfg(asymmetric_2x2, TimeGrid(1.0, 1000))
    asym = np.max(np.abs(sol.Sigma - np.swapaxes(sol.Sigma, 1, 2)))
    assert asym > 1e-6


# ---------------------------------------------------------------------------
# eval_at / CSV

def test_eval_at_exact_at_nodes(sol_coupled_mfc):
    k = 700
    t = sol_coupled_mfc.grid.nodes()[k]
    ev = eval_at(sol_coupled_mfc, t)
    assert np.array_equal(ev["P"], sol_coupled_mfc.P[k])


def test_eval_at_tanh_interpolation(sol_lqr):
    for t in (0.123456, 0.5, 0.987):
        ev = eval_at(sol_lqr, t)
        assert abs(ev["P"][0, 0] - np.tanh(1 - t)) < 1e-6


def test_eval_at_out_of_range(sol_lqr):
    with pytest.raises(ValueError):
        eval_at(sol_lqr, -0.01)
    with pytest.raises(ValueError):
        eval_at(sol_lqr, 1.01)


def test_csv_round_trip(tmp_path, sol_coupled_mfg):
    path = tmp_path / "sol.csv"
    to_csv(sol_coupled_mfg, str(path))
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(lines) == sol_coupled_mfg.grid.K + 2
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == sol_coupled_mfg.P[0, 0, 0]


# ---------------------------------------------------------------------------
# _integrate against the five-call reference formulation

def _ref_mfc_rhs(model):
    A, Abar, Q, Qbar, S = model.A, model.Abar, model.Q, model.Qbar, model.S
    BRB = model.BRB()
    a = model.sigma ** 2
    b2 = model.beta ** 2

    def rhs(t, state):
        P, Sig, _ = state
        M = A + Abar - BRB @ P
        dP = -(P @ A + A.T @ P - P @ BRB @ P + Q + Qbar)
        dSig = -(Sig @ M + M.T @ Sig - Sig @ BRB @ Sig
                 + S.T @ Qbar @ S - Qbar @ S - S.T @ Qbar
                 + P @ Abar + Abar.T @ P)
        dlam = -(0.5 * a * np.trace(P) + 0.5 * b2 * np.trace(P + Sig))
        return dP, dSig, dlam

    return rhs


def _ref_mfg_rhs(model):
    A, Abar, Q, Qbar, S = model.A, model.Abar, model.Q, model.Qbar, model.S
    BRB = model.BRB()
    a = model.sigma ** 2
    b2 = model.beta ** 2

    def rhs(t, state):
        P, Sig, Gam, _ = state
        M = A + Abar - BRB @ P
        N = A + Abar - BRB @ (P + Sig)
        dP = -(P @ A + A.T @ P - P @ BRB @ P + Q + Qbar)
        dSig = -(Sig @ M + (A.T - P @ BRB) @ Sig - Sig @ BRB @ Sig
                 - Qbar @ S + P @ Abar)
        dGam = -(Gam @ N + N.T @ Gam + S.T @ Qbar @ S - Sig @ BRB @ Sig
                 + Sig @ Abar + Abar.T @ Sig)
        dmu = -(0.5 * (b2 + a) * np.trace(P) + 0.5 * b2 * np.trace(Gam) + b2 * np.trace(Sig))
        return dP, dSig, dGam, dmu

    return rhs


def _ref_axpy(state, direction, scale):
    return tuple(s + scale * d for s, d in zip(state, direction))


def _ref_integrate(rhs, state, grid, symmetrize):
    K, h = grid.K, grid.h
    nodes = [state]
    derivs = [rhs(grid.T, state)]
    t = grid.T
    for k in range(K, 0, -1):
        k1 = rhs(t, state)
        k2 = rhs(t - 0.5 * h, _ref_axpy(state, k1, -0.5 * h))
        k3 = rhs(t - 0.5 * h, _ref_axpy(state, k2, -0.5 * h))
        k4 = rhs(t - h, _ref_axpy(state, k3, -h))
        incr = tuple((c1 + 2.0 * c2 + 2.0 * c3 + c4) for c1, c2, c3, c4 in zip(k1, k2, k3, k4))
        state = _ref_axpy(state, incr, -h / 6.0)
        state = symmetrize(state)
        t -= h
        for comp in state:
            if not np.all(np.isfinite(comp)):
                raise riccati.NumericalFailure(k - 1)
            if np.max(np.abs(comp)) > riccati.BLOWUP_THRESHOLD:
                raise RiccatiBlowUp(t)
        nodes.append(state)
        derivs.append(rhs(t, state))
    nodes.reverse()
    derivs.reverse()
    return nodes, derivs


def _ref_solve(kind, m, grid):
    """Every stored array of the reference solve, by RiccatiSolution field."""
    sym = lambda M: 0.5 * (M + M.T)
    ST, QbT = m.ST, m.QbarT
    if kind == "mfc":
        state = (m.QT + QbT, ST.T @ QbT @ ST - (ST.T @ QbT + QbT @ ST), 0.0)
        names, dnames = ("P", "Sigma", "lam"), ("dP", "dSigma")
        nodes, derivs = _ref_integrate(_ref_mfc_rhs(m), state, grid,
                                       lambda s: (sym(s[0]), sym(s[1]), s[2]))
    else:
        state = (m.QT + QbT, -QbT @ ST, ST.T @ QbT @ ST, 0.0)
        names, dnames = ("P", "Sigma", "Gamma", "mu"), ("dP", "dSigma", "dGamma", "dmu")
        nodes, derivs = _ref_integrate(_ref_mfg_rhs(m), state, grid,
                                       lambda s: (sym(s[0]),) + s[1:])
    out = {name: np.array([s[i] for s in nodes]) for i, name in enumerate(names)}
    out.update({name: np.array([d[i] for d in derivs]) for i, name in enumerate(dnames)})
    return out


@pytest.fixture(scope="module")
def seeded_n8():
    """Convex n = 8 model with weak mean-field coupling and a stable drift."""
    n, rng = 8, np.random.default_rng(1)
    small = lambda scale: scale * rng.standard_normal((n, n)) / np.sqrt(n)

    def psd(scale):
        G = rng.standard_normal((n, n))
        M = scale * (G @ G.T) / n
        return 0.5 * (M + M.T)

    eye = np.eye(n)
    return lq_model.LQModelSpec(
        n=n, d=n, T=1.0, A=-0.3 * eye + small(0.2), Abar=small(0.05),
        B=eye + small(0.1), Q=psd(1.0) + 0.5 * eye, Qbar=psd(0.2), S=small(0.1),
        R=psd(0.1) + eye, QT=psd(0.5), QbarT=psd(0.1), ST=small(0.1),
        sigma=0.5, beta=0.2, convex=True)


@pytest.mark.parametrize("name", ["scalar_coupled", "asymmetric_2x2", "coupled_2x2", "seeded_n8"])
@pytest.mark.parametrize("kind", ["mfc", "mfg"])
def test_integrate_bitwise_equal_reference(request, kind, name):
    m = request.getfixturevalue(name)
    grid = TimeGrid(m.T, 300)
    sol = (solve_mfc if kind == "mfc" else solve_mfg)(m, grid)
    ref = _ref_solve(kind, m, grid)
    for field, arr in ref.items():
        assert np.array_equal(getattr(sol, field), arr), field
    if kind == "mfg" and name == "asymmetric_2x2":
        assert np.max(np.abs(sol.Sigma - np.swapaxes(sol.Sigma, 1, 2))) > 1e-6


@pytest.mark.parametrize("kind", ["mfc", "mfg"])
def test_integrate_rhs_calls_per_solve(monkeypatch, coupled_2x2, kind):
    calls = []

    def counting(factory):
        def counting_factory(model):
            make_rhs = factory(model)

            def make(y, out):
                rhs = make_rhs(y, out)

                def counted(t):
                    calls.append(t)
                    rhs(t)
                return counted
            return make
        return counting_factory

    name = f"_{kind}_rhs"
    monkeypatch.setattr(riccati, name, counting(getattr(riccati, name)))
    K = 37
    (solve_mfc if kind == "mfc" else solve_mfg)(coupled_2x2, TimeGrid(1.0, K))
    assert len(calls) == 4 * K + 1


@pytest.mark.parametrize("kind", ["mfc", "mfg"])
def test_blowup_escape_time_equals_reference(kind):
    m = scalar_model(B=1.0, R=1.0, Q=-4.0, T=1.0)
    grid = TimeGrid(1.0, 4000)
    with pytest.raises(RiccatiBlowUp) as new:
        (solve_mfc if kind == "mfc" else solve_mfg)(m, grid)
    with pytest.raises(RiccatiBlowUp) as ref:
        _ref_solve(kind, m, grid)
    assert new.value.escape_time == ref.value.escape_time


@pytest.mark.parametrize("bad", [{"Q": np.nan}, {"QT": np.inf}, {"sigma": np.nan}],
                         ids=["Q_nan", "QT_inf", "sigma_nan"])
@pytest.mark.parametrize("kind", ["mfc", "mfg"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_node_equals_reference(kind, bad):
    m = scalar_model(**{"B": 1.0, "R": 1.0, "Q": 1.0, "beta": 0.3, "T": 1.0, **bad})
    grid = TimeGrid(1.0, 50)
    with pytest.raises(riccati.NumericalFailure) as new:
        (solve_mfc if kind == "mfc" else solve_mfg)(m, grid)
    with pytest.raises(riccati.NumericalFailure) as ref:
        _ref_solve(kind, m, grid)
    assert new.value.node == ref.value.node


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_peak_memory_at_most_reference(seeded_n8):
    # the packed solve holds two (K+1, L) arrays, no per-node tuples
    grid = TimeGrid(1.0, 2000)
    new = _traced_peak(lambda: solve_mfg(seeded_n8, grid))
    ref = _traced_peak(lambda: _ref_solve("mfg", seeded_n8, grid))
    assert new <= ref, (new, ref)


# ---------------------------------------------------------------------------
# the packed vector's one abs-max keeps the per-block failure order

def _synthetic(g):
    """The same rhs g(t) -> (d0 of shape (2,), d1) for _integrate and for
    the tuple-state reference."""
    def make_rhs(y, out):
        def rhs(t):
            d0, d1 = g(t)
            out[:2] = d0
            out[2] = d1
        return rhs
    return make_rhs, lambda t, state: g(t)


@pytest.mark.parametrize("d0, d1, exc", [
    (1e15, np.nan, RiccatiBlowUp),            # block 0 huge but finite, block 1 NaN
    (np.nan, 1e15, riccati.NumericalFailure),  # the reverse: block 0 decides
    (0.0, np.nan, riccati.NumericalFailure),   # a NaN alone
], ids=["huge_then_nan", "nan_then_huge", "nan_alone"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_failure_precedence_equals_reference(d0, d1, exc):
    # zero rhs until t < 0.52: the step from t = 0.6 to node 5 (t = 0.5) fails
    g = lambda t: (np.full(2, d0), d1) if t < 0.52 else (np.zeros(2), 0.0)
    make_rhs, rhs = _synthetic(g)
    grid = TimeGrid(1.0, 10)
    y0 = (np.zeros(2), 0.0)
    with pytest.raises(exc) as new:
        riccati._integrate(make_rhs, y0, grid.T, -grid.h, grid.K, 0)
    with pytest.raises(exc) as ref:
        _ref_integrate(rhs, y0, grid, lambda s: s)
    if exc is RiccatiBlowUp:
        assert new.value.escape_time == ref.value.escape_time
    else:
        assert new.value.node == ref.value.node == 5
