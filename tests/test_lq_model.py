"""Model validation, Hamiltonian, feedback, and drift."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masterlq import lq_model
from masterlq.lq_model import (LQModelSpec, drift_G, hamiltonian, load_model,
                               model_from_dict, optimal_feedback,
                               running_cost, scalar_model, terminal_cost,
                               validate)

from conftest import make_coupled_2x2


# ---------------------------------------------------------------------------
# validation

def test_scalar_model_valid():
    assert validate(scalar_model(Q=1.0, R=1.0)).valid


def test_r_not_positive_definite_rejected():
    report = validate(scalar_model(Q=1.0, R=0.0))
    assert not report.valid
    assert any("positive definite" in v for v in report.violations)


@pytest.mark.parametrize("kw", [{"sigma": np.nan}, {"beta": np.inf}, {"sigma": -0.1}])
def test_noise_coefficient_not_finite_nonnegative_rejected(kw):
    report = validate(scalar_model(Q=1.0, R=1.0, **kw))
    name = next(iter(kw))
    assert report.violations == [f"noise coefficient {name} must be finite and "
                                 f"nonnegative, got {kw[name]}"]


@pytest.mark.parametrize("name", ["A", "B", "Qbar", "R", "ST"])
def test_non_finite_matrix_entry_rejected(name):
    m = make_coupled_2x2()
    M = getattr(m, name).copy()
    M[0, -1] = np.nan
    from dataclasses import replace
    report = validate(replace(m, **{name: M}))
    assert report.violations == [f"{name} has non-finite entries"]


def test_dimension_mismatch_reported():
    m = make_coupled_2x2()
    bad = LQModelSpec(n=2, d=2, T=1.0, A=m.A, Abar=m.Abar,
                      B=np.ones((2, 1)), Q=m.Q, Qbar=m.Qbar, S=m.S,
                      R=m.R, QT=m.QT, QbarT=m.QbarT, ST=m.ST,
                      sigma=0.1, beta=0.0)
    report = validate(bad)
    assert not report.valid
    assert any("dimension" in v or "shape" in v for v in report.violations)


def test_asymmetric_q_rejected():
    m = make_coupled_2x2()
    Q = m.Q.copy()
    Q[0, 1] += 1e-6
    bad = LQModelSpec(n=2, d=2, T=1.0, A=m.A, Abar=m.Abar, B=m.B,
                      Q=Q, Qbar=m.Qbar, S=m.S, R=m.R,
                      QT=m.QT, QbarT=m.QbarT, ST=m.ST, sigma=0.1, beta=0.0)
    assert not validate(bad).valid


def test_convex_flag_checks_psd():
    m = scalar_model(Q=-1.0, R=1.0, convex=True)
    assert not validate(m).valid


# ---------------------------------------------------------------------------
# Hamiltonian values (scalar hand evaluations)

def test_hamiltonian_pure_state_cost():
    m = scalar_model(Q=1.0, R=1.0)
    x, y, q = np.array([[2.0]]), np.zeros(1), np.zeros((1, 1))
    assert hamiltonian(x, y, q, m)[0] == pytest.approx(2.0)


def test_hamiltonian_pure_control_term():
    m = scalar_model(B=1.0, R=1.0)
    H = hamiltonian(np.zeros((1, 1)), np.zeros(1), np.array([[2.0]]), m)
    assert H[0] == pytest.approx(-2.0)


def test_hamiltonian_full_scalar_by_hand():
    # 1/2*2 - 1 + 1/2 - 1/2 + 1 = 1
    m = scalar_model(A=1.0, B=1.0, Q=1.0, Qbar=1.0, S=1.0, R=1.0)
    one = np.ones(1)
    assert hamiltonian(one[None], one, one[None], m)[0] == pytest.approx(1.0)


def test_hamiltonian_is_infimum_over_control_grid():
    m = make_coupled_2x2()
    rng = np.random.default_rng(0)
    x, y, q = rng.normal(size=3 * 2).reshape(3, 2)
    H = hamiltonian(x[None], y, q[None], m)[0]
    for v in rng.normal(scale=2.0, size=(200, 2)):
        val = running_cost(x[None], y, v[None], m)[0] + q @ (m.A @ x + m.Abar @ y + m.B @ v)
    # the optimal control itself attains the infimum
        assert H <= val + 1e-12
    v_hat = optimal_feedback(x[None], y, q[None], m)[0]
    attained = (running_cost(x[None], y, v_hat[None], m)[0]
                + q @ (m.A @ x + m.Abar @ y + m.B @ v_hat))
    assert attained == pytest.approx(H, abs=1e-12)


# ---------------------------------------------------------------------------
# feedback and drift

def test_feedback_zero_gradient():
    m = make_coupled_2x2()
    assert np.allclose(optimal_feedback(np.ones((1, 2)), np.ones(2), np.zeros((1, 2)), m)[0], 0.0)


def test_feedback_scalar_by_hand():
    m = scalar_model(B=2.0, R=4.0)
    v = optimal_feedback(np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)), m)[0]
    assert v == pytest.approx(-0.5)


@given(alpha=st.floats(-10, 10, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_feedback_linear_in_q(alpha):
    m = make_coupled_2x2()
    q = np.array([0.7, -1.3])
    base = optimal_feedback(np.zeros((1, 2)), np.zeros(2), q[None], m)[0]
    scaled = optimal_feedback(np.zeros((1, 2)), np.zeros(2), alpha * q[None], m)[0]
    assert np.allclose(scaled, alpha * base, rtol=0, atol=1e-12 * (1 + abs(alpha)))


def test_drift_scalar_by_hand():
    m = scalar_model(A=1.0, Abar=1.0, B=1.0, R=1.0)
    g = drift_G(np.array([[1.0]]), np.array([2.0]), np.array([[3.0]]), m)[0]
    assert g == pytest.approx(0.0)


def test_drift_equals_q_gradient_of_hamiltonian():
    m = make_coupled_2x2()
    rng = np.random.default_rng(1)
    x, y, q = rng.normal(size=3 * 2).reshape(3, 2)
    g = drift_G(x[None], y, q[None], m)[0]
    h = 1e-5
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (hamiltonian(x[None], y, (q + e)[None], m)[0]
              - hamiltonian(x[None], y, (q - e)[None], m)[0]) / (2 * h)
        assert abs(fd - g[k]) / max(1.0, abs(g[k])) < 1e-6


def test_drift_consistent_with_dynamics_at_optimum():
    m = make_coupled_2x2()
    rng = np.random.default_rng(2)
    x, y, q = rng.normal(size=3 * 2).reshape(3, 2)
    v = optimal_feedback(x[None], y, q[None], m)[0]
    dynamics = m.A @ x + m.Abar @ y + m.B @ v     # oracle: g(x, y, v) = Ax + Abar y + Bv
    assert np.allclose(drift_G(x[None], y, q[None], m)[0], dynamics, atol=1e-12)


# ---------------------------------------------------------------------------
# costs

def test_terminal_cost_zero_matrices():
    m = scalar_model(Q=1.0, R=1.0)
    assert terminal_cost(np.array([[3.0]]), np.array([1.0]), m)[0] == 0.0


def test_running_cost_quadratic_scaling():
    m = make_coupled_2x2()
    x, y, v = np.ones(2), 0.5 * np.ones(2), np.array([1.0, -1.0])
    assert running_cost(2 * x[None], 2 * y, 2 * v[None], m)[0] == pytest.approx(
        4.0 * running_cost(x[None], y, v[None], m)[0])


# ---------------------------------------------------------------------------
# JSON loading

def test_model_from_dict_defaults_missing_to_zero():
    m = model_from_dict({"n": 1, "d": 1, "T": 1.0, "R": 1.0})
    assert np.all(m.A == 0) and np.all(m.QT == 0)
    assert validate(m).valid


def test_model_from_dict_requires_R():
    with pytest.raises(ValueError, match="^model file missing required key 'R'$"):
        model_from_dict({"n": 1, "d": 1, "T": 1.0})


@pytest.mark.parametrize("convex", [True, False])
def test_model_from_dict_convex_json_boolean(convex):
    assert model_from_dict({"n": 1, "d": 1, "T": 1.0, "R": 1.0, "convex": convex}).convex is convex


@pytest.mark.parametrize("convex", ["false", "true", 0, 1, None])
def test_model_from_dict_convex_rejects_non_boolean(convex):
    # bool("false") is True: only a JSON true or false is taken
    with pytest.raises(ValueError, match="'convex'"):
        model_from_dict({"n": 1, "d": 1, "T": 1.0, "R": 1.0, "convex": convex})


def test_load_model_round_trip(tmp_path):
    doc = {"n": 2, "d": 2, "T": 0.7, "R": [[2.0, 0.0], [0.0, 2.0]],
           "A": [[0.1, 0.2], [0.0, 0.3]], "sigma": 0.4, "beta": 0.1}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    m = load_model(str(path))
    assert m.n == 2 and m.T == 0.7 and m.sigma == 0.4
    assert np.allclose(m.A, doc["A"])
    assert np.allclose(m.R, 2.0 * np.eye(2))


# ---------------------------------------------------------------------------
# row kernels: N rows at once agree with the kernel at each point

SCALAR_COUPLED = scalar_model(A=0.2, Abar=0.3, B=1.5, Q=1.0, Qbar=0.5, S=0.4, R=2.0,
                              QT=0.5, QbarT=0.3, ST=0.2)


def _model_n3_d2():
    rng = np.random.default_rng(7)
    sym = lambda M: M @ M.T / 3
    return LQModelSpec(n=3, d=2, T=1.0, A=rng.normal(size=(3, 3)), Abar=rng.normal(size=(3, 3)),
                       B=rng.normal(size=(3, 2)), Q=sym(rng.normal(size=(3, 3))),
                       Qbar=sym(rng.normal(size=(3, 3))), S=rng.normal(size=(3, 3)),
                       R=np.array([[1.0, 0.2], [0.2, 0.8]]), QT=sym(rng.normal(size=(3, 3))),
                       QbarT=sym(rng.normal(size=(3, 3))), ST=rng.normal(size=(3, 3)))

ROW_KERNELS = {
    "hamiltonian": lambda x, y, q, v, m: hamiltonian(x, y, q, m),
    "optimal_feedback": lambda x, y, q, v, m: optimal_feedback(x, y, q, m),
    "drift_G": lambda x, y, q, v, m: drift_G(x, y, q, m),
    "dx_hamiltonian": lambda x, y, q, v, m: lq_model.dx_hamiltonian(x, y, q, m),
    "measure_term": lambda x, y, q, v, m: lq_model.measure_term(y, q, m),
    "running_cost": lambda x, y, q, v, m: running_cost(x, y, v, m),
    "terminal_cost": lambda x, y, q, v, m: terminal_cost(x, y, m),
}
SCALAR_KERNELS = ("hamiltonian", "running_cost", "terminal_cost")


@pytest.mark.parametrize("mean", ["mean", "ensemble_mean"])
@pytest.mark.parametrize("model", [SCALAR_COUPLED, make_coupled_2x2(), _model_n3_d2()],
                         ids=["scalar", "coupled_2x2", "n3_d2"])
@pytest.mark.parametrize("name", list(ROW_KERNELS))
def test_row_kernel_equals_pointwise(name, model, mean):
    # the shared mean is a free (n,) vector, or E[X] of the rows themselves
    rng = np.random.default_rng(3)
    N, n = 17, model.n
    x, q, v = rng.normal(size=(N, n)), rng.normal(size=(N, n)), rng.normal(size=(N, model.d))
    y = rng.normal(size=n) if mean == "mean" else x.mean(axis=0)
    kernel = ROW_KERNELS[name]
    rows = kernel(x, y, q, v, model)
    width = model.d if name == "optimal_feedback" else n
    assert rows.shape == ((N,) if name in SCALAR_KERNELS else (N, width))
    for i in range(N):
        one = kernel(x[i:i + 1], y, q[i:i + 1], v[i:i + 1], model)
        assert one.shape == (1,) + rows[i].shape
        assert np.allclose(rows[i], one[0], rtol=1e-13, atol=1e-13)


def test_row_kernels_match_closed_forms():
    m = make_coupled_2x2()
    rng = np.random.default_rng(4)
    x, y, q, v = rng.normal(size=(4, 2))
    BRB = m.B @ np.linalg.solve(m.R, m.B.T)
    e, eT = x - m.S @ y, x - m.ST @ y
    f = 0.5 * (x @ m.Q @ x + v @ m.R @ v + e @ m.Qbar @ e)
    H = (0.5 * x @ (m.Q + m.Qbar) @ x - x @ m.Qbar @ m.S @ y
         + 0.5 * y @ m.S.T @ m.Qbar @ m.S @ y - 0.5 * q @ BRB @ q + q @ (m.A @ x + m.Abar @ y))
    assert running_cost(x[None], y, v[None], m)[0] == pytest.approx(f, rel=1e-13)
    assert terminal_cost(x[None], y, m)[0] == pytest.approx(
        0.5 * (x @ m.QT @ x + eT @ m.QbarT @ eT), rel=1e-13)
    assert hamiltonian(x[None], y, q[None], m)[0] == pytest.approx(H, rel=1e-13)
    assert np.allclose(lq_model.dx_hamiltonian(x[None], y, q[None], m)[0],
                       (m.Q + m.Qbar) @ x - m.Qbar @ m.S @ y + m.A.T @ q, rtol=1e-13)
    assert np.allclose(lq_model.measure_term(y, q, m),
                       (m.S.T @ m.Qbar @ m.S - m.S.T @ m.Qbar) @ y + m.Abar.T @ q, rtol=1e-13)


# ---------------------------------------------------------------------------
# quadratic forms: lq_model._quad against the three-operand einsum it replaced

def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _einsum_quad(a, M):
    return np.einsum("ij,jk,ik->i", a, M, a)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("N", [1, 2, 7, 2000, 100_000])
def test_quad_equals_einsum_bitwise(N, n):
    rng = np.random.default_rng([N, n])
    # entries from 1e-3 to 1e3 in size, both signs; M is not symmetric
    a = rng.standard_normal((N, n)) * 10.0 ** rng.uniform(-3, 3, (N, n))
    M = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
    assert np.array_equal(_bits(lq_model._quad(a, M)), _bits(_einsum_quad(a, M)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quad_signed_zero_rows_equal_einsum(n):
    # every term of a +-0.0 row under a negative-definite M is -0.0 or +0.0;
    # einsum adds them onto +0.0, so no row may come out as -0.0
    rows = np.array(np.meshgrid(*[[0.0, -0.0]] * n)).reshape(n, -1).T
    a = np.vstack([rows, np.ones((1, n))])
    M = -np.eye(n) - 0.1 * np.ones((n, n))
    got = lq_model._quad(a, M)
    assert np.array_equal(_bits(got), _bits(_einsum_quad(a, M)))
    assert not np.any(np.signbit(got[:-1]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_quad_non_finite_entries_equal_einsum(n, bad):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((6 * n, n))
    for i in range(a.shape[0]):
        a[i, i % n] = bad if i % 2 else a[i, i % n]
    a[0, :] = 0.0
    a[0, 0] = bad                       # inf * 0 makes a nan of its own
    M = rng.standard_normal((n, n))
    assert np.array_equal(_bits(lq_model._quad(a, M)), _bits(_einsum_quad(a, M)))
    M[0, -1] = bad
    assert np.array_equal(_bits(lq_model._quad(a, M)), _bits(_einsum_quad(a, M)))


def _einsum_running_cost(x, y, v, m):
    e = x - y @ m.S.T
    return 0.5 * (_einsum_quad(x, m.Q) + _einsum_quad(v, m.R) + _einsum_quad(e, m.Qbar))


def _einsum_terminal_cost(x, y, m):
    e = x - y @ m.ST.T
    return 0.5 * (_einsum_quad(x, m.QT) + _einsum_quad(e, m.QbarT))


@pytest.mark.parametrize("model", [SCALAR_COUPLED, make_coupled_2x2(), _model_n3_d2()],
                         ids=["scalar", "coupled_2x2", "n3_d2"])
def test_cost_kernels_equal_einsum_bitwise(model):
    # n3_d2 has d != n, so R's form has another width than Q's
    rng = np.random.default_rng(5)
    N, n = 300, model.n
    x, q, v = rng.normal(size=(N, n)), rng.normal(size=(N, n)), rng.normal(size=(N, model.d))
    y = rng.normal(size=n)
    assert np.array_equal(_bits(running_cost(x, y, v, model)),
                          _bits(_einsum_running_cost(x, y, v, model)))
    assert np.array_equal(_bits(terminal_cost(x, y, model)),
                          _bits(_einsum_terminal_cost(x, y, model)))

    def einsum_hamiltonian(x, q):
        vs = optimal_feedback(x, y, q, model)
        return (_einsum_running_cost(x, y, vs, model)
                + np.einsum("ij,ij->i", q, drift_G(x, y, q, model)))

    assert np.array_equal(_bits(hamiltonian(x, y, q, model)), _bits(einsum_hamiltonian(x, q)))
    for i in range(5):     # single rows
        xi, qi, vi = x[i:i + 1], q[i:i + 1], v[i:i + 1]
        assert _bits(running_cost(xi, y, vi, model)[0]) == _bits(
            _einsum_running_cost(xi, y, vi, model)[0])
        assert _bits(terminal_cost(xi, y, model)[0]) == _bits(
            _einsum_terminal_cost(xi, y, model)[0])
        assert _bits(hamiltonian(xi, y, qi, model)[0]) == _bits(einsum_hamiltonian(xi, qi)[0])


# ---------------------------------------------------------------------------
# R^{-1} B* and B R^{-1} B*: one factorisation per spec

def test_rinv_bt_and_brb_cached_read_only():
    m = make_coupled_2x2()
    RB, BRB = m.Rinv_Bt(), m.BRB()
    assert m.Rinv_Bt() is RB and m.BRB() is BRB
    assert np.array_equal(RB, np.linalg.solve(m.R, m.B.T))
    for M in (RB, BRB):
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
    from dataclasses import replace
    m2 = replace(m, R=2.0 * m.R)
    assert m2.Rinv_Bt() is not RB
    assert np.allclose(m2.Rinv_Bt(), 0.5 * RB, rtol=1e-14)
    assert np.allclose(m2.BRB(), 0.5 * BRB, rtol=1e-14)


def test_hamiltonian_factors_r_once_per_spec(monkeypatch):
    m = make_coupled_2x2()
    calls = []
    original = lq_model.cho_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lq_model, "cho_factor", counted)
    rng = np.random.default_rng(6)
    for _ in range(3):
        x, y, q = rng.normal(size=(3, 2))
        hamiltonian(x[None], y, q[None], m)
    assert len(calls) == 1
