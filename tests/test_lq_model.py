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
    x, y, q = np.array([2.0]), np.zeros(1), np.zeros(1)
    assert hamiltonian(x, y, q, m) == pytest.approx(2.0)


def test_hamiltonian_pure_control_term():
    m = scalar_model(B=1.0, R=1.0)
    assert hamiltonian(np.zeros(1), np.zeros(1), np.array([2.0]), m) == pytest.approx(-2.0)


def test_hamiltonian_full_scalar_by_hand():
    # 1/2*2 - 1 + 1/2 - 1/2 + 1 = 1
    m = scalar_model(A=1.0, B=1.0, Q=1.0, Qbar=1.0, S=1.0, R=1.0)
    one = np.ones(1)
    assert hamiltonian(one, one, one, m) == pytest.approx(1.0)


def test_hamiltonian_is_infimum_over_control_grid():
    m = make_coupled_2x2()
    rng = np.random.default_rng(0)
    x, y, q = rng.normal(size=3 * 2).reshape(3, 2)
    H = hamiltonian(x, y, q, m)
    for v in rng.normal(scale=2.0, size=(200, 2)):
        val = running_cost(x, y, v, m) + q @ (m.A @ x + m.Abar @ y + m.B @ v)
    # the optimal control itself attains the infimum
        assert H <= val + 1e-12
    v_hat = optimal_feedback(x, y, q, m)
    attained = running_cost(x, y, v_hat, m) + q @ (m.A @ x + m.Abar @ y + m.B @ v_hat)
    assert attained == pytest.approx(H, abs=1e-12)


# ---------------------------------------------------------------------------
# feedback and drift

def test_feedback_zero_gradient():
    m = make_coupled_2x2()
    assert np.allclose(optimal_feedback(np.ones(2), np.ones(2), np.zeros(2), m), 0.0)


def test_feedback_scalar_by_hand():
    m = scalar_model(B=2.0, R=4.0)
    v = optimal_feedback(np.zeros(1), np.zeros(1), np.ones(1), m)
    assert v == pytest.approx(-0.5)


@given(alpha=st.floats(-10, 10, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_feedback_linear_in_q(alpha):
    m = make_coupled_2x2()
    q = np.array([0.7, -1.3])
    base = optimal_feedback(np.zeros(2), np.zeros(2), q, m)
    scaled = optimal_feedback(np.zeros(2), np.zeros(2), alpha * q, m)
    assert np.allclose(scaled, alpha * base, rtol=0, atol=1e-12 * (1 + abs(alpha)))


def test_drift_scalar_by_hand():
    m = scalar_model(A=1.0, Abar=1.0, B=1.0, R=1.0)
    g = drift_G(np.array([1.0]), np.array([2.0]), np.array([3.0]), m)
    assert g == pytest.approx(0.0)


def test_drift_equals_q_gradient_of_hamiltonian():
    m = make_coupled_2x2()
    rng = np.random.default_rng(1)
    x, y, q = rng.normal(size=3 * 2).reshape(3, 2)
    g = drift_G(x, y, q, m)
    h = 1e-5
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (hamiltonian(x, y, q + e, m) - hamiltonian(x, y, q - e, m)) / (2 * h)
        assert abs(fd - g[k]) / max(1.0, abs(g[k])) < 1e-6


def test_drift_consistent_with_dynamics_at_optimum():
    m = make_coupled_2x2()
    rng = np.random.default_rng(2)
    x, y, q = rng.normal(size=3 * 2).reshape(3, 2)
    v = optimal_feedback(x, y, q, m)
    assert np.allclose(drift_G(x, y, q, m), lq_model.dynamics(x, y, v, m), atol=1e-12)


# ---------------------------------------------------------------------------
# costs

def test_terminal_cost_zero_matrices():
    m = scalar_model(Q=1.0, R=1.0)
    assert terminal_cost(np.array([3.0]), np.array([1.0]), m) == 0.0


def test_running_cost_quadratic_scaling():
    m = make_coupled_2x2()
    x, y, v = np.ones(2), 0.5 * np.ones(2), np.array([1.0, -1.0])
    assert running_cost(2 * x, 2 * y, 2 * v, m) == pytest.approx(
        4.0 * running_cost(x, y, v, m))


# ---------------------------------------------------------------------------
# JSON loading

def test_model_from_dict_defaults_missing_to_zero():
    m = model_from_dict({"n": 1, "d": 1, "T": 1.0, "R": 1.0})
    assert np.all(m.A == 0) and np.all(m.QT == 0)
    assert validate(m).valid


def test_model_from_dict_requires_R():
    with pytest.raises((KeyError, ValueError)):
        model_from_dict({"n": 1, "d": 1, "T": 1.0})


def test_load_model_round_trip(tmp_path):
    doc = {"n": 2, "d": 2, "T": 0.7, "R": [[2.0, 0.0], [0.0, 2.0]],
           "A": [[0.1, 0.2], [0.0, 0.3]], "sigma": 0.4, "beta": 0.1}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    m = load_model(str(path))
    assert m.n == 2 and m.T == 0.7 and m.sigma == 0.4
    assert np.allclose(m.A, doc["A"])
    assert np.allclose(m.R, 2.0 * np.eye(2))
