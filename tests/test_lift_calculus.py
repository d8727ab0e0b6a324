"""Measure-derivative identities on the lifted Hilbert space."""
from __future__ import annotations

import numpy as np
import pytest

from masterlq import lift_calculus as lc
from masterlq.lift_calculus import (CubedMeanFunctional, GaussianMeasure,
                                    LinearFunctional, PHI_X, PHI_X2,
                                    SquaredMomentFunctional,
                                    builtin_functionals, check_buckdahn_relation,
                                    check_difference_identity,
                                    check_gradient_lift, check_second_identity,
                                    check_taylor_remainder, seeded_ensemble)

MEASURES = [GaussianMeasure(0.0, 1.0), GaussianMeasure(1.0, 2.0)]


@pytest.fixture(scope="module")
def ensembles():
    X = seeded_ensemble(4000, 7, mean=0.3, std=1.2)
    Y = seeded_ensemble(4000, 8, mean=1.0, std=1.0)
    return X, Y


# ---------------------------------------------------------------------------
# density vs lifted evaluation

def test_density_lifted_agree_at_monte_carlo_rate():
    F = SquaredMomentFunctional(PHI_X2)
    m = GaussianMeasure(0.0, 1.0)
    ref = F.F_density(m)
    errs = []
    for N in (10**3, 10**4, 10**5):
        X = seeded_ensemble(N, 11)
        errs.append(abs(F.F_lifted(X) - ref))
        assert errs[-1] < 10.0 / np.sqrt(N)
    assert errs[-1] < errs[0]


def test_d2fdm2_kernel_symmetric():
    xs = np.linspace(-2, 2, 20)
    for F in builtin_functionals():
        for m in MEASURES:
            K = np.array([[F.d2Fdm2(m, xi, eta) for eta in xs] for xi in xs])
            assert np.max(np.abs(K - K.T)) == 0.0


# ---------------------------------------------------------------------------
# gradient lift DF(X) = D_x dF/dm (X)

def test_gradient_lift_linear_is_exact(ensembles):
    X, Y = ensembles
    F = LinearFunctional(PHI_X)
    r = check_gradient_lift(F, X, Y)
    # directional derivative of mean(X) is mean(Y) for every theta
    assert r.abs_err < 1e-11


def test_gradient_lift_all_builtins(ensembles):
    X, Y = ensembles
    for F in builtin_functionals():
        r = check_gradient_lift(F, X, Y)
        assert r.passed, f"{F.name}: rel err {r.rel_err}"
        assert r.rel_err < 1e-6


def test_gradient_lift_rejects_empty():
    F = LinearFunctional(PHI_X)
    with pytest.raises(ValueError):
        check_gradient_lift(F, np.array([]), np.array([]))


# ---------------------------------------------------------------------------
# second-derivative identities

def test_second_identity_squared_moment_x_value():
    # LHS = 2 E[phi']^2 + 2 E[phi] E[phi''] = 2 for phi = x, any Gaussian
    F = SquaredMomentFunctional(PHI_X)
    for m in MEASURES:
        r = check_second_identity(F, m)
        assert r.lhs == pytest.approx(2.0, abs=1e-10)
        assert r.passed


def test_second_identity_squared_moment_x2_value():
    F = SquaredMomentFunctional(PHI_X2)
    r = check_second_identity(F, GaussianMeasure(0.0, 1.0))
    assert r.lhs == pytest.approx(4.0, abs=1e-10)
    assert r.rhs == pytest.approx(4.0, abs=1e-8)


def test_second_identity_all_builtins():
    for F in builtin_functionals():
        for m in MEASURES:
            r = check_second_identity(F, m)
            assert r.passed, f"{F.name} on {m}: {r.rel_err}"
            assert r.rel_err < 1e-8


def test_difference_identity_all_builtins():
    for F in builtin_functionals():
        for m in MEASURES:
            r = check_difference_identity(F, m)
            assert r.passed, f"{F.name} on {m}: {r.rel_err}"


def test_difference_identity_linear_is_zero():
    for phi in (PHI_X, PHI_X2, lc.PHI_EXPQ):
        F = LinearFunctional(phi)
        for m in MEASURES:
            r = check_difference_identity(F, m)
            assert abs(r.lhs) < 1e-10 and abs(r.rhs) < 1e-10


def test_difference_identity_squared_moment_x_value():
    # difference = 2 E[phi']^2 = 2 for phi = x
    F = SquaredMomentFunctional(PHI_X)
    r = check_difference_identity(F, GaussianMeasure(1.0, 2.0))
    assert r.lhs == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# mixed second measure derivative

def test_buckdahn_squared_moment_x_constant():
    F = SquaredMomentFunctional(PHI_X)
    xs = np.linspace(-2, 2, 5)
    for x in xs:
        for y in xs:
            assert F.d2m(GaussianMeasure(0, 1), x, y) == pytest.approx(2.0)


def test_buckdahn_relation_all_builtins():
    for F in builtin_functionals():
        for m in MEASURES:
            r = check_buckdahn_relation(F, m)
            assert r.passed, f"{F.name}: {r.rel_err}"
            assert r.rel_err < 1e-6


# ---------------------------------------------------------------------------
# Taylor remainder

def test_taylor_cubed_mean_slope_three(ensembles):
    X, Y = ensembles
    r = check_taylor_remainder(CubedMeanFunctional(), X, Y)
    assert r.passed
    assert 2.9 <= r.extra["slope"] <= 3.1


def test_taylor_cubed_mean_remainder_exact():
    # R(eps) = eps^3 (E Y)^3 exactly for the cubed mean
    X = seeded_ensemble(2000, 3)
    Y = seeded_ensemble(2000, 4, mean=1.0)
    F = CubedMeanFunctional()
    r = check_taylor_remainder(F, X, Y, eps_list=(1e-1,))
    Ey = float(np.mean(Y))
    assert r.extra["remainders"][0] == pytest.approx((0.1 * Ey) ** 3, rel=1e-9)


def test_taylor_squared_moment_zero_remainder(ensembles):
    X, Y = ensembles
    r = check_taylor_remainder(SquaredMomentFunctional(PHI_X), X, Y)
    assert r.extra.get("below_noise_floor")
    assert r.abs_err < 1e-11


def test_taylor_zero_mean_direction_kills_remainder():
    X = seeded_ensemble(2000, 5)
    Y = seeded_ensemble(2000, 6)
    Y = Y - Y.mean()
    r = check_taylor_remainder(CubedMeanFunctional(), X, Y)
    assert r.extra.get("below_noise_floor")


# ---------------------------------------------------------------------------
# infrastructure

def test_seeded_ensemble_reproducible():
    a = seeded_ensemble(100, 42)
    b = seeded_ensemble(100, 42)
    assert np.array_equal(a, b)
    c = seeded_ensemble(100, 43)
    assert not np.array_equal(a, c)


def test_report_to_dict_keys():
    F = LinearFunctional(PHI_X)
    d = check_second_identity(F, GaussianMeasure(0, 1)).to_dict()
    for key in ("check", "functional", "lhs", "rhs", "abs_err", "rel_err", "pass"):
        assert key in d
