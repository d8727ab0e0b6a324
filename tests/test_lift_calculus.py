"""Measure-derivative identities on the lifted Hilbert space."""
from __future__ import annotations

import numpy as np
import pytest

from masterlq import cli
from masterlq import lift_calculus as lc
from masterlq.lift_calculus import (GaussianMeasure, builtin_functionals,
                                    check_buckdahn_relation, check_difference_identity,
                                    check_gradient_lift, check_second_identity,
                                    check_taylor_remainder, seeded_ensemble)

MEASURES = [GaussianMeasure(0.0, 1.0), GaussianMeasure(1.0, 2.0)]
BUILTIN = {F.name: F for F in builtin_functionals()}


@pytest.fixture(scope="module")
def ensembles():
    X = 0.3 + 1.2 * seeded_ensemble(4000, 7)
    Y = seeded_ensemble(4000, 8, mean=1.0)
    return X, Y


# ---------------------------------------------------------------------------
# density vs lifted evaluation

def test_density_lifted_agree_at_monte_carlo_rate():
    F = BUILTIN["squared-moment[x^2]"]
    ref = 1.0     # (E X^2)^2 under N(0, 1)
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
    r = check_gradient_lift(BUILTIN["linear[x]"], X, Y)
    # directional derivative of mean(X) is mean(Y) for every theta
    assert r["abs_err"] < 1e-11


def test_gradient_lift_all_builtins(ensembles):
    X, Y = ensembles
    for F in builtin_functionals():
        r = check_gradient_lift(F, X, Y)
        assert r["pass"], f"{F.name}: rel err {r['rel_err']}"
        assert r["rel_err"] < 1e-6


def test_gradient_lift_rejects_empty():
    with pytest.raises(ValueError):
        check_gradient_lift(BUILTIN["linear[x]"], np.array([]), np.array([]))


# ---------------------------------------------------------------------------
# second-derivative identities

def _closed_forms(mu, var):
    """(sum_k D2F(e_k, e_k), D2F(N, N)) at N(mu, var), derived by hand from
    D2F(X)(Y, Y) = g''(s) E[phi'(X) Y]^2 + g'(s) E[phi''(X) Y^2]."""
    m2 = mu * mu + var      # E X^2
    return {"linear[x]": (0.0, 0.0),
            "linear[x^2]": (2.0, 2.0),
            "squared-moment[x]": (2.0, 0.0),
            "squared-moment[x^2]": (8.0 * mu * mu + 4.0 * m2, 4.0 * m2),
            "cubed-mean": (6.0 * mu, 0.0)}


@pytest.mark.parametrize("m", MEASURES, ids=["N(0,1)", "N(1,2)"])
@pytest.mark.parametrize("name", list(_closed_forms(0.0, 1.0)))
def test_second_derivatives_closed_form(name, m):
    F = BUILTIN[name]
    total, indep = _closed_forms(m.mean, m.std ** 2)[name]
    assert F.sum_D2F_ek(m) == pytest.approx(total, abs=1e-10)
    assert F.D2F_indep_gauss(m) == pytest.approx(indep, abs=1e-10)
    # the quadrature sides of both identities reach the same values
    assert check_second_identity(F, m)["rhs"] == pytest.approx(total, abs=1e-8)
    assert check_difference_identity(F, m)["rhs"] == pytest.approx(total - indep, abs=1e-8)


def test_second_identity_all_builtins():
    for F in builtin_functionals():
        for m in MEASURES:
            r = check_second_identity(F, m)
            assert r["pass"], f"{F.name} on {m}: {r['rel_err']}"
            assert r["rel_err"] < 1e-8


def test_difference_identity_all_builtins():
    for F in builtin_functionals():
        for m in MEASURES:
            r = check_difference_identity(F, m)
            assert r["pass"], f"{F.name} on {m}: {r['rel_err']}"


# ---------------------------------------------------------------------------
# mixed second measure derivative

def test_buckdahn_squared_moment_x_constant():
    F = BUILTIN["squared-moment[x]"]
    xs = np.linspace(-2, 2, 5)
    for x in xs:
        for y in xs:
            assert F.d2m(GaussianMeasure(0, 1), x, y) == pytest.approx(2.0)


def test_buckdahn_relation_all_builtins():
    for F in builtin_functionals():
        for m in MEASURES:
            r = check_buckdahn_relation(F, m)
            assert r["pass"], f"{F.name}: {r['rel_err']}"
            assert r["rel_err"] < 1e-6


# ---------------------------------------------------------------------------
# Taylor remainder

def test_taylor_cubed_mean_slope_three(ensembles):
    X, Y = ensembles
    r = check_taylor_remainder(BUILTIN["cubed-mean"], X, Y)
    assert r["pass"]
    assert 2.9 <= r["slope"] <= 3.1


def test_taylor_cubed_mean_remainder_exact():
    # R(eps) = eps^3 (E Y)^3 exactly for the cubed mean
    X = seeded_ensemble(2000, 3)
    Y = seeded_ensemble(2000, 4, mean=1.0)
    r = check_taylor_remainder(BUILTIN["cubed-mean"], X, Y)   # eps = 1e-1 first
    Ey = float(np.mean(Y))
    assert r["remainders"][0] == pytest.approx((0.1 * Ey) ** 3, rel=1e-9)


def test_taylor_squared_moment_zero_remainder(ensembles):
    X, Y = ensembles
    r = check_taylor_remainder(BUILTIN["squared-moment[x]"], X, Y)
    assert r.get("below_noise_floor")
    assert r["abs_err"] < 1e-11


def test_taylor_zero_mean_direction_kills_remainder():
    X = seeded_ensemble(2000, 5)
    Y = seeded_ensemble(2000, 6)
    Y = Y - Y.mean()
    r = check_taylor_remainder(BUILTIN["cubed-mean"], X, Y)
    assert r.get("below_noise_floor")


def _per_particle_remainders(F, X0, Y, eps_list=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3)):
    """The Taylor remainders with the second-order kernel formed one particle
    at a time, every derivative evaluated afresh."""
    F0 = F.F_lifted(X0)
    out = []
    for eps in eps_list:
        D = eps * Y
        t1 = float(np.mean(F.DF_lifted(X0) * D))
        inner = np.array([np.mean(F.d2m(X0, xi, X0) * D) for xi in X0])
        t2 = 0.5 * float(np.mean(D * inner))
        t3 = 0.5 * float(np.mean(F.dx_dm(X0, X0) * D * D))
        out.append(F.F_lifted(X0 + D) - F0 - t1 - t2 - t3)
    return out


@pytest.mark.parametrize("name,N", [(name, N) for name in BUILTIN for N in (1, 63, 64, 65, 300)]
                         + [("cubed-mean", 2000)])      # the size `verify --suite lift` uses
def test_taylor_remainders_equal_per_particle_kernel(name, N):
    # the check forms the second-order term from the rank-one kernel as
    # g''(s) phi'(xi) mean(phi'(X0) D), the reference as the mean of each
    # N-term kernel row: two roundings of the same term, each within about
    # (5 + 2 log2 N) eps of its scale g''(s) mean|phi'(X0) D|^2 / 2, so the
    # remainders may differ by up to 32 eps of that scale (N <= 2000) and,
    # where g'' = 0, not at all
    F = BUILTIN[name]
    X0 = seeded_ensemble(N, 11, mean=0.4)
    Y = seeded_ensemble(N, 12, mean=1.0)
    ref = _per_particle_remainders(F, X0, Y)
    r = check_taylor_remainder(F, X0, Y)
    g2, d1 = F.g2(F.moment(X0)), F.phi.d1(X0)
    tol = [32 * np.finfo(float).eps * 0.5 * abs(g2) * np.mean(np.abs(d1 * eps * Y)) ** 2
           for eps in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)]
    if r.get("below_noise_floor"):
        assert abs(r["abs_err"] - max(abs(x) for x in ref)) <= max(tol)
    else:
        assert all(abs(a - b) <= t for a, b, t in zip(r["remainders"], ref, tol, strict=True))


# ---------------------------------------------------------------------------
# infrastructure

def test_seeded_ensemble_reproducible():
    a = seeded_ensemble(100, 42)
    b = seeded_ensemble(100, 42)
    assert np.array_equal(a, b)
    c = seeded_ensemble(100, 43)
    assert not np.array_equal(a, c)


def test_report_keys():
    d = check_second_identity(BUILTIN["linear[x]"], GaussianMeasure(0, 1))
    for key in ("check", "functional", "lhs", "rhs", "abs_err", "rel_err", "pass"):
        assert key in d


def test_builtin_names_in_report_order():
    assert list(BUILTIN) == ["linear[x]", "linear[x^2]", "linear[exp(-x^2/2)]",
                             "squared-moment[x]", "squared-moment[x^2]",
                             "squared-moment[exp(-x^2/2)]", "cubed-mean"]


def test_quad_points_fresh_arrays():
    m = GaussianMeasure(1.0, 2.0)
    x, w = m.quad_points(128)
    x0, w0 = x.copy(), w.copy()
    x[:] = 0.0
    w[:] = 0.0
    x1, w1 = m.quad_points(128)
    assert np.array_equal(x1, x0) and np.array_equal(w1, w0)


def test_verify_lift_builds_each_rule_once(tmp_path, monkeypatch):
    built = []
    hermegauss = lc.hermegauss
    monkeypatch.setattr(lc, "hermegauss", lambda order: built.append(order) or hermegauss(order))
    lc._hermegauss_rule.cache_clear()
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["verify", "--suite", "lift", f"--out={out}"]) == 0
    assert sorted(built) == sorted(lc.QUAD_ORDERS)
    # the second run reads the rules built by the first: same bytes
    a, b = ((out / "verify_lift.json").read_bytes() for out in outs)
    assert a == b
