"""Functionals of 1D probability measures with closed-form derivatives.

Every built-in functional has the form F(m) = g(int phi dm), g(s) = s^p,
and is read both on Gaussian measures (moments by Gauss-Hermite
quadrature) and on the Hilbert space of square-integrable random variables
(F(X) evaluated on particle ensembles).  One chain rule gives the closed
forms

    dF/dm (m)(xi),   d2F/dm2 (m)(xi, eta),
    DF(X) sample-wise,  sum_k D2F(X)(e_k, e_k) and D2F(X)(N, N) for X ~ m,

and the mixed second measure derivative d2m F(m)(x, y) obtained by
differentiating the kernel in each slot.  The check_* routines verify the
identities tying these together, each returning one report dict:

    DF(X) = D_x dF/dm (m)(X)                              (gradient lift)
    sum_k D2F(e_k, e_k) = int dF/dm Lap(m) + int int d2F/dm2 Dm Dm
    sum_k D2F(e_k, e_k) - D2F(N, N) = int int d2F/dm2 Dm Dm
    d2m F(m)(x, y) = D_y D_x d2F/dm2 (x, y)
    third-order Taylor remainder in the measure argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss


@lru_cache(maxsize=None)
def _hermegauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """hermegauss(order), built once per order; the arrays are read-only."""
    z, w = hermegauss(order)
    z.flags.writeable = w.flags.writeable = False
    return z, w


@dataclass(frozen=True)
class GaussianMeasure:
    mean: float
    std: float

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError("std must be positive")

    def quad_points(self, order: int):
        """Nodes/weights so that E[f(X)] = sum w_i f(x_i); fresh arrays."""
        z, w = _hermegauss_rule(order)
        return self.mean + self.std * z, w / np.sqrt(2.0 * np.pi)

    # density derivative factors: Dm = dlog * m, Lap m = dlap * m
    def dlog(self, x):
        return -(x - self.mean) / self.std ** 2

    def dlap(self, x):
        u = (x - self.mean) / self.std ** 2
        return u * u - 1.0 / self.std ** 2


def _expect(m: GaussianMeasure, f, order: int = 128) -> float:
    x, w = m.quad_points(order)
    return float(w @ f(x))


# ---------------------------------------------------------------------------
# test-function basis phi with closed-form derivatives

@dataclass(frozen=True)
class Phi:
    name: str
    f: callable
    d1: callable
    d2: callable


PHI_X = Phi("x", lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x))
PHI_X2 = Phi("x^2", lambda x: x * x, lambda x: 2.0 * x, lambda x: np.full_like(x, 2.0))
PHI_EXPQ = Phi(
    "exp(-x^2/2)",
    lambda x: np.exp(-0.5 * x * x),
    lambda x: -x * np.exp(-0.5 * x * x),
    lambda x: (x * x - 1.0) * np.exp(-0.5 * x * x),
)


class MomentFunctional:
    """F(m) = g(int phi dm) with g(s) = s^p, p = 1, 2 or 3.

    The measure argument m is a GaussianMeasure, whose moment
    s = int phi dm comes by Gauss-Hermite quadrature, or an ensemble X, read
    as its empirical measure (s = mean phi(X)); on an ensemble F is the lift
    F(X).  Every derivative is one chain rule: g'(s) = p s^(p-1) or
    g''(s) = p (p-1) s^(p-2) times phi, phi' or phi''.
    """

    def __init__(self, name: str, phi: Phi, p: int):
        self.name, self.phi, self.p = name, phi, p

    def moment(self, m, order: int = 128):
        if isinstance(m, GaussianMeasure):
            return _expect(m, self.phi.f, order)
        return np.mean(self.phi.f(m))

    def g1(self, s):
        return self.p * s ** (self.p - 1)

    def g2(self, s):
        return self.p * (self.p - 1) * s ** max(self.p - 2, 0)   # no s^-1 at p = 1

    def F_lifted(self, X: np.ndarray) -> float:
        return float(self.moment(X) ** self.p)

    def DF_lifted(self, X: np.ndarray) -> np.ndarray:
        """DF(X) = D_x dF/dm (m_X)(X), which is also partial_m F at X's
        empirical measure evaluated at X."""
        return self.g1(self.moment(X)) * self.phi.d1(X)

    def dFdm(self, m: GaussianMeasure, xi, order: int = 128):
        return self.g1(self.moment(m, order)) * self.phi.f(xi)

    def d2Fdm2(self, m: GaussianMeasure, xi, eta, order: int = 128):
        return self.g2(self.moment(m, order)) * (self.phi.f(xi) * self.phi.f(eta))

    def d2m(self, m, x, y):
        """Mixed second measure derivative d2m F(m)(x, y)."""
        return self.g2(self.moment(m)) * (self.phi.d1(x) * self.phi.d1(y))

    def dx_dm(self, m, x):
        """D_x partial_m F(m)(x)."""
        return self.g1(self.moment(m)) * self.phi.d2(x)

    # analytic Gaussian evaluations of the Hilbert-space second derivative
    def sum_D2F_ek(self, m: GaussianMeasure) -> float:
        """sum_k D2F(X)(e_k, e_k) for X ~ m (n = 1: single term)."""
        s, e1 = self.moment(m), _expect(m, self.phi.d1)
        return self.g2(s) * e1 * e1 + self.g1(s) * _expect(m, self.phi.d2)

    def D2F_indep_gauss(self, m: GaussianMeasure) -> float:
        """D2F(X)(N, N) with N standard Gaussian independent of X ~ m:
        E[phi'(X) N] = 0 and E[phi''(X) N^2] = E[phi''(X)]."""
        return self.g1(self.moment(m)) * _expect(m, self.phi.d2)


def builtin_functionals() -> list[MomentFunctional]:
    phis = (PHI_X, PHI_X2, PHI_EXPQ)
    return ([MomentFunctional(f"linear[{phi.name}]", phi, 1) for phi in phis]
            + [MomentFunctional(f"squared-moment[{phi.name}]", phi, 2) for phi in phis]
            # the minimal functional with nonzero third order
            + [MomentFunctional("cubed-mean", PHI_X, 3)])


# ---------------------------------------------------------------------------
# quadrature helpers for the density-side integrals

QUAD_ORDERS = (128, 192)
QUAD_AGREEMENT = 1e-8


class QuadratureDisagreement(RuntimeError):
    pass


def _quad_dFdm_lap(F: MomentFunctional, m: GaussianMeasure, order: int) -> float:
    # int dF/dm (xi) Lap m(xi) dxi = E[ dF/dm (X) dlap(X) ]
    x, w = m.quad_points(order)
    return float(w @ (F.dFdm(m, x, order) * m.dlap(x)))


def _quad_d2F_DmDm(F: MomentFunctional, m: GaussianMeasure, order: int) -> float:
    # int int d2F/dm2 (xi, eta) Dm(xi) Dm(eta) = E_xi E_eta [k * dlog(xi) dlog(eta)]
    x, w = m.quad_points(order)
    K = F.d2Fdm2(m, x[:, None], x[None, :], order)
    g = w * m.dlog(x)
    return float(g @ K @ g)


def _quad_checked(fn, F, m) -> float:
    vals = [fn(F, m, o) for o in QUAD_ORDERS]
    if abs(vals[-1] - vals[0]) > QUAD_AGREEMENT * max(1.0, abs(vals[-1])):
        raise QuadratureDisagreement(
            f"{F.name}: quadrature orders {QUAD_ORDERS} disagree: {vals}")
    return vals[-1]


# ---------------------------------------------------------------------------
# identity checks

# The bounds the checks read at each call, which `verify --suite lift` records; the
# Taylor fit's order must lie in [3 - taylor_slope, 3 + taylor_slope].
BOUNDS = {"lift_fd_rel": 1e-6, "lift_quad_rel": 1e-8, "lift_linear_zero": 1e-10,
          "taylor_slope": 0.1}


def _report(check, F, lhs, rhs, abs_err, rel_err, passed, **extra) -> dict:
    """A check's result: its name, the functional, the two sides, their
    errors and the verdict, then the check's own extras."""
    return {"check": check, "functional": F.name, "lhs": lhs, "rhs": rhs,
            "abs_err": abs_err, "rel_err": rel_err, "pass": passed, **extra}


def _mk_report(check, F, lhs, rhs, tol) -> dict:
    """lhs against rhs: the check passes when the relative error is below tol."""
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(1.0, abs(lhs), abs(rhs))
    return _report(check, F, float(lhs), float(rhs), abs_err, rel_err, bool(rel_err < tol))


def check_gradient_lift(F: MomentFunctional, X: np.ndarray, Y: np.ndarray) -> dict:
    """Directional derivative of the lifted F against <DF(X), Y>."""
    if X.size == 0:
        raise ValueError("empty ensemble")
    exact = float(np.mean(F.DF_lifted(X) * Y))
    theta_steps = (1e-3, 1e-4, 1e-5)
    errs = []
    slopes = {}
    for th in theta_steps:
        c = (F.F_lifted(X + th * Y) - F.F_lifted(X - th * Y)) / (2.0 * th)
        c2 = (F.F_lifted(X + 0.5 * th * Y) - F.F_lifted(X - 0.5 * th * Y)) / th
        rich = (4.0 * c2 - c) / 3.0
        slopes[th] = rich
        errs.append(abs(rich - exact) / max(1.0, abs(exact)))
    best = min(errs)
    return _report("gradient_lift", F, exact, slopes[min(theta_steps)],
                   abs(slopes[min(theta_steps)] - exact), best,
                   bool(best < BOUNDS["lift_fd_rel"]), theta_steps=list(theta_steps))


def check_second_identity(F: MomentFunctional, m: GaussianMeasure) -> dict:
    """sum_k D2F(e_k,e_k) vs quadrature of dF/dm Lap m + double kernel term."""
    lhs = F.sum_D2F_ek(m)
    rhs = _quad_checked(_quad_dFdm_lap, F, m) + _quad_checked(_quad_d2F_DmDm, F, m)
    return _mk_report("second_identity", F, lhs, rhs, BOUNDS["lift_quad_rel"])


def check_difference_identity(F: MomentFunctional, m: GaussianMeasure) -> dict:
    """sum_k D2F(e_k,e_k) - D2F(N,N) vs the double kernel quadrature.

    For linear functionals the difference vanishes identically.
    """
    lhs = F.sum_D2F_ek(m) - F.D2F_indep_gauss(m)
    rhs = _quad_checked(_quad_d2F_DmDm, F, m)
    rep = _mk_report("difference_identity", F, lhs, rhs, BOUNDS["lift_quad_rel"])
    if F.p == 1:
        zero = BOUNDS["lift_linear_zero"]
        rep["pass"] = rep["pass"] and abs(lhs) < zero and abs(rhs) < zero
        rep["linear_zero"] = abs(lhs) < zero
    return rep


def check_buckdahn_relation(F: MomentFunctional, m: GaussianMeasure) -> dict:
    """d2m F(m)(x,y) vs mixed central finite difference of d2F/dm2, on a
    20 x 20 grid over mean +- 3 std with step h = 1e-4."""
    xs = np.linspace(m.mean - 3.0 * m.std, m.mean + 3.0 * m.std, 20)
    Xg, Yg = np.meshgrid(xs, xs, indexing="ij")
    direct = F.d2m(m, Xg, Yg)
    h = 1e-4
    fd = (F.d2Fdm2(m, Xg + h, Yg + h) - F.d2Fdm2(m, Xg + h, Yg - h)
          - F.d2Fdm2(m, Xg - h, Yg + h) + F.d2Fdm2(m, Xg - h, Yg - h)) / (4.0 * h * h)
    err = float(np.max(np.abs(direct - fd)))
    scale = max(1.0, float(np.max(np.abs(direct))))
    return _report("buckdahn_relation", F, float(np.max(np.abs(direct))),
                   float(np.max(np.abs(fd))), err, err / scale,
                   bool(err / scale < BOUNDS["lift_fd_rel"]))


def check_taylor_remainder(F: MomentFunctional, X0: np.ndarray, Y: np.ndarray) -> dict:
    """Fit the order of the remainder after the second-order expansion.

    Remainder R(eps) = F(X0 + eps Y) - [F(X0) + first + two second-order
    terms] at eps = 1e-1 ... 1e-3; a three-times differentiable functional
    gives slope ~= 3.  A fit needs two remainders above the noise floor.
    """
    eps_list, noise_floor = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3), 1e-12
    F0 = F.F_lifted(X0)
    DF0, dx_dm0 = F.DF_lifted(X0), F.dx_dm(X0, X0)
    # d2m(X0, xi, X0) = g''(s) phi'(xi) phi'(X0), with s the moment of X0:
    # a rank-one kernel, so its mean against D over the second copy is one
    # row product, g''(s) phi'(xi) mean(phi'(X0) D), never an N x N array
    g2, d1 = F.g2(F.moment(X0)), F.phi.d1(X0)
    remainders = []
    for eps in eps_list:
        D = eps * Y
        t1 = float(np.mean(DF0 * D))
        # E_(X X0) (X-X0) . E_(Y Y0) d2m(X0, Y0)(Y-Y0), copies share the ensemble
        inner = g2 * d1 * np.mean(d1 * D)
        t2 = 0.5 * float(np.mean(D * inner))
        t3 = 0.5 * float(np.mean(dx_dm0 * D * D))
        R = F.F_lifted(X0 + D) - F0 - t1 - t2 - t3
        remainders.append(R)
    remainders = np.asarray(remainders)
    if np.max(np.abs(remainders)) < noise_floor:
        return _report("taylor_remainder", F, 0.0, 0.0, float(np.max(np.abs(remainders))),
                       0.0, True, slope=None, below_noise_floor=True)
    mask = np.abs(remainders) > noise_floor
    if int(np.sum(mask)) < 2:
        return _report("taylor_remainder", F, 0.0, 3.0, 0.0, 0.0, True, slope=None,
                       remainders=remainders.tolist(), too_few_points_for_fit=True)
    slope = float(np.polyfit(np.log(np.asarray(eps_list)[mask]),
                             np.log(np.abs(remainders[mask])), 1)[0])
    b = BOUNDS["taylor_slope"]
    return _report("taylor_remainder", F, slope, 3.0, abs(slope - 3.0), abs(slope - 3.0) / 3.0,
                   bool(3.0 - b <= slope <= 3.0 + b), slope=slope, remainders=remainders.tolist())


def seeded_ensemble(N: int, seed: int, mean=0.0) -> np.ndarray:
    """Reproducible unit-variance Gaussian sample for lifted checks."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return mean + rng.standard_normal(N)
