"""Linear-quadratic mean-field model data and closed-form Hamiltonian machinery.

The model couples each agent to the population only through the first
moment y of the current measure.  Running cost, terminal cost and dynamics:

    f(x, y, v) = 1/2 [ x*Qx + v*Rv + (x - Sy)* Qbar (x - Sy) ]
    h(x, y)    = 1/2 [ x*QT x + (x - ST y)* QbarT (x - ST y) ]
    g(x, y, v) = Ax + Abar y + Bv

with scalar idiosyncratic noise coefficient sigma and common-noise
coefficient beta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

SYM_TOL = 1e-12

_MATRIX_KEYS = ("A", "Abar", "B", "Q", "Qbar", "S", "R", "QT", "QbarT", "ST")


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class LQModelSpec:
    n: int
    d: int
    T: float
    A: np.ndarray
    Abar: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    Qbar: np.ndarray
    S: np.ndarray
    R: np.ndarray
    QT: np.ndarray
    QbarT: np.ndarray
    ST: np.ndarray
    sigma: float = 0.0
    beta: float = 0.0
    convex: bool = False

    def __post_init__(self):
        for name in _MATRIX_KEYS:
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))

    # R^{-1} B* and B R^{-1} B* are built once per spec and kept, read-only,
    # in the instance dict; dataclasses.replace makes a new spec and so a new
    # cache.

    def Rinv_Bt(self) -> np.ndarray:
        """R^{-1} B*, via Cholesky."""
        RB = self.__dict__.get("_Rinv_Bt")
        if RB is None:
            c, low = cho_factor(self.R)
            RB = _cache(self, "_Rinv_Bt", cho_solve((c, low), self.B.T))
        return RB

    def BRB(self) -> np.ndarray:
        """B R^{-1} B*, the control-weight kernel of the Hamiltonian."""
        BRB = self.__dict__.get("_BRB")
        if BRB is None:
            BRB = _cache(self, "_BRB", self.B @ self.Rinv_Bt())
        return BRB


def _cache(model: LQModelSpec, name: str, value: np.ndarray) -> np.ndarray:
    value.flags.writeable = False
    object.__setattr__(model, name, value)
    return value


def _is_symmetric(M: np.ndarray) -> bool:
    return np.max(np.abs(M - M.T)) <= SYM_TOL if M.size else True


def _is_psd(M: np.ndarray) -> bool:
    return np.min(np.linalg.eigvalsh(0.5 * (M + M.T))) >= -SYM_TOL


def validate(model: LQModelSpec) -> ValidationReport:
    """Check every model invariant; returns a report instead of raising."""
    v: list[str] = []
    n, d = model.n, model.d
    if n < 1 or d < 1:
        v.append("dimensions n, d must be positive")
        return ValidationReport(v)
    if not 0.0 < model.T < np.inf:
        v.append(f"horizon T must be finite and positive, got {model.T}")
    for name in ("sigma", "beta"):
        if not 0.0 <= getattr(model, name) < np.inf:
            v.append(f"noise coefficient {name} must be finite and nonnegative, "
                     f"got {getattr(model, name)}")

    shapes = {
        "A": (n, n), "Abar": (n, n), "B": (n, d), "Q": (n, n), "Qbar": (n, n),
        "S": (n, n), "R": (d, d), "QT": (n, n), "QbarT": (n, n), "ST": (n, n),
    }
    for name, shape in shapes.items():
        M = getattr(model, name)
        if M.shape != shape:
            v.append(f"dimension mismatch: {name} has shape {M.shape}, expected {shape}")
        elif not np.all(np.isfinite(M)):
            v.append(f"{name} has non-finite entries")
    if v:
        return ValidationReport(v)

    for name in ("Q", "Qbar", "R", "QT", "QbarT"):
        if not _is_symmetric(getattr(model, name)):
            v.append(f"{name} not symmetric (tolerance {SYM_TOL})")
    try:
        cho_factor(model.R)
    except np.linalg.LinAlgError:
        v.append("R not positive definite")
    except ValueError:
        v.append("R not positive definite")
    if model.convex:
        for name in ("Q", "Qbar", "QT", "QbarT"):
            if _is_symmetric(getattr(model, name)) and not _is_psd(getattr(model, name)):
                v.append(f"{name} not positive semi-definite (model flagged convex)")
    return ValidationReport(v)


def _rows(z, width: int):
    """(rows, single): z as (N, width) rows, a single point being one row."""
    z = np.asarray(z, dtype=float)
    return (z, False) if z.ndim == 2 else (z.reshape(1, width), True)


def _mean(y, n: int) -> np.ndarray:
    """The population mean (n,), or one mean per row (N, n)."""
    y = np.asarray(y, dtype=float)
    return y if y.ndim == 2 else y.reshape(n)


def _point(vals: np.ndarray, single: bool):
    """A kernel's rows, or its value at the single point it was given."""
    if not single:
        return vals
    return float(vals[0]) if vals.ndim == 1 else vals[0]


# The kernels below take one point (n,) or rows (N, n) of x (and q, v); the
# mean y is one (n,) vector shared by all rows, or one per row.  A point
# gives a float (a vector for v*, D_q H and D_x H), rows give one value per row.

def hamiltonian(x: np.ndarray, y: np.ndarray, q: np.ndarray, model: LQModelSpec):
    """H(x, y, q) = inf_v [ f(x,y,v) + q.g(x,y,v) ] = f(x, y, v*) + q.G(x, y, q),
    attained at v* = -R^{-1} B* q."""
    (x, single), (q, _) = _rows(x, model.n), _rows(q, model.n)
    v = optimal_feedback(x, y, q, model)
    H = running_cost(x, y, v, model) + np.einsum("ij,ij->i", q, drift_G(x, y, q, model))
    return _point(H, single)


def optimal_feedback(x: np.ndarray, y: np.ndarray, q: np.ndarray, model: LQModelSpec) -> np.ndarray:
    """Unique minimizer v* = -R^{-1} B* q of v -> f(x,y,v) + q.g(x,y,v); linear in q."""
    q, single = _rows(q, model.n)
    return _point(-(q @ model.Rinv_Bt().T), single)


def drift_G(x: np.ndarray, y: np.ndarray, q: np.ndarray, model: LQModelSpec) -> np.ndarray:
    """Optimal drift G(x, y, q) = Ax + Abar y - B R^{-1} B* q = D_q H."""
    (x, single), (q, _) = _rows(x, model.n), _rows(q, model.n)
    G = x @ model.A.T + _mean(y, model.n) @ model.Abar.T - q @ model.BRB().T
    return _point(G, single)


def dx_hamiltonian(x: np.ndarray, y: np.ndarray, q: np.ndarray, model: LQModelSpec) -> np.ndarray:
    """D_x H(x, y, q) = (Q + Qbar) x - Qbar S y + A* q."""
    (x, single), (q, _) = _rows(x, model.n), _rows(q, model.n)
    Qb, S = model.Qbar, model.S
    DxH = x @ (model.Q + Qb).T - _mean(y, model.n) @ (Qb @ S).T + q @ model.A
    return _point(DxH, single)


def measure_term(y: np.ndarray, qbar: np.ndarray, model: LQModelSpec) -> np.ndarray:
    """Coefficient c of the term int D_m H(xi, m, Du(xi))(x) m(dxi) = c.x that
    the control problem adds, for the mean y and the mean gradient qbar:
    c = (S*Qbar S - S*Qbar) y + Abar* qbar."""
    y, qbar = np.asarray(y, dtype=float), np.asarray(qbar, dtype=float)
    S, Qb = model.S, model.Qbar
    return y @ (-S.T @ Qb + S.T @ Qb @ S).T + qbar @ model.Abar


def _quad(a: np.ndarray, M: np.ndarray) -> np.ndarray:
    """a_i* M a_i for each row a_i of a (N, m), with the bits of
    einsum("ij,jk,ik->i", a, M, a): the terms (a_j M_jk) a_k are added in
    (j, k) order onto +0.0, so a sum of -0.0 terms gives +0.0.  The columns
    of a are contiguous rows of a.T, and every step works in place."""
    cols = np.ascontiguousarray(a.T)
    out = np.multiply(cols[0], M[0, 0])
    out *= cols[0]
    out += 0.0
    if len(cols) == 1:
        return out
    t = np.empty_like(out)
    for j, aj in enumerate(cols):
        for k, ak in enumerate(cols):
            if j or k:
                np.multiply(aj, M[j, k], out=t)
                t *= ak
                out += t
    return out


def running_cost(x: np.ndarray, y: np.ndarray, v: np.ndarray, model: LQModelSpec):
    """f(x, y, v) = 1/2 [ x*Qx + v*Rv + (x - Sy)* Qbar (x - Sy) ]."""
    (x, single), (v, _) = _rows(x, model.n), _rows(v, model.d)
    e = x - _mean(y, model.n) @ model.S.T
    f = 0.5 * (_quad(x, model.Q) + _quad(v, model.R) + _quad(e, model.Qbar))
    return _point(f, single)


def terminal_cost(x: np.ndarray, y: np.ndarray, model: LQModelSpec):
    """h(x, y) = 1/2 [ x*QT x + (x - ST y)* QbarT (x - ST y) ]."""
    x, single = _rows(x, model.n)
    e = x - _mean(y, model.n) @ model.ST.T
    h = 0.5 * (_quad(x, model.QT) + _quad(e, model.QbarT))
    return _point(h, single)


def load_model(path: str) -> LQModelSpec:
    """Read a model from JSON.  Missing matrices default to zero; R is required."""
    with open(path) as fh:
        doc = json.load(fh)
    return model_from_dict(doc)


def model_from_dict(doc: dict) -> LQModelSpec:
    for key in ("n", "d", "T", "R"):
        if key not in doc:
            raise KeyError(f"model file missing required key '{key}'")
    n, d = int(doc["n"]), int(doc["d"])
    shapes = {
        "A": (n, n), "Abar": (n, n), "B": (n, d), "Q": (n, n), "Qbar": (n, n),
        "S": (n, n), "QT": (n, n), "QbarT": (n, n), "ST": (n, n),
    }
    mats = {}
    for name, shape in shapes.items():
        mats[name] = np.asarray(doc[name], dtype=float) if name in doc else np.zeros(shape)
    return LQModelSpec(
        n=n, d=d, T=float(doc["T"]),
        R=np.asarray(doc["R"], dtype=float),
        sigma=float(doc.get("sigma", 0.0)),
        beta=float(doc.get("beta", 0.0)),
        convex=bool(doc.get("convex", False)),
        **mats,
    )


def scalar_model(A=0.0, Abar=0.0, B=1.0, Q=0.0, Qbar=0.0, S=0.0, R=1.0,
                 QT=0.0, QbarT=0.0, ST=0.0, sigma=0.0, beta=0.0, T=1.0,
                 convex=False) -> LQModelSpec:
    """Convenience constructor for n = d = 1 models."""
    m = lambda z: np.array([[float(z)]])
    return LQModelSpec(n=1, d=1, T=T, A=m(A), Abar=m(Abar), B=m(B), Q=m(Q),
                       Qbar=m(Qbar), S=m(S), R=m(R), QT=m(QT), QbarT=m(QbarT),
                       ST=m(ST), sigma=sigma, beta=beta, convex=convex)
