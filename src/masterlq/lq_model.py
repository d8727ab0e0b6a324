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


def _shapes(n: int, d: int) -> dict[str, tuple[int, int]]:
    return {"A": (n, n), "Abar": (n, n), "B": (n, d), "Q": (n, n), "Qbar": (n, n),
            "S": (n, n), "R": (d, d), "QT": (n, n), "QbarT": (n, n), "ST": (n, n)}


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

    for name, shape in _shapes(n, d).items():
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


# The kernels below take x (and q, v) as N rows (N, n), N >= 1, and the
# population mean y as one (n,) vector shared by every row: X and E[X] on
# the lift.  They return one value per row: (N,) for H, f and h, (N, .) for
# v*, G and D_x H.

def hamiltonian(x: np.ndarray, y: np.ndarray, q: np.ndarray, model: LQModelSpec) -> np.ndarray:
    """H(x, y, q) = inf_v [ f(x,y,v) + q.g(x,y,v) ] = f(x, y, v*) + q.G(x, y, q),
    attained at v* = -R^{-1} B* q."""
    v = optimal_feedback(x, y, q, model)
    return running_cost(x, y, v, model) + np.einsum("ij,ij->i", q, drift_G(x, y, q, model))


def optimal_feedback(x: np.ndarray, y: np.ndarray, q: np.ndarray, model: LQModelSpec) -> np.ndarray:
    """Unique minimizer v* = -R^{-1} B* q of v -> f(x,y,v) + q.g(x,y,v); linear in q."""
    return -(q @ model.Rinv_Bt().T)


def drift_G(x: np.ndarray, y: np.ndarray, q: np.ndarray, model: LQModelSpec) -> np.ndarray:
    """Optimal drift G(x, y, q) = Ax + Abar y - B R^{-1} B* q = D_q H."""
    return x @ model.A.T + y @ model.Abar.T - q @ model.BRB().T


def dx_hamiltonian(x: np.ndarray, y: np.ndarray, q: np.ndarray, model: LQModelSpec) -> np.ndarray:
    """D_x H(x, y, q) = (Q + Qbar) x - Qbar S y + A* q."""
    Qb, S = model.Qbar, model.S
    return x @ (model.Q + Qb).T - y @ (Qb @ S).T + q @ model.A


def measure_term(y: np.ndarray, qbar: np.ndarray, model: LQModelSpec) -> np.ndarray:
    """Coefficient c of the term int D_m H(xi, m, Du(xi))(x) m(dxi) = c.x that
    the control problem adds, for the mean y and the mean gradient qbar:
    c = (S*Qbar S - S*Qbar) y + Abar* qbar."""
    S, Qb = model.S, model.Qbar
    return y @ (-S.T @ Qb + S.T @ Qb @ S).T + qbar @ model.Abar


def _quad(a: np.ndarray, M: np.ndarray, out=None, t=None, cols=None) -> np.ndarray:
    """a_i* M a_i for each row a_i of a (N, m), with the bits of
    einsum("ij,jk,ik->i", a, M, a): the terms (a_j M_jk) a_k are added in
    (j, k) order onto +0.0, so a sum of -0.0 terms gives +0.0.  The columns
    of a are contiguous rows of a.T, and every step works in place.

    out and t, (N,) arrays, receive the result and each later term, and
    cols, an array of at least m rows of N, the columns of a when m >= 2
    (at m = 1 the column is a.T itself); fresh arrays stand in for those
    not given."""
    m = a.shape[1]
    if m == 1 or cols is None:
        cols = np.ascontiguousarray(a.T)
    else:
        cols = cols[:m]
        np.copyto(cols, a.T)
    out = np.multiply(cols[0], M[0, 0], out=out)
    out *= cols[0]
    out += 0.0
    if m == 1:
        return out
    if t is None:
        t = np.empty_like(out)
    for j, aj in enumerate(cols):
        for k, ak in enumerate(cols):
            if j or k:
                np.multiply(aj, M[j, k], out=t)
                t *= ak
                out += t
    return out


def running_cost(x: np.ndarray, y: np.ndarray, v: np.ndarray, model: LQModelSpec,
                 out=None, scratch=None) -> np.ndarray:
    """f(x, y, v) = 1/2 [ x*Qx + v*Rv + (x - Sy)* Qbar (x - Sy) ].

    out, an (N,) array, receives f.  scratch, if given, is (e, q, t, cols):
    an (N, n) array for x - Sy, an (N,) array for each later quadratic form,
    and _quad's t and cols (either may be None).  A caller that evaluates f
    at every step passes the same arrays each time and allocates nothing."""
    e, q, t, cols = scratch or (None, None, None, None)
    e = np.subtract(x, y @ model.S.T, out=e)
    out = _quad(x, model.Q, out, t, cols)
    out += _quad(v, model.R, q, t, cols)
    out += _quad(e, model.Qbar, q, t, cols)
    out *= 0.5
    return out


def terminal_cost(x: np.ndarray, y: np.ndarray, model: LQModelSpec) -> np.ndarray:
    """h(x, y) = 1/2 [ x*QT x + (x - ST y)* QbarT (x - ST y) ]."""
    e = x - y @ model.ST.T
    return 0.5 * (_quad(x, model.QT) + _quad(e, model.QbarT))


def load_model(path: str) -> LQModelSpec:
    """Read a model from JSON.  Missing matrices default to zero; R is required."""
    with open(path) as fh:
        doc = json.load(fh)
    return model_from_dict(doc)


def model_from_dict(doc: dict) -> LQModelSpec:
    """A model from a parsed model file, or a ValueError when the file does
    not hold a JSON object or lacks one of n, d, T and R."""
    if not isinstance(doc, dict):
        raise ValueError(f"model file must hold a JSON object, got {type(doc).__name__}")
    for key in ("n", "d", "T", "R"):
        if key not in doc:
            raise ValueError(f"model file missing required key '{key}'")
    n, d = _number(doc, "n", kind=int), _number(doc, "d", kind=int)
    mats = {name: _matrix(doc, name) if name in doc else np.zeros(shape)
            for name, shape in _shapes(n, d).items()}
    convex = doc.get("convex", False)
    if not isinstance(convex, bool):
        raise ValueError(f"model key 'convex' must be true or false, got {convex!r}")
    return LQModelSpec(n=n, d=d, T=_number(doc, "T"), sigma=_number(doc, "sigma", 0.0),
                       beta=_number(doc, "beta", 0.0), convex=convex, **mats)


def _numeric(value) -> bool:
    """True for a JSON number (an int or a float, not a boolean) and for a
    list whose leaves all are."""
    if isinstance(value, list):
        return all(map(_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(doc: dict, key: str, default=None, kind=float):
    """doc[key] (default when the key is absent) converted by kind, or a
    ValueError naming the key when it is not a JSON number: a boolean, a
    string or null is not taken for one.  With kind=int the value must be
    an integer: 1.5 is not truncated."""
    value = doc.get(key, default)
    try:
        if not _numeric(value) or (kind is int and value != int(value)):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"model key '{key}' must be {what}, got {value!r}") from None


def _matrix(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float array, or a ValueError naming the key when a
    leaf is not a JSON number or its rows differ in length."""
    try:
        if not _numeric(doc[key]):
            raise ValueError
        return np.asarray(doc[key], dtype=float)
    except (ValueError, OverflowError):
        raise ValueError(f"model key '{key}' must be a numeric matrix, got {doc[key]!r}") from None


def scalar_model(A=0.0, Abar=0.0, B=1.0, Q=0.0, Qbar=0.0, S=0.0, R=1.0,
                 QT=0.0, QbarT=0.0, ST=0.0, sigma=0.0, beta=0.0, T=1.0,
                 convex=False) -> LQModelSpec:
    """Convenience constructor for n = d = 1 models."""
    m = lambda z: np.array([[float(z)]])
    return LQModelSpec(n=1, d=1, T=T, A=m(A), Abar=m(Abar), B=m(B), Q=m(Q),
                       Qbar=m(Qbar), S=m(S), R=m(R), QT=m(QT), QbarT=m(QbarT),
                       ST=m(ST), sigma=sigma, beta=beta, convex=convex)
