"""Backward matrix Riccati systems for the LQ mean-field problems.

Two backward systems on [0, T]:

MFC (value function V = 1/2 E X*PX + 1/2 (EX)* Sigma EX + lambda):
    P'     + PA + A*P - P BRB P + Q + Qbar = 0
    Sigma' + Sigma M + M* Sigma - Sigma BRB Sigma
           + S*Qbar S - Qbar S - S*Qbar + P Abar + Abar* P = 0,
           with M = A + Abar - BRB P
    lambda' + 1/2 sigma^2 tr P + 1/2 beta^2 tr(P + Sigma) = 0

MFG (bivariate field U = 1/2 x*Px + x*Sigma EX + 1/2 EX*Gamma EX + mu):
    P'     same as above
    Sigma' + Sigma M + (A* - P BRB) Sigma - Sigma BRB Sigma - Qbar S + P Abar = 0
    Gamma' + Gamma N + N* Gamma + S*Qbar S - Sigma* BRB Sigma
           + Sigma* Abar + Abar* Sigma = 0, with N = A + Abar - BRB (P + Sigma)
    mu' + (beta^2 + sigma^2)/2 tr P + beta^2/2 tr Gamma + beta^2 tr Sigma = 0

Integrated by fixed-step classical RK4 on a uniform grid, on one packed
state vector [P, Sigma, (Gamma,) lambda or mu] per node, with per-step
symmetrization of P (and of Sigma in the MFC case only: MFG Sigma is
genuinely non-symmetric unless Abar = 0 and Qbar S = S* Qbar).

Each system's right-hand side is written once, and so is the RK4 loop.  At
n = 1 the loop's state, stages and stage sums and the rhs formulas run on
Python floats, which skips numpy's per-call overhead and keeps every bit,
signed zeros included.  At n >= 2 the loop runs on numpy vectors, and the
rhs body runs once, on records of the state blocks, to give a fixed plan
(_bind): each np.dot product writes into a preallocated slot, and the
signed terms of each matrix block's sum are one column of a stack that one
np.add.reduce sums and one np.negative writes out.  The plan keeps every
bit of the body's left-to-right sums: x - y is x + (-y) exactly, -0.0 is
the additive identity, so the padding of shorter sums changes nothing, and
each sum starts from its first term, added onto -0.0.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import orjson

from .lq_model import SYM_TOL, LQModelSpec

BLOWUP_THRESHOLD = 1e12
CSV_BLOCK_ROWS = 8                # rows per orjson call in _write_csv


class RiccatiBlowUp(RuntimeError):
    """Finite-escape detected before reaching t = 0."""

    def __init__(self, escape_time: float):
        self.escape_time = escape_time
        super().__init__(f"Riccati solution exceeds {BLOWUP_THRESHOLD:.0e} near t = {escape_time:.6g}")


class NumericalFailure(RuntimeError):
    """Non-finite value produced by the integrator."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"non-finite value at node {node}")


@dataclass(frozen=True)
class TimeGrid:
    T: float
    K: int

    def __post_init__(self):
        if self.K < 1 or not 0.0 < self.T < np.inf:
            raise ValueError(f"need K >= 1 and a finite horizon T > 0, got K={self.K}, T={self.T}")

    @property
    def h(self) -> float:
        return self.T / self.K

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.K + 1)


@dataclass
class RiccatiSolution:
    kind: str                      # "MFC" | "MFG"
    grid: TimeGrid
    P: np.ndarray                  # (K+1, n, n)
    Sigma: np.ndarray              # (K+1, n, n)
    lam: np.ndarray | None = None    # (K+1,), MFC
    Gamma: np.ndarray | None = None  # (K+1, n, n), MFG
    mu: np.ndarray | None = None     # (K+1,), MFG
    # ODE right-hand sides at the nodes, stored at solve time.  Residual
    # checks interpolate these instead of re-deriving them from (possibly
    # tampered) node values, which is what makes corruption detectable.
    dP: np.ndarray = field(default=None, repr=False)
    dSigma: np.ndarray = field(default=None, repr=False)
    dGamma: np.ndarray = field(default=None, repr=False)
    dmu: np.ndarray = field(default=None, repr=False)


def _algebra(n: int):
    """Matrix product, transpose and trace for the rhs bodies: Python floats
    at n = 1, numpy on n x n arrays otherwise.  The float forms keep numpy's
    bits: its 1 x 1 matmul and its one-term diagonal sum add onto +0.0, so
    -0.0 comes out +0.0, which a bare a * b would not do.  At n >= 2 an
    operation on constants computes, which is how the factories hoist their
    state-independent products, and an operation on the state records
    itself (_Expr), which is how _bind turns a body into its plan.  The
    product is np.dot's C function without its array-function dispatcher,
    the same BLAS call as np.matmul at a lower cost per call."""
    if n == 1:
        return (lambda a, b: a * b + 0.0), (lambda a: a), (lambda a: a + 0.0)
    return partial(_op, _dot), partial(_op, np.ndarray.transpose), partial(_op, _trace)


_dot = np.dot.__wrapped__


def _trace(a):
    """ndarray.trace's diagonal sum without its Python-level forwarding."""
    return np.add.reduce(a.diagonal())


def _op(fn, *args):
    """fn(*args), or its record when an argument depends on the state."""
    return _Expr(fn, *args) if any(isinstance(a, _Expr) for a in args) else fn(*args)


class _Expr:
    """One operation of an n >= 2 rhs body, recorded instead of computed:
    fn applied to args, each a constant or another _Expr.  A state block
    is an _Expr whose fn is None and whose one arg is the block's index."""

    __array_ufunc__ = None    # ndarray - _Expr defers to _Expr.__rsub__
    __slots__ = ("fn", "args")

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args

    def _ops(self):
        """add, subtract and multiply on this record's kind of value."""
        if self.fn in (_trace, operator.add, operator.sub, operator.mul):
            return operator.add, operator.sub, operator.mul
        return np.add, np.subtract, np.multiply

    def __add__(self, other):
        return _Expr(self._ops()[0], self, other)

    def __sub__(self, other):
        return _Expr(self._ops()[1], self, other)

    def __rsub__(self, other):
        return _Expr(self._ops()[1], other, self)

    def __rmul__(self, other):
        return _Expr(self._ops()[2], other, self)


def _chain(x) -> list:
    """The signed terms [(sign, term)] of x read as a left-to-right sum."""
    if isinstance(x, _Expr) and x.fn in (np.add, np.subtract):
        a, b = x.args
        return _chain(a) + [(1.0 if x.fn is np.add else -1.0, b)]
    return [(1.0, x)]


def _scalar_fn(x, buf, traces):
    """The scalar record x as a function of no arguments.  The trace of
    state block i is traces[i]; any other trace sums a diagonal view of
    buf(m), the array that holds its matrix m."""
    if x.fn is _trace:
        m = x.args[0]
        if m.fn is None:
            return partial(traces.item, m.args[0])
        return partial(np.add.reduce, buf(m).diagonal())
    op, (a, b) = x.fn, x.args
    if not isinstance(a, _Expr):
        g = _scalar_fn(b, buf, traces)
        return lambda: op(a, g())
    f = _scalar_fn(a, buf, traces)
    if not isinstance(b, _Expr):
        return lambda: op(f(), b)
    g = _scalar_fn(b, buf, traces)
    return lambda: op(f(), g())


def _coefficients(model: LQModelSpec) -> list:
    """A, Abar, Q, Qbar, S and BRB; Python floats at n = 1."""
    mats = [model.A, model.Abar, model.Q, model.Qbar, model.S, model.BRB()]
    return [m.item() for m in mats] if model.n == 1 else mats


def _bind(terms, n: int, k: int):
    """make_rhs(y, out) for _integrate from terms(*mats), which maps the k
    n x n blocks of the state to their negated derivatives and the negated
    derivative of the scalar last block.  At n = 1 the state and out are
    the Python float lists of _integrate, and out is written in one
    assignment.

    At n >= 2 terms runs once, on records of the state blocks, and each
    make_rhs turns the record into a fixed plan on preallocated arrays.
    Every product writes into its own slot.  Each matrix block's sum of
    signed terms is one column of a (terms, k, n, n) stack: its terms in
    order, then -0.0 padding.  The stack holds the constant terms with
    their signs applied; a call writes the products into it, multiplies
    the subtracted ones by -1.0, sums over the terms onto -0.0 and negates
    the sums into out.  That keeps every bit of the body's left-to-right
    sums: x - y is x + (-y), x + (-0.0) is x, and -0.0 + x is x.
    """
    if n == 1:
        def make_rhs(y, out):
            def rhs(t):
                out[:] = [-v for v in terms(*y[:k])]
            return rhs
        return make_rhs

    nn = n * n
    state = [_Expr(None, i) for i in range(k)]
    *chains, scalar = terms(*state)
    chains = [_chain(c) for c in chains]
    depth = max(map(len, chains))

    def make_rhs(y, out):
        stack, signs = np.full((depth, k, n, n), -0.0), np.ones((depth, k, n, n))
        blocks, traces = y[:k * nn].reshape(k, n, n), np.empty(k)
        done, home, copies = dict(zip(state, blocks)), {}, []
        # the k state blocks' traces in one call, each the same pairwise sum as _trace's
        ops = [(np.add.reduce, (blocks.diagonal(0, 1, 2), 1, None, traces))]

        def buf(x):
            """The array that holds x once ops have run; adds the ops that compute it."""
            if not isinstance(x, _Expr):
                return x
            if x not in done:
                # a C-ordered constant keeps a ufunc on numpy's fast path
                args = [buf(a) if isinstance(a, _Expr) or x.fn is _dot
                        else np.ascontiguousarray(a) for a in x.args]
                if x.fn is np.ndarray.transpose:
                    done[x] = args[0].T
                else:
                    done[x] = home.pop(x) if x in home else np.empty((n, n))
                    ops.append((x.fn, (*args, done[x])))
            return done[x]

        for j, chain in enumerate(chains):
            for i, (sign, term) in enumerate(chain):
                if not isinstance(term, _Expr):
                    stack[i, j] = term if sign > 0 else -term
                    continue
                signs[i, j] = sign
                if term.fn in (None, np.ndarray.transpose) or term in home:
                    copies.append((term, stack[i, j]))
                else:
                    home[term] = stack[i, j]
        for chain in chains:
            for _, term in chain:
                buf(term)
        ops += [(np.positive, (buf(term), cell)) for term, cell in copies]
        value = _scalar_fn(scalar, buf, traces)
        # buf's closure holds buf: without the del, done and home wait for the cycle collector
        del buf
        sums = out[:k * nn].reshape(k, n, n)
        ops += [(np.multiply, (stack, signs, stack)),
                (np.add.reduce, (stack, 0, None, sums, False, -0.0)),
                (np.negative, (sums, sums))]

        def rhs(t):
            for f, args in ops:
                f(*args)
            out[-1] = -value()

        return rhs

    return make_rhs


def _mfc_rhs(model: LQModelSpec):
    mm, tp, tr = _algebra(model.n)
    A, Abar, Q, Qbar, S, BRB = _coefficients(model)
    # State-independent products, formed as the rhs expressions group them,
    # so hoisting them leaves every result bit unchanged.
    AAbar, AT, AbarT = A + Abar, tp(A), tp(Abar)
    STQbar = mm(tp(S), Qbar)
    STQbarS, QbarS = mm(STQbar, S), mm(Qbar, S)
    ca, cb = 0.5 * model.sigma ** 2, 0.5 * model.beta ** 2

    def terms(P, Sig):
        M = AAbar - mm(BRB, P)
        return (mm(P, A) + mm(AT, P) - mm(mm(P, BRB), P) + Q + Qbar,
                mm(Sig, M) + mm(tp(M), Sig) - mm(mm(Sig, BRB), Sig)
                + STQbarS - QbarS - STQbar + mm(P, Abar) + mm(AbarT, P),
                ca * tr(P) + cb * tr(P + Sig))

    return _bind(terms, model.n, 2)


def _mfg_rhs(model: LQModelSpec):
    mm, tp, tr = _algebra(model.n)
    A, Abar, Q, Qbar, S, BRB = _coefficients(model)
    AAbar, AT, AbarT = A + Abar, tp(A), tp(Abar)
    STQbarS, QbarS = mm(mm(tp(S), Qbar), S), mm(Qbar, S)
    a, b2 = model.sigma ** 2, model.beta ** 2
    cP, cG = 0.5 * (b2 + a), 0.5 * b2

    def terms(P, Sig, Gam):
        PB, SigT = mm(P, BRB), tp(Sig)
        M = AAbar - mm(BRB, P)
        N = AAbar - mm(BRB, P + Sig)
        return (mm(P, A) + mm(AT, P) - mm(PB, P) + Q + Qbar,
                mm(Sig, M) + mm(AT - PB, Sig) - mm(mm(Sig, BRB), Sig) - QbarS + mm(P, Abar),
                mm(Gam, N) + mm(tp(N), Gam) + STQbarS - mm(mm(SigT, BRB), Sig)
                + mm(SigT, Abar) + mm(AbarT, Sig),
                cP * tr(P) + cG * tr(Gam) + b2 * tr(Sig))

    return _bind(terms, model.n, 3)


def _vector_steps(n: int, sym: int, Y: np.ndarray, D: np.ndarray):
    """The state u, the stage rows R = (k1, k2, k3, k4) and the vector steps
    of _integrate over them: Python lists of floats at n = 1, where numpy's
    cost per call exceeds the arithmetic, numpy vectors otherwise.  Both
    forms make the same floating-point operations in the same order.

    stage(y, k, c) sets u = y + c k.  advance(y, c) sets
    u = y + c (k1 + 2 k2 + 2 k3 + k4), summed left to right, then makes the
    first `sym` n x n blocks of u symmetric as (M + M*) / 2.  bounded()
    tells whether every entry of u is at most BLOWUP_THRESHOLD in absolute
    value; NaN is not.  store(i) writes u and k1 to row i of Y and D and
    returns the state to step from.
    """
    L = Y.shape[1]
    if n == 1:
        u, R = [0.0] * L, [[0.0] * L for _ in range(4)]

        def stage(y, k, c):
            u[:] = [a + c * b for a, b in zip(y, k)]

        def advance(y, c):
            u[:] = [a + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * c for a, k1, k2, k3, k4 in zip(y, *R)]
            if sym:
                u[:sym] = [0.5 * (v + v) for v in u[:sym]]

        def bounded():
            return all(abs(v) <= BLOWUP_THRESHOLD for v in u)    # max() would skip a NaN

        def store(i):
            Y[i], D[i] = u, R[0]
            return u[:]

        return u, R, stage, advance, bounded, store

    u, R = np.empty(L), np.empty((4, L))
    square = u[:sym * n * n].reshape(sym, n, n)
    square_T = square.transpose(0, 2, 1)

    def stage(y, k, c):
        np.add(y, c * k, out=u)

    def advance(y, c):
        R[1:3] *= 2.0
        # row by row onto -0.0, the additive identity that keeps a sum of
        # -0.0 terms -0.0; the default start, +0.0, would not
        s = np.add.reduce(R, axis=0, initial=-0.0)
        s *= c
        np.add(y, s, out=u)
        if sym:
            np.multiply(0.5, square + square_T, out=square)

    def bounded():
        # ndarray.max's reduction without its Python layer; NaN compares false
        return np.maximum.reduce(np.abs(u)) <= BLOWUP_THRESHOLD

    def store(i):
        Y[i], D[i] = u, R[0]
        return Y[i]

    return u, R, stage, advance, bounded, store


def _integrate(make_rhs, y0, grid: TimeGrid, sym: int):
    """grid.K classical RK4 steps backward from (grid.T, y0) on one packed
    float64 state vector, with per-step symmetrization and blow-up detection.

    y0 is the tuple of state blocks (arrays or scalars), packed in order;
    the first `sym` blocks are n x n matrices that each step symmetrizes.
    make_rhs(y, out) returns rhs(t), which reads the state from the vector y
    and writes its derivative into the vector out; both are Python lists of
    floats when the first block has n = 1 rows, numpy vectors otherwise.
    Each step has signed size h = -grid.h, and its time is accumulated by
    t += h from grid.T.  Returns the (K+1, L) node array and the rhs at each
    node, row i at grid node i counted from t = 0; a NumericalFailure names
    the node the same way.  The rhs at a node is the next step's first
    stage, so K steps make 4K + 1 calls.
    """
    K, h = grid.K, -grid.h
    blocks = [np.asarray(b, dtype=float) for b in y0]
    ends = np.cumsum([b.size for b in blocks]).tolist()
    Y, D = np.empty((K + 1, ends[-1])), np.empty((K + 1, ends[-1]))
    u, R, stage, advance, bounded, store = _vector_steps(blocks[0].shape[0], sym, Y, D)
    node, rhs2, rhs3, rhs4 = (make_rhs(u, k) for k in R)
    k1, k2, k3 = R[:3]
    u[:] = np.concatenate([b.ravel() for b in blocks]).tolist()
    node(grid.T)
    y = store(K)
    t, half = grid.T, 0.5 * h
    for i in range(K - 1, -1, -1):
        stage(y, k1, half)
        rhs2(t + half)
        stage(y, k2, half)
        rhs3(t + half)
        stage(y, k3, h)
        rhs4(t + h)
        advance(y, h / 6.0)
        t += h
        if not bounded():
            for a, b in zip([0] + ends[:-1], ends):    # first failing block decides
                m = np.abs(np.asarray(u[a:b])).max()
                if not m <= BLOWUP_THRESHOLD:
                    raise NumericalFailure(i) if not np.isfinite(m) else RiccatiBlowUp(t)
        node(t)
        y = store(i)
    return Y, D


def _split(A: np.ndarray, n: int, names: tuple) -> dict:
    """Views of the packed (K+1, L) rows by name: (K+1, n, n) matrices, then
    the scalar column (left out when its name is None)."""
    nn = n * n
    *mats, scalar = names
    out = {name: A[:, j * nn:(j + 1) * nn].reshape(-1, n, n) for j, name in enumerate(mats)}
    if scalar:
        out[scalar] = A[:, -1]
    return out


def solve_mfc(model: LQModelSpec, grid: TimeGrid) -> RiccatiSolution:
    """Solve the MFC system (P, Sigma, lambda) backward from t = T."""
    ST, QbT = model.ST, model.QbarT
    P_T = model.QT + QbT
    Sig_T = ST.T @ QbT @ ST - (ST.T @ QbT + QbT @ ST)
    Y, D = _integrate(_mfc_rhs(model), (P_T, Sig_T, 0.0), grid, 2)
    return RiccatiSolution(kind="MFC", grid=grid,
                           **_split(Y, model.n, ("P", "Sigma", "lam")),
                           **_split(D, model.n, ("dP", "dSigma", None)))


def solve_mfg(model: LQModelSpec, grid: TimeGrid) -> RiccatiSolution:
    """Solve the MFG system (P, Sigma, Gamma, mu) backward from t = T.
    Only P is symmetrized: MFG Sigma asymmetry is a feature, not roundoff."""
    ST, QbT = model.ST, model.QbarT
    state = (model.QT + QbT, -QbT @ ST, ST.T @ QbT @ ST, 0.0)
    Y, D = _integrate(_mfg_rhs(model), state, grid, 1)
    return RiccatiSolution(kind="MFG", grid=grid,
                           **_split(Y, model.n, ("P", "Sigma", "Gamma", "mu")),
                           **_split(D, model.n, ("dP", "dSigma", "dGamma", "dmu")))


def check_symmetry_conditions(model: LQModelSpec) -> dict:
    """Diagnose whether a self-adjoint MFG master field can exist: the three
    conditions below and their conjunction, each a bool."""
    t_ok = np.max(np.abs(model.QbarT @ model.ST - model.ST.T @ model.QbarT)) <= SYM_TOL
    r_ok = np.max(np.abs(model.Qbar @ model.S - model.S.T @ model.Qbar)) <= SYM_TOL
    a_ok = np.max(np.abs(model.Abar)) <= SYM_TOL
    return {"terminal_commutes": bool(t_ok),    # QbarT ST = ST* QbarT
            "running_commutes": bool(r_ok),     # Qbar S = S* Qbar
            "abar_zero": bool(a_ok),
            "self_adjoint_possible": bool(t_ok and r_ok and a_ok)}


def _locate(grid: TimeGrid, t):
    """(k, w) for the times of the 1-D array t: each lies at node k of grid
    plus the fraction w of a step, k <= K - 1 and w in [0, 1]."""
    if not np.all((0.0 <= t) & (t <= grid.T + 1e-12)):
        raise ValueError(f"times outside [0, {grid.T}]")
    s = np.minimum(t, grid.T) / grid.h
    k = np.minimum(np.floor(s).astype(int), grid.K - 1)
    return k, s - k


def _interp(values: np.ndarray, grid: TimeGrid, t):
    """Linear interpolation of the node values at time t, or at each time of
    a 1-D array t (one result row per time, each with the scalar weights)."""
    k, w = _locate(grid, np.atleast_1d(t))
    w = w.reshape((-1,) + (1,) * (values.ndim - 1))
    out = (1.0 - w) * values[k] + w * values[k + 1]
    return out if np.ndim(t) else out[0]


def eval_at(sol: RiccatiSolution, t: float) -> dict:
    """Linear interpolation of all solution components at time t."""
    out = {"P": _interp(sol.P, sol.grid, t), "Sigma": _interp(sol.Sigma, sol.grid, t)}
    if sol.kind == "MFC":
        out["lam"] = float(_interp(sol.lam, sol.grid, t))
    else:
        out["Gamma"] = _interp(sol.Gamma, sol.grid, t)
        out["mu"] = float(_interp(sol.mu, sol.grid, t))
    return out


def deriv_at(sol: RiccatiSolution, t: float) -> dict:
    """Interpolated solve-time ODE right-hand sides (time derivatives)."""
    out = {"dP": _interp(sol.dP, sol.grid, t), "dSigma": _interp(sol.dSigma, sol.grid, t)}
    if sol.kind == "MFG":
        out["dGamma"] = _interp(sol.dGamma, sol.grid, t)
        out["dmu"] = float(_interp(sol.dmu, sol.grid, t))
    return out


def _csv_rows(block: np.ndarray) -> bytes:
    """The rows of a C-contiguous float64 block, each `",".join` of its
    cells' reprs plus \\r\\n.  orjson writes the same shortest round-trip
    digits as repr, and in the same layout for 0.0 and for finite |v| in
    [1e-4, 1e16); it writes other values differently (1e-05 as 0.00001,
    1e16 as 1e16, NaN and inf as null).  Those cells go to orjson as NaN,
    and each null is replaced by the cell's repr, in C order."""
    mag = np.abs(block)
    odd = ~(((mag >= 1e-4) & (mag < 1e16)) | (block == 0.0))
    parts = orjson.dumps(np.where(odd, np.nan, block),
                         option=orjson.OPT_SERIALIZE_NUMPY).split(b"null")
    text = [b""] * (2 * len(parts) - 1)
    text[::2] = parts
    text[1::2] = [repr(v).encode() for v in block[odd].tolist()]
    return b"".join(text)[2:-2].replace(b"],[", b"\r\n") + b"\r\n"


def _write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    """One header row, then one row per table row, every float as its repr
    so that it reads back exactly.  The header goes through csv.writer; a
    repr never needs csv quoting, so the rows are formatted by _csv_rows in
    the csv module's bytes and \\r\\n line ends.  The table is formatted
    CSV_BLOCK_ROWS rows at a time, so the text of only one block is held
    at once."""
    head = io.StringIO()
    csv.writer(head).writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode())
        for i in range(0, len(table), CSV_BLOCK_ROWS):
            fh.write(_csv_rows(np.ascontiguousarray(table[i:i + CSV_BLOCK_ROWS])))


def to_csv(sol: RiccatiSolution, path: str) -> None:
    """One row per node: t, P_ij row-major, Sigma_ij, then lambda or (Gamma_ij, mu)."""
    n = sol.P.shape[1]
    ij = [(i, j) for i in range(n) for j in range(n)]
    header = ["t"] + [f"P_{i}{j}" for i, j in ij] + [f"Sigma_{i}{j}" for i, j in ij]
    cols = [sol.grid.nodes(), sol.P, sol.Sigma]
    if sol.kind == "MFC":
        header += ["lambda"]
        cols += [sol.lam]
    else:
        header += [f"Gamma_{i}{j}" for i, j in ij] + ["mu"]
        cols += [sol.Gamma, sol.mu]
    _write_csv(path, header, np.hstack([c.reshape(sol.grid.K + 1, -1) for c in cols]))
