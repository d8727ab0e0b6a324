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

Each system's right-hand side is written once, and runs once per solve, on
records of the state (_bind); an operation on constants alone is computed
then, so every record reads the state.  At n <= 2 the records are of the
state's entries, and become one generated Python function per system
(_float_source): the RK4 loop on float locals, compiled once per process
and shared by every model, whose constants it takes as arguments.  Each of
its four rhs evaluations per step is the body as straight-line assignments
(_float_rhs), inline at n = 1 and a call at n = 2.  A product entry is
a_i0 * b_0j + a_i1 * b_1j + 0.0 and a trace d0 + d1 + 0.0, summed in that
order, so no BLAS kernel rounds an operation of the solve (its input
B R^-1 B*, from lq_model's Cholesky, is rounded by LAPACK and BLAS); at
n = 1 they are the bits of numpy's 1 x 1 matmul and one-term diagonal sum,
signed zeros included, and the stage sums are the numpy loop's, term for
term.  At n >= 3 the loop runs on numpy vectors, each operation into a
buffer made once per solve, and tests the blow-up bound RK4_BLOCK steps at
a time.  The records give a fixed plan: each np.dot product writes into a
preallocated slot, the signed terms of each matrix block's sum are one
column of a stack that one np.add.reduce sums and one np.negative writes
out, and the scalar entry is _float_rhs's assignments on the traces.  The
plan keeps every bit of the body's left-to-right sums: x - y is x + (-y)
exactly, -0.0 is the additive identity, so the padding of shorter sums
changes nothing, and each sum starts from its first term, added onto -0.0.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from typing import NamedTuple

import numpy as np
import orjson

from .lq_model import SYM_TOL, LQModelSpec

BLOWUP_THRESHOLD = 1e12
RK4_BLOCK = 32                    # n >= 3 RK4 steps per blow-up test
CSV_BLOCK_CELLS = 1552            # cells per orjson call in _write_csv: 8 rows of 194


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
        # a step T / K that underflows to 0 is refused too: _locate divides by
        # it; so is a K too large for a float, for which T / K would overflow
        if (not 1 <= self.K <= sys.float_info.max or not 0.0 < self.T < np.inf
                or not self.T / self.K > 0.0):
            raise ValueError(f"need K >= 1, a finite horizon T > 0 and a step T / K > 0, "
                             f"got K={self.K}, T={self.T}")

    @property
    def h(self) -> float:
        return self.T / self.K

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.K + 1)


BLOCKS = {"MFC": ("P", "Sigma", "lam"), "MFG": ("P", "Sigma", "Gamma", "mu")}


@dataclass
class RiccatiSolution:
    """The node values of the blocks BLOCKS[kind] and of their derivatives
    d<block>, the ODE right-hand sides stored at solve time.  Residual checks
    interpolate these instead of re-deriving them from (possibly tampered)
    node values, which is what makes corruption detectable."""
    kind: str                      # "MFC" | "MFG"
    grid: TimeGrid
    P: np.ndarray                  # (K+1, n, n)
    Sigma: np.ndarray              # (K+1, n, n)
    lam: np.ndarray | None = None    # (K+1,), MFC
    Gamma: np.ndarray | None = None  # (K+1, n, n), MFG
    mu: np.ndarray | None = None     # (K+1,), MFG
    dP: np.ndarray = field(default=None, repr=False)
    dSigma: np.ndarray = field(default=None, repr=False)
    dlam: np.ndarray = field(default=None, repr=False)
    dGamma: np.ndarray = field(default=None, repr=False)
    dmu: np.ndarray = field(default=None, repr=False)


def _algebra(n: int):
    """Matrix product, transpose and trace for the rhs bodies.  An operation
    on constants computes, which is how the factories hoist their
    state-independent products; an operation on the state records itself
    (_Expr), which is how _bind turns a body into its plan.  At n <= 2 they
    act entry by entry on object arrays of floats and records: a product
    entry is a_i0 * b_0j + a_i1 * b_1j + ... + 0.0 (_float_dot) and a trace
    d0 + d1 + ... + 0.0 (_float_trace), at n = 1 the bits of numpy's 1 x 1
    matmul and diagonal sum, which turn a -0.0 into +0.0.  At n >= 3 the
    product is np.dot's C function without its array-function dispatcher,
    the same BLAS call as np.matmul at a lower cost per call."""
    if n <= 2:
        return _float_mm, np.transpose, lambda a: _op(_float_trace, *a.diagonal())
    return partial(_op, _dot), partial(_op, np.ndarray.transpose), partial(_op, _trace)


_dot = np.dot.__wrapped__


def _trace(a):
    """ndarray.trace's diagonal sum without its Python-level forwarding."""
    return np.add.reduce(a.diagonal())


def _float_mm(a, b):
    """The product of two object arrays at n <= 2, entry by entry (_algebra)."""
    return np.array([[_op(_float_dot, *(x for ab in zip(row, col) for x in ab)) for col in b.T]
                     for row in a], dtype=object)


_float_dot = lambda *ab: reduce(operator.add, map(operator.mul, ab[::2], ab[1::2])) + 0.0
_float_trace = lambda *d: reduce(operator.add, d) + 0.0


def _op(fn, *args):
    """fn(*args), or its record when an argument depends on the state."""
    return _Expr(fn, *args) if any(isinstance(a, _Expr) for a in args) else fn(*args)


class _Expr:
    """One operation of an rhs body on the state, recorded instead of
    computed: fn applied to args, each a constant or another _Expr.  Sums,
    differences and scalar multiples record operator.add, sub and mul.  A
    state block (at n <= 2, a state entry) is an _Expr whose fn is None and
    whose one arg is its index."""

    __array_ufunc__ = None    # ndarray - _Expr defers to _Expr.__rsub__
    __slots__ = ("fn", "args")

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args

    def __add__(self, other):
        return _Expr(operator.add, self, other)

    def __sub__(self, other):
        return _Expr(operator.sub, self, other)

    def __rsub__(self, other):
        return _Expr(operator.sub, other, self)

    def __rmul__(self, other):
        return _Expr(operator.mul, other, self)


def _chain(x) -> list:
    """The signed terms [(sign, term)] of x read as a left-to-right sum."""
    if isinstance(x, _Expr) and x.fn in (operator.add, operator.sub):
        a, b = x.args
        return _chain(a) + [(1.0 if x.fn is operator.add else -1.0, b)]
    return [(1.0, x)]


def _coefficients(model: LQModelSpec, names: str = "A Abar Q Qbar S BRB") -> list:
    """The model's matrices of names, BRB as model.BRB(), in the form that
    _algebra(model.n) takes: object arrays of Python floats at n <= 2."""
    mats = [model.BRB() if name == "BRB" else getattr(model, name) for name in names.split()]
    return [m.astype(object) for m in mats] if model.n <= 2 else mats


def _bind(terms, n: int, k: int):
    """The rhs for _integrate from terms(*mats), which maps the k n x n
    blocks of the state to their negated derivatives and the negated
    derivative of the scalar last block.  terms runs once, on records of
    the state.  At n <= 2 each block is an object array of the records of
    its entries, and the rhs is the records of the derivative's entries, in
    the order of the packed state, written out as Python float source
    (_float_rhs).

    At n >= 3 the rhs is make_rhs(y, out), which turns the record into a
    fixed plan of ufuncs (_UFUNCS) on preallocated arrays.  Every product
    writes into its own slot.  Each matrix block's sum of signed terms is
    one column of a (terms, k, n, n) stack: its terms in order, then -0.0
    padding.  The stack holds the constant terms with their signs applied;
    a call writes the products into it, multiplies the subtracted ones by
    -1.0, sums over the terms onto -0.0 and negates the sums into out.
    That keeps every bit of the body's left-to-right sums: x - y is
    x + (-y), x + (-0.0) is x, and -0.0 + x is x.  The last op, value, is
    the scalar record as _float_rhs writes it, each trace an input T<i>:
    the k state blocks' traces, then those of other matrices, which the
    plan sums into traces."""
    nn = n * n
    if n <= 2:
        entries = np.array([_Expr(None, i) for i in range(k * nn)], dtype=object)
        *blocks, scalar = terms(*entries.reshape(k, n, n))
        return _float_rhs([x for block in blocks for x in block.flat] + [scalar])
    state = [_Expr(None, i) for i in range(k)]
    *chains, scalar = terms(*state)
    chains = [_chain(c) for c in chains]
    depth = max(map(len, chains))
    traced = {}    # each traced matrix that is not a state block: its input's index

    def inputs(x):
        if isinstance(x, _Expr) and x.fn is _trace:
            m = x.args[0]
            return _Expr(None, m.args[0] if m.fn is None else traced.setdefault(m, k + len(traced)))
        return _Expr(x.fn, *map(inputs, x.args)) if isinstance(x, _Expr) and x.fn else x

    scalar = _float_rhs([inputs(scalar)])
    T = [f"T{i}" for i in range(k + len(traced))]
    args = "".join(f", c{j}" for j in range(len(scalar.consts)))
    body = scalar.body.format(d0="out[-1]", **{f"y{i}": v for i, v in enumerate(T)})
    value = _compile(f"def value(out, traces{args}):\n    {', '.join(T)}, = traces.tolist()\n    "
                     + body.replace("\n", "\n    "))

    def make_rhs(y, out):
        stack, signs = np.full((depth, k, n, n), -0.0), np.ones((depth, k, n, n))
        blocks, traces = y[:k * nn].reshape(k, n, n), np.empty(len(T))
        done, home, copies = dict(zip(state, blocks)), {}, []
        # the k state blocks' traces in one call, each the same pairwise sum as _trace's
        ops = [(np.add.reduce, (blocks.diagonal(0, 1, 2), 1, None, traces[:k]))]

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
                    ops.append((_UFUNCS.get(x.fn, x.fn), (*args, done[x])))
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
        ops += [(np.add.reduce, (buf(m).diagonal(), 0, None, traces[i, ...]))
                for m, i in traced.items()]
        # buf's closure holds buf: without the del, done and home wait for the cycle collector
        del buf
        sums = out[:k * nn].reshape(k, n, n)
        ops += [(np.multiply, (stack, signs, stack)),
                (np.add.reduce, (stack, 0, None, sums, False, -0.0)),
                (np.negative, (sums, sums)), (value, (out, traces, *scalar.consts))]

        def rhs(t):
            for f, args in ops:
                f(*args)

        return rhs

    return make_rhs


_UFUNCS = {operator.add: np.add, operator.sub: np.subtract, operator.mul: np.multiply}


class _FloatRhs(NamedTuple):
    """An rhs as Python float source.  body sets {d0}, {d1}, ... to the
    derivative of the state {y0}, {y1}, ... at time {t} (str.format fields).
    It reads the constants c0, c1, ..., whose values are consts."""
    body: str
    consts: tuple


_FLOAT_OPS = {_float_dot: lambda *ab: " + ".join(map("{} * {}".format, ab[::2], ab[1::2]))
              + " + 0.0", _float_trace: lambda *d: " + ".join(d) + " + 0.0",
              operator.add: "{} + {}".format, operator.sub: "{} - {}".format,
              operator.mul: "{} * {}".format}


def _float_rhs(records: list) -> _FloatRhs:
    """Float records of a body's negated derivatives as straight-line
    assignments, one per operation, in the body's left-to-right order: the
    n <= 2 rhs, and the scalar entry of the n >= 3 plan.  Each constant is
    an argument, never a literal, so every model of one body has the same
    source."""
    consts, body = [], []
    # records and constants by id: floats that are equal may be distinct
    # constants; operations by (fn, argument names): one op on the same
    # values, such as M* Sigma and M Sigma at n = 1, is computed once
    names, ops = {}, {}

    def name(x) -> str:
        if id(x) not in names:
            if not isinstance(x, _Expr):
                names[id(x)] = f"c{len(consts)}"
                consts.append(x)
            elif x.fn is None:
                names[id(x)] = f"{{y{x.args[0]}}}"
            else:
                key = (x.fn, *map(name, x.args))
                if key not in ops:
                    ops[key] = f"_{len(body)}"
                    body.append(f"{ops[key]} = " + _FLOAT_OPS[x.fn](*key[1:]))
                names[id(x)] = ops[key]
        return names[id(x)]

    for j, x in enumerate(records):
        body.append(f"{{d{j}}} = -{name(x)}")
    return _FloatRhs("\n".join(body), tuple(consts))


def _float_source(rhs: _FloatRhs, L: int, sym: int, n: int) -> str:
    """The source of loop(Y, D, K, t, h, *rhs.consts), the RK4 loop of
    _integrate at n <= 2 on the L float entries of the state.  Its four rhs
    evaluations per step are rhs.body inline at n = 1, and at n = 2 calls
    of it as a function that the loop defines, as four copies of the longer
    body cost more memory than the calls cost time.  Y and D are flat float
    views of the (K+1, L) arrays, and row K of Y holds the state at time t.
    The stage sums, the symmetrization of the first sym n x n blocks, the
    blow-up test and the time steps are the float forms of _vector_loop's
    numpy ones, term for term.  The loop writes each node into Y and D; at
    a node that fails the blow-up test it returns (i, t) with the failing
    state in row i of Y, and None once it reaches t = 0."""
    y, u, d = ([f"{v}{j}" for j in range(L)] for v in "yud")
    k1, k2, k3, k4 = ([f"k{s}_{j}" for j in range(L)] for s in range(1, 5))
    at = [f"j + {j}" if j else "j" for j in range(L)]
    nn = n * n

    def each(fmt, *cols):
        return [fmt.format(*c) for c in zip(*cols)]

    def call(state, out, t):
        if n > 1:
            return [f"{', '.join(out)} = rhs({t}, {', '.join(state)})"]
        fields = {f"y{j}": v for j, v in enumerate(state)} | {f"d{j}": v for j, v in enumerate(out)}
        return rhs.body.format(t=t, **fields).splitlines()

    # the entries of each symmetrized block at and above its diagonal, with their mirrors
    mirror = [(u[b + i * n + j], u[b + j * n + i]) for b in range(0, sym * nn, nn)
              for i in range(n) for j in range(i, n)]
    step = [*each("{} = {} + half * {}", u, y, k1), *call(u, k2, "t + half"),
            *each("{} = {} + half * {}", u, y, k2), *call(u, k3, "t + half"),
            *each("{} = {} + h * {}", u, y, k3), *call(u, k4, "t + h"),
            *each("{} = {} + ({} + 2.0 * {} + 2.0 * {} + {}) * sixth", u, y, k1, k2, k3, k4),
            *(f"{' = '.join(dict.fromkeys(e))} = 0.5 * ({e[0]} + {e[1]})" for e in mirror),
            "t += h", f"j -= {L}", *each("Y[{}] = {}", at, u),
            # a NaN fails every comparison
            f"if not ({' and '.join(f'abs({v}) <= B' for v in u)}):", "    return i, t",
            *call(u, k1, "t"), *each("D[{}] = {}", at, k1),
            f"{', '.join(y)} = {', '.join(u)}"]
    args = "".join(f", c{m}" for m in range(len(rhs.consts)))
    body = rhs.body.format(t="t", **{v: v for v in y + d}).splitlines()
    body = [] if n == 1 else [f"def rhs(t, {', '.join(y)}):", *("    " + s for s in body),
                              f"    return {', '.join(d)}"]
    lines = [*body, "B = BLOWUP_THRESHOLD",
             "half, sixth = 0.5 * h, h / 6.0", f"j = K * {L}", *each("{} = Y[{}]", y, at),
             *call(y, k1, "t"), *each("D[{}] = {}", at, k1),
             "for i in range(K - 1, -1, -1):", *("    " + s for s in step), "return None"]
    return "\n".join([f"def loop(Y, D, K, t, h{args}):", *("    " + s for s in lines)])


@lru_cache(maxsize=None)
def _compile(source: str):
    """The one function that source defines, compiled once per process."""
    scope = {}
    exec(compile(source, "<generated>", "exec"), globals(), scope)
    (fn,) = scope.values()
    return fn


@lru_cache(maxsize=None)
def _float_loop(body: str, consts: int, L: int, sym: int, n: int):
    """_float_source's loop, built once per body text and number of constants."""
    return _compile(_float_source(_FloatRhs(body, (None,) * consts), L, sym, n))


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


def _vector_loop(make_rhs, Y: np.ndarray, D: np.ndarray, t: float, h: float, n: int, sym: int):
    """The RK4 loop of _integrate at n >= 3, each operation into a buffer
    made once: make_rhs(y, out) returns rhs(t), which reads the state from
    the vector y and writes its derivative into the vector out.  Row K of Y
    holds the state at time t.  Writes each node into Y and D, and tests
    the blow-up bound on RK4_BLOCK rows at a time: at the first failing node
    in sweep order it returns (i, t), t as a per-step test would give it,
    with the failing state in row i of Y; None once it reaches t = 0."""
    K, L = Y.shape[0] - 1, Y.shape[1]
    u, ck, s, R = np.empty(L), np.empty(L), np.empty(L), np.empty((4, L))
    square = u[:sym * n * n].reshape(sym, n, n)
    square_T, both = square.transpose(0, 2, 1), np.empty((sym, n, n))
    (k1, k2, k3, _), middle, half = R, R[1:3], 0.5 * h
    c_half, c_h, c_sixth, two, c_sym = map(np.array, (half, h, h / 6.0, 2.0, 0.5))
    add, mul, rsum = np.add, np.multiply, np.add.reduce
    with np.errstate(all="ignore"):
        node, rhs2, rhs3, rhs4 = (make_rhs(u, k) for k in R)
        u[:] = Y[K]
        node(t)
        Y[K], D[K] = u, k1
        y, top, t_top, stop = Y[K], K, t, max(K - RK4_BLOCK, 0)
        for i in range(K - 1, -1, -1):
            mul(c_half, k1, ck)
            add(y, ck, u)
            rhs2(t + half)
            mul(c_half, k2, ck)
            add(y, ck, u)
            rhs3(t + half)
            mul(c_h, k3, ck)
            add(y, ck, u)
            rhs4(t + h)
            mul(middle, two, middle)
            # row by row onto -0.0, the additive identity that keeps a sum of
            # -0.0 terms -0.0; the default start, +0.0, would not
            rsum(R, 0, None, s, False, -0.0)
            mul(s, c_sixth, s)
            add(y, s, u)
            if sym:    # (M + M*) / 2
                add(square, square_T, both)
                mul(c_sym, both, square)
            t += h
            Y[i] = u
            node(t)
            D[i] = k1
            y = Y[i]
            if i == stop:
                # ndarray.max's reduction without its Python layer; NaN compares false
                bad = ~(np.maximum.reduce(np.abs(Y[i:top]), 1) <= BLOWUP_THRESHOLD)
                if bad.any():
                    i += int(np.flatnonzero(bad)[-1])    # the last row is the first stepped
                    for _ in range(top - i):
                        t_top += h
                    return i, t_top
                top, t_top, stop = i, t, max(i - RK4_BLOCK, 0)
    return None


def _integrate(rhs, y0, grid: TimeGrid, sym: int):
    """grid.K classical RK4 steps backward from (grid.T, y0) on one packed
    float64 state vector, with per-step symmetrization and blow-up detection.

    y0 is the tuple of state blocks (arrays or scalars), packed in order;
    the first `sym` blocks are n x n matrices that each step symmetrizes,
    n the first block's number of rows.  When rhs is a _FloatRhs (n <= 2)
    the loop is the one _float_source generates; otherwise rhs is the
    make_rhs of _vector_loop.  Each step has signed size h = -grid.h, and
    its time is accumulated by t += h from grid.T.  Returns the (K+1, L)
    node array and the rhs at each node, row i at grid node i counted from
    t = 0; a NumericalFailure names the node the same way.  The rhs at a
    node is the next step's first stage, so K steps make 4K + 1 calls.
    """
    K, h = grid.K, -grid.h
    blocks = [np.asarray(b, dtype=float) for b in y0]
    ends = np.cumsum([b.size for b in blocks]).tolist()
    Y, D = np.empty((K + 1, ends[-1])), np.empty((K + 1, ends[-1]))
    Y[K] = np.concatenate([b.ravel() for b in blocks])
    n = blocks[0].shape[0]
    if isinstance(rhs, _FloatRhs):
        loop = _float_loop(rhs.body, len(rhs.consts), ends[-1], sym, n)
        failed = loop(memoryview(Y.reshape(-1)), memoryview(D.reshape(-1)), K, grid.T, h,
                      *rhs.consts)
    else:
        failed = _vector_loop(rhs, Y, D, grid.T, h, n, sym)
    if failed:
        i, t = failed
        for a, b in zip([0] + ends[:-1], ends):    # first failing block decides
            m = np.abs(Y[i, a:b]).max()
            if not m <= BLOWUP_THRESHOLD:
                raise NumericalFailure(i) if not np.isfinite(m) else RiccatiBlowUp(t)
    return Y, D


def _solution(kind: str, grid: TimeGrid, n: int, Y: np.ndarray, D: np.ndarray) -> RiccatiSolution:
    """The solution of kind from _integrate's packed (K+1, L) node rows Y and
    their derivatives D, each block a view: the n x n blocks of BLOCKS[kind]
    in order, then the scalar last column."""
    *mats, scalar = BLOCKS[kind]
    nn, blocks = n * n, {}
    for d, A in (("", Y), ("d", D)):
        blocks |= {d + b: A[:, j * nn:(j + 1) * nn].reshape(-1, n, n) for j, b in enumerate(mats)}
        blocks[d + scalar] = A[:, -1]
    return RiccatiSolution(kind=kind, grid=grid, **blocks)


def solve_mfc(model: LQModelSpec, grid: TimeGrid) -> RiccatiSolution:
    """Solve the MFC system (P, Sigma, lambda) backward from t = T."""
    mm, tp, _ = _algebra(model.n)
    QT, QbT, ST = _coefficients(model, "QT QbarT ST")
    STQbT = mm(tp(ST), QbT)
    state = (QT + QbT, mm(STQbT, ST) - (STQbT + mm(QbT, ST)), 0.0)
    return _solution("MFC", grid, model.n, *_integrate(_mfc_rhs(model), state, grid, 2))


def solve_mfg(model: LQModelSpec, grid: TimeGrid) -> RiccatiSolution:
    """Solve the MFG system (P, Sigma, Gamma, mu) backward from t = T.
    Only P is symmetrized: MFG Sigma asymmetry is a feature, not roundoff."""
    mm, tp, _ = _algebra(model.n)
    QT, QbT, ST = _coefficients(model, "QT QbarT ST")
    state = (QT + QbT, mm(-QbT, ST), mm(mm(tp(ST), QbT), ST), 0.0)
    return _solution("MFG", grid, model.n, *_integrate(_mfg_rhs(model), state, grid, 1))


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


def _interp(values: np.ndarray, k, w):
    """Linear interpolation of the node values at node k plus the fraction w
    of a step (_locate), w shaped to broadcast over a node value."""
    return (1.0 - w) * values[k] + w * values[k + 1]


def eval_at(sol: RiccatiSolution, t: float | np.ndarray) -> dict:
    """Every block of sol and its derivative d<block>, linearly interpolated
    at time t, or at each time of a 1-D array t (one row per time), located
    once for all blocks.  At a float t the scalar ones are floats."""
    k, w = _locate(sol.grid, np.atleast_1d(t))
    weights = {1: w, 3: w[:, None, None]}    # for a scalar block, an n x n one
    out = {}
    for b in BLOCKS[sol.kind]:
        for name in (b, "d" + b):
            values = getattr(sol, name)
            v = _interp(values, k, weights[values.ndim])
            out[name] = v if np.ndim(t) else v[0] if values.ndim > 1 else float(v[0])
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
    so that it reads back exactly, each row comma-joined with a \\r\\n end,
    as csv.writer would write it: no cell needs quoting, as neither a repr
    nor a header (made of BLOCKS names, indices and fixed words) does.  The
    rows are formatted by _csv_rows a block of at most CSV_BLOCK_CELLS cells
    (and at least one row) at a time, so only one block's text is held."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        rows = max(CSV_BLOCK_CELLS // max(table.shape[1], 1), 1)
        for i in range(0, len(table), rows):
            fh.write(_csv_rows(np.ascontiguousarray(table[i:i + rows])))


def to_csv(sol: RiccatiSolution, path: str) -> None:
    """One row per node: t, then each block of BLOCKS[sol.kind], an n x n one
    as its entries row-major (P_00, P_01, ...), the scalar lam as lambda."""
    n = sol.P.shape[1]
    ij = [f"_{i}{j}" for i in range(n) for j in range(n)]
    header, cols = ["t"], [sol.grid.nodes()]
    for b in BLOCKS[sol.kind]:
        cols.append(getattr(sol, b))
        header += [b + e for e in ij] if cols[-1].ndim > 1 else [{"lam": "lambda"}.get(b, b)]
    _write_csv(path, header, np.hstack([c.reshape(sol.grid.K + 1, -1) for c in cols]))
