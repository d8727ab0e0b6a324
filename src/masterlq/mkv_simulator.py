"""Particle simulation of the controlled McKean-Vlasov dynamics.

Euler-Maruyama on an N-particle ensemble:

    x_i <- x_i + g(x_i, ybar, v_i) dt + sigma sqrt(dt) xi_i + beta sqrt(dt) eta

with xi_i per-particle Gaussians, eta one shared Gaussian per step (common
noise), and ybar the empirical mean, which stands in for the conditional
law given the common-noise path.  Every policy is the one linear feedback
v = (-R^{-1}B* P(t) + K1) x + (-R^{-1}B* Sigma(t) + K2) ybar, its gains
interpolated once per run into one row per step.  All noise comes from a
counter-based generator keyed on (seed, stream, step), so trajectories are
bit-identical regardless of scheduling: with sigma > 0 and at least
PREFETCH_MIN_DRAWS draws per step, simulate draws step k+1's noise on one
worker thread while step k runs, and otherwise inline.
check_cost_matches_value compares one path's cost, less its common-noise
martingale, with the Riccati value; expected_costs gives the scheme's
expected cost exactly, from the ensemble's first two moments.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import lq_model as lq
from . import master_verifier as mv
from . import riccati as ric

STREAM_IDIOSYNCRATIC = 0
STREAM_COMMON = 1
STREAM_INITIAL = 2
STREAM_PERTURBATION = 3


def _philox(seed: int, stream: int, step: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    counter = np.array([0, 0, 0, step], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _normals(seed: int, stream: int, step: int, shape) -> np.ndarray:
    return _philox(seed, stream, step).standard_normal(shape)


@dataclass
class ParticleEnsemble:
    states: np.ndarray      # (N, n)

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.N < 1:
            raise ValueError("need at least one particle")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("non-finite particle state")

    @property
    def N(self) -> int:
        return self.states.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[1]


def gaussian_ensemble(N: int, n: int, seed: int, mean=0.0) -> ParticleEnsemble:
    z = _normals(seed, STREAM_INITIAL, 0, (N, n))
    return ParticleEnsemble(np.asarray(mean) + z)


@dataclass(frozen=True)
class SimConfig:
    steps: int
    seed: int = 0


@dataclass
class FeedbackPolicy:
    """Linear feedback v = (-R^{-1}B* P(t) + K1) x + (-R^{-1}B* Sigma(t) + K2) ybar.

    Each constant offset K1, K2 is added only when given: sol alone is the
    optimal control of its MFC or MFG solution, sol with offsets a
    perturbed one.
    """

    sol: ric.RiccatiSolution
    K1: np.ndarray | None = None
    K2: np.ndarray | None = None

    def gains(self, times: np.ndarray, RB: np.ndarray):
        """(K1, K2) stacks of shape (len(times), d, n), row j at times[j],
        given RB = model.Rinv_Bt()."""
        ev, tables = ric.eval_at(self.sol, times), []
        for name, K in (("P", self.K1), ("Sigma", self.K2)):
            G = -RB @ ev[name]
            tables.append(G if K is None else G + K)
        return tables


def perturbation_directions(model: lq.LQModelSpec, seed: int):
    """Fixed unit-Frobenius-norm gain perturbations drawn once from the seed."""
    z = _normals(seed, STREAM_PERTURBATION, 0, (2, model.d, model.n))
    return tuple(z / np.linalg.norm(z, axis=(1, 2), keepdims=True))


@dataclass
class Trajectory:
    """Per-node ensemble statistics of one simulation.  It keeps no particle
    states but the last: a caller that needs each node's ensemble passes
    simulate an observer."""

    times: np.ndarray                 # (steps+1,)
    ybar: np.ndarray                  # (steps+1, n)
    second_moment: np.ndarray         # (steps+1, n) diagonal E[x_k^2]
    common_path: np.ndarray           # (steps+1, n) cumulative beta*b(t)
    running_cost: np.ndarray          # (N,) accumulated integral of f per particle
    running_cost_partial: np.ndarray  # (steps+1,) mean partial sums for CSV
    final_states: np.ndarray          # (N, n)


# simulate draws a step's normals on its worker thread only from this many
# draws per step (N n) up: below it the hand-off to the worker costs more
# than the draw (on 2 cores the two break even near N = 10^4 at n = 1).
PREFETCH_MIN_DRAWS = 16384


def _run_inline(fn, *args) -> Future:
    done = Future()
    done.set_result(fn(*args))
    return done


def simulate(model: lq.LQModelSpec, policy: FeedbackPolicy,
             X0: ParticleEnsemble, cfg: SimConfig, observe=None) -> Trajectory:
    """Euler-Maruyama forward pass; deterministic given (seed, N, steps).

    observe, if given, is called as observe(k, x, ybar_k, z_k) at each
    node k = 0..steps in order, with the ensemble x before step k moves it
    (at k = steps, the final one), its mean ybar_k and z_k, the scaled draw
    sigma sqrt(dt) xi_k that step k adds to x (None at k = steps or if
    sigma = 0).  x is updated in place and z_k's buffer refilled two steps
    later, so an observer copies what it keeps.  A non-finite ensemble
    after step k raises NumericalFailure(k).
    """
    N, n = X0.N, X0.n
    if n != model.n:
        raise ValueError(f"ensemble dimension {n} != model dimension {model.n}")
    grid = ric.TimeGrid(model.T, cfg.steps)
    dt, times = grid.h, grid.nodes()
    sig_sdt, beta_sdt = model.sigma * np.sqrt(dt), model.beta * np.sqrt(dt)

    tr = Trajectory(times=times, ybar=np.empty((cfg.steps + 1, n)),
                    second_moment=np.empty((cfg.steps + 1, n)),
                    common_path=np.zeros((cfg.steps + 1, n)), running_cost=np.zeros(N),
                    running_cost_partial=np.zeros(cfg.steps + 1), final_states=X0.states.copy())
    x, bpath = tr.final_states, tr.common_path   # the ensemble advances in place

    def noise(k, buf):
        # Step k's scaled draws.  On the worker thread this calls no public
        # function, so every traced span stays on the calling thread.
        if buf is not None:
            _philox(cfg.seed, STREAM_IDIOSYNCRATIC, k).standard_normal(out=buf)
            buf *= sig_sdt
        if model.beta > 0.0:
            return buf, beta_sdt * _normals(cfg.seed, STREAM_COMMON, k, (n,))
        return buf, None

    K1, K2 = policy.gains(times[:-1], model.Rinv_Bt())
    bufs = [np.empty((N, n)), np.empty((N, n))] if model.sigma > 0.0 else [None, None]
    # Every (N, .) quantity of a step is written into these arrays, made once
    # per run: the control v, the cost f, the drift w (first x * x, then x - Sy),
    # the product p, whose first N entries serve the running cost as its scratch
    # q first, and the finiteness mask; above n = d = 1, _quad's scratch too.
    v, w, p = np.empty((N, model.d)), np.empty((N, n)), np.empty((N, n))
    f, q, finite = np.empty(N), p.reshape(-1)[:N], np.empty((N, n), dtype=bool)
    m = max(n, model.d)
    scratch = (w, q) + ((np.empty(N), np.empty((m, N))) if m > 1 else (None, None))

    def moments(k, z):
        # the bits of x.mean(axis=0) and np.mean(x * x, axis=0), minus their Python layer
        yb = tr.ybar[k] = np.add.reduce(x, axis=0) / N
        tr.second_moment[k] = np.add.reduce(np.multiply(x, x, out=w), axis=0) / N
        if observe is not None:
            observe(k, x, yb, z)
        return yb

    prefetch = model.sigma > 0.0 and N * n >= PREFETCH_MIN_DRAWS
    with ThreadPoolExecutor(1) if prefetch else nullcontext() as pool:
        submit = pool.submit if prefetch else _run_inline
        pending = submit(noise, 0, bufs[0])
        for k in range(cfg.steps):
            z, b = pending.result()
            if k + 1 < cfg.steps:
                pending = submit(noise, k + 1, bufs[(k + 1) % 2])
            yb = moments(k, z)
            _times_t(x, K1[k], v)
            v += yb @ K2[k].T
            lq.running_cost(x, yb, v, model, f, scratch)   # left-endpoint rule
            tr.running_cost += np.multiply(f, dt, out=q)
            tr.running_cost_partial[k + 1] = (tr.running_cost_partial[k]
                                              + float(np.add.reduce(f) / N) * dt)

            _times_t(x, model.A, w)
            w += yb @ model.Abar.T
            w += _times_t(v, model.B, p)
            w *= dt
            x += w
            if z is not None:
                x += z
            if b is not None:   # else every row of the common path stays 0.0
                x += b
                bpath[k + 1] = bpath[k] + b
            if not np.logical_and.reduce(np.isfinite(x, out=finite), axis=None):
                raise ric.NumericalFailure(k)
    moments(cfg.steps, None)
    return tr


def _times_t(a: np.ndarray, M: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ M.T for an (N, m) operand a and a (p, m) matrix M.

    a @ M.T takes a slow path on (N, m) operands; np.dot with a contiguous
    transpose gives the same bits, except for a single particle, which
    keeps @.  A 1 x 1 M needs no BLAS call: a * M[0, 0] + 0.0 adds onto
    +0.0 as numpy's 1 x 1 products do, so -0.0 comes out +0.0.  It differs
    from np.dot only where BLAS takes shortcuts: a product that underflows
    to zero (a fused multiply-add keeps the sign of the exact product), and
    a zero M against an infinite or NaN entry (BLAS skips a zero
    multiplier; the product gives NaN, as @ does)."""
    if M.shape == (1, 1):
        np.multiply(a, M[0, 0], out=out)
        out += 0.0
    elif len(a) > 1:
        np.dot(a, np.ascontiguousarray(M.T), out=out)
    else:
        out[...] = a @ M.T
    return out


def estimate_cost(model: lq.LQModelSpec, traj: Trajectory) -> dict:
    """Empirical cost J_hat = mean(total per-particle cost), with stderr.
    A stderr needs at least two particles: one would give 0.0, and every
    gate on 3 stderr would then fail on the time-step bias alone."""
    N = traj.final_states.shape[0]
    if N < 2:
        raise ValueError(f"a cost estimate needs at least two particles, got {N}")
    total = traj.running_cost + lq.terminal_cost(traj.final_states, traj.ybar[-1], model)
    stderr = float(np.std(total, ddof=1) / np.sqrt(N))
    return {"J_hat": float(np.mean(total)), "stderr": stderr}


def check_cost_matches_value(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                             X0: ParticleEnsemble, traj: Trajectory, dt_const: float) -> dict:
    """Cost of traj, simulated under sol's feedback from X0, vs V(X0, 0).

    By Ito's formula on the lifted value V(t, X_t), J - V(0, X0) is a
    martingale up to O(dt).  Its common-noise part M = sum_k (P_k + Sigma_k)
    ybar_k . (b_{k+1} - b_k), with E[D_X V] = (P + Sigma) ybar at the left
    step ends, does not average out over particles: J_hat = J_path - M.
    """
    if sol.kind != "MFC":
        raise ValueError("cost matching requires an MFC solution")
    est = estimate_cost(model, traj)
    ev = ric.eval_at(sol, traj.times[:-1])
    PS = ev["P"] + ev["Sigma"]
    db = np.diff(traj.common_path, axis=0)
    M = float(np.einsum("kij,kj,ki->", PS, traj.ybar[:-1], db)) if model.beta > 0.0 else 0.0
    J_hat = est["J_hat"] - M
    V = mv.eval_value(sol, X0.states, 0.0)
    tol = 3.0 * est["stderr"] + dt_const * model.T / (len(traj.times) - 1)
    gap = abs(J_hat - V)
    return {"J_hat": J_hat, "J_path": est["J_hat"], "common_noise_martingale": M,
            "stderr": est["stderr"], "V_reference": V,
            "gap": gap, "tolerance": tol, "pass": bool(gap <= tol)}


def expected_costs(model: lq.LQModelSpec, policies: list[FeedbackPolicy],
                   X0: ParticleEnsemble, cfg: SimConfig) -> np.ndarray:
    """E[J_hat] of simulate(model, policy, X0, cfg) for each policy, exactly.

    Under a linear feedback the expected spread C = mean_i (x_i - ybar)
    (x_i - ybar)* and mean moment Y = E[ybar ybar*] follow from X0's:
        C <- F1 C F1* + sigma^2 dt (1 - 1/N) I,  F1 = I + dt (A + B K1),
        Y <- F2 Y F2* + (sigma^2/N + beta^2) dt I,  F2 = I + dt (A + Abar + B (K1 + K2)).
    A step costs dt/2 [tr(W1 C) + tr(W2 Y)] at its left end, W1 = Q + Qbar
    + K1* R K1, W2 = Q + (I - S)* Qbar (I - S) + (K1 + K2)* R (K1 + K2), and
    the end the same forms of QT, QbarT and ST.  Each product is a fixed-order
    np.einsum, which no BLAS kernel rounds.  A non-finite cost raises
    NumericalFailure at its first non-finite node, for the first policy in
    list order that has one, as pricing the policies one by one would.
    """
    N, n = X0.N, X0.n
    grid = ric.TimeGrid(model.T, cfg.steps)
    dt, RB, I = grid.h, model.Rinv_Bt(), np.eye(n)
    # (steps, policies, 2, d, n): the gains on the spread, K1, and on the mean, K1 + K2
    K = np.stack([np.stack([K1, K1 + K2], axis=1)
                  for K1, K2 in (p.gains(grid.nodes()[:-1], RB) for p in policies)], axis=1)

    def forms(Q, Qbar, S):   # the cost's forms in the spread and in the mean, gains aside
        return np.stack([Q + Qbar, Q + np.einsum("ji,jk,kl->il", I - S, Qbar, I - S)])

    F = I + dt * (np.stack([model.A, model.A + model.Abar])
                  + np.einsum("ij,kpzjl->kpzil", model.B, K))
    W = forms(model.Q, model.Qbar, model.S) + np.einsum(
        "kpzji,kpzjl->kpzil", K, np.einsum("ij,kpzjl->kpzil", model.R, K))
    noise = np.multiply.outer([model.sigma ** 2 * dt * (1.0 - 1.0 / N),
                               (model.sigma ** 2 / N + model.beta ** 2) * dt], I)
    ybar = np.einsum("ki->i", X0.states) / N
    e = X0.states - ybar
    Z = np.broadcast_to([np.einsum("ki,kj->ij", e, e) / N, np.multiply.outer(ybar, ybar)],
                        (len(policies), 2, n, n))
    terms = np.empty((cfg.steps + 1, len(policies)))
    for k in range(cfg.steps):
        terms[k] = np.einsum("pzij,pzji->p", W[k], Z)
        Z = np.einsum("pzij,pzjl,pzml->pzim", F[k], Z, F[k]) + noise
    terms[-1] = np.einsum("zij,pzji->p", forms(model.QT, model.QbarT, model.ST), Z)
    bad = ~np.isfinite(terms)
    if bad.any():
        raise ric.NumericalFailure(int(np.argmax(bad[:, np.argmax(bad.any(axis=0))])))
    return 0.5 * (dt * np.add.reduce(terms[:-1]) + terms[-1])


def check_optimality_gap(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                         X0: ParticleEnsemble, cfg: SimConfig,
                         eps_list=(0.1, 0.2, 0.4)) -> dict:
    """Exact cost increase under fixed random gain perturbations of size eps.

    expected_costs prices the optimal feedback and each perturbed one from
    X0, so the gaps carry no sampling error.  The Euler scheme's optimum
    sits O(dt) from the Riccati gains: near it the gaps grow ~ eps^2.
    """
    d1, d2 = perturbation_directions(model, cfg.seed)
    J = expected_costs(model, [FeedbackPolicy(sol)] + [
        FeedbackPolicy(sol, K1=eps * d1, K2=eps * d2) for eps in eps_list], X0, cfg)
    gap, eps2 = J[1:] - J[0], np.square(eps_list)
    quad_coef = float(np.einsum("e,e->", eps2, gap) / np.einsum("e,e->", eps2, eps2))
    positive = bool(np.all(gap > 0.0))
    return {"J_optimal": float(J[0]), "gaps": dict(zip(eps_list, gap.tolist())),
            "quadratic_coefficient": quad_coef,
            "all_positive": positive, "pass": positive and quad_coef > 0.0}


def check_max_principle(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                        X0: ParticleEnsemble, cfg: SimConfig,
                        mode: str = "deterministic") -> dict:
    """Co-state residual of the (stochastic) maximum principle.

    Z(t) = P(t)X(t) + Sigma(t) ybar(t), and each step's residual is
    dZ + D_X L dt - (P z_i + Sigma mean(z)) on the draw z that simulate
    hands its observer (no draw, no last term).  Deterministic mode (sigma,
    beta forced to 0) reports max_i |resid| / dt = O(dt), stochastic mode
    (beta forced to 0) mean_i |resid|^2 = O(dt^2), each the largest over
    the steps.  The residuals are formed while the ensemble moves, so the
    check holds a few (N, n) arrays, not the path of every particle.
    """
    if sol.kind != "MFC":
        raise ValueError("maximum-principle check requires an MFC solution")
    grid = ric.TimeGrid(model.T, cfg.steps)
    dt, times = grid.h, grid.nodes()
    if mode == "deterministic":
        model = replace(model, sigma=0.0, beta=0.0)
        stat = lambda r: float(np.max(np.abs(r))) / dt
    elif mode == "stochastic":
        model = replace(model, beta=0.0)
        stat = lambda r: float(np.mean(np.sum(r ** 2, axis=1)))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    ev = ric.eval_at(sol, times)
    P, Sig = ev["P"], ev["Sigma"]
    stats = []
    Z = g = Kz = None     # the co-state, D_X L and noise term at the last node

    def observe(k, x, yb, z):
        nonlocal Z, g, Kz
        Z_next = x @ P[k].T + yb @ Sig[k].T
        if k > 0:
            resid = Z_next - Z + dt * g
            if Kz is not None:
                resid -= Kz
            stats.append(stat(resid))
        Z = Z_next
        if k < cfg.steps:
            # D_X L = D_x H(x, ybar, Z) + the measure term at (ybar, E Z)
            g = (lq.dx_hamiltonian(x, yb, Z, model)
                 + lq.measure_term(yb, Z.mean(axis=0), model))
            # formed now: z's buffer is refilled while the next step runs
            Kz = None if z is None else z @ P[k].T + z.mean(axis=0) @ Sig[k].T

    traj = simulate(model, FeedbackPolicy(sol), X0, cfg, observe)

    # the last co-state, at T, against the terminal cost gradient
    xT, ybT = traj.final_states, traj.ybar[-1]
    ST, QbT = model.ST, model.QbarT
    DXh = (xT @ (model.QT + QbT).T
           + ybT @ (ST.T @ QbT @ ST - ST.T @ QbT - QbT @ ST).T)
    terminal_gap = float(np.max(np.abs(Z - DXh)))

    out = {"mode": mode, "dt": dt, "terminal_gap": terminal_gap}
    worst = float(np.max(stats))
    if mode == "deterministic":
        out["residual"], out["C"] = worst, worst / dt   # already divided by dt: O(dt)
    else:
        out["mean_sq_residual"] = worst
    return out


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Per-step rows: t, ybar, second moments, running-cost partial sum."""
    n = traj.ybar.shape[1]
    header = (["t"] + [f"ybar_{i}" for i in range(n)]
              + [f"m2_{i}" for i in range(n)] + ["running_cost"])
    ric._write_csv(path, header, np.column_stack(
        [traj.times, traj.ybar, traj.second_moment, traj.running_cost_partial]))
