"""Particle simulation of the controlled McKean-Vlasov dynamics.

Euler-Maruyama on an N-particle ensemble:

    x_i <- x_i + g(x_i, ybar, v_i) dt + sigma sqrt(dt) xi_i + beta sqrt(dt) eta

with xi_i per-particle Gaussians, eta one shared Gaussian per step (common
noise), and ybar the empirical mean, which stands in for the conditional
law given the common-noise path.  All noise comes from a counter-based
generator keyed on (seed, stream, step), so trajectories are bit-identical
regardless of scheduling or worker count: simulate draws step k+1's noise
on one worker thread while step k runs (MASTERLQ_THREADS=1 draws inline).
"""

from __future__ import annotations

import os
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


def gaussian_ensemble(N: int, n: int, seed: int, mean=0.0, std=1.0) -> ParticleEnsemble:
    z = _normals(seed, STREAM_INITIAL, 0, (N, n))
    return ParticleEnsemble(np.asarray(mean) + np.asarray(std) * z)


@dataclass(frozen=True)
class SimConfig:
    steps: int
    seed: int = 0
    common_seed: int | None = None   # defaults to seed; split for invariance tests
    store_states: bool = False

    def dt(self, T: float) -> float:
        return T / self.steps


@dataclass
class FeedbackPolicy:
    """Linear feedback v = K1(t) x + K2(t) ybar.

    OPTIMAL_MFC / OPTIMAL_MFG use the Riccati gains
    K1 = -R^{-1}B* P(t), K2 = -R^{-1}B* Sigma(t); PERTURBED adds eps*Delta
    to those gains; CUSTOM_LINEAR uses constant user gains.
    """

    kind: str                              # OPTIMAL_MFC | OPTIMAL_MFG | PERTURBED | CUSTOM_LINEAR
    sol: ric.RiccatiSolution | None = None
    K1: np.ndarray | None = None
    K2: np.ndarray | None = None
    eps: float = 0.0
    delta1: np.ndarray | None = None
    delta2: np.ndarray | None = None

    def gains(self, t: float, RB: np.ndarray | None):
        """(K1, K2) at time t, given RB = model.Rinv_Bt() (None for CUSTOM_LINEAR)."""
        if self.kind == "CUSTOM_LINEAR":
            return self.K1, self.K2
        ev = ric.eval_at(self.sol, t)
        K1 = -RB @ ev["P"]
        K2 = -RB @ ev["Sigma"]
        if self.kind == "PERTURBED":
            K1 = K1 + self.eps * self.delta1
            K2 = K2 + self.eps * self.delta2
        return K1, K2


def optimal_policy(sol: ric.RiccatiSolution) -> FeedbackPolicy:
    kind = "OPTIMAL_MFC" if sol.kind == "MFC" else "OPTIMAL_MFG"
    return FeedbackPolicy(kind=kind, sol=sol)


def zero_policy(model: lq.LQModelSpec) -> FeedbackPolicy:
    return FeedbackPolicy(kind="CUSTOM_LINEAR",
                          K1=np.zeros((model.d, model.n)),
                          K2=np.zeros((model.d, model.n)))


def perturbation_directions(model: lq.LQModelSpec, seed: int):
    """Fixed unit-Frobenius-norm gain perturbations drawn once from the seed."""
    z = _normals(seed, STREAM_PERTURBATION, 0, (2, model.d, model.n))
    d1 = z[0] / np.linalg.norm(z[0])
    d2 = z[1] / np.linalg.norm(z[1])
    return d1, d2


@dataclass
class Trajectory:
    times: np.ndarray                 # (steps+1,)
    ybar: np.ndarray                  # (steps+1, n)
    second_moment: np.ndarray         # (steps+1, n) diagonal E[x_k^2]
    common_path: np.ndarray           # (steps+1, n) cumulative beta*b(t)
    running_cost: np.ndarray          # (N,) accumulated integral of f per particle
    running_cost_partial: np.ndarray  # (steps+1,) mean partial sums for CSV
    final_states: np.ndarray          # (N, n)
    states_history: np.ndarray | None = None   # (steps+1, N, n) if requested


# simulate draws a step's normals on its worker thread only from this many
# draws per step (N n) up: below it the hand-off to the worker costs more
# than the draw (on 2 cores the two break even near N = 10^4 at n = 1).
PREFETCH_MIN_DRAWS = 16384


def _prefetch_allowed() -> bool:
    """MASTERLQ_THREADS=1 keeps simulate on the calling thread."""
    threads = os.environ.get("MASTERLQ_THREADS", "")
    return not (threads.isdigit() and int(threads) <= 1)


def _run_inline(fn, *args) -> Future:
    done = Future()
    done.set_result(fn(*args))
    return done


def simulate(model: lq.LQModelSpec, policy: FeedbackPolicy,
             X0: ParticleEnsemble, cfg: SimConfig) -> Trajectory:
    """Euler-Maruyama forward pass; deterministic given (seed, N, steps)."""
    return _simulate(model, [policy], X0, cfg)[0]


def _simulate(model: lq.LQModelSpec, policies: list[FeedbackPolicy],
              X0: ParticleEnsemble, cfg: SimConfig) -> list[Trajectory]:
    """simulate for each policy, all on one noise draw per step.

    Each policy's ensemble sees the same numbers as in its own simulate
    call, so every trajectory has the same bits.  If ensembles go
    non-finite, the NumericalFailure raised is the one of the first failing
    policy in list order, as if the policies had run one after another.
    """
    N, n = X0.N, X0.n
    if n != model.n:
        raise ValueError(f"ensemble dimension {n} != model dimension {model.n}")
    dt = cfg.dt(model.T)
    sdt = np.sqrt(dt)
    cseed = cfg.seed if cfg.common_seed is None else cfg.common_seed
    sig_sdt, beta_sdt = model.sigma * sdt, model.beta * sdt

    times = np.linspace(0.0, model.T, cfg.steps + 1)
    bpath = np.zeros((cfg.steps + 1, n))
    # final_states is the ensemble itself, advanced in place
    trajs = [Trajectory(times=times, ybar=np.empty((cfg.steps + 1, n)),
                        second_moment=np.empty((cfg.steps + 1, n)), common_path=bpath,
                        running_cost=np.zeros(N), running_cost_partial=np.zeros(cfg.steps + 1),
                        final_states=X0.states.copy(),
                        states_history=(np.empty((cfg.steps + 1, N, n))
                                        if cfg.store_states else None))
             for _ in policies]
    live = list(range(len(policies)))   # indices of the policies still advancing
    failed = {}                         # policy index -> step its ensemble failed at

    def noise(k, buf):
        # Step k's scaled draws.  On the worker thread this calls no public
        # function, so every traced span stays on the calling thread.
        if buf is not None:
            _philox(cfg.seed, STREAM_IDIOSYNCRATIC, k).standard_normal(out=buf)
            buf *= sig_sdt
        if model.beta > 0.0:
            return buf, beta_sdt * _normals(cseed, STREAM_COMMON, k, (n,))
        return buf, None

    # a @ M.T takes a slow path on (N, n) operands, and so does adding a row
    # vector to a temporary.  np.dot with a contiguous transpose and in-place
    # updates give the same bits in the same order, except that np.dot's
    # bits differ for a single particle, which keeps @.
    def times_t(a, M):
        return np.dot(a, np.ascontiguousarray(M.T)) if N > 1 else a @ M.T

    custom = all(p.kind == "CUSTOM_LINEAR" for p in policies)
    RB = None if custom else model.Rinv_Bt()
    bufs = [np.empty((N, n)), np.empty((N, n))] if model.sigma > 0.0 else [None, None]
    prefetch = model.sigma > 0.0 and N * n >= PREFETCH_MIN_DRAWS and _prefetch_allowed()
    with ThreadPoolExecutor(1) if prefetch else nullcontext() as pool:
        submit = pool.submit if prefetch else _run_inline
        pending = submit(noise, 0, bufs[0])
        for k in range(cfg.steps):
            t = times[k]
            z, b = pending.result()
            if k + 1 < cfg.steps:
                pending = submit(noise, k + 1, bufs[(k + 1) % 2])
            for i in live:
                policy, tr = policies[i], trajs[i]
                x = tr.final_states
                yb = x.mean(axis=0)
                tr.ybar[k] = yb
                tr.second_moment[k] = np.mean(x * x, axis=0)
                if tr.states_history is not None:
                    tr.states_history[k] = x
                K1, K2 = policy.gains(t, RB)
                v = times_t(x, K1)
                v += yb @ K2.T
                f = lq.running_cost(x, yb, v, model)   # left-endpoint rule
                tr.running_cost += f * dt
                tr.running_cost_partial[k + 1] = (tr.running_cost_partial[k]
                                                  + float(np.mean(f)) * dt)

                drift = times_t(x, model.A)
                drift += yb @ model.Abar.T
                drift += times_t(v, model.B)
                drift *= dt
                x += drift
                if z is not None:
                    x += z
                if b is not None:
                    x += b
                if not np.all(np.isfinite(x)):
                    failed[i] = k
            bpath[k + 1] = bpath[k] + b if b is not None else bpath[k]
            if failed:
                live = [i for i in live if i not in failed]
                first = min(failed)
                if not live or first < live[0]:
                    raise ric.NumericalFailure(failed[first])
    if failed:
        raise ric.NumericalFailure(failed[min(failed)])

    for tr in trajs:
        x = tr.final_states
        tr.ybar[-1] = x.mean(axis=0)
        tr.second_moment[-1] = np.mean(x * x, axis=0)
        if tr.states_history is not None:
            tr.states_history[-1] = x
    return trajs


def estimate_cost(model: lq.LQModelSpec, traj: Trajectory) -> dict:
    """Empirical cost J_hat = mean(total per-particle cost), with stderr."""
    h = lq.terminal_cost(traj.final_states, traj.ybar[-1], model)
    total = traj.running_cost + h
    N = total.size
    stderr = float(np.std(total, ddof=1) / np.sqrt(N)) if N > 1 else 0.0
    return {"J_hat": float(np.mean(total)), "stderr": stderr}


def check_cost_matches_value(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                             X0: ParticleEnsemble, cfg: SimConfig,
                             dt_const: float = 10.0) -> dict:
    """Simulated optimal cost vs the Riccati value V(X0, 0).

    With common noise the realized b-path does not average out over
    particles, so J is additionally averaged over several common-noise
    replicas (8 when beta > 0) and the replica scatter enters the standard error.
    """
    if sol.kind != "MFC":
        raise ValueError("cost matching requires an MFC solution")
    common_replicas = 8 if model.beta > 0.0 else 1
    policy = optimal_policy(sol)
    Js, errs = [], []
    base_common = cfg.seed if cfg.common_seed is None else cfg.common_seed
    for r in range(common_replicas):
        c = SimConfig(steps=cfg.steps, seed=cfg.seed,
                      common_seed=base_common + 7919 * r,
                      store_states=cfg.store_states)
        est = estimate_cost(model, simulate(model, policy, X0, c))
        Js.append(est["J_hat"])
        errs.append(est["stderr"])
    J_hat = float(np.mean(Js))
    R = len(Js)
    scatter = float(np.std(Js, ddof=1)) / np.sqrt(R) if R > 1 else 0.0
    stderr = float(np.hypot(np.mean(errs) / np.sqrt(R), scatter))
    V = mv.eval_value(sol, X0.states, 0.0)
    tol = 3.0 * stderr + dt_const * cfg.dt(model.T)
    gap = abs(J_hat - V)
    return {"J_hat": J_hat, "stderr": stderr, "V_reference": V,
            "common_replicas": R,
            "gap": gap, "tolerance": tol, "pass": bool(gap <= tol)}


def check_optimality_gap(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                         X0: ParticleEnsemble, cfg: SimConfig,
                         eps_list=(0.1, 0.2, 0.4)) -> dict:
    """Cost increase under fixed random gain perturbations of size eps.

    Common random numbers make the gaps directly comparable: the optimal
    and perturbed ensembles advance together on one draw per step.  Near
    the optimum the gaps grow ~ eps^2.
    """
    d1, d2 = perturbation_directions(model, cfg.seed)
    policies = [optimal_policy(sol)] + [
        FeedbackPolicy(kind="PERTURBED", sol=sol, eps=eps, delta1=d1, delta2=d2)
        for eps in eps_list]
    trajs = _simulate(model, policies, X0, replace(cfg, store_states=False))
    base = estimate_cost(model, trajs[0])
    gaps = {}
    for eps, traj in zip(eps_list, trajs[1:]):
        gaps[eps] = estimate_cost(model, traj)["J_hat"] - base["J_hat"]
    eps_arr = np.asarray(list(gaps))
    gap_arr = np.asarray([gaps[e] for e in gaps])
    quad_coef = float(np.linalg.lstsq(eps_arr[:, None] ** 2, gap_arr, rcond=None)[0][0])
    monotone = bool(np.all(gap_arr >= -3.0 * base["stderr"]))
    return {"J_optimal": base["J_hat"], "stderr": base["stderr"], "gaps": gaps,
            "quadratic_coefficient": quad_coef,
            "all_nonnegative": monotone, "pass": monotone and quad_coef > 0.0}


def check_max_principle(model: lq.LQModelSpec, sol: ric.RiccatiSolution,
                        X0: ParticleEnsemble, cfg: SimConfig,
                        mode: str = "deterministic") -> dict:
    """Co-state residual of the (stochastic) maximum principle.

    Z(t) = P(t)X(t) + Sigma(t) ybar(t).  Deterministic mode (sigma, beta
    forced to 0) checks max_i |dZ + D_X L dt| / dt = O(dt); stochastic mode
    (beta forced to 0) checks mean_i |dZ + D_X L dt - K dw|^2 = O(dt^2)
    with K dw = sigma (P dw_i + Sigma mean(dw)).
    """
    if sol.kind != "MFC":
        raise ValueError("maximum-principle check requires an MFC solution")
    if mode == "deterministic":
        model = _with_noise(model, 0.0, 0.0)
    elif mode == "stochastic":
        model = _with_noise(model, model.sigma, 0.0)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    cfg = SimConfig(steps=cfg.steps, seed=cfg.seed, common_seed=cfg.common_seed,
                    store_states=True)
    traj = simulate(model, optimal_policy(sol), X0, cfg)
    dt = cfg.dt(model.T)
    sdt = np.sqrt(dt)

    Z = np.empty_like(traj.states_history)
    for k, t in enumerate(traj.times):
        ev = ric.eval_at(sol, t)
        Z[k] = traj.states_history[k] @ ev["P"].T + traj.ybar[k] @ ev["Sigma"].T

    worst = 0.0
    stats = []
    for k in range(cfg.steps):
        dZ = Z[k + 1] - Z[k]
        # D_X L = D_x H(x, ybar, Z) + the measure term at (ybar, E Z)
        g = (lq.dx_hamiltonian(traj.states_history[k], traj.ybar[k], Z[k], model)
             + lq.measure_term(traj.ybar[k], Z[k].mean(axis=0), model))
        resid = dZ + dt * g
        if mode == "stochastic" and model.sigma > 0.0:
            dw = sdt * _normals(cfg.seed, STREAM_IDIOSYNCRATIC, k, traj.states_history[k].shape)
            ev = ric.eval_at(sol, traj.times[k])
            resid = resid - model.sigma * (dw @ ev["P"].T + dw.mean(axis=0) @ ev["Sigma"].T)
            stats.append(float(np.mean(np.sum(resid ** 2, axis=1))))
        else:
            worst = max(worst, float(np.max(np.abs(resid))) / dt)

    # terminal co-state against the terminal cost gradient
    xT, ybT = traj.final_states, traj.ybar[-1]
    ST, QbT = model.ST, model.QbarT
    DXh = (xT @ (model.QT + QbT).T
           + ybT @ (ST.T @ QbT @ ST - ST.T @ QbT - QbT @ ST).T)
    terminal_gap = float(np.max(np.abs(Z[-1] - DXh)))

    out = {"mode": mode, "dt": dt, "terminal_gap": terminal_gap}
    if mode == "deterministic":
        out["residual"] = worst           # already divided by dt: O(dt)
        out["C"] = worst / dt
    else:
        out["mean_sq_residual"] = float(np.max(stats)) if stats else 0.0
    return out


def _with_noise(model: lq.LQModelSpec, sigma: float, beta: float) -> lq.LQModelSpec:
    return replace(model, sigma=sigma, beta=beta)


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Per-step rows: t, ybar, second moments, running-cost partial sum."""
    n = traj.ybar.shape[1]
    header = (["t"] + [f"ybar_{i}" for i in range(n)]
              + [f"m2_{i}" for i in range(n)] + ["running_cost"])
    ric._write_csv(path, header, np.column_stack(
        [traj.times, traj.ybar, traj.second_moment, traj.running_cost_partial]))
