"""Particle simulation, cost estimation, optimality, maximum principle."""
from __future__ import annotations

import dataclasses
import functools
import threading

import numpy as np
import pytest

from masterlq import lq_model, master_verifier as mv, mkv_simulator as mkv, riccati
from masterlq.lq_model import scalar_model
from masterlq.mkv_simulator import (ParticleEnsemble, SimConfig,
                                    check_cost_matches_value,
                                    check_max_principle, check_optimality_gap,
                                    estimate_cost,
                                    gaussian_ensemble, optimal_policy,
                                    simulate, trajectory_to_csv, zero_policy)

from conftest import make_coupled_2x2


# ---------------------------------------------------------------------------
# ensembles

def test_ensemble_rejects_nonfinite():
    with pytest.raises(ValueError):
        ParticleEnsemble(np.array([[np.nan]]))


def test_ensemble_rejects_empty():
    with pytest.raises(ValueError):
        ParticleEnsemble(np.empty((0, 1)))


def test_gaussian_ensemble_reproducible():
    a = gaussian_ensemble(50, 2, seed=1)
    b = gaussian_ensemble(50, 2, seed=1)
    assert np.array_equal(a.states, b.states)


# ---------------------------------------------------------------------------
# simulate

def test_frozen_dynamics_states_constant():
    m = scalar_model(R=1.0, T=1.0)
    X0 = gaussian_ensemble(100, 1, seed=3)
    traj = simulate(m, zero_policy(m), X0, SimConfig(steps=50, seed=3))
    assert np.array_equal(traj.final_states, X0.states)


def test_exponential_growth_single_particle():
    m = scalar_model(A=1.0, R=1.0, T=1.0)
    X0 = ParticleEnsemble(np.array([[1.0]]))
    traj = simulate(m, zero_policy(m), X0, SimConfig(steps=4000, seed=0))
    assert traj.final_states[0, 0] == pytest.approx(np.e, abs=2e-3)


def test_common_noise_translates_preserves_spread():
    m = scalar_model(R=1.0, beta=0.7, T=1.0)
    X0 = gaussian_ensemble(500, 1, seed=4)
    traj = simulate(m, zero_policy(m), X0, SimConfig(steps=200, seed=4))
    spread0 = X0.states - X0.states.mean(axis=0)
    spreadT = traj.final_states - traj.final_states.mean(axis=0)
    assert np.allclose(spread0, spreadT, atol=1e-12)
    # every particle moved by the same realized common path
    assert np.allclose(traj.final_states - X0.states,
                       traj.common_path[-1], atol=1e-12)


def test_simulation_bit_reproducible(scalar_coupled, sol_coupled_mfc):
    X0 = gaussian_ensemble(300, 1, seed=5)
    cfg = SimConfig(steps=100, seed=5)
    a = simulate(scalar_coupled, optimal_policy(sol_coupled_mfc), X0, cfg)
    b = simulate(scalar_coupled, optimal_policy(sol_coupled_mfc), X0, cfg)
    assert np.array_equal(a.final_states, b.final_states)
    assert np.array_equal(a.running_cost, b.running_cost)


def test_centered_ensemble_invariant_to_common_noise(scalar_coupled, sol_coupled_mfc):
    from dataclasses import replace as dc_replace
    m = dc_replace(scalar_coupled, sigma=0.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(m.T, 500))
    X0 = gaussian_ensemble(200, 1, seed=6)
    t1 = simulate(m, optimal_policy(sol), X0, SimConfig(steps=250, seed=6, common_seed=100))
    t2 = simulate(m, optimal_policy(sol), X0, SimConfig(steps=250, seed=6, common_seed=200))
    c1 = t1.final_states - t1.final_states.mean(axis=0)
    c2 = t2.final_states - t2.final_states.mean(axis=0)
    assert np.allclose(c1, c2, atol=1e-10)
    assert not np.allclose(t1.final_states, t2.final_states)


def test_dimension_mismatch_raises(scalar_coupled):
    X0 = gaussian_ensemble(10, 2, seed=0)
    with pytest.raises(ValueError):
        simulate(scalar_coupled, zero_policy(scalar_coupled), X0, SimConfig(steps=10))


def test_mean_matches_mean_flow_ode(crowd_mfg):
    from masterlq import master_verifier as mv
    sol = riccati.solve_mfg(crowd_mfg, riccati.TimeGrid(crowd_mfg.T, 1000))
    from dataclasses import replace as dc_replace
    m0 = dc_replace(crowd_mfg, sigma=0.0)
    X0 = gaussian_ensemble(4000, 1, seed=7, mean=1.0, std=0.5)
    traj = simulate(m0, optimal_policy(sol), X0, SimConfig(steps=1000, seed=7))
    flow = mv.mean_flow_ode(m0, sol, traj.ybar[0], riccati.TimeGrid(m0.T, 1000))
    assert np.max(np.abs(traj.ybar - flow)) < 5e-3


# ---------------------------------------------------------------------------
# cost estimation

def test_zero_cost_model():
    m = scalar_model(R=1.0, T=1.0)
    X0 = gaussian_ensemble(100, 1, seed=8)
    traj = simulate(m, zero_policy(m), X0, SimConfig(steps=50, seed=8))
    est = estimate_cost(m, traj)
    assert est["J_hat"] == 0.0


def test_lqr_optimal_cost_value(scalar_lqr, sol_lqr):
    X0 = gaussian_ensemble(20000, 1, seed=9)
    traj = simulate(scalar_lqr, optimal_policy(sol_lqr), X0, SimConfig(steps=500, seed=9))
    est = estimate_cost(scalar_lqr, traj)
    ref = 0.5 * np.tanh(1.0) * np.mean(X0.states ** 2)
    assert abs(est["J_hat"] - ref) < 3 * est["stderr"] + 0.02


def test_lqr_zero_policy_cost(scalar_lqr):
    # f = x^2/2 with x frozen: J = E[X0^2]/2
    X0 = gaussian_ensemble(20000, 1, seed=10)
    traj = simulate(scalar_lqr, zero_policy(scalar_lqr), X0, SimConfig(steps=500, seed=10))
    est = estimate_cost(scalar_lqr, traj)
    assert est["J_hat"] == pytest.approx(0.5 * np.mean(X0.states ** 2), rel=1e-10)


def test_cost_matches_value_coupled(scalar_coupled, sol_coupled_mfc):
    X0 = gaussian_ensemble(20000, 1, seed=11, mean=0.5)
    rep = check_cost_matches_value(scalar_coupled, sol_coupled_mfc, X0,
                                   SimConfig(steps=500, seed=11))
    assert rep["pass"], rep


def test_value_terminal_slice(scalar_coupled, sol_coupled_mfc):
    X0 = gaussian_ensemble(5000, 1, seed=12, mean=0.4)
    V = mv.eval_value(sol_coupled_mfc, X0.states, scalar_coupled.T)
    yb = X0.states.mean(axis=0)
    h = np.mean([lq_model.terminal_cost(x, yb, scalar_coupled) for x in X0.states])
    assert V == pytest.approx(h, abs=1e-10)


# ---------------------------------------------------------------------------
# optimality gap

def test_optimality_gaps_positive_and_quadratic(scalar_coupled, sol_coupled_mfc):
    X0 = gaussian_ensemble(5000, 1, seed=13, mean=0.5)
    rep = check_optimality_gap(scalar_coupled, sol_coupled_mfc, X0,
                               SimConfig(steps=500, seed=13))
    assert rep["pass"]
    gaps = rep["gaps"]
    assert all(g >= 0.0 for g in gaps.values())
    assert 3.2 <= gaps[0.2] / gaps[0.1] <= 4.8
    assert rep["quadratic_coefficient"] > 0


# ---------------------------------------------------------------------------
# maximum principle

def test_max_principle_deterministic_2x2(coupled_2x2):
    sol = riccati.solve_mfc(coupled_2x2, riccati.TimeGrid(1.0, 8000))
    X0 = gaussian_ensemble(200, 2, seed=14, mean=0.5)
    r1 = check_max_principle(coupled_2x2, sol, X0, SimConfig(steps=500, seed=14),
                             mode="deterministic")
    r2 = check_max_principle(coupled_2x2, sol, X0, SimConfig(steps=1000, seed=14),
                             mode="deterministic")
    assert r1["terminal_gap"] <= 1e-8
    assert 1.7 <= r1["residual"] / r2["residual"] <= 2.3


def test_max_principle_stochastic_residual_order(coupled_2x2):
    sol = riccati.solve_mfc(coupled_2x2, riccati.TimeGrid(1.0, 8000))
    X0 = gaussian_ensemble(200, 2, seed=15)
    r1 = check_max_principle(coupled_2x2, sol, X0, SimConfig(steps=500, seed=15),
                             mode="stochastic")
    r2 = check_max_principle(coupled_2x2, sol, X0, SimConfig(steps=1000, seed=15),
                             mode="stochastic")
    assert max(r1["terminal_gap"], r2["terminal_gap"]) <= 1e-8
    # mean squared residual is O(dt^2): halving dt shrinks it by ~4
    assert r1["mean_sq_residual"] / r2["mean_sq_residual"] > 2.5


def test_max_principle_zero_cost_model():
    m = scalar_model(A=0.3, R=1.0, T=1.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(1.0, 1000))
    X0 = gaussian_ensemble(50, 1, seed=16)
    r = check_max_principle(m, sol, X0, SimConfig(steps=200, seed=16),
                            mode="deterministic")
    assert r["residual"] == 0.0 and r["terminal_gap"] == 0.0


def test_max_principle_requires_mfc(scalar_coupled, sol_coupled_mfg):
    X0 = gaussian_ensemble(10, 1, seed=17)
    with pytest.raises(ValueError):
        check_max_principle(scalar_coupled, sol_coupled_mfg, X0, SimConfig(steps=10))


# ---------------------------------------------------------------------------
# CSV

def test_trajectory_csv(tmp_path, scalar_coupled, sol_coupled_mfc):
    X0 = gaussian_ensemble(100, 1, seed=18)
    traj = simulate(scalar_coupled, optimal_policy(sol_coupled_mfc), X0,
                    SimConfig(steps=20, seed=18))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 22      # header + steps+1 rows
    assert lines[0].startswith("t,")


# ---------------------------------------------------------------------------
# simulate against the per-step reference formulation

def _reference_simulate(model, policy, X0, cfg):
    """The Euler loop as first written: a fresh draw per step, x @ M.T, and
    R^{-1} B* re-factored at every step."""
    N, n = X0.N, X0.n
    dt = cfg.dt(model.T)
    sdt = np.sqrt(dt)
    cseed = cfg.seed if cfg.common_seed is None else cfg.common_seed
    x = X0.states.copy()
    times = np.linspace(0.0, model.T, cfg.steps + 1)
    ybar = np.empty((cfg.steps + 1, n))
    m2 = np.empty((cfg.steps + 1, n))
    bpath = np.zeros((cfg.steps + 1, n))
    run = np.zeros(N)
    run_partial = np.zeros(cfg.steps + 1)
    hist = np.empty((cfg.steps + 1, N, n)) if cfg.store_states else None
    S, Qb, Q, R = model.S, model.Qbar, model.Q, model.R
    for k in range(cfg.steps):
        t = times[k]
        yb = x.mean(axis=0)
        ybar[k] = yb
        m2[k] = np.mean(x * x, axis=0)
        if hist is not None:
            hist[k] = x
        if policy.kind == "CUSTOM_LINEAR":
            K1, K2 = policy.K1, policy.K2
        else:
            ev = riccati.eval_at(policy.sol, t)
            RB = model.Rinv_Bt()
            K1 = -RB @ ev["P"]
            K2 = -RB @ ev["Sigma"]
            if policy.kind == "PERTURBED":
                K1 = K1 + policy.eps * policy.delta1
                K2 = K2 + policy.eps * policy.delta2
        v = x @ K1.T + yb @ K2.T
        e = x - yb @ S.T
        f = 0.5 * (np.einsum("ij,jk,ik->i", x, Q, x)
                   + np.einsum("ij,jk,ik->i", v, R, v)
                   + np.einsum("ij,jk,ik->i", e, Qb, e))
        run += f * dt
        run_partial[k + 1] = run_partial[k] + float(np.mean(f)) * dt
        drift = x @ model.A.T + yb @ model.Abar.T + v @ model.B.T
        x = x + drift * dt
        if model.sigma > 0.0:
            x = x + model.sigma * sdt * mkv._normals(cfg.seed, mkv.STREAM_IDIOSYNCRATIC, k, (N, n))
        if model.beta > 0.0:
            eta = mkv._normals(cseed, mkv.STREAM_COMMON, k, (n,))
            x = x + model.beta * sdt * eta
            bpath[k + 1] = bpath[k] + model.beta * sdt * eta
        else:
            bpath[k + 1] = bpath[k]
        if not np.all(np.isfinite(x)):
            raise riccati.NumericalFailure(k)
    ybar[-1] = x.mean(axis=0)
    m2[-1] = np.mean(x * x, axis=0)
    if hist is not None:
        hist[-1] = x
    return mkv.Trajectory(times=times, ybar=ybar, second_moment=m2, common_path=bpath,
                          running_cost=run, running_cost_partial=run_partial,
                          final_states=x, states_history=hist)


def _model_n3_d2():
    """n = 3 state, d = 2 control: the gains and B are not square."""
    rng = np.random.default_rng(42)
    G = rng.standard_normal((3, 3))
    return lq_model.LQModelSpec(
        n=3, d=2, T=1.0, A=0.3 * rng.standard_normal((3, 3)),
        Abar=0.2 * rng.standard_normal((3, 3)), B=rng.standard_normal((3, 2)),
        Q=G @ G.T / 3, Qbar=np.eye(3) * 0.5, S=0.3 * rng.standard_normal((3, 3)),
        R=np.array([[1.0, 0.2], [0.2, 0.8]]), QT=np.eye(3), QbarT=np.eye(3) * 0.2,
        ST=0.1 * np.eye(3), sigma=0.3, beta=0.1)


SIM_MODELS = {
    "scalar_lqr": lambda: lq_model.scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0,
                                                sigma=1.0, T=1.0),
    "scalar_coupled": lambda: lq_model.scalar_model(
        A=0.2, Abar=0.3, B=1.0, Q=1.0, Qbar=0.5, S=0.4, R=1.0, QT=0.5, QbarT=0.3,
        ST=0.2, sigma=0.5, beta=0.3, T=1.0),
    "coupled_2x2": make_coupled_2x2,
    "n3_d2": _model_n3_d2,
}


@functools.cache
def _solved(name):
    m = SIM_MODELS[name]()
    grid = riccati.TimeGrid(m.T, 200)
    return m, riccati.solve_mfc(m, grid), riccati.solve_mfg(m, grid)


def _policy(kind, model, mfc, mfg):
    if kind == "OPTIMAL_MFC":
        return optimal_policy(mfc)
    if kind == "OPTIMAL_MFG":
        return optimal_policy(mfg)
    if kind == "PERTURBED":
        d1, d2 = mkv.perturbation_directions(model, 3)
        return mkv.FeedbackPolicy(kind="PERTURBED", sol=mfc, eps=0.3, delta1=d1, delta2=d2)
    return zero_policy(model)


@pytest.fixture(params=["unset", "1"])
def threads(request, monkeypatch):
    """MASTERLQ_THREADS unset, with the worker used whatever N is, or 1."""
    if request.param == "unset":
        monkeypatch.delenv("MASTERLQ_THREADS", raising=False)
        monkeypatch.setattr(mkv, "PREFETCH_MIN_DRAWS", 1)
    else:
        monkeypatch.setenv("MASTERLQ_THREADS", "1")
    return request.param


@pytest.mark.parametrize("store", [False, True], ids=["plain", "store"])
@pytest.mark.parametrize("kind", ["OPTIMAL_MFC", "OPTIMAL_MFG", "PERTURBED", "zero"])
@pytest.mark.parametrize("name", list(SIM_MODELS))
def test_simulate_bitwise_equal_reference(name, kind, store, threads):
    model, mfc, mfg = _solved(name)
    policy = _policy(kind, model, mfc, mfg)
    X0 = gaussian_ensemble(257, model.n, seed=19, mean=0.4)
    cfg = SimConfig(steps=40, seed=19, store_states=store)
    got = simulate(model, policy, X0, cfg)
    ref = _reference_simulate(model, policy, X0, cfg)
    for fld in dataclasses.fields(mkv.Trajectory):
        a, b = getattr(got, fld.name), getattr(ref, fld.name)
        assert (a is None and b is None) or np.array_equal(a, b), fld.name


@pytest.mark.parametrize("name", ["scalar_coupled", "coupled_2x2"])
def test_simulate_single_particle_equals_reference(name, threads):
    model, mfc, _ = _solved(name)
    X0 = ParticleEnsemble(np.full((1, model.n), 0.7))
    cfg = SimConfig(steps=30, seed=2)
    got = simulate(model, optimal_policy(mfc), X0, cfg)
    ref = _reference_simulate(model, optimal_policy(mfc), X0, cfg)
    assert np.array_equal(got.final_states, ref.final_states)
    assert np.array_equal(got.running_cost_partial, ref.running_cost_partial)


def test_simulate_one_rinv_bt_per_call(monkeypatch):
    model, mfc, _ = _solved("coupled_2x2")
    calls = []
    original = lq_model.LQModelSpec.Rinv_Bt

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(lq_model.LQModelSpec, "Rinv_Bt", counted)
    simulate(model, optimal_policy(mfc), gaussian_ensemble(50, 2, seed=1),
             SimConfig(steps=25, seed=1))
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_numerical_failure_same_step_and_joins_worker(threads):
    model = lq_model.scalar_model(A=0.5, B=1.0, Q=1.0, R=1.0, sigma=0.5, T=1.0)
    policy = mkv.FeedbackPolicy(kind="CUSTOM_LINEAR", K1=np.array([[1e120]]),
                                K2=np.array([[0.0]]))
    X0 = gaussian_ensemble(300, 1, seed=20)
    cfg = SimConfig(steps=50, seed=20)
    with pytest.raises(riccati.NumericalFailure) as ref:
        _reference_simulate(model, policy, X0, cfg)
    before = threading.active_count()
    with pytest.raises(riccati.NumericalFailure) as got:
        simulate(model, policy, X0, cfg)
    assert got.value.node == ref.value.node < cfg.steps - 1
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# the optimality check's policies advance together on one draw per step

def _sequential_optimality_gap(model, sol, X0, cfg, eps_list=(0.1, 0.2, 0.4)):
    """check_optimality_gap as four separate simulations, one after another."""
    d1, d2 = mkv.perturbation_directions(model, cfg.seed)
    base = estimate_cost(model, _reference_simulate(model, optimal_policy(sol), X0, cfg))
    gaps = {}
    for eps in eps_list:
        pol = mkv.FeedbackPolicy(kind="PERTURBED", sol=sol, eps=eps, delta1=d1, delta2=d2)
        gaps[eps] = estimate_cost(model, _reference_simulate(model, pol, X0, cfg))["J_hat"] \
            - base["J_hat"]
    eps_arr = np.asarray(list(gaps))
    gap_arr = np.asarray([gaps[e] for e in gaps])
    quad_coef = float(np.linalg.lstsq(eps_arr[:, None] ** 2, gap_arr, rcond=None)[0][0])
    monotone = bool(np.all(gap_arr >= -3.0 * base["stderr"]))
    return {"J_optimal": base["J_hat"], "stderr": base["stderr"], "gaps": gaps,
            "quadratic_coefficient": quad_coef,
            "all_nonnegative": monotone, "pass": monotone and quad_coef > 0.0}


@pytest.mark.parametrize("name", ["scalar_coupled", "coupled_2x2", "n3_d2"])
def test_optimality_gap_equals_sequential_runs(name, threads):
    model, mfc, _ = _solved(name)
    X0 = gaussian_ensemble(257, model.n, seed=22, mean=0.5)
    cfg = SimConfig(steps=40, seed=22)
    assert check_optimality_gap(model, mfc, X0, cfg) == _sequential_optimality_gap(
        model, mfc, X0, cfg)


@pytest.mark.parametrize("name", ["scalar_lqr", "scalar_coupled"])
def test_optimality_gap_draws_once_per_step(monkeypatch, name, threads):
    model, mfc, _ = _solved(name)
    X0 = gaussian_ensemble(100, model.n, seed=23)
    cfg = SimConfig(steps=30, seed=23)
    calls = []
    philox = mkv._philox

    def counted(*args):
        calls.append(args)
        return philox(*args)

    monkeypatch.setattr(mkv, "_philox", counted)
    check_optimality_gap(model, mfc, X0, cfg)
    # one idiosyncratic (and, with beta > 0, one common) draw per step, plus
    # the one draw of the perturbation directions
    per_step = 1 + (model.beta > 0.0)
    assert len(calls) == cfg.steps * per_step + 1
    assert calls.count((cfg.seed, mkv.STREAM_PERTURBATION, 0)) == 1


def _sequential_failure(model, policies, X0, cfg):
    """The node of the first NumericalFailure in list order, or None."""
    for policy in policies:
        try:
            _reference_simulate(model, policy, X0, cfg)
        except riccati.NumericalFailure as exc:
            return exc.node
    return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_optimality_gap_failure_is_first_in_list_order(threads):
    # the optimal policy runs through; the huge eps fail, the larger one first
    model, mfc, _ = _solved("scalar_coupled")
    X0 = gaussian_ensemble(300, 1, seed=24)
    cfg = SimConfig(steps=50, seed=24)
    eps_list = (0.1, 1e60, 1e150)
    d1, d2 = mkv.perturbation_directions(model, cfg.seed)
    policies = [optimal_policy(mfc)] + [
        mkv.FeedbackPolicy(kind="PERTURBED", sol=mfc, eps=e, delta1=d1, delta2=d2)
        for e in eps_list]
    steps = [_sequential_failure(model, [p], X0, cfg) for p in policies]
    assert steps[0] is None and steps[1] is None and steps[3] < steps[2]
    before = threading.active_count()
    with pytest.raises(riccati.NumericalFailure) as got:
        check_optimality_gap(model, mfc, X0, cfg, eps_list=eps_list)
    assert got.value.node == steps[2] == _sequential_failure(model, policies, X0, cfg)
    assert threading.active_count() == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("gains", [(1e60, 1e120), (1e120, 1e60), (0.0, 1e120), (1e120, 0.0)])
def test_simulate_policies_failure_matches_sequential(gains, threads):
    model = lq_model.scalar_model(A=0.5, B=1.0, Q=1.0, R=1.0, sigma=0.5, T=1.0)
    policies = [mkv.FeedbackPolicy(kind="CUSTOM_LINEAR", K1=np.array([[g]]),
                                   K2=np.array([[0.0]])) for g in gains]
    X0 = gaussian_ensemble(300, 1, seed=25)
    cfg = SimConfig(steps=50, seed=25)
    expected = _sequential_failure(model, policies, X0, cfg)
    before = threading.active_count()
    with pytest.raises(riccati.NumericalFailure) as got:
        mkv._simulate(model, policies, X0, cfg)
    assert got.value.node == expected
    assert threading.active_count() == before


class _CountingExecutor(mkv.ThreadPoolExecutor):
    created = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("sigma,threads_env,workers", [
    (0.0, None, 0), (0.5, "1", 0), (0.5, None, 1), (0.5, "8", 1)])
def test_simulate_worker_thread(monkeypatch, sigma, threads_env, workers):
    if threads_env is None:
        monkeypatch.delenv("MASTERLQ_THREADS", raising=False)
    else:
        monkeypatch.setenv("MASTERLQ_THREADS", threads_env)
    monkeypatch.setattr(mkv, "PREFETCH_MIN_DRAWS", 1)
    monkeypatch.setattr(_CountingExecutor, "created", 0)
    monkeypatch.setattr(mkv, "ThreadPoolExecutor", _CountingExecutor)
    drawn_on = set()
    philox = mkv._philox

    def recorded(*args):
        drawn_on.add(threading.get_ident())
        return philox(*args)

    monkeypatch.setattr(mkv, "_philox", recorded)
    model = lq_model.scalar_model(B=1.0, Q=1.0, R=1.0, sigma=sigma, beta=0.2, T=1.0)
    simulate(model, zero_policy(model), gaussian_ensemble(40, 1, seed=21),
             SimConfig(steps=10, seed=21))
    assert _CountingExecutor.created == workers
    if sigma > 0.0:
        off_main = drawn_on - {threading.get_ident()}
        assert len(off_main) == workers


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("N", [2, 7, 2000, 100_000])
def test_dot_contiguous_transpose_equals_matmul(N, n):
    # simulate's np.dot(a, ascontiguousarray(M.T)) stands in for a @ M.T
    rng = np.random.default_rng(N + n)
    x = rng.standard_normal((N, n))
    for d in sorted({1, 2, n}):
        M = rng.standard_normal((d, n))
        assert np.array_equal(np.dot(x, np.ascontiguousarray(M.T)), x @ M.T)


# ---------------------------------------------------------------------------
# cost and co-state checks against their in-place formulations

def _ref_estimate_cost(model, traj):
    x, yb = traj.final_states, traj.ybar[-1]
    e = x - yb @ model.ST.T
    h = 0.5 * (np.einsum("ij,jk,ik->i", x, model.QT, x)
               + np.einsum("ij,jk,ik->i", e, model.QbarT, e))
    total = traj.running_cost + h
    N = total.size
    stderr = float(np.std(total, ddof=1) / np.sqrt(N)) if N > 1 else 0.0
    return {"J_hat": float(np.mean(total)), "stderr": stderr}


def _ref_max_principle(model, sol, X0, cfg, mode):
    """The co-state residual with the Lagrangian gradient written out."""
    model = dataclasses.replace(model, sigma=model.sigma if mode == "stochastic" else 0.0,
                                beta=0.0)
    cfg = SimConfig(steps=cfg.steps, seed=cfg.seed, store_states=True)
    traj = simulate(model, optimal_policy(sol), X0, cfg)
    dt = cfg.dt(model.T)
    S, Qb = model.S, model.Qbar
    Z = np.empty_like(traj.states_history)
    for k, t in enumerate(traj.times):
        ev = riccati.eval_at(sol, t)
        Z[k] = traj.states_history[k] @ ev["P"].T + traj.ybar[k] @ ev["Sigma"].T
    worst, stats = 0.0, []
    for k in range(cfg.steps):
        x, yb = traj.states_history[k], traj.ybar[k]
        ymix = (-Qb @ S + S.T @ Qb @ S - S.T @ Qb) @ yb
        g = x @ (model.Q + Qb).T + ymix + Z[k] @ model.A + Z[k].mean(axis=0) @ model.Abar
        resid = Z[k + 1] - Z[k] + dt * g
        if mode == "stochastic":
            dw = np.sqrt(dt) * mkv._normals(cfg.seed, mkv.STREAM_IDIOSYNCRATIC, k, x.shape)
            ev = riccati.eval_at(sol, traj.times[k])
            resid = resid - model.sigma * (dw @ ev["P"].T + dw.mean(axis=0) @ ev["Sigma"].T)
            stats.append(float(np.mean(np.sum(resid ** 2, axis=1))))
        else:
            worst = max(worst, float(np.max(np.abs(resid))) / dt)
    ST, QbT = model.ST, model.QbarT
    DXh = (traj.final_states @ (model.QT + QbT).T
           + traj.ybar[-1] @ (ST.T @ QbT @ ST - ST.T @ QbT - QbT @ ST).T)
    out = {"terminal_gap": float(np.max(np.abs(Z[-1] - DXh)))}
    if mode == "stochastic":
        out["mean_sq_residual"] = float(np.max(stats))
    else:
        out["residual"], out["C"] = worst, worst / dt
    return out


@pytest.mark.parametrize("name", ["scalar_coupled", "coupled_2x2", "n3_d2"])
def test_estimate_cost_equals_reference(name):
    model, mfc, mfg = _solved(name)
    for sol in (mfc, mfg):
        traj = simulate(model, optimal_policy(sol), gaussian_ensemble(300, model.n, seed=5),
                        SimConfig(steps=40, seed=5))
        assert estimate_cost(model, traj) == _ref_estimate_cost(model, traj)


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
@pytest.mark.parametrize("name,N,steps,seed", [
    ("scalar_coupled", 400, 200, 6), ("coupled_2x2", 400, 200, 6), ("n3_d2", 400, 200, 6),
    ("scalar_coupled", 2000, 1000, 1),    # `verify --suite mp` on scalar_coupled, seed 1
])
def test_max_principle_equals_reference(name, N, steps, seed, mode):
    model = SIM_MODELS[name]()
    mfc = riccati.solve_mfc(model, riccati.TimeGrid(model.T, steps))
    X0, cfg = gaussian_ensemble(N, model.n, seed=seed), SimConfig(steps=steps, seed=seed)
    got = check_max_principle(model, mfc, X0, cfg, mode=mode)
    ref = _ref_max_principle(model, mfc, X0, cfg, mode)
    assert got["terminal_gap"] == ref["terminal_gap"]
    # D_X L is summed in another order, so each step's residual may move by
    # a few ulps of D_X L's O(1) terms: 1e-15 absolute per unit of dt.
    dt = cfg.dt(model.T)
    floor = {"residual": 1e-15, "C": 1e-15 / dt, "mean_sq_residual": 0.0}
    for key in ref.keys() - {"terminal_gap"}:
        assert got[key] == pytest.approx(ref[key], rel=1e-10, abs=floor[key]), key
