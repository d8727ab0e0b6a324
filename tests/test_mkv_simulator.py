"""Particle simulation, cost estimation, optimality, maximum principle."""
from __future__ import annotations

import dataclasses
import functools
import threading
import tracemalloc

import numpy as np
import pytest

from masterlq import cli, lq_model, master_verifier as mv, mkv_simulator as mkv, riccati
from masterlq.lq_model import scalar_model
from masterlq.mkv_simulator import (FeedbackPolicy, ParticleEnsemble, SimConfig,
                                    check_cost_matches_value,
                                    check_max_principle, check_optimality_gap,
                                    estimate_cost,
                                    gaussian_ensemble,
                                    simulate, trajectory_to_csv)

from conftest import make_coupled_2x2


DT_CONST = cli.TOLERANCES["simulate"]["cost_dt_const"]   # the bound `simulate` gates on


def constant_policy(model: lq_model.LQModelSpec, K1, K2) -> FeedbackPolicy:
    """Constant gains K1, K2: offsets on the MFC solution of a model with
    model's n, d, T and R and no cost, whose P and Sigma are zero."""
    free = lq_model.model_from_dict({"n": model.n, "d": model.d, "T": model.T,
                                     "R": model.R.tolist()})
    return FeedbackPolicy(riccati.solve_mfc(free, riccati.TimeGrid(model.T, 10)), K1=K1, K2=K2)


def zero_policy(model: lq_model.LQModelSpec) -> FeedbackPolicy:
    """The uncontrolled policy: both gains zero."""
    return constant_policy(model, np.zeros((model.d, model.n)), np.zeros((model.d, model.n)))


@pytest.mark.parametrize("n,d", [(1, 1), (2, 2), (2, 1)])
@pytest.mark.parametrize("zero", [False, True])
def test_constant_policy_gains_are_its_offsets(n, d, zero):
    # the zero-cost solution's gains add +-0.0 to the offsets: the tables
    # hold the offsets' bits at every step
    model = lq_model.model_from_dict({"n": n, "d": d, "T": 1.0, "R": np.eye(d).tolist(),
                                      "B": np.ones((n, d)).tolist()})
    rng = np.random.default_rng(10 * n + d)
    K1, K2 = np.zeros((2, d, n)) if zero else rng.standard_normal((2, d, n))
    times = np.linspace(0.0, 1.0, 38)[:-1]
    tables = constant_policy(model, K1, K2).gains(times, model.Rinv_Bt())
    for table, K in zip(tables, (K1, K2)):
        assert table.tobytes() == np.broadcast_to(K, (len(times), d, n)).tobytes()


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
    a = simulate(scalar_coupled, FeedbackPolicy(sol_coupled_mfc), X0, cfg)
    b = simulate(scalar_coupled, FeedbackPolicy(sol_coupled_mfc), X0, cfg)
    assert np.array_equal(a.final_states, b.final_states)
    assert np.array_equal(a.running_cost, b.running_cost)


def test_centered_ensemble_invariant_to_common_noise(scalar_coupled, sol_coupled_mfc):
    from dataclasses import replace as dc_replace
    m = dc_replace(scalar_coupled, sigma=0.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(m.T, 500))
    X0 = gaussian_ensemble(200, 1, seed=6)
    # sigma = 0: the seed moves only the common-noise path
    t1 = simulate(m, FeedbackPolicy(sol), X0, SimConfig(steps=250, seed=100))
    t2 = simulate(m, FeedbackPolicy(sol), X0, SimConfig(steps=250, seed=200))
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
    X0 = ParticleEnsemble(1.0 + 0.5 * gaussian_ensemble(4000, 1, seed=7).states)
    traj = simulate(m0, FeedbackPolicy(sol), X0, SimConfig(steps=1000, seed=7))
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
    traj = simulate(scalar_lqr, FeedbackPolicy(sol_lqr), X0, SimConfig(steps=500, seed=9))
    est = estimate_cost(scalar_lqr, traj)
    ref = 0.5 * np.tanh(1.0) * np.mean(X0.states ** 2)
    assert abs(est["J_hat"] - ref) < 3 * est["stderr"] + 0.02


def test_lqr_zero_policy_cost(scalar_lqr):
    # f = x^2/2 with x frozen: J = E[X0^2]/2
    X0 = gaussian_ensemble(20000, 1, seed=10)
    traj = simulate(scalar_lqr, zero_policy(scalar_lqr), X0, SimConfig(steps=500, seed=10))
    est = estimate_cost(scalar_lqr, traj)
    assert est["J_hat"] == pytest.approx(0.5 * np.mean(X0.states ** 2), rel=1e-10)


def test_estimate_cost_needs_two_particles(scalar_lqr, sol_lqr):
    X0 = ParticleEnsemble(np.array([[0.7]]))
    traj = simulate(scalar_lqr, FeedbackPolicy(sol_lqr), X0, SimConfig(steps=20, seed=0))
    with pytest.raises(ValueError, match="at least two particles"):
        estimate_cost(scalar_lqr, traj)
    with pytest.raises(ValueError, match="at least two particles"):
        check_cost_matches_value(scalar_lqr, sol_lqr, X0, traj, DT_CONST)
    two = ParticleEnsemble(np.array([[0.7], [-0.2]]))
    traj = simulate(scalar_lqr, FeedbackPolicy(sol_lqr), two, SimConfig(steps=20, seed=0))
    assert estimate_cost(scalar_lqr, traj)["stderr"] > 0.0


def test_cost_matches_value_coupled(scalar_coupled, sol_coupled_mfc):
    X0 = gaussian_ensemble(20000, 1, seed=11, mean=0.5)
    traj = simulate(scalar_coupled, FeedbackPolicy(sol_coupled_mfc), X0,
                    SimConfig(steps=500, seed=11))
    rep = check_cost_matches_value(scalar_coupled, sol_coupled_mfc, X0, traj, DT_CONST)
    assert rep["pass"], rep
    assert rep["J_hat"] == rep["J_path"] - rep["common_noise_martingale"]
    # the martingale step by step: (P + Sigma)(t_k) ybar_k . (b_{k+1} - b_k)
    M = 0.0
    for k, t in enumerate(traj.times[:-1]):
        ev = riccati.eval_at(sol_coupled_mfc, t)
        db = traj.common_path[k + 1] - traj.common_path[k]
        M += float((ev["P"] + ev["Sigma"]) @ traj.ybar[k] @ db)
    assert M != 0.0
    assert rep["common_noise_martingale"] == pytest.approx(M, rel=1e-12)
    # the correction cannot hide a wrong value
    wrong = dataclasses.replace(sol_coupled_mfc, lam=sol_coupled_mfc.lam + 0.05)
    bad = check_cost_matches_value(scalar_coupled, wrong, X0, traj, DT_CONST)
    assert bad["J_hat"] == rep["J_hat"] and not bad["pass"], bad


def test_cost_check_without_common_noise_is_the_plain_estimate(scalar_coupled, monkeypatch):
    m = dataclasses.replace(scalar_coupled, beta=0.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(m.T, 500))
    X0 = gaussian_ensemble(5000, 1, seed=11, mean=0.5)
    traj = simulate(m, FeedbackPolicy(sol), X0, SimConfig(steps=500, seed=11))
    monkeypatch.setattr(mkv, "simulate", None)     # the check runs no simulation
    rep = check_cost_matches_value(m, sol, X0, traj, DT_CONST)
    est = estimate_cost(m, traj)
    assert rep["common_noise_martingale"] == 0.0
    assert rep["J_hat"] == rep["J_path"] == est["J_hat"]
    assert rep["stderr"] == est["stderr"]
    assert rep["pass"], rep


def test_value_terminal_slice(scalar_coupled, sol_coupled_mfc):
    X0 = gaussian_ensemble(5000, 1, seed=12, mean=0.4)
    V = mv.eval_value(sol_coupled_mfc, X0.states, scalar_coupled.T)
    yb = X0.states.mean(axis=0)
    h = np.mean(lq_model.terminal_cost(X0.states, yb, scalar_coupled))
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


def test_max_principle_stochastic_without_noise_sees_a_wrong_solution():
    # at sigma = 0 stochastic mode forms the same residual as at sigma > 0,
    # less a noise term the steps do not have, and reports it
    m = scalar_model(A=0.2, B=1.0, Q=1.0, R=1.0, sigma=0.0, T=1.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(m.T, 100))
    X0, cfg = gaussian_ensemble(200, 1, seed=16, mean=0.5), SimConfig(steps=100, seed=16)
    good = check_max_principle(m, sol, X0, cfg, mode="stochastic")["mean_sq_residual"]
    bad = check_max_principle(m, dataclasses.replace(sol, P=1.5 * sol.P), X0, cfg,
                              mode="stochastic")["mean_sq_residual"]
    assert 0.0 < good < 1e-10
    assert bad > 1e-6


@pytest.mark.parametrize("steps", [0, -1, -3])
def test_steps_below_one_raise_value_error(scalar_coupled, sol_coupled_mfc, steps):
    X0, cfg = gaussian_ensemble(10, 1, seed=17), SimConfig(steps=steps)
    with pytest.raises(ValueError, match="need K >= 1"):
        simulate(scalar_coupled, FeedbackPolicy(sol_coupled_mfc), X0, cfg)
    for mode in ("deterministic", "stochastic"):
        with pytest.raises(ValueError, match="need K >= 1"):
            check_max_principle(scalar_coupled, sol_coupled_mfc, X0, cfg, mode=mode)


# ---------------------------------------------------------------------------
# CSV

def test_trajectory_csv(tmp_path, scalar_coupled, sol_coupled_mfc):
    X0 = gaussian_ensemble(100, 1, seed=18)
    traj = simulate(scalar_coupled, FeedbackPolicy(sol_coupled_mfc), X0,
                    SimConfig(steps=20, seed=18))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 22      # header + steps+1 rows
    assert lines[0].startswith("t,")


# ---------------------------------------------------------------------------
# simulate against the per-step reference formulation

def _reference_simulate(model, policy, X0, cfg, keep_states=False):
    """The Euler loop as first written: a fresh draw per step, x @ M.T, and
    R^{-1} B* re-factored at every step.  With keep_states it returns the
    (steps+1, N, n) ensemble path beside the trajectory."""
    N, n = X0.N, X0.n
    dt = riccati.TimeGrid(model.T, cfg.steps).h
    sdt = np.sqrt(dt)
    x = X0.states.copy()
    times = np.linspace(0.0, model.T, cfg.steps + 1)
    ybar = np.empty((cfg.steps + 1, n))
    m2 = np.empty((cfg.steps + 1, n))
    bpath = np.zeros((cfg.steps + 1, n))
    run = np.zeros(N)
    run_partial = np.zeros(cfg.steps + 1)
    hist = np.empty((cfg.steps + 1, N, n)) if keep_states else None
    S, Qb, Q, R = model.S, model.Qbar, model.Q, model.R
    for k in range(cfg.steps):
        t = times[k]
        yb = x.mean(axis=0)
        ybar[k] = yb
        m2[k] = np.mean(x * x, axis=0)
        if hist is not None:
            hist[k] = x
        ev = riccati.eval_at(policy.sol, t)
        RB = model.Rinv_Bt()
        K1 = -RB @ ev["P"]
        K2 = -RB @ ev["Sigma"]
        if policy.K1 is not None:
            K1 = K1 + policy.K1
            K2 = K2 + policy.K2
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
            eta = mkv._normals(cfg.seed, mkv.STREAM_COMMON, k, (n,))
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
    traj = mkv.Trajectory(times=times, ybar=ybar, second_moment=m2, common_path=bpath,
                          running_cost=run, running_cost_partial=run_partial, final_states=x)
    return (traj, hist) if keep_states else traj


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
def _solved(name, K=200):
    m = SIM_MODELS[name]()
    grid = riccati.TimeGrid(m.T, K)
    return m, riccati.solve_mfc(m, grid), riccati.solve_mfg(m, grid)


def _policy(kind, model, mfc, mfg):
    if kind == "OPTIMAL_MFC":
        return FeedbackPolicy(mfc)
    if kind == "OPTIMAL_MFG":
        return FeedbackPolicy(mfg)
    if kind == "PERTURBED":
        d1, d2 = mkv.perturbation_directions(model, 3)
        return mkv.FeedbackPolicy(mfc, K1=0.3 * d1, K2=0.3 * d2)
    return zero_policy(model)


@pytest.mark.parametrize("steps,K", [(40, 200), (1000, 1000), (250, 1000), (1000, 300)])
@pytest.mark.parametrize("name", list(SIM_MODELS))
def test_gain_tables_equal_per_step_formula(name, steps, K):
    model, mfc, mfg = _solved(name, K)
    RB = model.Rinv_Bt()
    times = np.linspace(0.0, model.T, steps + 1)[:-1]
    d1, d2 = mkv.perturbation_directions(model, 3)
    rng = np.random.default_rng(K + steps)
    C1, C2 = rng.standard_normal((2, model.d, model.n))
    policies = [FeedbackPolicy(mfc), FeedbackPolicy(mfg),
                FeedbackPolicy(mfc, K1=0.3 * d1, K2=0.3 * d2),
                FeedbackPolicy(mfg, K1=0.3 * d1, K2=0.3 * d2),
                constant_policy(model, C1, C2)]
    for policy in policies:
        K1s, K2s = policy.gains(times, RB)
        assert K1s.shape == K2s.shape == (steps, model.d, model.n)
        for k, t in enumerate(times):
            ev = riccati.eval_at(policy.sol, t)
            K1, K2 = -RB @ ev["P"], -RB @ ev["Sigma"]
            if policy.K1 is not None:
                K1, K2 = K1 + policy.K1, K2 + policy.K2
            assert K1s[k].tobytes() == K1.tobytes(), (k, t)
            assert K2s[k].tobytes() == K2.tobytes(), (k, t)
    assert K1s.tobytes() == np.broadcast_to(C1, K1s.shape).tobytes()   # the constant policy
    assert K2s.tobytes() == np.broadcast_to(C2, K2s.shape).tobytes()


def test_particle_layer_interpolates_once_per_run(monkeypatch):
    model, mfc, _ = _solved("coupled_2x2")
    evals, interps = [], []
    eval_at, interp = riccati.eval_at, riccati._interp

    def counted_eval(*args):
        evals.append(args)
        return eval_at(*args)

    def counted_interp(*args):
        interps.append(args)
        return interp(*args)

    monkeypatch.setattr(riccati, "eval_at", counted_eval)
    monkeypatch.setattr(riccati, "_interp", counted_interp)
    counts = []
    for steps in (50, 500):
        evals.clear()
        interps.clear()
        X0, cfg = gaussian_ensemble(20, model.n, seed=26), SimConfig(steps=steps, seed=26)
        simulate(model, FeedbackPolicy(mfc), X0, cfg)
        check_optimality_gap(model, mfc, X0, cfg)
        for mode in ("deterministic", "stochastic"):
            check_max_principle(model, mfc, X0, cfg, mode=mode)
        counts.append((len(evals), len(interps)))
    # the layer reads the solution through eval_at, on every time of a run at once
    assert counts[0][0] > 0
    assert counts[0] == counts[1]


@pytest.fixture(params=["unset", "1"])
def threads(request, monkeypatch):
    """PREFETCH_MIN_DRAWS unset, so these small ensembles draw inline, or 1,
    so every ensemble with sigma > 0 draws on the worker thread."""
    if request.param == "1":
        monkeypatch.setattr(mkv, "PREFETCH_MIN_DRAWS", 1)
    return request.param


# "store": an observer stores every node's ensemble and mean
@pytest.mark.parametrize("store", [False, True], ids=["plain", "store"])
@pytest.mark.parametrize("kind", ["OPTIMAL_MFC", "OPTIMAL_MFG", "PERTURBED", "zero"])
@pytest.mark.parametrize("name", list(SIM_MODELS))
def test_simulate_bitwise_equal_reference(name, kind, store, threads):
    model, mfc, mfg = _solved(name)
    policy = _policy(kind, model, mfc, mfg)
    X0 = gaussian_ensemble(257, model.n, seed=19, mean=0.4)
    cfg = SimConfig(steps=40, seed=19)
    seen = []

    def store_node(k, x, yb, z):
        seen.append((k, x.copy(), yb.copy(), None if z is None else z.copy()))

    observe = store_node if store else None
    got = simulate(model, policy, X0, cfg, observe)
    ref, states = _reference_simulate(model, policy, X0, cfg, keep_states=True)
    for fld in dataclasses.fields(mkv.Trajectory):
        assert np.array_equal(getattr(got, fld.name), getattr(ref, fld.name)), fld.name
    if store:
        assert [k for k, _, _, _ in seen] == list(range(cfg.steps + 1))
        sdt = np.sqrt(riccati.TimeGrid(model.T, cfg.steps).h)
        for k, x, yb, z in seen:
            assert np.array_equal(x, states[k]), k
            assert np.array_equal(yb, ref.ybar[k]), k
            if k < cfg.steps:
                draw = model.sigma * sdt * mkv._normals(
                    cfg.seed, mkv.STREAM_IDIOSYNCRATIC, k, (X0.N, model.n))
                assert z.tobytes() == draw.tobytes(), k
            else:
                assert z is None
        # without idiosyncratic noise no node has a draw
        seen.clear()
        simulate(dataclasses.replace(model, sigma=0.0), policy, X0, cfg, observe)
        assert len(seen) == cfg.steps + 1
        assert all(z is None for _, _, _, z in seen)


@pytest.mark.parametrize("name", ["scalar_coupled", "coupled_2x2"])
def test_simulate_single_particle_equals_reference(name, threads):
    model, mfc, _ = _solved(name)
    X0 = ParticleEnsemble(np.full((1, model.n), 0.7))
    cfg = SimConfig(steps=30, seed=2)
    got = simulate(model, FeedbackPolicy(mfc), X0, cfg)
    ref = _reference_simulate(model, FeedbackPolicy(mfc), X0, cfg)
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
    simulate(model, FeedbackPolicy(mfc), gaussian_ensemble(50, 2, seed=1),
             SimConfig(steps=25, seed=1))
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_numerical_failure_same_step_and_joins_worker(threads):
    model = lq_model.scalar_model(A=0.5, B=1.0, Q=1.0, R=1.0, sigma=0.5, T=1.0)
    policy = constant_policy(model, np.array([[1e120]]), np.array([[0.0]]))
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
# exact expected costs

def _ref_cost_terms(model, policy, X0, steps):
    """The exact cost's terms node by node, one policy, with @ products:
    1/2 dt [tr(W1 C) + tr(W2 Y)] at each left step end, then the terminal
    forms, as ROADMAP item 10 writes the recursion."""
    grid = riccati.TimeGrid(model.T, steps)
    dt, N, I = grid.h, X0.N, np.eye(model.n)
    K1s, K2s = policy.gains(grid.nodes()[:-1], model.Rinv_Bt())
    x = X0.states
    ybar = x.mean(axis=0)
    C, Y = (x - ybar).T @ (x - ybar) / N, np.outer(ybar, ybar)
    S, ST = I - model.S, I - model.ST
    terms = []
    for K1, K2 in zip(K1s, K2s):
        W1 = model.Q + model.Qbar + K1.T @ model.R @ K1
        W2 = model.Q + S.T @ model.Qbar @ S + (K1 + K2).T @ model.R @ (K1 + K2)
        terms.append(0.5 * dt * (np.trace(W1 @ C) + np.trace(W2 @ Y)))
        F1 = I + dt * (model.A + model.B @ K1)
        F2 = I + dt * (model.A + model.Abar + model.B @ (K1 + K2))
        C = F1 @ C @ F1.T + model.sigma ** 2 * dt * (1 - 1 / N) * I
        Y = F2 @ Y @ F2.T + (model.sigma ** 2 / N + model.beta ** 2) * dt * I
    terms.append(0.5 * (np.trace((model.QT + model.QbarT) @ C)
                        + np.trace((model.QT + ST.T @ model.QbarT @ ST) @ Y)))
    return terms


@pytest.mark.parametrize("name", list(SIM_MODELS))
def test_expected_costs_equal_reference(name):
    model, mfc, mfg = _solved(name)
    X0, cfg = gaussian_ensemble(40, model.n, seed=8, mean=0.5), SimConfig(steps=60)
    policies = [FeedbackPolicy(mfc), FeedbackPolicy(mfg), _policy("PERTURBED", model, mfc, mfg),
                zero_policy(model)]
    got = mkv.expected_costs(model, policies, X0, cfg)
    ref = [sum(_ref_cost_terms(model, p, X0, cfg.steps)) for p in policies]
    assert got == pytest.approx(ref, rel=1e-12)


# simulate's mean J_hat over this many seeds, all from one X0
SEEDS = 100


def test_expected_costs_match_particles():
    model = dataclasses.replace(make_coupled_2x2(), beta=0.0)
    mfc = riccati.solve_mfc(model, riccati.TimeGrid(model.T, 200))
    X0 = gaussian_ensemble(50, 2, seed=3, mean=0.5)
    d1, d2 = mkv.perturbation_directions(model, 3)
    policies = [FeedbackPolicy(mfc), FeedbackPolicy(mfc, K1=0.5 * d1, K2=0.5 * d2)]
    exact = mkv.expected_costs(model, policies, X0, SimConfig(steps=100))
    for policy, J in zip(policies, exact):
        J_hat = [estimate_cost(model, simulate(model, policy, X0, SimConfig(steps=100, seed=s)))
                 ["J_hat"] for s in range(SEEDS)]
        stderr = np.std(J_hat, ddof=1) / np.sqrt(SEEDS)
        assert abs(np.mean(J_hat) - J) <= 3.0 * stderr, (np.mean(J_hat), J, stderr)
        # the two feedbacks' costs lie far more than 3 stderr apart
        assert abs(exact[1] - exact[0]) > 10.0 * stderr


@pytest.mark.parametrize("N", [20, 1000])
def test_expected_cost_is_the_value_to_first_order(scalar_coupled, N):
    # J - V(0, X0) is the finite-N term sigma^2/(2N) int tr Sigma plus the
    # Euler scheme's bias, O(dt) with a constant that the step count does
    # not move; a wrong lambda, or a dropped 1/N term, moves it by a
    # fixed amount / dt
    model = scalar_coupled
    sol = riccati.solve_mfc(model, riccati.TimeGrid(model.T, 4000))
    X0 = gaussian_ensemble(N, 1, seed=0, mean=1.0)
    finite_N = (model.sigma ** 2 / (2 * N)
                * np.trapezoid(np.einsum("kii->k", sol.Sigma), sol.grid.nodes()))

    def bias(sol, finite_N):
        V = mv.eval_value(sol, X0.states, 0.0)
        return np.array([(mkv.expected_costs(model, [FeedbackPolicy(sol)], X0,
                                             SimConfig(steps=steps))[0] - V - finite_N)
                         * steps / model.T for steps in (250, 500, 1000, 2000)])

    def steady(c):
        return bool(np.all(np.abs(c / c[0] - 1.0) <= 0.01))

    c = bias(sol, finite_N)
    assert steady(c), c
    assert not steady(bias(dataclasses.replace(sol, lam=sol.lam + 1e-3), finite_N))
    if N == 20:   # at N = 1000 the term is within the 1% of the constant
        assert not steady(bias(sol, 0.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_optimality_gap_failure_is_first_in_list_order(threads):
    # eps = 1e60 and 1e150 make the cost non-finite, the larger eps at an
    # earlier node; the check reports the first failing feedback in list
    # order, as pricing the feedbacks one by one would, and starts no thread
    model, mfc, _ = _solved("scalar_coupled")
    X0, cfg = gaussian_ensemble(300, 1, seed=24), SimConfig(steps=50, seed=24)
    d1, d2 = mkv.perturbation_directions(model, cfg.seed)
    eps_list = (0.1, 1e60, 1e150)
    nodes = [next((k for k, t in enumerate(_ref_cost_terms(
        model, FeedbackPolicy(mfc, K1=e * d1, K2=e * d2), X0, cfg.steps))
        if not np.isfinite(t)), None) for e in eps_list]
    assert nodes[0] is None and nodes[2] < nodes[1]
    before = threading.active_count()
    with pytest.raises(riccati.NumericalFailure) as got:
        check_optimality_gap(model, mfc, X0, cfg, eps_list=eps_list)
    assert got.value.node == nodes[1]
    assert threading.active_count() == before


@pytest.mark.parametrize("name", ["scalar_lqr", "scalar_coupled"])
def test_optimality_gap_draws_once_per_step(monkeypatch, name, threads):
    # the exact pricing draws no noise at any step, with or without the
    # prefetch worker; its one draw is the perturbation directions
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
    assert calls == [(cfg.seed, mkv.STREAM_PERTURBATION, 0)]


class _CountingExecutor(mkv.ThreadPoolExecutor):
    created = 0

    def __init__(self, *args, **kwargs):
        type(self).created += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("sigma,particles,workers", [
    (0.0, None, 0), (0.5, 1, 0), (0.5, None, 1), (0.5, 8, 1)])
def test_simulate_worker_thread(monkeypatch, sigma, particles, workers):
    # None: an ensemble of exactly the shipped PREFETCH_MIN_DRAWS particles;
    # otherwise the threshold is 8 draws per step.
    if particles is None:
        particles = mkv.PREFETCH_MIN_DRAWS
    else:
        monkeypatch.setattr(mkv, "PREFETCH_MIN_DRAWS", 8)
    monkeypatch.setattr(_CountingExecutor, "created", 0)
    monkeypatch.setattr(mkv, "ThreadPoolExecutor", _CountingExecutor)
    drawn_on = set()
    philox = mkv._philox

    def recorded(*args):
        drawn_on.add(threading.get_ident())
        return philox(*args)

    monkeypatch.setattr(mkv, "_philox", recorded)
    model = lq_model.scalar_model(B=1.0, Q=1.0, R=1.0, sigma=sigma, beta=0.2, T=1.0)
    simulate(model, zero_policy(model), gaussian_ensemble(particles, 1, seed=21),
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
        assert np.array_equal(mkv._times_t(x, M, np.empty((N, d))), x @ M.T)


# finite entries of every kind: signed zeros, subnormals, normals, and
# values whose products overflow
SPECIAL = [0.0, -0.0, 5e-324, -1e-310, 2.2e-308, 1.0, -3.5, 1e200, -1e308]


@pytest.mark.parametrize("N", [1, 2, 7, 2000])
def test_scalar_product_equals_dot_and_matmul(N):
    # at n = d = 1 simulate's a * M[0, 0] + 0.0 stands in for np.dot (N > 1)
    # and for @ (N = 1).  Left out are products that underflow to zero:
    # np.dot's BLAS kernel may fuse the multiply and the add, and so keep
    # the sign of the exact product, while the separate add gives +0.0.
    with np.errstate(over="ignore"):
        for m in SPECIAL:
            M = np.array([[m]])
            ok = [a for a in SPECIAL if a * m != 0.0 or a == 0.0 or m == 0.0]
            rows = [np.array([[a]]) for a in ok] if N == 1 else [np.resize(ok, (N, 1))]
            for x in rows:
                got = mkv._times_t(x, M, np.empty((N, 1)))
                ref = x @ M.T if N == 1 else np.dot(x, np.ascontiguousarray(M.T))
                assert got.tobytes() == ref.tobytes(), (m, x.ravel())


@pytest.mark.parametrize("N", [1, 300])
@pytest.mark.parametrize("name", ["scalar_lqr", "scalar_coupled"])
def test_scalar_step_makes_no_dot_call(monkeypatch, name, N, threads):
    # at n = d = 1 every product of the Euler step is elementwise
    model, mfc, mfg = _solved(name)
    policies = [FeedbackPolicy(mfc), _policy("PERTURBED", model, mfc, mfg)]
    X0, cfg = gaussian_ensemble(N, 1, seed=27), SimConfig(steps=20, seed=27)
    refs = [_reference_simulate(model, p, X0, cfg) for p in policies]

    def no_dot(*args, **kwargs):
        raise AssertionError("np.dot called")

    monkeypatch.setattr(np, "dot", no_dot)
    for got, ref in zip([simulate(model, p, X0, cfg) for p in policies], refs):
        for fld in dataclasses.fields(mkv.Trajectory):
            assert np.array_equal(getattr(got, fld.name), getattr(ref, fld.name)), fld.name


def test_simulate_peak_memory():
    # `simulate` on scalar_lqr at N = 10^5: its own arrays (the ensemble,
    # the per-particle cost and two draw buffers) are 4 N floats, and the
    # step's scratch 4 N floats and an N-byte mask; fresh temporaries at
    # every step took the peak to 10 N floats
    model, mfc, _ = _solved("scalar_lqr")
    N = 100_000
    X0, cfg = gaussian_ensemble(N, 1, seed=1), SimConfig(steps=20, seed=1)
    tracemalloc.start()
    try:
        simulate(model, FeedbackPolicy(mfc), X0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * N * 8, peak


# ---------------------------------------------------------------------------
# cost and co-state checks against their in-place formulations

def _ref_estimate_cost(model, traj):
    x, yb = traj.final_states, traj.ybar[-1]
    e = x - yb @ model.ST.T
    h = 0.5 * (np.einsum("ij,jk,ik->i", x, model.QT, x)
               + np.einsum("ij,jk,ik->i", e, model.QbarT, e))
    total = traj.running_cost + h
    stderr = float(np.std(total, ddof=1) / np.sqrt(total.size))
    return {"J_hat": float(np.mean(total)), "stderr": stderr}


def _ref_max_principle(model, sol, X0, cfg, mode):
    """The co-state residual with the Lagrangian gradient written out."""
    model = dataclasses.replace(model, sigma=model.sigma if mode == "stochastic" else 0.0,
                                beta=0.0)
    traj, states = _reference_simulate(model, FeedbackPolicy(sol), X0, cfg, keep_states=True)
    dt = riccati.TimeGrid(model.T, cfg.steps).h
    S, Qb = model.S, model.Qbar
    Z = np.empty_like(states)
    for k, t in enumerate(traj.times):
        ev = riccati.eval_at(sol, t)
        Z[k] = states[k] @ ev["P"].T + traj.ybar[k] @ ev["Sigma"].T
    worst, stats = 0.0, []
    for k in range(cfg.steps):
        x, yb = states[k], traj.ybar[k]
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
        traj = simulate(model, FeedbackPolicy(sol), gaussian_ensemble(300, model.n, seed=5),
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
    dt = riccati.TimeGrid(model.T, cfg.steps).h
    floor = {"residual": 1e-15, "C": 1e-15 / dt, "mean_sq_residual": 0.0}
    for key in ref.keys() - {"terminal_gap"}:
        assert got[key] == pytest.approx(ref[key], rel=1e-10, abs=floor[key]), key


@pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
def test_max_principle_peak_memory(coupled_2x2, mode):
    # `verify --suite mp` on an n = 2 model: a stored ensemble path would be
    # (steps+1) N n floats, 32 MB; the check streams and keeps O(N n)
    N, steps = 2000, 1000
    sol = riccati.solve_mfc(coupled_2x2, riccati.TimeGrid(coupled_2x2.T, steps))
    X0, cfg = gaussian_ensemble(N, 2, seed=1), SimConfig(steps=steps, seed=1)
    tracemalloc.start()
    try:
        check_max_principle(coupled_2x2, sol, X0, cfg, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * (steps + 1) * N * 2 * 8, peak
