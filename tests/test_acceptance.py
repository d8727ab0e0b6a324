"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test is one criterion and fails independently.
"""
from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from masterlq import (cli, hjbfp_1d as hj, lift_calculus as lc, lq_model,
                      master_verifier as mv, mkv_simulator as mkv, riccati)
from masterlq.lq_model import LQModelSpec, scalar_model

from conftest import make_asymmetric_2x2, make_coupled_2x2

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")
DT_CONST = cli.TOLERANCES["simulate"]["cost_dt_const"]   # the bound `simulate` gates on


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_riccati_closed_form():
    m = scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0, T=1.0)

    def err(K):
        sol = riccati.solve_mfc(m, riccati.TimeGrid(1.0, K))
        t = sol.grid.nodes()
        return float(np.max(np.abs(sol.P[:, 0, 0] - np.tanh(1.0 - t))))

    e1000 = err(1000)
    order = np.log2(err(500) / e1000)
    ok = e1000 <= 1e-8 and 3.8 <= order <= 4.2
    _line(1, ok, f"max|P - tanh| = {e1000:.3e}, observed order = {order:.3f}")


def test_criterion_02_terminal_conditions_exact():
    rng = np.random.default_rng(20240817)

    def psd():
        M = rng.normal(size=(2, 2))
        return 0.3 * (M @ M.T)

    model = LQModelSpec(
        n=2, d=2, T=1.0, A=rng.normal(size=(2, 2)) * 0.3,
        Abar=rng.normal(size=(2, 2)) * 0.3, B=rng.normal(size=(2, 2)),
        Q=psd(), Qbar=psd(), S=rng.normal(size=(2, 2)) * 0.3,
        R=psd() + np.eye(2), QT=psd(), QbarT=psd(),
        ST=rng.normal(size=(2, 2)) * 0.3, sigma=0.4, beta=0.2)
    assert lq_model.validate(model).valid
    g = riccati.TimeGrid(1.0, 50)
    a = riccati.solve_mfc(model, g)
    b = riccati.solve_mfg(model, g)
    ST, QbT = model.ST, model.QbarT

    def gap(x, y):
        return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))

    worst = max(
        gap(a.P[-1], model.QT + QbT),
        gap(a.Sigma[-1], ST.T @ QbT @ ST - (ST.T @ QbT + QbT @ ST)),
        gap(a.lam[-1], 0.0),
        gap(b.P[-1], model.QT + QbT),
        gap(b.Sigma[-1], -QbT @ ST),
        gap(b.Gamma[-1], ST.T @ QbT @ ST),
        gap(b.mu[-1], 0.0),
    )
    _line(2, worst <= 1e-14, f"worst terminal-condition gap = {worst:.3e}")


def test_criterion_03_lift_identities():
    measures = [lc.GaussianMeasure(0.0, 1.0), lc.GaussianMeasure(1.0, 2.0)]
    worst_rel, worst_zero = 0.0, 0.0
    for F in lc.builtin_functionals():
        for m in measures:
            r1 = lc.check_second_identity(F, m)
            r2 = lc.check_difference_identity(F, m)
            assert r1["pass"] and r2["pass"], (F.name, r1["rel_err"], r2["rel_err"])
            worst_rel = max(worst_rel, r1["rel_err"], r2["rel_err"])
            if F.p == 1:
                worst_zero = max(worst_zero, abs(r2["lhs"]), abs(r2["rhs"]))
    ok = worst_rel < 1e-8 and worst_zero < 1e-10
    _line(3, ok, f"worst identity rel err = {worst_rel:.3e}, "
                 f"worst linear-case difference = {worst_zero:.3e}")


def test_criterion_04_taylor_remainder():
    X0 = lc.seeded_ensemble(2000, 101)
    Y = X0 + 0.5 * lc.seeded_ensemble(2000, 102)   # correlated direction
    rc = lc.check_taylor_remainder(lc.MomentFunctional("cubed-mean", lc.PHI_X, 3), X0, Y)
    slope = rc["slope"]
    rs = lc.check_taylor_remainder(
        lc.MomentFunctional("squared-moment[x]", lc.PHI_X, 2), X0, Y)
    sq_worst = float(np.max(np.abs(rs.get("remainders", [rs["abs_err"]]))))
    ok = rc["pass"] and 2.9 <= slope <= 3.1 and rs["pass"] and sq_worst < 1e-12
    _line(4, ok, f"cubed-mean slope = {slope:.3f}, "
                 f"squared-moment remainder = {sq_worst:.3e}")


def test_criterion_05_bellman_cost_matching():
    details = []
    ok = True
    for sigma in (0.0, 1.0):
        m = scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0, sigma=sigma, T=1.0)
        sol = riccati.solve_mfc(m, riccati.TimeGrid(1.0, 1000))
        if sigma == 1.0:
            assert sol.lam[0] == pytest.approx(0.5 * np.log(np.cosh(1.0)), abs=1e-8)
        X0 = mkv.gaussian_ensemble(100_000, 1, seed=5)
        traj = mkv.simulate(m, mkv.FeedbackPolicy(sol), X0, mkv.SimConfig(steps=1000, seed=5))
        rep = mkv.check_cost_matches_value(m, sol, X0, traj, DT_CONST)
        ok = ok and rep["pass"] and rep["gap"] <= 3 * rep["stderr"] + 0.01
        details.append(f"sigma={sigma:g}: |J-V| = {rep['gap']:.4f} "
                       f"(3 stderr + 0.01 = {3 * rep['stderr'] + 0.01:.4f})")
    _line(5, ok, "; ".join(details))


def test_criterion_06_optimality_gap():
    m = scalar_model(A=0.2, Abar=0.3, B=1.0, Q=1.0, Qbar=0.5, S=0.4, R=1.0,
                     QT=0.5, QbarT=0.3, ST=0.2, sigma=0.5, beta=0.3, T=1.0)
    sol = riccati.solve_mfc(m, riccati.TimeGrid(1.0, 2000))
    X0 = mkv.gaussian_ensemble(5000, 1, seed=13, mean=0.5)
    rep = mkv.check_optimality_gap(m, sol, X0, mkv.SimConfig(steps=500, seed=13),
                                   eps_list=(0.1, 0.2, 0.4))
    g = rep["gaps"]
    r1, r2 = g[0.2] / g[0.1], g[0.4] / g[0.2]
    ok = (all(v > 0 for v in g.values())
          and 3.2 <= r1 <= 4.8 and 3.2 <= r2 <= 4.8)
    _line(6, ok, f"gaps = {[f'{v:.4f}' for v in g.values()]}, "
                 f"ratios = {r1:.2f}, {r2:.2f}")


def test_criterion_07_master_residuals():
    coupled = scalar_model(A=0.2, Abar=0.3, B=1.0, Q=1.0, Qbar=0.5, S=0.4,
                           R=1.0, QT=0.5, QbarT=0.3, ST=0.2,
                           sigma=0.5, beta=0.3, T=1.0)
    crowd = scalar_model(A=0.0, Abar=0.5, B=1.0, Q=1.0, Qbar=1.0, S=1.0,
                         R=1.0, sigma=0.5, beta=0.0, T=0.5)
    worst = 0.0
    corrupted_min = np.inf
    for model in (coupled, crowd):
        g = riccati.TimeGrid(model.T, 2000)
        mfc = riccati.solve_mfc(model, g)
        mfg = riccati.solve_mfg(model, g)
        X = mv.seeded_state_panel(model.n, 64, 3)
        for t in mv.time_panel(model.T):
            worst = max(worst,
                        mv.residual_master_mfc(model, mfc, X, t)["residual_norm"],
                        mv.residual_master_mfg_gradient(model, mfg, X, t)["residual_norm"])
        bad = replace(mfc, P=mfc.P + 1e-3)
        corrupted_min = min(corrupted_min,
                            mv.residual_master_mfc(model, bad, X, 0.5 * model.T)["residual_norm"])
    ok = worst <= 1e-6 and corrupted_min > 1e-4
    _line(7, ok, f"max residual = {worst:.3e}, "
                 f"corrupted residual = {corrupted_min:.3e}")


def test_criterion_08_symmetry_obstruction():
    asym = make_asymmetric_2x2()
    diag = riccati.check_symmetry_conditions(asym)
    sol = riccati.solve_mfg(asym, riccati.TimeGrid(1.0, 1000))
    viol = float(np.max(np.abs(sol.Sigma - np.transpose(sol.Sigma, (0, 2, 1)))))

    sym = replace(asym, Abar=np.zeros((2, 2)), S=np.zeros((2, 2)),
                  ST=np.zeros((2, 2)))
    diag2 = riccati.check_symmetry_conditions(sym)
    sol2 = riccati.solve_mfg(sym, riccati.TimeGrid(1.0, 1000))
    viol2 = float(np.max(np.abs(sol2.Sigma - np.transpose(sol2.Sigma, (0, 2, 1)))))

    ok = (not diag["self_adjoint_possible"] and viol > 1e-6
          and diag2["self_adjoint_possible"] and viol2 <= 1e-9)
    _line(8, ok, f"obstructed model violation = {viol:.3e}, "
                 f"clean model violation = {viol2:.3e}")


def test_criterion_09_maximum_principle():
    m = make_coupled_2x2()
    sol = riccati.solve_mfc(m, riccati.TimeGrid(1.0, 8000))
    X0 = mkv.gaussian_ensemble(200, 2, seed=14, mean=0.5)
    r1 = mkv.check_max_principle(m, sol, X0, mkv.SimConfig(steps=500, seed=14),
                                 mode="deterministic")
    r2 = mkv.check_max_principle(m, sol, X0, mkv.SimConfig(steps=1000, seed=14),
                                 mode="deterministic")
    ratio = r1["residual"] / r2["residual"]
    term = max(r1["terminal_gap"], r2["terminal_gap"])
    ok = 1.7 <= ratio <= 2.3 and term <= 1e-8
    _line(9, ok, f"dt-halving residual ratio = {ratio:.3f}, "
                 f"terminal co-state gap = {term:.3e}")


def test_criterion_10_hjbfp_cross_validation():
    m = scalar_model(A=0.0, Abar=0.5, B=1.0, Q=1.0, Qbar=1.0, S=1.0, R=1.0,
                     sigma=0.5, beta=0.0, T=0.5)
    prob = hj.problem_from_lq(m)

    def solve(Nx, Nt):
        grid = hj.SpaceGrid1D(-4.0, 4.0, Nx)
        tg = riccati.TimeGrid(m.T, Nt)
        m0 = hj.gaussian_density(grid, 1.0, 0.5)
        pde = hj.picard_solve(prob, grid, tg, m0)
        return hj.cross_validate_lq(m, riccati.solve_mfg(m, tg), pde)

    coarse = solve(200, 2000)
    fine = solve(400, 4000)
    improve = coarse["sup_diff"] / fine["sup_diff"]
    ok = (coarse["sup_diff"] <= 1e-2 and coarse["mean_flow_diff"] <= 1e-2
          and improve >= 1.5)
    _line(10, ok, f"sup diff = {coarse['sup_diff']:.4f}, mean-flow diff = "
                  f"{coarse['mean_flow_diff']:.4f}, 2x-refinement gain = {improve:.2f}x")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    # 16384 particles at n = 1 reach PREFETCH_MIN_DRAWS, so simulate draws
    # on its worker thread unless the threshold is raised above N n.
    argv = ["simulate", "--model", os.path.join(MODELS, "scalar_coupled.json"),
            "--particles", "16384", "--steps", "200", "--seed", "7"]
    worker_at = mkv.PREFETCH_MIN_DRAWS
    workers = []
    pool = mkv.ThreadPoolExecutor
    monkeypatch.setattr(mkv, "ThreadPoolExecutor", lambda *a: workers.append(1) or pool(*a))
    dirs = []
    for i, min_draws in enumerate((worker_at, worker_at, 16385)):
        monkeypatch.setattr(mkv, "PREFETCH_MIN_DRAWS", min_draws)
        out = tmp_path / f"run{i}"
        assert cli.main(argv + [f"--out={out}"]) == 0
        dirs.append(out)
    ok = (16384 >= worker_at and len(workers) == 2
          and all((d / name).read_bytes() == (dirs[0] / name).read_bytes()
                  for d in dirs[1:] for name in ("simulate.json", "trajectory.csv")))
    _line(11, ok, f"3 runs (2 repeats on the draw worker, 1 inline) byte-identical, "
                  f"{len(workers)} workers started")
