"""Batch command-line front end.

Subcommands: riccati, simulate, verify, hjbfp.  Every run writes a JSON
summary embedding the full manifest; identical manifests produce
byte-identical artifacts.  Exit codes: 0 success, 1 bad input, 2 numerical
failure (Riccati blow-up or non-finite value, CFL, non-finite PDE slice),
3 at least one check failed (for hjbfp: the LQ cross-validation exceeds
the manifest's pde_diff) or the HJB-FP iteration did not converge.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import hjbfp_1d as hj
from . import lift_calculus as lc
from . import lq_model as lq
from . import master_verifier as mv
from . import mkv_simulator as mk
from . import riccati as ric

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


@dataclass
class RunManifest:
    command: str
    model: str | None
    seed: int
    steps: int
    particles: int
    grid: str
    suite: str | None
    kind: str
    tolerances: dict


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _write_failure(path: str, man: RunManifest, exc: Exception, **extra) -> int:
    """A numerical failure's artifact: the manifest and the one-line error
    (and a Riccati blow-up's escape time); returns the exit code."""
    payload = {"manifest": asdict(man), "error": str(exc), **extra}
    if isinstance(exc, ric.RiccatiBlowUp):
        payload["blowup"] = {"escape_time": exc.escape_time}
    _write_json(path, payload)
    print(f"{man.command}: {exc}", file=sys.stderr)
    return EXIT_NUMERICAL


def _load_model(args) -> lq.LQModelSpec:
    if not args.model:
        raise FileNotFoundError("--model is required for this command")
    model = lq.load_model(args.model)
    report = lq.validate(model)
    if not report.valid:
        raise ValueError("invalid model: " + "; ".join(report.violations))
    return model


def _manifest(args, command: str) -> RunManifest:
    tolerances = {"check_rel": 1e-8, "cost_dt_const": 10.0}
    if command == "hjbfp":
        tolerances["pde_diff"] = 1e-2   # bound on sup_diff and mean_flow_diff
    return RunManifest(
        command=command, model=args.model, seed=args.seed,
        steps=args.steps, particles=args.particles, grid=args.grid,
        suite=getattr(args, "suite", None), kind=args.kind,
        tolerances=tolerances,
    )


def cmd_riccati(args) -> int:
    model = _load_model(args)
    man = _manifest(args, "riccati")
    os.makedirs(args.out, exist_ok=True)
    grid = ric.TimeGrid(model.T, args.steps)
    path = os.path.join(args.out, f"riccati_{args.kind}.json")
    try:
        sol = (ric.solve_mfc if args.kind == "mfc" else ric.solve_mfg)(model, grid)
    except (ric.RiccatiBlowUp, ric.NumericalFailure) as exc:
        return _write_failure(path, man, exc)
    ric.to_csv(sol, os.path.join(args.out, f"riccati_{args.kind}.csv"))
    summary = {"manifest": asdict(man)}
    summary["P0"] = sol.P[0].tolist()
    summary["Sigma0"] = sol.Sigma[0].tolist()
    diag = ric.check_symmetry_conditions(model)
    summary["symmetry"] = asdict(diag)
    _write_json(path, summary)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args)
    man = _manifest(args, "simulate")
    os.makedirs(args.out, exist_ok=True)
    if args.particles < 1 or args.steps < 1:
        raise ValueError("need at least one particle and one time step")
    grid = ric.TimeGrid(model.T, args.steps)
    X0 = mk.gaussian_ensemble(args.particles, model.n, args.seed)
    cfg = mk.SimConfig(steps=args.steps, seed=args.seed)
    path = os.path.join(args.out, "simulate.json")
    try:
        sol = ric.solve_mfc(model, grid)
        traj = mk.simulate(model, mk.optimal_policy(sol), X0, cfg)
    except (ric.RiccatiBlowUp, ric.NumericalFailure) as exc:
        return _write_failure(path, man, exc)
    est = mk.estimate_cost(model, traj)
    V = mv.eval_value(sol, X0.states, 0.0)
    tol = 3.0 * est["stderr"] + man.tolerances["cost_dt_const"] * cfg.dt(model.T)
    mk.trajectory_to_csv(traj, os.path.join(args.out, "trajectory.csv"))
    summary = {
        "manifest": asdict(man),
        "J_hat": est["J_hat"], "stderr": est["stderr"], "V_reference": V,
        "pass": bool(abs(est["J_hat"] - V) <= tol),
    }
    _write_json(path, summary)
    return EXIT_OK if summary["pass"] else EXIT_CHECK_FAILED


def _suite_lift(man: RunManifest) -> tuple[list[dict], bool]:
    reports = []
    X = lc.seeded_ensemble(4000, man.seed)
    Y = lc.seeded_ensemble(4000, man.seed + 1, mean=1.0)
    measures = [lc.GaussianMeasure(0.0, 1.0), lc.GaussianMeasure(1.0, 2.0)]
    for F in lc.builtin_functionals():
        reports.append(lc.check_gradient_lift(F, X, Y).to_dict())
        for m in measures:
            reports.append(lc.check_second_identity(F, m).to_dict())
            reports.append(lc.check_difference_identity(F, m).to_dict())
            reports.append(lc.check_buckdahn_relation(F, m).to_dict())
    X0 = lc.seeded_ensemble(2000, man.seed + 2)
    Yd = lc.seeded_ensemble(2000, man.seed + 3, mean=1.0)
    reports.append(lc.check_taylor_remainder(lc.CubedMeanFunctional(), X0, Yd).to_dict())
    ok = all(r["pass"] for r in reports)
    return reports, ok


def _suite_master(man: RunManifest, model) -> tuple[list[dict], bool]:
    grid = ric.TimeGrid(model.T, man.steps)
    mfc = ric.solve_mfc(model, grid)
    mfg = ric.solve_mfg(model, grid)
    panel = mv.seeded_state_panel(model.n, 64, man.seed)
    diag = ric.check_symmetry_conditions(model)
    reports = []
    expected_asymmetry = not diag.self_adjoint_possible
    ok = True
    for t in mv.time_panel(model.T):
        r1 = mv.residual_master_mfc(model, mfc, panel, t)
        r2 = mv.residual_master_mfg_gradient(model, mfg, panel, t)
        reports.append({"check": "master_mfc", "t": t, **r1,
                        "pass": r1["residual_norm"] <= 1e-6})
        entry = {"check": "master_mfg_gradient", "t": t, **r2}
        if expected_asymmetry:
            entry["expected_asymmetry"] = True
            entry["pass"] = r2["residual_norm"] <= 1e-6
        else:
            entry["pass"] = (r2["residual_norm"] <= 1e-6
                             and r2["symmetry_violation"] <= 1e-9)
        reports.append(entry)
        ok = ok and reports[-1]["pass"] and reports[-2]["pass"]
    reports.append({"check": "symmetry_conditions", **asdict(diag), "pass": True})
    return reports, ok


def _suite_mp(man: RunManifest, model) -> tuple[list[dict], bool]:
    grid = ric.TimeGrid(model.T, man.steps)
    sol = ric.solve_mfc(model, grid)
    X0 = mk.gaussian_ensemble(min(man.particles, 2000), model.n, man.seed)
    cfg = mk.SimConfig(steps=man.steps, seed=man.seed)
    rep = mk.check_max_principle(model, sol, X0, cfg, mode="deterministic")
    rep["check"] = "max_principle_deterministic"
    rep["terminal_pass"] = rep["pass"] = bool(rep["terminal_gap"] <= man.tolerances["check_rel"])
    return [rep], rep["pass"]


def _suite_optimality(man: RunManifest, model) -> tuple[list[dict], bool]:
    grid = ric.TimeGrid(model.T, man.steps)
    sol = ric.solve_mfc(model, grid)
    X0 = mk.gaussian_ensemble(man.particles, model.n, man.seed)
    cfg = mk.SimConfig(steps=man.steps, seed=man.seed)
    rep = mk.check_optimality_gap(model, sol, X0, cfg)
    rep["check"] = "optimality_gap"
    return [rep], bool(rep["pass"])


def cmd_verify(args) -> int:
    man = _manifest(args, "verify")
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"verify_{args.suite}.json")
    if args.suite == "lift":
        reports, ok = _suite_lift(man)
    else:
        model = _load_model(args)
        suites = {"master": _suite_master, "mp": _suite_mp, "optimality": _suite_optimality}
        if args.suite not in suites:
            raise ValueError(f"unknown suite {args.suite!r}")
        try:
            reports, ok = suites[args.suite](man, model)
        except (ric.RiccatiBlowUp, ric.NumericalFailure) as exc:
            return _write_failure(path, man, exc)
    payload = {"manifest": asdict(man), "reports": reports, "pass": ok}
    _write_json(path, payload)
    for r in reports:
        status = "PASS" if r.get("pass") else "FAIL"
        print(f"[{status}] {r.get('check', '?')}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _load_demo_problem(args):
    """A model file with a "demo" key selects a built-in non-LQ problem."""
    if not args.model:
        return None
    with open(args.model) as fh:
        doc = json.load(fh)
    if "demo" not in doc:
        return None
    if doc["demo"] != "cosine":
        raise ValueError(f"unknown demo problem {doc['demo']!r}")
    return hj.cosine_demo(sigma=doc.get("sigma", 0.5), T=doc.get("T", 0.5),
                          kappa=doc.get("kappa", 0.5))


def _parse_grid(text: str) -> tuple[float, float, int, int]:
    """--grid as (xmin, xmax, Nx, Nt); anything else is bad input."""
    try:
        xmin, xmax, Nx, Nt = text.split(",")
        return float(xmin), float(xmax), int(Nx), int(Nt)
    except ValueError:
        raise ValueError(f"--grid expects xmin,xmax,Nx,Nt (got {text!r})") from None


def cmd_hjbfp(args) -> int:
    man = _manifest(args, "hjbfp")
    os.makedirs(args.out, exist_ok=True)
    xmin, xmax, Nx, Nt = _parse_grid(args.grid)
    grid = hj.SpaceGrid1D(xmin, xmax, Nx)
    m0 = hj.gaussian_density(grid, args.m0_mean, args.m0_std)
    prob, model, kind, term = _load_demo_problem(args), None, "MFG", None
    if prob is None:
        model = _load_model(args)
        prob = hj.problem_from_lq(model)
        kind = args.kind.upper()
        if kind == "MFC":
            y0 = hj.first_moment(m0, grid.nodes(), grid.dx)
            term = hj.terminal_mfc_lq(model, grid.nodes(), y0)
    man.kind = kind.lower()    # a demo problem is always solved as an MFG
    tgrid = ric.TimeGrid(prob.T, Nt)
    path = os.path.join(args.out, "hjbfp.json")
    try:
        fields = hj.picard_solve(prob, grid, tgrid, m0, kind=kind,
                                 damping=args.damping, terminal_override=term)
    except (hj.CFLViolation, ric.NumericalFailure) as exc:
        return _write_failure(path, man, exc, converged=False)
    except hj.NonConvergence as exc:
        _write_json(path, {"manifest": asdict(man), "converged": False,
                           "history": exc.history})
        print(f"hjbfp: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED

    payload = {"manifest": asdict(man), "converged": True,
               "iterations": fields.iterations, "history": fields.history}
    ok = True
    if model is not None:
        rgrid = ric.TimeGrid(model.T, max(Nt, 1000))
        sol = ric.solve_mfc(model, rgrid) if kind == "MFC" else ric.solve_mfg(model, rgrid)
        cv = payload["cross_validation"] = hj.cross_validate_lq(model, sol, fields)
        tol = man.tolerances["pde_diff"]
        ok = payload["pass"] = all(cv[k] <= tol for k in ("sup_diff", "mean_flow_diff"))
    _dump_slices(fields, os.path.join(args.out, "hjbfp_fields.csv"))
    _write_json(path, payload)
    if not ok:
        print(f"hjbfp: cross-validation sup_diff = {cv['sup_diff']:.3e}, mean_flow_diff = "
              f"{cv['mean_flow_diff']:.3e}, bound pde_diff = {tol:g}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _dump_slices(fields: hj.PDEFields, path: str, count: int = 5) -> None:
    """Rows (t, x, u, m) at `count` evenly spaced time nodes, x fastest."""
    ks = np.linspace(0, fields.tgrid.K, count).astype(int)
    Nx = fields.grid.Nx
    ric._write_csv(path, ["t", "x", "u", "m"], np.column_stack([
        np.repeat(ks * fields.tgrid.h, Nx), np.tile(fields.grid.nodes(), count),
        fields.u[ks].ravel(), fields.m[ks].ravel()]))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="masterlq",
                                description="LQ mean-field control/games toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", default=None, help="model JSON file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--steps", type=int, default=1000)
        sp.add_argument("--particles", type=int, default=10000)
        sp.add_argument("--grid", default="-4,4,200,2000", help="xmin,xmax,Nx,Nt")
        sp.add_argument("--kind", choices=["mfc", "mfg"], default="mfc")

    sp = sub.add_parser("riccati", help="solve the backward Riccati system, write CSV")
    common(sp)
    sp.set_defaults(func=cmd_riccati)

    sp = sub.add_parser("simulate", help="particle simulation + cost summary")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("--suite", choices=["lift", "master", "mp", "optimality"],
                    required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("hjbfp", help="1D HJB-FP fixed-point solve + LQ cross-validation")
    common(sp)
    sp.add_argument("--damping", type=float, default=0.5,
                    help="Anderson mixing parameter in (0, 1]")
    sp.add_argument("--m0-mean", type=float, default=1.0)
    sp.add_argument("--m0-std", type=float, default=0.5)
    sp.set_defaults(func=cmd_hjbfp)
    return p


def main(argv=None) -> int:
    # MASTERLQ_THREADS caps internal parallelism.  Only simulate uses a
    # second thread, to draw the next step's normals; 1 draws them inline.
    # The draws are keyed on (seed, stream, step), so results never depend
    # on the value.
    threads = os.environ.get("MASTERLQ_THREADS")
    if threads is not None and (not threads.isdigit() or int(threads) < 1):
        print("error: MASTERLQ_THREADS must be a positive integer", file=sys.stderr)
        return EXIT_BAD_INPUT
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ric.RiccatiBlowUp, ric.NumericalFailure, hj.CFLViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
