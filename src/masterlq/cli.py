"""Batch command-line front end.

Subcommands: riccati, simulate, verify, hjbfp.  COMMANDS gives each
command only the options it reads; any other option is bad input.  Every
run writes a JSON summary embedding its manifest: the parsed options but
--out, plus the bounds the command gates on (TOLERANCES).  Identical
manifests produce byte-identical artifacts.  Exit codes: 0 success, 1 bad
input, 2 numerical failure (Riccati blow-up or non-finite value, CFL,
non-finite PDE slice), 3 at least one check failed (for hjbfp: the LQ
cross-validation exceeds the manifest's pde_diff) or the HJB-FP iteration
did not converge.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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


# The bounds each command gates on; a run's manifest records its command's.
TOLERANCES = {
    "riccati": {},
    "simulate": {"cost_dt_const": 10.0},
    "verify": {"check_rel": 1e-8, "master_residual": 1e-6, "master_symmetry": 1e-9},
    "hjbfp": {"pde_diff": 1e-2},   # bound on sup_diff and mean_flow_diff
}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _write_failure(path: str, man: dict, exc: Exception, **extra) -> int:
    """A numerical failure's artifact: the manifest and the one-line error
    (and a Riccati blow-up's escape time); returns the exit code."""
    payload = {"manifest": man, "error": str(exc), **extra}
    if isinstance(exc, ric.RiccatiBlowUp):
        payload["blowup"] = {"escape_time": exc.escape_time}
    _write_json(path, payload)
    print(f"{man['command']}: {exc}", file=sys.stderr)
    return EXIT_NUMERICAL


def _load_model(args) -> lq.LQModelSpec:
    if not args.model:
        raise FileNotFoundError("--model is required for this command")
    model = lq.load_model(args.model)
    report = lq.validate(model)
    if not report.valid:
        raise ValueError("invalid model: " + "; ".join(report.violations))
    return model


def _manifest(args) -> dict:
    """The run's inputs: every parsed option but --out, and the command's bounds."""
    man = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    return {**man, "tolerances": dict(TOLERANCES[args.command])}


def cmd_riccati(args) -> int:
    model = _load_model(args)
    man = _manifest(args)
    grid = ric.TimeGrid(model.T, args.steps)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"riccati_{args.kind}.json")
    try:
        sol = (ric.solve_mfc if args.kind == "mfc" else ric.solve_mfg)(model, grid)
    except (ric.RiccatiBlowUp, ric.NumericalFailure) as exc:
        return _write_failure(path, man, exc)
    ric.to_csv(sol, os.path.join(args.out, f"riccati_{args.kind}.csv"))
    scalars = ({"lam0": float(sol.lam[0])} if sol.kind == "MFC"
               else {"Gamma0": sol.Gamma[0].tolist(), "mu0": float(sol.mu[0])})
    _write_json(path, {"manifest": man, "P0": sol.P[0].tolist(),
                       "Sigma0": sol.Sigma[0].tolist(), **scalars,
                       "symmetry": ric.check_symmetry_conditions(model)})
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _load_model(args)
    man = _manifest(args)
    if args.particles < 1 or args.steps < 1:
        raise ValueError("need at least one particle and one time step")
    os.makedirs(args.out, exist_ok=True)
    X0 = mk.gaussian_ensemble(args.particles, model.n, args.seed)
    cfg = mk.SimConfig(steps=args.steps, seed=args.seed)
    path = os.path.join(args.out, "simulate.json")
    try:
        sol = ric.solve_mfc(model, ric.TimeGrid(model.T, args.steps))
        traj = mk.simulate(model, mk.FeedbackPolicy(sol), X0, cfg)
    except (ric.RiccatiBlowUp, ric.NumericalFailure) as exc:
        return _write_failure(path, man, exc)
    rep = mk.check_cost_matches_value(model, sol, X0, traj, man["tolerances"]["cost_dt_const"])
    mk.trajectory_to_csv(traj, os.path.join(args.out, "trajectory.csv"))
    _write_json(path, {"manifest": man, **rep})
    if not rep["pass"]:
        print(f"simulate: cost check gap = {rep['gap']:.3e} > tolerance = "
              f"{rep['tolerance']:.3e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _suite_lift(man: dict) -> list[dict]:
    reports = []
    X = lc.seeded_ensemble(4000, man["seed"])
    Y = lc.seeded_ensemble(4000, man["seed"] + 1, mean=1.0)
    measures = [lc.GaussianMeasure(0.0, 1.0), lc.GaussianMeasure(1.0, 2.0)]
    functionals = lc.builtin_functionals()
    for F in functionals:
        reports.append(lc.check_gradient_lift(F, X, Y))
        for m in measures:
            reports.append(lc.check_second_identity(F, m))
            reports.append(lc.check_difference_identity(F, m))
            reports.append(lc.check_buckdahn_relation(F, m))
    X0 = lc.seeded_ensemble(2000, man["seed"] + 2)
    Yd = lc.seeded_ensemble(2000, man["seed"] + 3, mean=1.0)
    cubed_mean = functionals[-1]
    reports.append(lc.check_taylor_remainder(cubed_mean, X0, Yd))
    return reports


def _suite_master(man: dict, model) -> list[dict]:
    grid = ric.TimeGrid(model.T, man["steps"])
    mfc = ric.solve_mfc(model, grid)
    mfg = ric.solve_mfg(model, grid)
    panel = mv.seeded_state_panel(model.n, 64, man["seed"])
    diag = ric.check_symmetry_conditions(model)
    reports = []
    expected_asymmetry = not diag["self_adjoint_possible"]
    tol = man["tolerances"]
    for t in mv.time_panel(model.T):
        r1 = mv.residual_master_mfc(model, mfc, panel, t)
        r2 = mv.residual_master_mfg_gradient(model, mfg, panel, t)
        reports.append({"check": "master_mfc", "t": t, **r1,
                        "pass": r1["residual_norm"] <= tol["master_residual"]})
        entry = {"check": "master_mfg_gradient", "t": t, **r2,
                 "pass": r2["residual_norm"] <= tol["master_residual"] and (
                     expected_asymmetry or r2["symmetry_violation"] <= tol["master_symmetry"])}
        if expected_asymmetry:
            entry["expected_asymmetry"] = True
        reports.append(entry)
    reports.append({"check": "symmetry_conditions", **diag, "pass": True})
    return reports


def _suite_mp(man: dict, model) -> list[dict]:
    sol = ric.solve_mfc(model, ric.TimeGrid(model.T, man["steps"]))
    N = min(man["particles"], 2000)    # the co-state check stores every state
    X0 = mk.gaussian_ensemble(N, model.n, man["seed"])
    cfg = mk.SimConfig(steps=man["steps"], seed=man["seed"])
    rep = mk.check_max_principle(model, sol, X0, cfg, mode="deterministic")
    rep["check"] = "max_principle_deterministic"
    rep["particles"] = N
    rep["terminal_pass"] = rep["pass"] = bool(rep["terminal_gap"] <= man["tolerances"]["check_rel"])
    return [rep]


def _suite_optimality(man: dict, model) -> list[dict]:
    sol = ric.solve_mfc(model, ric.TimeGrid(model.T, man["steps"]))
    X0 = mk.gaussian_ensemble(man["particles"], model.n, man["seed"])
    cfg = mk.SimConfig(steps=man["steps"], seed=man["seed"])
    rep = mk.check_optimality_gap(model, sol, X0, cfg)
    rep["check"] = "optimality_gap"
    return [rep]


def cmd_verify(args) -> int:
    man = _manifest(args)
    model = None if args.suite == "lift" else _load_model(args)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"verify_{args.suite}.json")
    if args.suite == "lift":
        reports = _suite_lift(man)
    else:
        suites = {"master": _suite_master, "mp": _suite_mp, "optimality": _suite_optimality}
        try:
            reports = suites[args.suite](man, model)
        except (ric.RiccatiBlowUp, ric.NumericalFailure) as exc:
            return _write_failure(path, man, exc)
    ok = all(r["pass"] for r in reports)
    _write_json(path, {"manifest": man, "reports": reports, "pass": ok})
    for r in reports:
        print(f"[{'PASS' if r['pass'] else 'FAIL'}] {r['check']}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _load_problem(args):
    """(problem, LQ model, kind) from --model.  A model file holding an
    object with a "demo" key selects a built-in non-LQ problem, which has
    no LQ model and is always solved as an MFG."""
    doc = None
    if args.model:
        with open(args.model) as fh:
            doc = json.load(fh)
    if not (isinstance(doc, dict) and "demo" in doc):
        model, kind = _load_model(args), args.kind.upper()
        return hj.problem_from_lq(model, kind), model, kind
    if doc["demo"] != "cosine":
        raise ValueError(f"unknown demo problem {doc['demo']!r}")
    kappa = lq._number(doc, "kappa", 0.5)
    if not np.isfinite(kappa):
        raise ValueError(f"model key 'kappa' must be finite, got {kappa}")
    return hj.cosine_demo(sigma=lq._number(doc, "sigma", 0.5), T=lq._number(doc, "T", 0.5),
                          kappa=kappa), None, "MFG"


def _parse_grid(text: str) -> tuple[float, float, int, int]:
    """--grid as (xmin, xmax, Nx, Nt); anything else is bad input."""
    try:
        xmin, xmax, Nx, Nt = text.split(",")
        return float(xmin), float(xmax), int(Nx), int(Nt)
    except ValueError:
        raise ValueError(f"--grid expects xmin,xmax,Nx,Nt (got {text!r})") from None


def cmd_hjbfp(args) -> int:
    man = _manifest(args)
    xmin, xmax, Nx, Nt = _parse_grid(args.grid)
    grid = hj.SpaceGrid1D(xmin, xmax, Nx)
    m0 = hj.gaussian_density(grid, args.m0_mean, args.m0_std)
    prob, model, kind = _load_problem(args)
    man["kind"] = kind.lower()
    tgrid = ric.TimeGrid(prob.T, Nt)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "hjbfp.json")
    try:
        fields = hj.picard_solve(prob, grid, tgrid, m0, kind=kind, damping=args.damping)
    except (hj.CFLViolation, ric.NumericalFailure) as exc:
        return _write_failure(path, man, exc, converged=False)
    except hj.NonConvergence as exc:
        _write_json(path, {"manifest": man, "converged": False,
                           "history": exc.history})
        print(f"hjbfp: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED

    payload = {"manifest": man, "converged": True,
               "iterations": fields.iterations, "history": fields.history}
    ok = True
    if model is not None:
        rgrid = ric.TimeGrid(model.T, max(Nt, 1000))
        sol = ric.solve_mfc(model, rgrid) if kind == "MFC" else ric.solve_mfg(model, rgrid)
        cv = payload["cross_validation"] = hj.cross_validate_lq(model, sol, fields)
        tol = man["tolerances"]["pde_diff"]
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error is bad input: main exits 1
        raise ValueError(message)


# Every option of any command.  Each command takes --model, --out and
# --seed, and the options COMMANDS lists for it.
OPTIONS = {
    "--model": dict(default=None, help="model JSON file"),
    "--out": dict(default="out", help="output directory"),
    "--seed": dict(type=int, default=0),
    "--steps": dict(type=int, default=1000),
    "--particles": dict(type=int, default=10000),
    "--suite": dict(choices=["lift", "master", "mp", "optimality"], required=True),
    "--kind": dict(choices=["mfc", "mfg"], default="mfc"),
    "--grid": dict(default="-4,4,200,2000", help="xmin,xmax,Nx,Nt"),
    "--damping": dict(type=float, default=0.5, help="Anderson mixing parameter in (0, 1]"),
    "--m0-mean": dict(type=float, default=1.0),
    "--m0-std": dict(type=float, default=0.5),
}
COMMANDS = {
    "riccati": (cmd_riccati, "solve the backward Riccati system, write CSV", ("--steps", "--kind")),
    "simulate": (cmd_simulate, "particle simulation + cost summary", ("--steps", "--particles")),
    "verify": (cmd_verify, "run a verification suite", ("--suite", "--steps", "--particles")),
    "hjbfp": (cmd_hjbfp, "1D HJB-FP fixed-point solve + LQ cross-validation",
              ("--grid", "--kind", "--damping", "--m0-mean", "--m0-std")),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="masterlq", description="LQ mean-field control/games toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for opt in ("--model", "--out", "--seed", *options):
            sp.add_argument(opt, **OPTIONS[opt])
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not 0 <= args.seed < 2 ** 64:   # it keys the Philox generators
            raise ValueError(f"argument --seed: must be in [0, 2**64), got {args.seed}")
        return args.func(args)
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ric.RiccatiBlowUp, ric.NumericalFailure, hj.CFLViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
