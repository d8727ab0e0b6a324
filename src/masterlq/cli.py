"""Batch command-line front end.

Subcommands: riccati, simulate, verify, hjbfp.  COMMANDS gives each command,
and SUITES each verify suite, only the options it reads; any other option is
bad input.  Every run writes a JSON summary embedding its manifest: the parsed
options but --out, the SHA-256 of the --model file, and the bounds the command
or suite gates on (TOLERANCES).  Identical manifests produce byte-identical
artifacts on one machine; at n >= 2 the matrix products go through the
host's BLAS, whose rounding may differ on another CPU.  Each command checks
its input, then hands its work to _run, which creates --out and writes the
JSON.  Exit codes: 0 success, 1 bad input (an unreadable --model included,
and nothing is written; a size too large to allocate included, where --out
may exist but stays empty), 2 numerical failure (NUMERICAL: Riccati blow-up
or non-finite value, CFL, non-finite PDE slice; the JSON still holds the
manifest and the error, and stderr reads "<command>: <error>"; when an
hjbfp run's Riccati reference fails after the PDE converged, the JSON also
keeps the PDE's converged fields), 3 at least one
check failed (for hjbfp: the LQ cross-validation exceeds the manifest's
pde_diff) or the HJB-FP iteration did not converge.
"""

from __future__ import annotations

import argparse
import hashlib
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
# What a run's work may raise that counts as a numerical failure (exit 2).
NUMERICAL = (ric.RiccatiBlowUp, ric.NumericalFailure, hj.CFLViolation)


# The bounds each command or verify suite gates on; a run's manifest records its own.
TOLERANCES = {
    "riccati": {},
    "simulate": {"cost_dt_const": 10.0},
    "lift": lc.BOUNDS,   # the dict the lift checks read, not a copy
    "master": {"master_residual": 1e-6, "master_symmetry": 1e-9},
    "mp": {"check_rel": 1e-8},
    "optimality": {},
    "hjbfp": {"pde_diff": 1e-2},   # bound on sup_diff and mean_flow_diff
}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _run(man: dict, out: str, artifact: str, work, failed: dict | None = None) -> int:
    """Create out, run work() -> (payload, ok) and write out/artifact as the
    manifest and the payload; exit 0, or 3 when not ok.  A numerical failure
    writes the manifest, the one-line error, a blow-up's escape time and the
    entries of failed as work left them, prints "<command>: <error>" and
    exits 2."""
    os.makedirs(out, exist_ok=True)
    try:
        payload, ok = work()
        code = EXIT_OK if ok else EXIT_CHECK_FAILED
    except NUMERICAL as exc:
        payload, code = {"error": str(exc), **(failed or {})}, EXIT_NUMERICAL
        if isinstance(exc, ric.RiccatiBlowUp):
            payload["blowup"] = {"escape_time": exc.escape_time}
        print(f"{man['command']}: {exc}", file=sys.stderr)
    _write_json(os.path.join(out, artifact), {"manifest": man, **payload})
    return code


def _load_model(args) -> lq.LQModelSpec:
    model = lq.load_model(args.model)
    report = lq.validate(model)
    if not report.valid:
        raise ValueError("invalid model: " + "; ".join(report.violations))
    return model


def _manifest(args) -> dict:
    """The run's inputs: every parsed option but --out, the model's SHA-256, and the bounds."""
    man = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    if "model" in man:
        with open(args.model, "rb") as fh:
            man["model_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    return {**man, "tolerances": dict(TOLERANCES[man.get("suite", args.command)])}


def _riccati(kind: str, model, grid) -> ric.RiccatiSolution:
    """The Riccati solution of --kind."""
    return (ric.solve_mfc if kind == "mfc" else ric.solve_mfg)(model, grid)


def _mfc_ensemble(man: dict, model, grid):
    """(MFC solution, initial ensemble, SimConfig) of --particles, --steps and --seed."""
    return (ric.solve_mfc(model, grid), mk.gaussian_ensemble(man["particles"], model.n, man["seed"]),
            mk.SimConfig(steps=man["steps"], seed=man["seed"]))


def cmd_riccati(args) -> int:
    model = _load_model(args)
    man = _manifest(args)
    grid = ric.TimeGrid(model.T, args.steps)

    def work():
        sol = _riccati(args.kind, model, grid)
        ric.to_csv(sol, os.path.join(args.out, f"riccati_{args.kind}.csv"))
        scalars = ({"lam0": float(sol.lam[0])} if sol.kind == "MFC"
                   else {"Gamma0": sol.Gamma[0].tolist(), "mu0": float(sol.mu[0])})
        return {"P0": sol.P[0].tolist(), "Sigma0": sol.Sigma[0].tolist(), **scalars,
                "symmetry": ric.check_symmetry_conditions(model)}, True
    return _run(man, args.out, f"riccati_{args.kind}.json", work)


def cmd_simulate(args) -> int:
    model = _load_model(args)
    man = _manifest(args)
    # the cost check's gate needs a standard error, which one particle lacks
    if args.particles < 2 or args.steps < 1:
        raise ValueError("need at least two particles and one time step")

    def work():
        sol, X0, cfg = _mfc_ensemble(man, model, ric.TimeGrid(model.T, args.steps))
        traj = mk.simulate(model, mk.FeedbackPolicy(sol), X0, cfg)
        rep = mk.check_cost_matches_value(model, sol, X0, traj, man["tolerances"]["cost_dt_const"])
        mk.trajectory_to_csv(traj, os.path.join(args.out, "trajectory.csv"))
        if not rep["pass"]:
            print(f"simulate: cost check gap = {rep['gap']:.3e} > tolerance = "
                  f"{rep['tolerance']:.3e}", file=sys.stderr)
        return rep, rep["pass"]
    return _run(man, args.out, "simulate.json", work)


def _suite_lift(man: dict, *_) -> list[dict]:
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


def _suite_master(man: dict, model, grid) -> list[dict]:
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
        r3 = mv.residual_master_mfg_scalar(model, mfg, panel, t)
        reports.append({"check": "master_mfg_scalar", "t": t, **r3,
                        "pass": r3["residual_norm"] <= tol["master_residual"]})
    reports.append({"check": "symmetry_conditions", **diag, "pass": True})
    return reports


def _suite_mp(man: dict, model, grid) -> list[dict]:
    sol, X0, cfg = _mfc_ensemble(man, model, grid)
    rep = mk.check_max_principle(model, sol, X0, cfg, mode="deterministic")
    rep["check"] = "max_principle_deterministic"
    rep["terminal_pass"] = rep["pass"] = bool(rep["terminal_gap"] <= man["tolerances"]["check_rel"])
    return [rep]


def _suite_optimality(man: dict, model, grid) -> list[dict]:
    sol, X0, cfg = _mfc_ensemble(man, model, grid)
    rep = mk.check_optimality_gap(model, sol, X0, cfg)
    rep["check"] = "optimality_gap"
    return [rep]


def cmd_verify(args) -> int:
    run, options, least = SUITES[args.suite]
    man = _manifest(args)
    # the suite's inputs load, and bad --steps or --particles is found, before --out exists
    model = _load_model(args) if "--model" in options else None
    grid = ric.TimeGrid(model.T, args.steps) if "--steps" in options else None
    if least and args.particles < least:
        raise ValueError(f"--suite {args.suite} needs --particles {least} or more")

    def work():
        reports = run(man, model, grid)
        for r in reports:
            print(f"[{'PASS' if r['pass'] else 'FAIL'}] {r['check']}")
        ok = all(r["pass"] for r in reports)
        return {"reports": reports, "pass": ok}, ok
    return _run(man, args.out, f"verify_{args.suite}.json", work)


def _load_problem(args):
    """(problem, LQ model) from --model: an LQ model's problem of --kind, or, for
    a model file holding an object with a "demo" key, a built-in non-LQ problem,
    which has no LQ model and is an MFG whatever --kind says."""
    with open(args.model) as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and "demo" in doc):
        model = _load_model(args)
        return hj.problem_from_lq(model, args.kind.upper()), model
    if doc["demo"] != "cosine":
        raise ValueError(f"unknown demo problem {doc['demo']!r}")
    kappa = lq._number(doc, "kappa", 0.5)
    if not np.isfinite(kappa):
        raise ValueError(f"model key 'kappa' must be finite, got {kappa}")
    return hj.cosine_demo(sigma=lq._number(doc, "sigma", 0.5), T=lq._number(doc, "T", 0.5),
                          kappa=kappa), None


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
    prob, model = _load_problem(args)
    man["kind"] = "mfg" if prob.dHdm_coeff is None else "mfc"   # the demo is an MFG
    tgrid = ric.TimeGrid(prob.T, Nt)

    # what work has found so far; a numerical failure writes it next to the error
    payload = {"converged": False}

    def work():
        try:
            fields = hj.picard_solve(prob, grid, tgrid, m0)
        except hj.NonConvergence as exc:
            print(f"hjbfp: {exc}", file=sys.stderr)
            return {"converged": False, "history": exc.history}, False
        payload.update(converged=True, iterations=fields.iterations, history=fields.history)
        ok = True
        if model is not None:
            sol = _riccati(args.kind, model, ric.TimeGrid(model.T, max(Nt, 1000)))
            cv = payload["cross_validation"] = hj.cross_validate_lq(model, sol, fields)
            tol = man["tolerances"]["pde_diff"]
            ok = payload["pass"] = all(cv[k] <= tol for k in ("sup_diff", "mean_flow_diff"))
            if not ok:
                print(f"hjbfp: cross-validation sup_diff = {cv['sup_diff']:.3e}, mean_flow_diff"
                      f" = {cv['mean_flow_diff']:.3e}, bound pde_diff = {tol:g}", file=sys.stderr)
        _dump_slices(fields, os.path.join(args.out, "hjbfp_fields.csv"))
        return payload, ok
    return _run(man, args.out, "hjbfp.json", work, payload)


def _dump_slices(fields: hj.PDEFields, path: str) -> None:
    """Rows (t, x, u, m) at up to five evenly spaced time nodes, each once, x fastest."""
    ks = np.unique(np.linspace(0, fields.tgrid.K, 5).astype(int))
    Nx = fields.grid.Nx
    ric._write_csv(path, ["t", "x", "u", "m"], np.column_stack([
        np.repeat(ks * fields.tgrid.h, Nx), np.tile(fields.grid.nodes(), ks.size),
        fields.u[ks].ravel(), fields.m[ks].ravel()]))


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error is bad input: main exits 1
        raise ValueError(message)


# Each verify suite: (run, the options it reads but --out and --seed, least
# --particles); the optimality gaps need a standard error, the co-state check does not.
SUITES = {
    "lift": (_suite_lift, (), 0),
    "master": (_suite_master, ("--model", "--steps"), 0),
    "mp": (_suite_mp, ("--model", "--steps", "--particles"), 1),
    "optimality": (_suite_optimality, ("--model", "--steps", "--particles"), 2),
}
# Every option of any command.  Each command takes --out and --seed, and
# the options COMMANDS (and for verify, SUITES) lists for it.
OPTIONS = {
    "--model": dict(required=True, help="model JSON file"),
    "--out": dict(default="out", help="output directory"),
    "--seed": dict(type=int, default=0),
    "--steps": dict(type=int, default=1000),
    "--particles": dict(type=int, default=10000),
    "--suite": dict(choices=list(SUITES), required=True, help="; ".join(
        f"{name} reads {' '.join(row[1]) or 'no other option'}" for name, row in SUITES.items())),
    "--kind": dict(choices=["mfc", "mfg"], default="mfc"),
    "--grid": dict(default="-4,4,200,2000", help="xmin,xmax,Nx,Nt"),
    "--m0-mean": dict(type=float, default=1.0),
    "--m0-std": dict(type=float, default=0.5),
}
COMMANDS = {
    "riccati": (cmd_riccati, "backward Riccati solve, write CSV", ("--model", "--steps", "--kind")),
    "simulate": (cmd_simulate, "particle simulation + cost summary",
                 ("--model", "--steps", "--particles")),
    "verify": (cmd_verify, "run a verification suite", ("--suite",)),
    "hjbfp": (cmd_hjbfp, "1D HJB-FP fixed-point solve + LQ cross-validation",
              ("--model", "--grid", "--kind", "--m0-mean", "--m0-std")),
}


def build_parser(suite: str | None = None) -> argparse.ArgumentParser:
    p = _Parser(prog="masterlq", description="LQ mean-field control/games toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for opt in ("--out", "--seed", *options):
            sp.add_argument(opt, **OPTIONS[opt])
        sp.set_defaults(func=func)
    for opt in SUITES[suite][1] if suite else ():
        sub.choices["verify"].add_argument(opt, **OPTIONS[opt])
    return p


def main(argv=None) -> int:
    try:
        known, _ = build_parser().parse_known_args(argv)   # learns verify's --suite
        args = build_parser(getattr(known, "suite", None)).parse_args(argv)
        if not 0 <= args.seed < 2 ** 64:   # it keys the Philox generators
            raise ValueError(f"argument --seed: must be in [0, 2**64), got {args.seed}")
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError, MemoryError) as exc:
        # e.g. an unreadable --model, or a size too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
