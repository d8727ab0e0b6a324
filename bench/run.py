"""masterlq benchmark: runs one workload and prints one JSON result line.

    python3 bench/run.py --workload riccati_verify --seed 0 --seconds 30 --trace 0

Run from anywhere; paths resolve against the directory above bench/, which
must hold the masterlq sources in src/.  --trace 0 prints the end-to-end
metrics; --trace 1 runs each operation untraced and then traced, back to back,
and prints the per-layer metrics.
bench/README.md lists the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One BLAS thread: every kernel is small-matrix or vector numpy, and a fixed
# thread count keeps run-to-run spread low on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

import oracles
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
PROBE_INTERVAL_S = 0.1     # how often SpeedProbe times the reference loop
# Set-up is timed against a bare interpreter that imports numpy and scipy,
# started before and after each set-up probe.  SETUP_REF_NOMINAL_S is that
# reference's median wall time on a 2-core shared x86-64 host (CPython
# 3.11, numpy 2.4, scipy 1.17); it only turns the ratio back into seconds.
SETUP_REF = ("-c", "import time, numpy, scipy.linalg; print(time.perf_counter())")
SETUP_REF_NOMINAL_S = 0.31

ACCURACY = ("riccati_tanh_err", "master_residual_max", "cost_gap_se", "pde_sup_diff",
            "pde_mean_flow_diff")
COMMANDS = ("riccati", "simulate", "verify", "hjbfp")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, generate inputs, run the warm-up op, exit (times set-up)")
    return p.parse_args(argv)


class Runner:
    """Runs operations, checks their outputs and keeps the failure and digest accounts."""

    def __init__(self, workload: str, seed: int, code_hash: str = "none"):
        from masterlq import cli

        self.cli = cli
        self.ops, self.warm = workloads.build(workload, seed)
        self.reference = workloads.REFERENCE[workload]
        self.out = os.path.join(workloads.OUT, "ops", workload)
        self.attempted = self.failed = 0
        self.failures: list[dict] = []
        self.values: dict = {}
        self.bytes: dict = {}
        # Digests from earlier runs of this seed and this code, then the first
        # run of each op here: a later mismatch fails the op.
        self.digest_path = os.path.join(workloads.OUT, "digests",
                                        f"{workload}-s{seed}-{code_hash}.json")
        self.digests = _read_json(self.digest_path, {})

    def warm_up(self) -> None:
        rc, reason, _, _ = self._execute(self.warm)
        if reason or rc != 0:
            raise RuntimeError(f"warm-up op failed: exit code {rc} {reason}")

    def run(self, op, tracer=None) -> tuple[float, float, dict]:
        """Run and check one op; returns its start and end clock and the tracer totals."""
        if tracer is None:
            rc, reason, t0, t1 = self._execute(op)
            snapshot = {}
        else:
            tracer.begin(op.id)
            try:
                rc, reason, t0, t1 = self._execute(op)
            finally:
                snapshot = tracer.end()
        out = os.path.join(self.out, op.id)
        digest = oracles.digest(out)
        if not reason:
            reason, values = oracles.check(op.oracle, op.argv, rc, out)
            self.values.update({(op.id, k): v for k, v in values.items()})
        reasons = [reason.strip().splitlines()[-1]] if reason else []
        if digest != self.digests.setdefault(op.id, digest):
            reasons.append("artifact digest differs from an earlier run of this seed")
        self.bytes[op.id] = sum(os.path.getsize(os.path.join(out, f)) for f in digest)
        self.attempted += 1
        if reasons:
            self.failed += 1
            # Known only when the op's sole failure is the one listed for it.
            known = (len(reasons) == 1 and bool(op.known_failure)
                     and re.fullmatch(op.known_failure, reasons[0]) is not None)
            self.failures.append({"op": op.id, "reason": "; ".join(reasons), "known": known})
        return t0, t1, snapshot

    def _execute(self, op):
        out = os.path.join(self.out, op.id)
        shutil.rmtree(out, ignore_errors=True)
        sink = io.StringIO()
        rc, reason = None, ""
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(op.argv) + ["--out", out])
            except (Exception, SystemExit):  # fails this op, not the run; argparse exits
                reason = traceback.format_exc()
            t1 = time.perf_counter()
        return rc, reason, t0, t1

    @property
    def unexpected_failures(self) -> list[dict]:
        return [f for f in self.failures if not f["known"]]

    def save_digests(self) -> None:
        os.makedirs(os.path.dirname(self.digest_path), exist_ok=True)
        with open(self.digest_path, "w") as fh:
            json.dump(self.digests, fh, indent=1, sort_keys=True)

    def accuracy(self) -> dict:
        """Worst value of each accuracy metric over the ops that report it; 0 if none does."""
        return {name: max((v for (_, k), v in self.values.items() if k == name), default=0.0)
                for name in ACCURACY}


class Sample(NamedTuple):
    seconds: float      # the operation's wall time, less the speed probes inside it
    ref: float          # mean speed-probe seconds while it ran (0 when not sampled)
    totals: dict        # tracer totals, empty when untraced


def _matrix_loop():
    a, b = np.eye(3), np.full((3, 3), 0.1)
    for _ in range(1000):
        a = 0.5 * (a @ b) + 0.9 * a - b.T


def _vector_sweeps():
    x = np.linspace(0.0, 1.0, 100_000)
    for _ in range(4):
        x = 0.5 * np.sin(x) + 0.25 * x * x


REFERENCE_PARTS = {"matrix": _matrix_loop, "vector": _vector_sweeps}


def reference_seconds(parts) -> float:
    """Wall time of a fixed numpy computation that calls no masterlq code.

    It samples how fast the shared machine runs at that moment.  "matrix"
    is a Python loop of 3x3 products, like the RK4 and HJB-FP time-stepping
    loops (about 7 ms); "vector" is 10^5-element sweeps, like the particle
    updates (about 4 ms).  Each workload names the parts that resemble it.
    """
    t0 = time.perf_counter()
    for part in parts:
        REFERENCE_PARTS[part]()
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the reference loop every PROBE_INTERVAL_S from a SIGALRM handler.

    The host's speed drifts by up to 1.5x within seconds, and an op of the
    `pde` workload runs 10 s, so samples taken only between ops miss most
    of the drift; the handler samples during the ops as well.
    """

    def __init__(self, parts):
        self.parts = parts
        self.probes: list[tuple[float, float]] = []    # (start, end) clock of each probe

    def _probe(self, *_):
        t0 = time.perf_counter()
        reference_seconds(self.parts)
        self.probes.append((t0, time.perf_counter()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, t0: float, t1: float, totals: dict) -> Sample:
        """The op that ran from t0 to t1, less the probes inside it, with their mean
        as its reference; an op too short to hold one uses the latest probe before it."""
        inside = [b - a for a, b in self.probes if t0 <= a and b <= t1]
        ref = (statistics.mean(inside) if inside
               else next(b - a for a, b in reversed(self.probes) if b <= t1))
        return Sample(t1 - t0 - sum(inside), ref, totals)


def passes(workload: str, seconds: float, modes: int) -> int:
    """Full passes over the op list that fit in `seconds` at the nominal pass
    time, each op run `modes` times per pass; at least one.

    The count depends only on its arguments, not on the host's speed, so two
    runs of a seed attempt the same ops and fail the same ones.
    """
    return max(1, int(seconds // (modes * workloads.PASS_SECONDS[workload])))


def measure(runner: Runner, n_passes: int, tracer=None) -> list[dict]:
    """Round-robin over the ops, `n_passes` full passes.

    Untraced, a SpeedProbe samples the machine's speed throughout.  With a
    tracer each op instead runs untraced and then traced, back to back, so
    both see the same machine state and their difference is the overhead.
    Returns, per mode, op id -> list of Sample.
    """
    modes = [None] if tracer is None else [None, tracer]
    samples = [defaultdict(list) for _ in modes]
    with contextlib.ExitStack() as stack:
        probe = (stack.enter_context(SpeedProbe(runner.reference)) if tracer is None
                 else None)
        for op in runner.ops * n_passes:
            for s, mode in zip(samples, modes):
                t0, t1, totals = runner.run(op, mode)
                s[op.id].append(probe.sample(t0, t1, totals) if probe
                                else Sample(t1 - t0, 0.0, totals))
    return samples


def per_pass(samples: dict, ops=None, relative=False) -> float:
    """One pass over `ops` (default all): the sum of per-op medians, in seconds,
    or with `relative` in units of the reference loop timed while each op ran."""
    return sum(statistics.median(x.seconds / x.ref if relative else x.seconds
                                 for x in samples[op_id])
               for op_id in (ops if ops is not None else samples))


def per_pass_totals(samples: dict) -> dict:
    """Tracer totals of one pass: per-op medians of every key, summed over ops."""
    totals: dict = defaultdict(float)
    for runs in samples.values():
        for key in set().union(*(x.totals for x in runs)):
            totals[key] += statistics.median(x.totals.get(key, 0.0) for x in runs)
    return totals


def child_seconds(argv) -> float:
    """Wall time of a fresh interpreter running argv.

    The child prints its own clock when done (perf_counter is the system-wide
    monotonic clock), so the 50 ms polling of a wait with a timeout does not
    round the figure.
    """
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], check=True, stdout=subprocess.PIPE,
                          text=True, timeout=120)
    return float(done.stdout.split()[-1]) - t0


def setup_seconds(args) -> tuple[float, dict]:
    """Set-up time in seconds, corrected for the host's speed; and the raw probes.

    Each probe is a fresh interpreter that imports, generates inputs and
    warms up (--setup-only).  The host's speed drifts from minute to minute,
    and raw probes moved by a quarter between sets of runs; the SETUP_REF
    interpreter, started before and after each probe, drifts with it.  Each
    probe is divided by the mean of its two references and scaled by
    SETUP_REF_NOMINAL_S; the result is the median over the probes.
    """
    cmd = [str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    refs, setups = [child_seconds(SETUP_REF)], []
    for _ in range(SETUP_PROBES):
        setups.append(child_seconds(cmd))
        refs.append(child_seconds(SETUP_REF))
    scaled = [s * SETUP_REF_NOMINAL_S / (0.5 * (a + b))
              for s, a, b in zip(setups, refs, refs[1:])]
    return statistics.median(scaled), {"setups": setups, "setup_refs": refs}


def machine() -> dict:
    import scipy
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "platform": platform.platform()}


def code_hash() -> str:
    """Hash of the program, its models and the benchmark: digests are kept per code version."""
    h = hashlib.sha256()
    for pattern in ("src/masterlq/*.py", "models/*.json", "bench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _read_json(path, default):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "masterlq" / "cli.py").is_file():
        print(f"error: masterlq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        Runner(args.workload, args.seed).warm_up()
        print(time.perf_counter())
        return 0

    setup_s, setup_probes = setup_seconds(args)
    runner = Runner(args.workload, args.seed, code_hash())
    runner.warm_up()

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(), **setup_probes}
    if args.trace == 0:
        (samples,) = measure(runner, passes(args.workload, args.seconds, 1))
        metrics = {"wall_ref": per_pass(samples, relative=True), "setup_s": setup_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    else:
        import tracing
        tracer = tracing.Tracer()
        samples, traced = measure(runner, passes(args.workload, args.seconds, 2), tracer)
        metrics = traced_metrics(runner, samples, traced, tracing)
        os.makedirs(os.path.join(workloads.OUT, "traces"), exist_ok=True)
        tracer.write_spans(os.path.join(workloads.OUT, "traces", f"{args.workload}.csv"))
        record["traced_samples"] = {k: [x[:2] for x in v] for k, v in traced.items()}
    runner.save_digests()

    # BENCHMARK.json declares every metric and its unit; the run must match it.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")

    record.update(samples={k: [x[:2] for x in v] for k, v in samples.items()},
                  digests=runner.digests, failures=runner.failures,
                  accuracy=runner.accuracy(), metrics=metrics)
    os.makedirs(os.path.join(workloads.OUT, "records"), exist_ok=True)
    with open(os.path.join(workloads.OUT, "records",
                           f"{args.workload}-s{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    for op_id, runs in samples.items():
        print(f"{op_id:28s} n={len(runs):2d} median {per_pass(samples, [op_id]):8.4f} s")
    for f in runner.failures:
        print(f"FAILED {f['op']}: {f['reason']}" + (" (known failure)" if f["known"] else ""))
    print(json.dumps({
        "correct": not runner.unexpected_failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def traced_metrics(runner: Runner, untraced: dict, traced: dict, tracing) -> dict:
    totals = per_pass_totals(traced)
    wall_untraced, wall_traced = per_pass(untraced), per_pass(traced)
    metrics = tracing.layer_metrics(totals)
    metrics["wall_s"] = wall_untraced
    metrics["cli.bytes_written"] = float(sum(runner.bytes.values()))
    metrics["trace.overhead_s"] = wall_traced - wall_untraced
    metrics["trace.layer_share"] = (sum(totals.get("self." + layer, 0.0)
                                        for layer in tracing.LAYERS) / wall_traced)
    for cmd in COMMANDS:
        metrics[f"{cmd}_s"] = per_pass(untraced, [op.id for op in runner.ops
                                                  if op.command == cmd])
    metrics["fail_frac"] = runner.failed / runner.attempted
    metrics.update(runner.accuracy())
    return metrics


if __name__ == "__main__":
    sys.exit(main())
