"""Outside-in tracing of masterlq from benchmark code.

Tracer.begin() replaces every public function of the seven masterlq
modules, and LQModelSpec.Rinv_Bt / BRB, with a wrapper that records a span
(function, start, end, parent span, operation); Tracer.end() puts the
originals back.  Modules call each other through module attributes and
their own globals, so the wrappers see every call between layers without
any change to the package.  A span's self time is its duration minus the
durations of its direct children; self times summed by module are the
layers' shares of the traced wall time.

Spans stay in memory, in flat arrays, until write_spans().  Arrays rather
than one tuple per span: hundreds of thousands of live tuples make the
cyclic garbage collector rescan them, which slowed a traced HJB-FP solve
by about a fifth.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = ("lq_model", "riccati", "lift_calculus", "mkv_simulator", "master_verifier",
          "hjbfp_1d", "cli")
LARGE_N = 10_000   # simulate calls with at least this many particles give ns/particle-step


class Tracer:
    def __init__(self):
        self.functions: list[str] = []          # span function ids index this
        self.ops: list[str] = []                # "<op id>#<run>"; span op ids index this
        self.spans = {"function": array("i"), "start": array("d"), "end": array("d"),
                      "parent": array("q"), "op": array("i")}
        self._stack = array("q")                # open span indices, innermost last
        self._child = array("d")                # seconds of child spans, per open span
        self._acc: defaultdict = defaultdict(float)
        self._patches: list = []                # (owner, attribute, original, wrapper)
        meters = _meters()
        for layer in LAYERS:
            mod = importlib.import_module(f"masterlq.{layer}")
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    key = f"{layer}.{name}"
                    self._patches.append((mod, name, fn, self._wrap(fn, key, meters.get(key))))
        spec = importlib.import_module("masterlq.lq_model").LQModelSpec
        for name in ("Rinv_Bt", "BRB"):
            fn = getattr(spec, name)
            self._patches.append((spec, name, fn, self._wrap(fn, f"lq_model.{name}", None)))

    def begin(self, op_id: str) -> None:
        """Install the wrappers and start the totals of one run of an operation."""
        self.ops.append(f"{op_id}#{len(self.ops)}")
        self._acc.clear()
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def end(self) -> dict:
        """Restore the originals and return the operation's totals: self./incl./calls.
        per function, self. per layer, and the meters' counters."""
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)
        return dict(self._acc)

    def write_spans(self, path: str) -> None:
        sp = self.spans
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "function", "start_s", "end_s", "parent", "op"])
            for i in range(len(sp["start"])):
                w.writerow([i, self.functions[sp["function"][i]], repr(sp["start"][i]),
                            repr(sp["end"][i]), sp["parent"][i], self.ops[sp["op"][i]]])

    def _wrap(self, fn, key, meter):
        sp, stack, child, acc = self.spans, self._stack, self._child, self._acc
        functions, start, end, parents, ops = (sp["function"], sp["start"], sp["end"],
                                               sp["parent"], sp["op"])
        clock, fid, op_ids = time.perf_counter, len(self.functions), self.ops
        self.functions.append(key)
        sig = inspect.signature(fn) if meter else None
        k_self_layer, k_self = "self." + key.split(".")[0], "self." + key
        k_incl, k_calls = "incl." + key, "calls." + key

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            functions.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(len(op_ids) - 1)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            start.append(t0)
            end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[idx] = t1
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                acc[k_self_layer] += dur - inner
                acc[k_self] += dur - inner
                acc[k_incl] += dur
                acc[k_calls] += 1
            if meter is not None:
                meter(acc, sig.bind(*args, **kwargs).arguments, result, dur)
            return result

        return wrapper


def _meters() -> dict:
    """Counters that need a call's arguments or result."""
    def solve(acc, a, result, dur):
        n, K = a["model"].n, a["grid"].K
        acc["riccati.rk4_steps"] += K
        acc[f"riccati.steps.n{n}"] += K
        acc[f"riccati.solve_s.n{n}"] += dur

    def simulate(acc, a, result, dur):
        N, steps = a["X0"].N, a["cfg"].steps
        acc["mkv.particle_steps"] += N * steps
        if N >= LARGE_N:
            acc["mkv.large.particle_steps"] += N * steps
            acc["mkv.large.s"] += dur
        else:
            acc["mkv.small.steps"] += steps
            acc["mkv.small.s"] += dur

    def mean_flow(acc, a, result, dur):
        acc["mv.mean_flow_steps"] += a["grid"].K

    def picard(acc, a, result, dur):
        acc["hj.picard_iterations"] += result.iterations

    def sweep(name):
        def count(acc, a, result, dur):
            acc[f"hj.{name}.steps"] += a["tgrid"].K
        return count

    return {
        "riccati.solve_mfc": solve, "riccati.solve_mfg": solve,
        "mkv_simulator.simulate": simulate,
        "master_verifier.mean_flow_ode": mean_flow,
        "hjbfp_1d.picard_solve": picard,
        "hjbfp_1d.solve_hjb_backward": sweep("hjb"),
        "hjbfp_1d.solve_fp_forward": sweep("fp"),
    }


def _ratio(num, den, scale):
    return scale * num / den if den else 0.0


def layer_metrics(t: dict) -> dict:
    """Per-layer metrics from per-pass totals `t` (a Tracer.end() dict summed over ops)."""
    g = lambda key: t.get(key, 0.0)
    incl = lambda *names: sum(g("incl." + n) for n in names)
    calls = lambda *names: sum(g("calls." + n) for n in names)
    prefixed = lambda kind, prefix: [k[len(kind):] for k in t
                                     if k.startswith(kind + prefix)]
    mkv_checks = prefixed("self.", "mkv_simulator.check_")
    lift_checks = prefixed("calls.", "lift_calculus.check_")
    residuals = prefixed("calls.", "master_verifier.residual_master_")
    m = {f"{layer}.self_s": g("self." + layer) for layer in LAYERS}
    m.update({
        "lq_model.load_s": incl("lq_model.load_model"),
        "lq_model.rinv_bt_calls": calls("lq_model.Rinv_Bt"),
        "lq_model.rinv_bt_s": incl("lq_model.Rinv_Bt"),
        "riccati.rk4_steps": g("riccati.rk4_steps"),
        "riccati.solve_s": incl("riccati.solve_mfc", "riccati.solve_mfg"),
        **{f"riccati.us_per_step.n{n}": _ratio(g(f"riccati.solve_s.n{n}"),
                                                g(f"riccati.steps.n{n}"), 1e6)
           for n in (1, 2, 8)},
        "riccati.eval_calls": calls("riccati.eval_at"),
        "riccati.eval_s": incl("riccati.eval_at"),
        "riccati.csv_s": incl("riccati.to_csv"),
        "lift_calculus.checks": calls(*lift_checks),
        "lift_calculus.check_s": incl(*lift_checks),
        "mkv_simulator.simulate_calls": calls("mkv_simulator.simulate"),
        "mkv_simulator.particle_steps": g("mkv.particle_steps"),
        "mkv_simulator.ns_per_particle_step": _ratio(g("mkv.large.s"),
                                                     g("mkv.large.particle_steps"), 1e9),
        "mkv_simulator.us_per_step_small_n": _ratio(g("mkv.small.s"), g("mkv.small.steps"), 1e6),
        "mkv_simulator.check_s": sum(g("self." + k) for k in mkv_checks),
        "master_verifier.residual_calls": calls(*residuals),
        "master_verifier.residual_s": incl(*residuals),
        "master_verifier.mean_flow_steps": g("mv.mean_flow_steps"),
        "master_verifier.mean_flow_s": incl("master_verifier.mean_flow_ode"),
        "hjbfp_1d.picard_iterations": g("hj.picard_iterations"),
        "hjbfp_1d.sweeps": calls("hjbfp_1d.solve_hjb_backward", "hjbfp_1d.solve_fp_forward"),
        "hjbfp_1d.hjb_us_per_step": _ratio(incl("hjbfp_1d.solve_hjb_backward"),
                                           g("hj.hjb.steps"), 1e6),
        "hjbfp_1d.fp_us_per_step": _ratio(incl("hjbfp_1d.solve_fp_forward"),
                                          g("hj.fp.steps"), 1e6),
        "hjbfp_1d.crossval_s": incl("hjbfp_1d.cross_validate_lq"),
    })
    return m
