"""The benchmark's workloads: fixed lists of masterlq CLI operations.

Each operation runs in-process through masterlq.cli.main(argv), one at a
time: a closed loop with a single client.  Why each workload exists is
written in bench/README.md.  Generated models are written under
OUT/models at a path that depends only on the seed, because every run
manifest embeds the model path and the artifact digests must repeat.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import oracles

OUT = os.path.join("bench", "out")
RICCATI_STEPS = "2000"   # long enough that the RK4 loop dominates an op

# cmd_simulate compares J on one common-noise path with V, while
# check_cost_matches_value averages 8 replicas; with beta = 0.3 the single
# path misses the 3-stderr tolerance at most seeds, and the CLI exits 3.
# The op stays as the README runs it and its failure is counted.  Only
# this failure is known: the op's one failure reason must match the
# pattern in full, so an exception, a wrong V_reference, unreadable
# artifacts or a digest mismatch on the op still clear `correct`.
KNOWN_SIMULATE_COMMON_NOISE = r"\|J - V\| = \S+ > \S+, exit code 3"


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple
    oracle: str
    known_failure: str = ""     # pattern of the one failure reason that is known

    @property
    def command(self) -> str:
        return self.argv[0]


WORKLOADS = ("riccati_verify", "particles", "pde")

# Parts of the speed probe (run.reference_seconds) that each workload is
# divided by.  Measured on a shared 2-core host, the op-to-op spread of the
# RK4 and HJB-FP ops fell most with the small-matrix loop alone (the vector
# sweeps made the HJB-FP spread worse than raw seconds); the particle ops
# need both.
REFERENCE = {"riccati_verify": ("matrix",), "particles": ("matrix", "vector"),
             "pde": ("matrix",)}

# Seconds budgeted for one untraced pass over each workload's ops, about
# their median on a shared 2-core host (riccati_verify 7-10 s, particles
# 12-14 s, pde 21-25 s); run.passes turns --seconds into a fixed number of
# passes.  At --seconds 30: 4, 2 and 1 passes untraced, 2, 1 and 1 traced.
PASS_SECONDS = {"riccati_verify": 7.0, "particles": 13.0, "pde": 24.0}


def build(workload: str, seed: int) -> tuple[list[Op], Op]:
    """(timed operations, warm-up operation) of a workload at a seed."""
    s = ("--seed", str(seed))
    lqr, coupled = "models/scalar_lqr.json", "models/scalar_coupled.json"
    if workload == "riccati_verify":
        n2, n8 = generated_model(2, seed), generated_model(8, seed)
        ops = [Op(f"riccati_{kind}_{name}",
                  ("riccati", "--model", path, "--kind", kind, "--steps", RICCATI_STEPS) + s,
                  "riccati_tanh" if name == "lqr" else "riccati")
               for name, path in (("lqr", lqr), ("coupled", coupled), ("n2", n2), ("n8", n8))
               for kind in ("mfc", "mfg")]
        ops += [
            Op("verify_master_coupled", ("verify", "--suite", "master", "--model", coupled) + s,
               "master"),
            Op("verify_master_n2", ("verify", "--suite", "master", "--model", n2) + s, "master"),
            Op("verify_lift", ("verify", "--suite", "lift") + s, "lift"),
        ]
        warm = Op("warmup", ("riccati", "--model", coupled, "--kind", "mfg", "--steps", "50") + s,
                  "riccati")
    elif workload == "particles":
        n2 = generated_model(2, seed)
        ops = [
            Op("simulate_lqr_1e5", ("simulate", "--model", lqr, "--particles", "100000",
                                    "--steps", "1000") + s, "simulate"),
            Op("simulate_coupled_readme", ("simulate", "--model", coupled, "--particles", "20000")
               + s, "simulate", known_failure=KNOWN_SIMULATE_COMMON_NOISE),
            Op("verify_optimality_coupled", ("verify", "--suite", "optimality", "--model", coupled)
               + s, "optimality"),
            Op("verify_mp_coupled", ("verify", "--suite", "mp", "--model", coupled,
                                     "--particles", "2000") + s, "mp"),
            Op("verify_mp_n2", ("verify", "--suite", "mp", "--model", n2,
                                "--particles", "2000") + s, "mp"),
        ]
        warm = Op("warmup", ("simulate", "--model", lqr, "--particles", "1000",
                             "--steps", "50") + s, "simulate")
    elif workload == "pde":
        crowd, cosine = "models/crowd_mfg_1d.json", "models/cosine_demo.json"
        ops = [
            Op("hjbfp_mfg_crowd", ("hjbfp", "--model", crowd, "--kind", "mfg",
                                   "--grid=-4,4,200,2000") + s, "hjbfp_lq"),
            Op("hjbfp_mfc_crowd", ("hjbfp", "--model", crowd, "--kind", "mfc",
                                   "--grid=-4,4,200,2000") + s, "hjbfp_lq"),
            Op("hjbfp_cosine", ("hjbfp", "--model", cosine, "--grid=-3,3,120,500",
                                "--m0-mean", "0", "--m0-std", "0.7") + s, "hjbfp_demo"),
        ]
        warm = Op("warmup", ("hjbfp", "--model", cosine, "--grid=-3,3,40,50",
                             "--m0-mean", "0", "--m0-std", "0.7") + s, "hjbfp_demo")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, warm


def _psd(rng, n, scale):
    G = rng.standard_normal((n, n))
    M = scale * (G @ G.T) / n
    return 0.5 * (M + M.T)


def _draw(rng, n: int) -> dict:
    """Convex data with weak mean-field coupling and a stable drift."""
    eye = np.eye(n)
    small = lambda scale: scale * rng.standard_normal((n, n)) / np.sqrt(n)
    return {
        "n": n, "d": n, "T": 1.0,
        "A": -0.3 * eye + small(0.2), "Abar": small(0.05), "B": eye + small(0.1),
        "Q": _psd(rng, n, 1.0) + 0.5 * eye, "Qbar": _psd(rng, n, 0.2), "S": small(0.1),
        "R": _psd(rng, n, 0.1) + eye,
        "QT": _psd(rng, n, 0.5), "QbarT": _psd(rng, n, 0.1), "ST": small(0.1),
        "sigma": 0.5, "beta": 0.2, "convex": True,
    }


def generated_model(n: int, seed: int) -> str:
    """Write the seed's n-dimensional model under OUT/models; return its path.

    Draws are repeated from the same generator until the model passes
    lq_model.validate and its closed-form Riccati solutions stay bounded on
    [0, T], so the same seed always gives the same file.
    """
    from masterlq import lq_model

    rng = np.random.default_rng([seed, n])
    for _ in range(100):
        doc = {k: v.tolist() if isinstance(v, np.ndarray) else v
               for k, v in _draw(rng, n).items()}
        if lq_model.validate(lq_model.model_from_dict(doc)).valid:
            path = os.path.join(OUT, "models", f"gen_n{n}_s{seed}.json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
            if oracles.bounded_on_horizon(oracles.load_matrices(path)):
                return path
    raise RuntimeError(f"no valid bounded n={n} model for seed {seed}")
