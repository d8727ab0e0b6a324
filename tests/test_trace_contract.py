"""The names the benchmark's tracer (bench/tracing.py) reads from masterlq.

Its meters bind call arguments by name and read result fields, and its
per-layer metrics look functions up by name.  A refactor that renames one
of these fails here instead of only in the traced benchmark run.
"""
from __future__ import annotations

import dataclasses
import inspect
import typing

import pytest

from masterlq import hjbfp_1d, lift_calculus, lq_model, master_verifier, mkv_simulator, riccati


@pytest.mark.parametrize("fn,names", [
    (mkv_simulator.simulate, ("X0", "cfg")),
    (riccati.solve_mfc, ("model", "grid")),
    (riccati.solve_mfg, ("model", "grid")),
    (master_verifier.mean_flow_ode, ("grid",)),
    (hjbfp_1d.solve_hjb_backward, ("tgrid",)),
    (hjbfp_1d.solve_fp_forward, ("tgrid",)),
], ids=lambda v: getattr(v, "__name__", None))
def test_meter_argument_names(fn, names):
    assert set(names) <= set(inspect.signature(fn).parameters)


def test_picard_result_has_iterations():
    result = typing.get_type_hints(hjbfp_1d.picard_solve)["return"]
    assert "iterations" in {f.name for f in dataclasses.fields(result)}


@pytest.mark.parametrize("owner,name", [
    (lq_model.LQModelSpec, "Rinv_Bt"), (lq_model.LQModelSpec, "BRB"),
    (lq_model, "load_model"), (riccati, "eval_at"), (riccati, "to_csv"),
    (mkv_simulator, "simulate"), (master_verifier, "mean_flow_ode"),
    (hjbfp_1d, "picard_solve"), (hjbfp_1d, "cross_validate_lq"),
])
def test_looked_up_names_exist(owner, name):
    assert callable(getattr(owner, name, None))


@pytest.mark.parametrize("module,prefix", [
    (mkv_simulator, "check_"), (lift_calculus, "check_"),
    (master_verifier, "residual_master_"),
])
def test_metric_prefixes_match_functions(module, prefix):
    assert any(inspect.isfunction(fn) and name.startswith(prefix)
               for name, fn in vars(module).items())
