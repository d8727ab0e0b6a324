"""Command-line interface: exit codes, artifacts, determinism."""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from unittest.mock import ANY

import numpy as np
import pytest
import scipy

from masterlq import riccati
from masterlq.cli import main

from conftest import make_coupled_2x2

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")
LQR = os.path.join(MODELS, "scalar_lqr.json")
COUPLED = os.path.join(MODELS, "scalar_coupled.json")
CROWD = os.path.join(MODELS, "crowd_mfg_1d.json")
COSINE = os.path.join(MODELS, "cosine_demo.json")


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(list(argv) + [f"--out={out}"]), out


# ---------------------------------------------------------------------------
# riccati

def test_riccati_csv_first_row(tmp_path):
    code, out = run(tmp_path, "riccati", "--model", LQR, "--steps", "2000")
    assert code == 0
    with open(out / "riccati_mfc.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[0]["P_00"]) == pytest.approx(np.tanh(1.0), abs=1e-8)


def test_riccati_json_records_scalar_parts(tmp_path):
    # scalar_lqr: P = tanh(1 - t) and lambda(0) = 1/2 int_0^1 P dt = 1/2 ln cosh 1
    code, out = run(tmp_path, "riccati", "--model", LQR, "--steps", "2000")
    assert code == 0
    rep = json.loads((out / "riccati_mfc.json").read_text())
    assert abs(rep["lam0"] - 0.5 * np.log(np.cosh(1.0))) <= 1e-12
    assert "Gamma0" not in rep and "mu0" not in rep
    code, out = run(tmp_path, "riccati", "--model", COUPLED, "--kind", "mfg", "--steps", "100")
    assert code == 0
    rep = json.loads((out / "riccati_mfg.json").read_text())
    with open(out / "riccati_mfg.csv") as fh:
        first = next(csv.DictReader(fh))
    assert rep["Gamma0"] == [[float(first["Gamma_00"])]] and rep["mu0"] == float(first["mu"])
    assert "lam0" not in rep


@pytest.mark.parametrize("kind", ["mfc", "mfg"])
def test_riccati_artifacts_follow_blocks(tmp_path, kind):
    # on an n = 2 model: one <block>0 summary key per block of BLOCKS, and
    # CSV columns t, then each block's entries <block>_ij row-major, the
    # scalar block under its name (lam as lambda)
    two = tmp_path / "coupled_2x2.json"
    two.write_text(json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v
                               for k, v in dataclasses.asdict(make_coupled_2x2()).items()}))
    code, out = run(tmp_path, "riccati", "--model", str(two), "--kind", kind, "--steps", "20")
    assert code == 0
    *mats, scalar = riccati.BLOCKS[kind.upper()]
    rep = json.loads((out / f"riccati_{kind}.json").read_text())
    assert sorted(rep) == sorted([f"{b}0" for b in (*mats, scalar)] + ["manifest", "symmetry"])
    assert all(np.shape(rep[f"{b}0"]) == (2, 2) for b in mats)
    assert isinstance(rep[f"{scalar}0"], float)
    with open(out / f"riccati_{kind}.csv") as fh:
        header = next(csv.reader(fh))
    assert header == (["t"] + [f"{b}_{i}{j}" for b in mats for i in range(2) for j in range(2)]
                      + [{"lam": "lambda"}.get(scalar, scalar)])


def test_riccati_blowup_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 1, "d": 1, "T": 1.0, "A": 0.0, "B": 1.0, "Q": -4.0, "R": 1.0,
        "sigma": 0.0, "beta": 0.0,
    }))
    code, out = run(tmp_path, "riccati", "--model", str(bad))
    assert code == 2
    rep = json.loads((out / "riccati_mfc.json").read_text())
    assert rep["blowup"]["escape_time"] == pytest.approx(1 - np.pi / 4, abs=0.05)


def test_riccati_non_finite_writes_json_exit_2(tmp_path, monkeypatch, capsys):
    import masterlq.lq_model as lq
    monkeypatch.setattr(lq.LQModelSpec, "BRB", lambda self: np.full((self.n, self.n), np.nan))
    code, out = run(tmp_path, "riccati", "--model", LQR, "--steps", "50", "--kind", "mfg")
    assert code == 2
    rep = json.loads((out / "riccati_mfg.json").read_text())
    assert rep["manifest"]["command"] == "riccati"
    assert rep["error"] == "non-finite value at node 49"
    assert not (out / "riccati_mfg.csv").exists()
    assert capsys.readouterr().err.strip().splitlines() == ["riccati: non-finite value at node 49"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,node", [
    (("riccati", "--kind", "mfc"), 999), (("riccati", "--kind", "mfg"), 999),
    (("verify", "--suite", "master"), 999),
    (("simulate", "--particles", "50", "--steps", "20"), 19)],
    ids=["riccati-mfc", "riccati-mfg", "master", "simulate"])
def test_non_finite_n2_solve_warns_nothing(tmp_path, capsys, command, node):
    # A = 1e200 I overflows the n = 2 products in the first step; the steps
    # computed past the failure print nothing, so stderr is the one line
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps({"n": 2, "d": 2, "T": 1.0, "A": [[1e200, 0], [0, 1e200]],
                               "B": [[1, 0], [0, 1]], "R": [[1, 0], [0, 1]],
                               "Q": [[1, 0], [0, 1]], "sigma": 0.5}))
    code, _ = run(tmp_path, *command, "--model", str(bad))
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"{command[0]}: non-finite value at node {node}"]


CONVERGED = {"converged": True, "iterations": ANY, "history": ANY}


@pytest.mark.parametrize("command,artifact,failed", [
    (("riccati", "--steps", "400"), "riccati_mfc.json", {}),
    (("simulate", "--steps", "400", "--particles", "200"), "simulate.json", {}),
    (("verify", "--suite", "master", "--steps", "400"), "verify_master.json", {}),
    (("verify", "--suite", "mp", "--steps", "400", "--particles", "200"), "verify_mp.json", {}),
    (("verify", "--suite", "optimality", "--steps", "400", "--particles", "200"),
     "verify_optimality.json", {}),
    # the HJB-FP iteration converges; its Riccati reference then blows up,
    # and the JSON keeps what the converged iteration found
    (("hjbfp", "--grid=-1,1,40,4000", "--kind", "mfc"), "hjbfp.json", CONVERGED),
    (("hjbfp", "--grid=-1,1,40,4000", "--kind", "mfg"), "hjbfp.json", CONVERGED),
], ids=["riccati", "simulate", "master", "mp", "optimality", "hjbfp-mfc", "hjbfp-mfg"])
def test_blowup_writes_failure_artifact_exit_2(tmp_path, capsys, command, artifact, failed):
    # Q = -4 drives P to a finite escape near t = 5 - pi/4 = 4.21
    bad = tmp_path / "escape.json"
    bad.write_text(json.dumps({"n": 1, "d": 1, "T": 5.0, "B": 1.0, "Q": -4.0, "R": 1.0,
                               "sigma": 0.5}))
    code, out = run(tmp_path, *command, "--model", str(bad))
    assert code == 2
    rep = json.loads((out / artifact).read_text())
    assert rep["manifest"]["command"] == command[0]
    assert rep["error"].startswith("Riccati solution exceeds 1e+12 near t = ")
    assert rep["blowup"]["escape_time"] == pytest.approx(5 - np.pi / 4, abs=0.05)
    assert set(rep) == {"manifest", "error", "blowup", *failed}
    assert all(rep[k] == v for k, v in failed.items())
    if failed:
        assert len(rep["history"]) == rep["iterations"] and rep["history"][-1] < 1e-6
    assert capsys.readouterr().err.strip().splitlines() == [f"{command[0]}: {rep['error']}"]
    assert sorted(os.listdir(out)) == [artifact]   # no CSV


@pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0])
def test_riccati_bad_horizon_exit_1(tmp_path, capsys, T):
    bad = tmp_path / "badT.json"
    bad.write_text(json.dumps({"n": 1, "d": 1, "T": T, "B": 1.0, "Q": 1.0, "R": 1.0}))
    code, out = run(tmp_path, "riccati", "--model", str(bad))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "horizon T must be finite and positive" in err[0]
    assert not (out / "riccati_mfc.json").exists()


@pytest.mark.parametrize("command", [("riccati",), ("simulate", "--particles", "2"),
                                     ("verify", "--suite", "master"),
                                     ("verify", "--suite", "mp", "--particles", "2"),
                                     ("verify", "--suite", "optimality", "--particles", "2")],
                         ids=["riccati", "simulate", "verify-master", "verify-mp",
                              "verify-optimality"])
def test_zero_time_step_leaves_no_out(tmp_path, capsys, command):
    # T / K rounds to 0, so every node would sit at t = 0
    model = tmp_path / "tinyT.json"
    model.write_text(json.dumps({**json.loads(open(COUPLED).read()), "T": 5e-324}))
    code, out = run(tmp_path, *command, "--model", str(model), "--steps", "2")
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: need K >= 1, a finite horizon T > 0 and a step T / K > 0, "
                   "got K=2, T=5e-324"]
    assert not out.exists()


def test_riccati_malformed_json_exit_1(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _ = run(tmp_path, "riccati", "--model", str(bad))
    assert code == 1


def test_riccati_missing_model_exit_1(tmp_path):
    code, _ = run(tmp_path, "riccati", "--model", str(tmp_path / "nope.json"))
    assert code == 1


# each kernel setting, and the variables it sets; numpy and scipy read them at import
KERNELS = {"default": {}, "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
           "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
           "no-SIMD": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR X86_V3"}}

# both kinds on each model, then the digest of a 64 x 64 BLAS product, the control
KERNEL_RUN = """
import hashlib, sys
import numpy as np
from masterlq.cli import main
out, *models = sys.argv[1:]
for i, model in enumerate(models):
    for kind in ("mfc", "mfg"):
        assert main(["riccati", "--model", model, "--kind", kind, "--steps", "300",
                     f"--out={out}/{i}"]) == 0
a = np.random.default_rng(0).standard_normal((64, 64))
print(hashlib.sha256((a @ a).tobytes()).hexdigest())
"""


def _blas_configs() -> list[str]:
    return [lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
            .get("openblas configuration", "") for lib in (np, scipy)]


def _riccati_digests(root) -> dict:
    """The SHA-256 of each riccati_* file under root, by its path below root."""
    return {f.relative_to(root).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in root.rglob("riccati_*")}


def test_riccati_bytes_equal_across_blas_kernels(tmp_path):
    # at n <= 2 every product of the solve is a fixed-order float sum, so the
    # riccati artifacts of an n = 1 and an n = 2 model keep their bytes
    # under other OpenBLAS kernels (Haswell, and Prescott without FMA) and
    # without numpy's AVX2 and AVX-512 dispatch; the control, a BLAS product
    # that Prescott rounds differently, shows that the kernel did change
    configs = _blas_configs()
    if not all("DYNAMIC_ARCH" in c for c in configs):
        pytest.skip(f"numpy's or scipy's OpenBLAS is not built with DYNAMIC_ARCH, so "
                    f"OPENBLAS_CORETYPE cannot switch its kernel: {configs}")
    two = tmp_path / "coupled_2x2.json"
    two.write_text(json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v
                               for k, v in dataclasses.asdict(make_coupled_2x2()).items()}))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    runs = {}
    for name, settings in KERNELS.items():
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env.update(settings, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-c", KERNEL_RUN, str(tmp_path / name), COUPLED, str(two)]
        runs[name] = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    control = {name: proc.communicate(timeout=120)[0].strip() for name, proc in runs.items()}
    assert {name: proc.returncode for name, proc in runs.items()} == dict.fromkeys(KERNELS, 0)
    digests = {name: _riccati_digests(tmp_path / name) for name in KERNELS}
    assert len(digests["default"]) == 8
    assert control["Prescott"] != control["default"]
    for name in KERNELS:
        assert digests[name] == digests["default"], name


@pytest.mark.parametrize("command", ["riccati", "hjbfp"])
@pytest.mark.parametrize("text,message", [
    ("3", "model file must hold a JSON object, got int"),
    ('["n", "d", "T", "R"]', "model file must hold a JSON object, got list"),
    ('"nTdR"', "model file must hold a JSON object, got str"),
    ('{"n": 1, "d": 1, "T": 1.0}', "model file missing required key 'R'")],
    ids=["number", "array", "string", "missing-R"])
def test_model_file_shape_exit_1(tmp_path, capsys, command, text, message):
    model = tmp_path / "m.json"
    model.write_text(text)
    code, out = run(tmp_path, command, "--model", str(model))
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists() or not any(out.iterdir())


# per command, an option value that is bad input
BAD_VALUE = {"riccati": ("--steps", "0"), "simulate": ("--particles", "0"),
             "master": ("--steps", "0"), "mp": ("--particles", "0"),
             "optimality": ("--steps", "-1"), "hjbfp": ("--m0-std", "0")}


@pytest.mark.parametrize("bad", ["model", "grid", "value"])
@pytest.mark.parametrize("command", [("riccati",), ("simulate",), ("verify", "--suite", "master"),
                                     ("verify", "--suite", "mp"),
                                     ("verify", "--suite", "optimality"), ("hjbfp",)],
                         ids=["riccati", "simulate", "verify-master", "verify-mp",
                              "verify-optimality", "hjbfp"])
def test_bad_input_leaves_no_out(tmp_path, capsys, command, bad):
    # the inputs load and the option values are checked before --out is
    # created; a bad --grid is a usage error for the commands that take no --grid
    model = tmp_path / "m.json"
    model.write_text("3")
    good = ("--model", COSINE, "--grid=-3,3,40,50") if command[0] == "hjbfp" else ("--model", LQR)
    argv = {"model": ("--model", str(model)),
            "grid": ("--model", COSINE if command[0] == "hjbfp" else LQR, "--grid=-3,3,40"),
            "value": good + BAD_VALUE[command[-1]]}[bad]
    code, out = run(tmp_path, *command, *argv)
    assert code == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


# a size far beyond the address space: numpy raises MemoryError before any page is touched
HUGE = "1000000000000000"


@pytest.mark.parametrize("argv", [("riccati", "--model", LQR, "--steps", HUGE),
                                  ("simulate", "--model", LQR, "--particles", HUGE,
                                   "--steps", "10"),
                                  ("hjbfp", "--model", CROWD, f"--grid=-4,4,{HUGE},10")],
                         ids=["riccati", "simulate", "hjbfp"])
def test_unallocatable_size_exit_1(tmp_path, capsys, argv):
    # --out may exist by then, but nothing is written into it
    code, out = run(tmp_path, *argv)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate"), err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", [("simulate",)], ids=["simulate"])
def test_one_particle_leaves_no_out(tmp_path, capsys, command):
    # one particle has no standard error, so the cost gate would lose its
    # 3 stderr term: bad input, found before --out exists
    code, out = run(tmp_path, *command, "--model", COUPLED, "--particles", "1",
                    "--steps", "10")
    assert code == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


def test_mp_runs_on_one_particle(tmp_path):
    # the co-state check needs no standard error
    code, out = run(tmp_path, "verify", "--suite", "mp", "--model", COUPLED,
                    "--particles", "1", "--steps", "10")
    assert code == 0
    assert json.loads((out / "verify_mp.json").read_text())["manifest"]["particles"] == 1


def test_optimality_needs_one_particle(tmp_path, capsys):
    # exact costs need no standard error: one particle's X0 prices every
    # feedback, and none is bad input.  One particle has no spread, so its
    # cost sees K1 + K2 alone; at seed 2 the perturbation directions move it.
    argv = ("verify", "--suite", "optimality", "--model", COUPLED, "--steps", "400",
            "--seed", "2")
    code, out = run(tmp_path / "none", *argv, "--particles", "0")
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: --suite optimality needs --particles 1 or more"]
    code, out = run(tmp_path / "one", *argv, "--particles", "1")
    assert code == 0
    assert json.loads((out / "verify_optimality.json").read_text())["manifest"]["particles"] == 1


def test_key_error_is_a_fault_not_bad_input(tmp_path, monkeypatch):
    import masterlq.cli as cli
    monkeypatch.setattr(cli.lq, "validate", lambda model: {}["valid"])
    with pytest.raises(KeyError):
        run(tmp_path, "riccati", "--model", LQR)


def test_riccati_invalid_model_exit_1(tmp_path):
    bad = tmp_path / "norisk.json"
    bad.write_text(json.dumps({"n": 1, "T": 1.0, "A": 0.0, "B": 1.0,
                               "Q": 1.0, "sigma": 0.0, "beta": 0.0}))
    code, _ = run(tmp_path, "riccati", "--model", str(bad))
    assert code == 1


# ---------------------------------------------------------------------------
# simulate

def test_simulate_passes_and_writes_artifacts(tmp_path):
    code, out = run(tmp_path, "simulate", "--model", COUPLED,
                    "--particles", "5000", "--steps", "400", "--seed", "3")
    assert code == 0
    rep = json.loads((out / "simulate.json").read_text())
    assert rep["pass"] is True
    assert rep["manifest"]["command"] == "simulate"
    assert (out / "trajectory.csv").exists()


def test_simulate_readme_command_passes(tmp_path):
    # One common-noise path: the martingale correction, not replicas, makes
    # the single path's cost comparable with V.
    code, out = run(tmp_path, "simulate", "--model", COUPLED, "--particles", "20000")
    assert code == 0
    rep = json.loads((out / "simulate.json").read_text())
    assert rep["pass"] is True
    assert rep["J_hat"] == rep["J_path"] - rep["common_noise_martingale"]
    assert rep["gap"] == abs(rep["J_hat"] - rep["V_reference"]) <= rep["tolerance"]
    assert rep["tolerance"] == 3.0 * rep["stderr"] + 10.0 * 1.0 / 1000


def test_simulate_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    argv = ["simulate", "--model", COUPLED, "--particles", "2000",
            "--steps", "200", "--seed", "7"]
    assert main(argv + [f"--out={a}"]) == 0
    assert main(argv + [f"--out={b}"]) == 0
    for name in ("simulate.json", "trajectory.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_byte_identical_across_threads(tmp_path, monkeypatch):
    # N n = 16384 draws per step reaches PREFETCH_MIN_DRAWS, so the draws run
    # on the worker thread unless the threshold is raised above N n.
    import masterlq.mkv_simulator as mk
    worker_at = mk.PREFETCH_MIN_DRAWS
    assert 16384 >= worker_at
    pools = []
    orig = mk.ThreadPoolExecutor
    monkeypatch.setattr(mk, "ThreadPoolExecutor", lambda *a: pools.append(1) or orig(*a))
    argv = ["simulate", "--model", LQR, "--particles", "16384", "--steps", "20", "--seed", "2"]
    outs = []
    for i, min_draws in enumerate((worker_at, worker_at, 16385)):
        monkeypatch.setattr(mk, "PREFETCH_MIN_DRAWS", min_draws)
        outs.append(tmp_path / f"run{i}")
        assert main(argv + [f"--out={outs[-1]}"]) == 0
    assert len(pools) == 2      # a run and its repeat use the worker, the third draws inline
    for name in ("simulate.json", "trajectory.csv"):
        first = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == first for out in outs[1:])


def test_simulate_cost_check_miss_exit_3(tmp_path, capsys, monkeypatch):
    # the real check, with a dt constant that makes its tolerance negative
    import masterlq.mkv_simulator as mk
    check = mk.check_cost_matches_value
    monkeypatch.setattr(mk, "check_cost_matches_value",
                        lambda *args: check(*args[:4], dt_const=-1e6))
    code, out = run(tmp_path, "simulate", "--model", COUPLED, "--particles", "500",
                    "--steps", "50")
    assert code == 3
    rep = json.loads((out / "simulate.json").read_text())
    assert rep["pass"] is False and rep["tolerance"] < 0.0
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"simulate: cost check gap = {rep['gap']:.3e} > tolerance = "
                   f"{rep['tolerance']:.3e}"]


def test_simulate_zero_particles_exit_1(tmp_path):
    code, _ = run(tmp_path, "simulate", "--model", COUPLED, "--particles", "0")
    assert code == 1


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_simulate_no_steps_exit_1(tmp_path, capsys, steps):
    code, out = run(tmp_path, "simulate", "--model", COUPLED, "--particles", "100",
                    "--steps", steps)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: need K >= 1, a finite horizon T > 0 and a step T / K > 0, "
                   f"got K={steps}, T=1.0"]
    assert not (out / "simulate.json").exists()


# ---------------------------------------------------------------------------
# verify

def _verify_payload(out, suite) -> dict:
    """verify_<suite>.json, whose reports each name their check and give a
    bool verdict, and whose verdict is theirs together."""
    rep = json.loads((out / f"verify_{suite}.json").read_text())
    assert rep["reports"]
    for r in rep["reports"]:
        assert isinstance(r["check"], str) and isinstance(r["pass"], bool)
    assert rep["pass"] is all(r["pass"] for r in rep["reports"])
    return rep


def test_verify_lift_suite(tmp_path, capsys):
    code, out = run(tmp_path, "verify", "--suite", "lift", "--seed", "1")
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    rep = _verify_payload(out, "lift")
    assert lines == [f"[PASS] {r['check']}" for r in rep["reports"]]
    assert rep["pass"] is True


def test_verify_master_suite(tmp_path):
    code, out = run(tmp_path, "verify", "--suite", "master",
                    "--model", COUPLED, "--steps", "2000")
    assert code == 0
    rep = _verify_payload(out, "master")
    assert rep["pass"] is True


def test_verify_master_asymmetric_model(tmp_path):
    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps({
        "n": 2, "d": 2, "T": 1.0,
        "A": [[0.0, 0.0], [0.0, 0.0]], "Abar": [[0.0, 0.0], [0.0, 0.0]],
        "B": [[1.0, 0.0], [0.0, 1.0]], "Q": [[1.0, 0.0], [0.0, 1.0]],
        "Qbar": [[1.0, 0.0], [0.0, 2.0]], "S": [[0.0, 1.0], [0.0, 0.0]],
        "R": [[1.0, 0.0], [0.0, 1.0]], "QbarT": [[1.0, 0.0], [0.0, 2.0]],
        "ST": [[0.0, 1.0], [0.0, 0.0]], "sigma": 0.3, "beta": 0.2,
    }))
    code, out = run(tmp_path, "verify", "--suite", "master",
                    "--model", str(asym), "--steps", "2000")
    assert code == 0
    rep = _verify_payload(out, "master")
    flagged = [r for r in rep["reports"] if r.get("expected_asymmetry")]
    assert flagged and all(r["symmetry_violation"] > 1e-6 for r in flagged)
    value = [r for r in rep["reports"] if r["check"] == "master_mfg_scalar"]
    assert len(value) == 5 and all(r["residual_norm"] <= 1e-6 for r in value)


def test_verify_mp_suite(tmp_path):
    code, out = run(tmp_path, "verify", "--suite", "mp", "--model", COUPLED,
                    "--steps", "500", "--particles", "500")
    assert code == 0
    rep = _verify_payload(out, "mp")
    assert rep["reports"][0]["terminal_gap"] <= 1e-8
    assert rep["manifest"]["particles"] == 500


def test_verify_mp_runs_every_particle(tmp_path, monkeypatch):
    import masterlq.cli as cli
    seen, check = [], cli.mk.check_max_principle

    def spy(model, sol, X0, *args, **kwargs):
        seen.append(X0.N)
        return check(model, sol, X0, *args, **kwargs)

    monkeypatch.setattr(cli.mk, "check_max_principle", spy)
    code, out = run(tmp_path, "verify", "--suite", "mp", "--model", COUPLED,
                    "--steps", "50", "--particles", "5000")
    assert code == 0
    rep = json.loads((out / "verify_mp.json").read_text())
    assert seen == [5000] and rep["manifest"]["particles"] == 5000
    assert "particles" not in rep["reports"][0]


def test_verify_optimality_suite(tmp_path):
    code, out = run(tmp_path, "verify", "--suite", "optimality",
                    "--model", COUPLED, "--steps", "400",
                    "--particles", "4000", "--seed", "2")
    assert code == 0
    rep = _verify_payload(out, "optimality")
    report = rep["reports"][0]
    assert report["all_positive"] and all(g > 0 for g in report["gaps"].values())
    assert "stderr" not in report


# ---------------------------------------------------------------------------
# hjbfp

def test_hjbfp_crowd_cross_validation(tmp_path):
    code, out = run(tmp_path, "hjbfp", "--model", CROWD, "--kind", "mfg",
                    "--grid=-4,4,200,2000")
    assert code == 0
    rep = json.loads((out / "hjbfp.json").read_text())
    assert rep["converged"] is True
    assert rep["cross_validation"]["sup_diff"] <= 1e-2
    assert (out / "hjbfp_fields.csv").exists()


def test_hjbfp_cfl_exit_2(tmp_path):
    code, out = run(tmp_path, "hjbfp", "--model", CROWD, "--kind", "mfg",
                    "--grid=-4,4,400,50")
    assert code == 2
    rep = json.loads((out / "hjbfp.json").read_text())
    assert rep["converged"] is False and rep["manifest"]["command"] == "hjbfp"
    assert rep["error"].startswith("advective Courant number")
    assert not (out / "hjbfp_fields.csv").exists()


def test_hjbfp_cfl_failure_bytes(tmp_path, capsys):
    # the HJB sweep's Courant number passes 1 at node 13, inside its first
    # block: the JSON and stderr bytes are those of a check after every step
    code, out = run(tmp_path, "hjbfp", "--model", CROWD, "--grid=-4,4,200,20")
    assert code == 2
    error = "advective Courant number 1.123 > 1 (dt = 2.500e-02, dx = 4.020e-02); reduce dt"
    assert capsys.readouterr().err == f"hjbfp: {error}\n"
    assert (out / "hjbfp.json").read_text() == f"""{{
  "converged": false,
  "error": "{error}",
  "manifest": {{
    "command": "hjbfp",
    "grid": "-4,4,200,20",
    "kind": "mfc",
    "m0_mean": 1.0,
    "m0_std": 0.5,
    "model": {json.dumps(CROWD)},
    "model_sha256": "{hashlib.sha256(open(CROWD, "rb").read()).hexdigest()}",
    "seed": 0,
    "tolerances": {{
      "pde_diff": 0.01
    }}
  }}
}}
"""
    assert sorted(os.listdir(out)) == ["hjbfp.json"]


def test_hjbfp_non_finite_exit_2(tmp_path, monkeypatch):
    import dataclasses
    import masterlq.hjbfp_1d as hj
    orig = hj.cosine_demo
    monkeypatch.setattr(hj, "cosine_demo", lambda **kw: dataclasses.replace(
        orig(**kw), h0=lambda x, y: np.full_like(x, np.nan)))
    code, out = run(tmp_path, "hjbfp", "--model", COSINE, "--grid=-3,3,40,50")
    assert code == 2
    rep = json.loads((out / "hjbfp.json").read_text())
    assert rep["converged"] is False
    assert rep["error"] == "non-finite value at node 49"


def test_hjbfp_cosine_demo_no_cross_validation(tmp_path):
    code, out = run(tmp_path, "hjbfp", "--model", COSINE,
                    "--grid=-3,3,120,500", "--m0-mean", "0.0", "--m0-std", "0.7")
    assert code == 0
    rep = json.loads((out / "hjbfp.json").read_text())
    assert rep["converged"] is True
    assert "cross_validation" not in rep


@pytest.mark.parametrize("kind", [None, "mfc", "mfg"])
def test_hjbfp_demo_records_kind_solved(tmp_path, kind):
    argv = ["hjbfp", "--model", COSINE, "--grid=-3,3,40,50"]
    code, out = run(tmp_path, *argv, *(["--kind", kind] if kind else []))
    assert code == 0
    rep = json.loads((out / "hjbfp.json").read_text())
    assert rep["manifest"]["kind"] == "mfg"


def test_hjbfp_demo_bad_horizon_exit_1(tmp_path, capsys):
    demo = tmp_path / "cosine_nan.json"
    demo.write_text(json.dumps({**json.loads(open(COSINE).read()), "T": float("nan")}))
    code, out = run(tmp_path, "hjbfp", "--model", str(demo), "--grid=-3,3,40,50")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "finite horizon T > 0" in err[0]
    assert not (out / "hjbfp.json").exists()


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -0.5])
def test_hjbfp_demo_bad_sigma_exit_1(tmp_path, capsys, sigma):
    demo = tmp_path / "cosine_sigma.json"
    demo.write_text(json.dumps({**json.loads(open(COSINE).read()), "sigma": sigma}))
    code, out = run(tmp_path, "hjbfp", "--model", str(demo), "--grid=-3,3,40,50")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "diffusion coefficient sigma" in err[0]
    assert not (out / "hjbfp.json").exists()


@pytest.mark.parametrize("field,value", [("sigma", float("nan")), ("beta", float("inf")),
                                         ("A", float("nan")), ("Qbar", float("-inf"))])
@pytest.mark.parametrize("command,size", [("hjbfp", "--grid=-4,4,40,50"),
                                          ("riccati", "--steps=50")], ids=["hjbfp", "riccati"])
def test_lq_non_finite_field_exit_1(tmp_path, capsys, command, size, field, value):
    model = tmp_path / "crowd_bad.json"
    model.write_text(json.dumps({**json.loads(open(CROWD).read()), field: value}))
    code, out = run(tmp_path, command, "--model", str(model), size)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid model: ")
    assert f"{field} " in err[0] and "finite" in err[0]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("base,field,value", [
    ("crowd", "T", None), ("crowd", "sigma", None), ("cosine", "kappa", "abc"),
    ("cosine", "sigma", "abc"), ("cosine", "T", None), ("cosine", "kappa", float("nan")),
    ("crowd", "n", 1.5), ("crowd", "n", True), ("crowd", "d", "1"), ("crowd", "convex", "false"),
    ("crowd", "A", "abc"), ("crowd", "A", [[1.0], [2.0, 3.0]]), ("crowd", "R", [["x"]]),
    ("crowd", "T", True), ("crowd", "sigma", "0.5"), ("crowd", "A", "1.5"), ("crowd", "A", True),
    ("crowd", "Q", [[True]]), ("crowd", "A", None), ("cosine", "kappa", False)],
    ids=lambda v: "list" if isinstance(v, list) else None)
def test_non_numeric_model_value_exit_1(tmp_path, capsys, base, field, value):
    model = tmp_path / "bad.json"
    doc = json.loads(open(CROWD if base == "crowd" else COSINE).read())
    model.write_text(json.dumps({**doc, field: value}))
    code, out = run(tmp_path, "hjbfp", "--model", str(model), "--grid=-3,3,40,50")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and f"'{field}'" in err[0]
    assert not (out / "hjbfp.json").exists()


@pytest.mark.parametrize("grid", ["-3,3,40", "-3,3,forty,50", "-3,3,40,50,7", "-3,3,40.5,50"])
def test_hjbfp_malformed_grid_exit_1(tmp_path, capsys, grid):
    code, out = run(tmp_path, "hjbfp", "--model", COSINE, f"--grid={grid}")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --grid expects xmin,xmax,Nx,Nt (got {grid!r})"]
    assert not (out / "hjbfp.json").exists()


@pytest.mark.parametrize("grid", ["nan,3,40,50", "-3,inf,40,50", "3,-3,40,50"])
def test_hjbfp_bad_grid_bound_exit_1(tmp_path, capsys, grid):
    code, out = run(tmp_path, "hjbfp", "--model", COSINE, f"--grid={grid}")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: grid bounds must be finite with x_min < x_max, got ")
    assert not (out / "hjbfp.json").exists()


@pytest.mark.parametrize("option,value", [("--m0-std", "0"), ("--m0-std", "-1"),
                                          ("--m0-std", "nan"), ("--m0-std", "inf"),
                                          ("--m0-mean", "nan"), ("--m0-mean", "inf")])
def test_hjbfp_bad_initial_density_exit_1(tmp_path, capsys, option, value):
    code, out = run(tmp_path, "hjbfp", "--model", COSINE, "--grid=-3,3,40,50",
                    f"{option}={value}")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    what = "std must be finite and > 0" if option == "--m0-std" else "mean must be finite"
    assert len(err) == 1 and err[0].startswith(f"error: initial density {what}, got ")
    assert not (out / "hjbfp.json").exists()


@pytest.mark.parametrize("option,value", [("--m0-mean", "100"), ("--m0-std", "1e-9"),
                                          ("--m0-mean", "1e308")])
def test_hjbfp_density_without_mass_exit_1(tmp_path, capsys, option, value):
    # a finite mean and std whose density underflows to zero on every node
    code, out = run(tmp_path, "hjbfp", "--model", CROWD, "--grid=-4,4,200,200",
                    f"{option}={value}")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: initial density with mean ")
    assert err[0].endswith(" has no mass on the grid [-4, 4]")
    assert not out.exists()


@pytest.mark.parametrize("grid,m0,message", [
    ("3,5,40,400", ("4", "0.3"),
     "the LQ cross-validation window |x| <= 2.5 holds no node of the grid [3, 5]"),
    # dx^2 underflows to 0
    ("1e-300,2e-300,40,400", ("1e-300", "1e-300"), "the diffusion step cannot be formed"),
    # 1 + r rounds to r = nu dt / dx^2: the zero-flux operator is singular
    ("0,1e-10,40,400", ("5e-11", "1e-11"), "the diffusion step cannot be formed"),
], ids=["empty-window", "dx-underflow", "singular"])
def test_hjbfp_unusable_grid_leaves_no_out(tmp_path, capsys, grid, m0, message):
    code, out = run(tmp_path, "hjbfp", "--model", CROWD, "--kind", "mfg", f"--grid={grid}",
                    "--m0-mean", m0[0], "--m0-std", m0[1])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
    assert not out.exists()


def test_hjbfp_demo_needs_no_window(tmp_path):
    # the demo has no LQ cross-validation, so a grid off the origin runs
    code, out = run(tmp_path, "hjbfp", "--model", COSINE, "--grid=3,5,40,50",
                    "--m0-mean", "4", "--m0-std", "0.3")
    assert code == 0
    assert "cross_validation" not in json.loads((out / "hjbfp.json").read_text())


def test_hjbfp_common_noise_exit_1(tmp_path, capsys):
    # the FD solver has no common-noise term: scalar_coupled (beta = 0.3) is refused
    code, out = run(tmp_path, "hjbfp", "--model", COUPLED, "--kind", "mfg",
                    "--grid=-4,4,40,50")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: FD solver has no common noise: needs beta = 0, got beta = 0.3"]
    assert not (out / "hjbfp.json").exists()


def test_hjbfp_mfc_terminal_at_final_mean(tmp_path):
    # scalar_coupled without common noise has a nonzero MFC terminal correction,
    # which must be taken at ybar(T); taken at ybar(0) it gives sup_diff 0.110
    model = tmp_path / "coupled_beta0.json"
    model.write_text(json.dumps({**json.loads(open(COUPLED).read()), "beta": 0.0}))
    run(tmp_path, "hjbfp", "--model", str(model), "--kind", "mfc", "--grid=-4,4,200,2000")
    rep = json.loads((tmp_path / "out" / "hjbfp.json").read_text())
    assert rep["converged"] is True
    assert rep["cross_validation"]["sup_diff"] < 0.03
    assert rep["cross_validation"]["mean_flow_diff"] < 0.02


def test_hjbfp_nonconvergence_exit_3(tmp_path, monkeypatch):
    import masterlq.hjbfp_1d as hj
    monkeypatch.setattr(hj, "PICARD_MAX_ITER", 1)
    code, out = run(tmp_path, "hjbfp", "--model", CROWD, "--kind", "mfg",
                    "--grid=-4,4,100,1000")
    assert code == 3
    rep = json.loads((out / "hjbfp.json").read_text())
    assert rep["converged"] is False and len(rep["history"]) == 1


def test_hjbfp_writes_history_on_success(tmp_path):
    code, out = run(tmp_path, "hjbfp", "--model", CROWD, "--kind", "mfc",
                    "--grid=-4,4,150,1200")
    assert code == 0
    rep = json.loads((out / "hjbfp.json").read_text())
    assert rep["converged"] is True and rep["pass"] is True
    assert len(rep["history"]) == rep["iterations"] and rep["history"][-1] < 1e-6
    assert rep["manifest"]["tolerances"]["pde_diff"] == 1e-2


def test_hjbfp_cosine_history_is_one_exact_pair(tmp_path):
    import masterlq.hjbfp_1d as hj
    code, out = run(tmp_path, "hjbfp", "--model", COSINE, "--grid=-3,3,40,50")
    assert code == 0
    rep = json.loads((out / "hjbfp.json").read_text())
    # at --m0-mean 1 the first pair moves the mean path; the second is exact on it
    assert rep["iterations"] == len(rep["history"]) == 2
    assert rep["history"][-1] < hj.PICARD_TOL
    assert "pass" not in rep


# the demo's argv in the benchmark's pde workload: its op and its warm-up
@pytest.mark.parametrize("grid", ["--grid=-3,3,120,500", "--grid=-3,3,40,50"],
                         ids=["op", "warmup"])
def test_hjbfp_cosine_benchmark_argv_one_sweep_pair(tmp_path, grid):
    code, out = run(tmp_path, "hjbfp", "--model", COSINE, grid, "--m0-mean", "0",
                    "--m0-std", "0.7")
    assert code == 0
    rep = json.loads((out / "hjbfp.json").read_text())
    assert rep["converged"] is True and rep["iterations"] == 1


HUGE_STEPS = "1" + "0" * 400    # past the largest float: T / K would overflow


@pytest.mark.parametrize("argv", [
    ("riccati", "--model", LQR, "--steps", HUGE_STEPS),
    ("simulate", "--model", LQR, "--steps", HUGE_STEPS),
    ("verify", "--suite", "master", "--model", LQR, "--steps", HUGE_STEPS),
    ("hjbfp", "--model", CROWD, f"--grid=-4,4,40,{HUGE_STEPS}")],
    ids=["riccati", "simulate", "verify-master", "hjbfp"])
def test_huge_step_count_leaves_no_out(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"error: need K >= 1, a finite horizon T > 0 and a step T / K > 0, got K={HUGE_STEPS}, T=")
    assert not out.exists()


@pytest.mark.parametrize("bad", [{"sup_diff": 0.011}, {"mean_flow_diff": 0.5},
                                 {"sup_diff": float("nan")}])
def test_hjbfp_cross_validation_gate_exit_3(tmp_path, monkeypatch, capsys, bad):
    import masterlq.hjbfp_1d as hj
    orig = hj.cross_validate_lq
    monkeypatch.setattr(hj, "cross_validate_lq", lambda *a: {**orig(*a), **bad})
    code, out = run(tmp_path, "hjbfp", "--model", CROWD, "--kind", "mfc",
                    "--grid=-4,4,150,1200")     # passes unpatched (sup_diff 6.6e-3)
    assert code == 3
    rep = json.loads((out / "hjbfp.json").read_text())
    assert rep["converged"] is True and rep["pass"] is False
    assert all(rep["cross_validation"][k] == v or v != v for k, v in bad.items())
    assert (out / "hjbfp_fields.csv").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("hjbfp: cross-validation sup_diff = ")


# ---------------------------------------------------------------------------
# command line

@pytest.mark.parametrize("argv,name", [
    (("simulate", "--model", COUPLED, "--steps", "abc"), "--steps"),
    (("riccati", "--model", COUPLED, "--kind", "xyz"), "--kind"),
    (("verify",), "--suite"),
    (("verify", "--suite", "nope", "--model", COUPLED), "--suite"),
    (("simulate", "--model", COUPLED, "--seed", "-1"), "--seed"),
    (("simulate", "--model", COUPLED, "--seed", str(2 ** 64)), "--seed"),
    (("verify", "--suite", "lift", "--seed", "-1"), "--seed"),
    (("verify", "--suite", "lift", "--seed", str(2 ** 64)), "--seed")],
    ids=["steps-abc", "kind-xyz", "verify-no-suite", "verify-unknown-suite",
         "simulate-seed-neg", "simulate-seed-2**64", "lift-seed-neg", "lift-seed-2**64"])
def test_usage_error_exit_1(tmp_path, capsys, argv, name):
    code, out = run(tmp_path, *argv)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]
    assert not out.exists()


def test_largest_seed_accepted(tmp_path):
    code, out = run(tmp_path, "simulate", "--model", COUPLED, "--particles", "50",
                    "--steps", "20", "--seed", str(2 ** 64 - 1))
    assert code in (0, 3)
    assert json.loads((out / "simulate.json").read_text())["manifest"]["seed"] == 2 ** 64 - 1


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [("verify", "--help"), ("verify", "--suite", "master", "--help")],
                         ids=["verify", "master"])
def test_verify_help_names_each_suites_options(capsys, argv):
    # the first parse exits on --help before a suite's options join, so the
    # text of --suite itself names what each suite reads
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for suite in ("lift", "master", "mp", "optimality"):
        reads = " ".join(o for o in READS[suite] if o != "--suite") or "no other option"
        assert f"{suite} reads {reads}" in text


# ---------------------------------------------------------------------------
# options and manifest

# The options each command, and each verify suite, reads beyond --out and
# --seed; it must refuse every other one.
READS = {
    "riccati": ("--model", "--steps", "--kind"),
    "simulate": ("--model", "--steps", "--particles"),
    "lift": ("--suite",),
    "master": ("--suite", "--model", "--steps"),
    "mp": ("--suite", "--model", "--steps", "--particles"),
    "optimality": ("--suite", "--model", "--steps", "--particles"),
    "hjbfp": ("--model", "--grid", "--kind", "--m0-mean", "--m0-std"),
}
# no command reads --damping: every command refuses it
VALUES = {"--model": LQR, "--steps": "20", "--particles": "0", "--kind": "mfg",
          "--suite": "lift", "--grid": "-3,3,40,50", "--damping": "0.5", "--m0-mean": "0",
          "--m0-std": "0.7"}
# a small run of each command or suite that reads nothing but its own options
SMALL = {
    "riccati": ("riccati", "--model", LQR, "--steps", "20"),
    "simulate": ("simulate", "--model", LQR, "--particles", "50", "--steps", "20"),
    "lift": ("verify", "--suite", "lift"),
    "master": ("verify", "--suite", "master", "--model", LQR, "--steps", "20"),
    "mp": ("verify", "--suite", "mp", "--model", LQR, "--steps", "20", "--particles", "50"),
    "optimality": ("verify", "--suite", "optimality", "--model", LQR, "--steps", "20",
                   "--particles", "50"),
    "hjbfp": ("hjbfp", "--model", COSINE, "--grid=-3,3,40,50"),
}
ARTIFACT = {"riccati": "riccati_mfc.json", "simulate": "simulate.json",
            "lift": "verify_lift.json", "master": "verify_master.json", "mp": "verify_mp.json",
            "optimality": "verify_optimality.json", "hjbfp": "hjbfp.json"}
TOLERANCES = {
    "riccati": {},
    "simulate": {"cost_dt_const": 10.0},
    "lift": {"lift_fd_rel": 1e-6, "lift_quad_rel": 1e-8, "lift_linear_zero": 1e-10,
             "taylor_slope": 0.1},
    "master": {"master_residual": 1e-6, "master_symmetry": 1e-9},
    "mp": {"check_rel": 1e-8},
    "optimality": {},
    "hjbfp": {"pde_diff": 1e-2},
}
# a small run of each row with bounds that passes, and fails its check when
# any one of its bounds is below every gap; scalar_lqr has no mean-field
# coupling, so its master run gates on the symmetry too
GATED = {
    "simulate": ("simulate", "--model", LQR, "--particles", "50", "--steps", "2"),
    "lift": ("verify", "--suite", "lift"),
    "master": ("verify", "--suite", "master", "--model", LQR, "--steps", "200"),
    "mp": ("verify", "--suite", "mp", "--model", LQR, "--steps", "20", "--particles", "50"),
    "hjbfp": ("hjbfp", "--model", CROWD, "--grid=-4,4,120,400"),
}
# the verify reports each bound gates
FAILED_CHECKS = {("master", "master_residual"): {"master_mfc", "master_mfg_gradient",
                                                  "master_mfg_scalar"},
                 ("master", "master_symmetry"): {"master_mfg_gradient"},
                 ("mp", "check_rel"): {"max_principle_deterministic"},
                 ("lift", "lift_fd_rel"): {"gradient_lift", "buckdahn_relation"},
                 ("lift", "lift_quad_rel"): {"second_identity", "difference_identity"},
                 ("lift", "lift_linear_zero"): {"difference_identity"},
                 ("lift", "taylor_slope"): {"taylor_remainder"}}


def _parser(row):
    """The subparser that parses SMALL[row]; verify's has its suite's options."""
    import argparse
    from masterlq.cli import build_parser
    command = SMALL[row][0]
    p = build_parser(row if command == "verify" else None)
    (sub,) = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


@pytest.mark.parametrize("command,option", [
    (command, option) for command in READS for option in VALUES
    if option not in READS[command]])
def test_unread_option_exit_1(tmp_path, capsys, command, option):
    code, out = run(tmp_path, *SMALL[command], f"{option}={VALUES[option]}")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: unrecognized arguments: {option}={VALUES[option]}"]
    assert not out.exists()


@pytest.mark.parametrize("row", [row for row in READS if "--model" in READS[row]])
def test_missing_model_exit_1(tmp_path, capsys, row):
    at = SMALL[row].index("--model")
    code, out = run(tmp_path, *SMALL[row][:at], *SMALL[row][at + 2:])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: the following arguments are required: --model"]
    assert not out.exists()


@pytest.mark.parametrize("path", ["dir", "file/model.json"], ids=["directory", "under-a-file"])
@pytest.mark.parametrize("row", [row for row in READS if "--model" in READS[row]])
def test_unreadable_model_exit_1(tmp_path, capsys, row, path):
    # an OSError other than a missing file (IsADirectoryError, NotADirectoryError),
    # in lq_model.load_model or in the manifest's SHA-256 read
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("{}")
    model = str(tmp_path / path)
    at = SMALL[row].index("--model")
    code, out = run(tmp_path, *SMALL[row][:at + 1], model, *SMALL[row][at + 2:])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: [Errno ") and model in err[0]
    assert not out.exists()


def test_parsers_built_once_per_suite(tmp_path, capsys, monkeypatch):
    # one process runs four commands, one after another, on the parsers
    # main keeps: they exit and print as on parsers built afresh for each
    # call, and each parser is built once
    from masterlq import cli
    runs = [SMALL["master"],
            ("verify", "--suite", "mp", "--model", LQR, "--steps", "20", "--particles", "0"),
            SMALL["riccati"], (*SMALL["hjbfp"], "--steps=20")]

    def outcomes():
        return [(run(tmp_path, *argv)[0], capsys.readouterr().err.splitlines()) for argv in runs]

    cli.build_parser.cache_clear()
    kept = outcomes()
    assert cli.build_parser.cache_info().misses == cli.build_parser.cache_info().currsize == 3
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert kept == outcomes() == [
        (0, []), (1, ["error: --suite mp needs --particles 1 or more"]), (0, []),
        (1, ["error: unrecognized arguments: --steps=20"])]


def test_each_command_takes_only_its_options():
    from masterlq.cli import COMMANDS, SUITES
    assert set(READS) == set(COMMANDS) - {"verify"} | set(SUITES)
    taken = {row: {o for a in _parser(row)._actions for o in a.option_strings} - {"-h", "--help"}
             for row in READS}
    assert taken == {row: {"--out", "--seed", *READS[row]} for row in READS}


def _readme_options() -> dict:
    """The README's CLI options table: each row's first cell, and the
    options its second cell names."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        lines = fh.read().split("| Command | Options |\n| --- | --- |\n")[1].split("\n\n")[0]
    rows = [line.strip("|").split("|") for line in lines.splitlines()]
    table = {row.strip(): set(re.findall(r"`(--[\w-]+)", cell)) for row, cell in rows}
    assert len(table) == len(rows)
    return table


def test_readme_options_table_matches_parser():
    from masterlq.cli import COMMANDS, SUITES
    assert COMMANDS["verify"][2] == ("--suite",)
    expected = {"every command": {"--out", "--seed"},
                **{f"`{name}`": set(row[2]) for name, row in COMMANDS.items() if name != "verify"},
                **{f"`verify --suite {name}`": set(row[1]) for name, row in SUITES.items()}}
    assert _readme_options() == expected


@pytest.mark.parametrize("command", list(READS))
def test_manifest_is_the_parsed_options(tmp_path, command):
    # the guard that keeps the manifest from drifting from the parser
    dests = {a.dest for a in _parser(command)._actions} - {"help", "out"}
    code, out = run(tmp_path, *SMALL[command])
    assert code in (0, 3)
    man = json.loads((out / ARTIFACT[command]).read_text())["manifest"]
    content = {"model_sha256"} if "model" in dests else set()
    assert set(man) == dests | content | {"command", "tolerances"}
    assert man["command"] == SMALL[command][0] and man["tolerances"] == TOLERANCES[command]
    if content:
        with open(man["model"], "rb") as fh:
            assert man["model_sha256"] == hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("row,bound", [(row, bound) for row in TOLERANCES
                                       for bound in TOLERANCES[row]])
def test_run_gates_on_manifest_bound(tmp_path, monkeypatch, row, bound):
    import masterlq.cli as cli
    code, out = run(tmp_path / "as-is", *GATED[row])
    assert code == 0
    monkeypatch.setitem(cli.TOLERANCES[row], bound, -1.0)   # below any gap or residual
    code, out = run(tmp_path / "patched", *GATED[row])
    assert code == 3
    rep = json.loads((out / ARTIFACT[row]).read_text())
    assert rep["manifest"]["tolerances"][bound] == -1.0 and rep["pass"] is False
    if "reports" in rep:
        assert {r["check"] for r in rep["reports"] if not r["pass"]} == FAILED_CHECKS[row, bound]


def test_manifest_records_model_content(tmp_path):
    # a model file edited in place is another input, so its manifest differs
    model = tmp_path / "m.json"
    manifests = []
    for Q in (1.0, 2.0, 2.0):
        model.write_text(json.dumps({"n": 1, "d": 1, "T": 1.0, "B": 1.0, "Q": Q, "R": 1.0}))
        code, out = run(tmp_path, "riccati", "--model", str(model), "--steps", "50")
        assert code == 0
        manifests.append(json.loads((out / "riccati_mfc.json").read_text())["manifest"])
    assert manifests[0] != manifests[1] and manifests[1] == manifests[2]


# each row that reads --model, and hjbfp on an LQ model as well as on the demo
MODEL_ROWS = {**{row: SMALL[row] for row in READS if "--model" in READS[row]},
              "hjbfp-lq": ("hjbfp", "--model", LQR, "--grid=-3,3,40,50")}


def _on_model_open(monkeypatch, path: str, after_first=lambda: None) -> list:
    """Each open() of path from now on, in a list; after_first runs once the
    first has opened the file."""
    import builtins
    opened, real_open = [], builtins.open

    def spy(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if file == path:
            opened.append(file)
            if len(opened) == 1:
                after_first()
        return fh
    monkeypatch.setattr(builtins, "open", spy)
    return opened


def _model_of(row: str) -> bytes:
    argv = MODEL_ROWS[row]
    return open(argv[argv.index("--model") + 1], "rb").read()


def _row_on(row: str, model) -> tuple:
    argv = MODEL_ROWS[row]
    at = argv.index("--model")
    return (*argv[:at + 1], str(model), *argv[at + 2:])


@pytest.mark.parametrize("row", list(MODEL_ROWS))
def test_model_file_opened_once(tmp_path, monkeypatch, row):
    model = tmp_path / "model.json"
    model.write_bytes(_model_of(row))
    opened = _on_model_open(monkeypatch, str(model))
    code, out = run(tmp_path, *_row_on(row, model))
    assert code in (0, 3) and len(opened) == 1


@pytest.mark.parametrize("row", list(MODEL_ROWS))
def test_manifest_hashes_the_model_that_ran(tmp_path, monkeypatch, row):
    # the model file is replaced by one with another horizon once the run
    # has opened it: the run hashes and solves the bytes it read first
    model, other = tmp_path / "model.json", tmp_path / "other.json"
    data = _model_of(row)
    model.write_bytes(data)
    other.write_text(json.dumps({**json.loads(data), "T": 0.5 * json.loads(data)["T"]}))
    code, out = run(tmp_path, *_row_on(row, model))
    man = json.loads((out / ARTIFACT[row.removesuffix("-lq")]).read_text())["manifest"]
    assert man["model_sha256"] == hashlib.sha256(data).hexdigest()
    expected = {path.name: path.read_bytes() for path in out.iterdir()}
    _on_model_open(monkeypatch, str(model), lambda: os.replace(other, model))
    assert run(tmp_path, *_row_on(row, model))[0] == code
    assert {path.name: path.read_bytes() for path in out.iterdir()} == expected
    assert model.read_bytes() != data     # the file was replaced during the run


def test_manifest_in_every_report(tmp_path):
    code, out = run(tmp_path, "riccati", "--model", LQR)
    assert code == 0
    rep = json.loads((out / "riccati_mfc.json").read_text())
    man = rep["manifest"]
    for key in ("command", "model", "model_sha256", "seed", "steps", "kind", "tolerances"):
        assert key in man
    # riccati reads neither --particles nor --grid, so its manifest records neither
    assert "particles" not in man and "grid" not in man
    assert "out" not in man


@pytest.mark.parametrize("argv,name", [(("riccati", "--model", LQR), "riccati_mfc.json"),
                                       (("verify", "--suite", "lift"), "verify_lift.json")])
def test_pde_tolerance_only_in_hjbfp_manifest(tmp_path, argv, name):
    code, out = run(tmp_path, *argv)
    assert code == 0
    tol = json.loads((out / name).read_text())["manifest"]["tolerances"]
    assert "pde_diff" not in tol
    assert tol == TOLERANCES[argv[2] if argv[0] == "verify" else argv[0]]


@pytest.mark.parametrize("option,values", [("--m0-mean", ("0", "1")),
                                           ("--m0-std", ("0.7", "0.9"))])
def test_hjbfp_manifest_records_density(tmp_path, option, values):
    manifests = []
    for v in values:
        code, out = run(tmp_path / v, *SMALL["hjbfp"], f"{option}={v}")
        assert code == 0
        manifests.append(json.loads((out / "hjbfp.json").read_text())["manifest"])
    assert manifests[0] != manifests[1]
    assert {k for k in manifests[0] if manifests[0][k] != manifests[1][k]} == {
        option[2:].replace("-", "_")}


# ---------------------------------------------------------------------------
# CSV artifacts: bytes against the per-row writers of the earlier code

def _reference_riccati_csv(sol, path):
    n = sol.P.shape[1]
    ij = [(i, j) for i in range(n) for j in range(n)]
    header = ["t"] + [f"P_{i}{j}" for i, j in ij] + [f"Sigma_{i}{j}" for i, j in ij]
    if sol.kind == "MFC":
        header += ["lambda"]
    else:
        header += [f"Gamma_{i}{j}" for i, j in ij] + ["mu"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for k, t in enumerate(sol.grid.nodes()):
            row = [repr(float(t))]
            row += [repr(float(v)) for v in sol.P[k].ravel()]
            row += [repr(float(v)) for v in sol.Sigma[k].ravel()]
            if sol.kind == "MFC":
                row.append(repr(float(sol.lam[k])))
            else:
                row += [repr(float(v)) for v in sol.Gamma[k].ravel()]
                row.append(repr(float(sol.mu[k])))
            w.writerow(row)


def _reference_trajectory_csv(traj, path):
    n = traj.ybar.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"ybar_{i}" for i in range(n)]
                   + [f"m2_{i}" for i in range(n)] + ["running_cost"])
        for k, t in enumerate(traj.times):
            w.writerow([repr(float(t))]
                       + [repr(float(v)) for v in traj.ybar[k]]
                       + [repr(float(v)) for v in traj.second_moment[k]]
                       + [repr(float(traj.running_cost_partial[k]))])


def _reference_slices_csv(fields, path, count=5):
    ks = np.linspace(0, fields.tgrid.K, count).astype(int)
    x = fields.grid.nodes()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "u", "m"])
        for k in ks:
            t = k * fields.tgrid.h
            for j in range(fields.grid.Nx):
                w.writerow([repr(float(t)), repr(float(x[j])),
                            repr(float(fields.u[k, j])), repr(float(fields.m[k, j]))])


def _spy(monkeypatch, module, name):
    """The values module.name returns while the CLI runs, in call order."""
    seen, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, name, spy)
    return seen


def _model_file(tmp_path, model):
    path = tmp_path / "model.json"
    doc = {k: getattr(v, "tolist", lambda: v)() for k, v in vars(model).items()}
    path.write_text(json.dumps(doc))
    return str(path)


def _assert_same_bytes(out, name, tmp_path, write_reference, obj):
    ref = tmp_path / f"reference_{name}"
    write_reference(obj, ref)
    assert (out / name).read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("kind", ["mfc", "mfg"])
def test_riccati_csv_bytes(tmp_path, monkeypatch, coupled_2x2, kind):
    from masterlq import riccati
    sols = _spy(monkeypatch, riccati, f"solve_{kind}")
    code, out = run(tmp_path, "riccati", "--model", _model_file(tmp_path, coupled_2x2),
                    "--kind", kind, "--steps", "300")
    assert code == 0
    _assert_same_bytes(out, f"riccati_{kind}.csv", tmp_path, _reference_riccati_csv, sols[0])


def test_trajectory_csv_bytes(tmp_path, monkeypatch, coupled_2x2):
    from masterlq import mkv_simulator
    trajs = _spy(monkeypatch, mkv_simulator, "simulate")
    # J is compared on one common-noise path, so the check may fail (exit 3);
    # the CSV is written either way
    code, out = run(tmp_path, "simulate", "--model", _model_file(tmp_path, coupled_2x2),
                    "--particles", "300", "--steps", "60", "--seed", "4")
    assert code in (0, 3)
    _assert_same_bytes(out, "trajectory.csv", tmp_path, _reference_trajectory_csv, trajs[0])


def test_hjbfp_fields_csv_bytes(tmp_path, monkeypatch):
    from masterlq import hjbfp_1d
    solves = _spy(monkeypatch, hjbfp_1d, "picard_solve")
    code, out = run(tmp_path, "hjbfp", "--model", COSINE, "--grid=-3,3,40,50",
                    "--m0-mean", "0", "--m0-std", "0.7")
    assert code == 0
    _assert_same_bytes(out, "hjbfp_fields.csv", tmp_path, _reference_slices_csv, solves[0])


def test_hjbfp_fields_csv_writes_each_node_once(tmp_path):
    # at Nt = 2 the five evenly spaced slices round to nodes 0, 0, 1, 1, 2
    code, out = run(tmp_path, "hjbfp", "--model", COSINE, "--grid=-3,3,16,2",
                    "--m0-mean", "0", "--m0-std", "0.7")
    assert code == 0
    with open(out / "hjbfp_fields.csv", newline="") as fh:
        times = [row[0] for row in csv.reader(fh)][1:]
    assert times == [t for t in ("0.0", "0.25", "0.5") for _ in range(16)]
