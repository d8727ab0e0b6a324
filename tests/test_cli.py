"""Command-line interface: exit codes, artifacts, determinism."""
from __future__ import annotations

import csv
import json
import os

import numpy as np
import pytest

from masterlq.cli import main

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


@pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0])
def test_riccati_bad_horizon_exit_1(tmp_path, capsys, T):
    bad = tmp_path / "badT.json"
    bad.write_text(json.dumps({"n": 1, "d": 1, "T": T, "B": 1.0, "Q": 1.0, "R": 1.0}))
    code, out = run(tmp_path, "riccati", "--model", str(bad))
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "horizon T must be finite and positive" in err[0]
    assert not (out / "riccati_mfc.json").exists()


def test_riccati_malformed_json_exit_1(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _ = run(tmp_path, "riccati", "--model", str(bad))
    assert code == 1


def test_riccati_missing_model_exit_1(tmp_path):
    code, _ = run(tmp_path, "riccati", "--model", str(tmp_path / "nope.json"))
    assert code == 1


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


def test_simulate_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    argv = ["simulate", "--model", COUPLED, "--particles", "2000",
            "--steps", "200", "--seed", "7"]
    assert main(argv + [f"--out={a}"]) == 0
    assert main(argv + [f"--out={b}"]) == 0
    for name in ("simulate.json", "trajectory.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_zero_particles_exit_1(tmp_path):
    code, _ = run(tmp_path, "simulate", "--model", COUPLED, "--particles", "0")
    assert code == 1


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_simulate_no_steps_exit_1(tmp_path, capsys, steps):
    code, out = run(tmp_path, "simulate", "--model", COUPLED, "--particles", "100",
                    "--steps", steps)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: need at least one particle and one time step"]
    assert not (out / "simulate.json").exists()


# ---------------------------------------------------------------------------
# verify

def test_verify_lift_suite(tmp_path, capsys):
    code, out = run(tmp_path, "verify", "--suite", "lift", "--seed", "1")
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines and all(l.startswith("[PASS]") for l in lines)
    rep = json.loads((out / "verify_lift.json").read_text())
    assert rep["pass"] is True


def test_verify_master_suite(tmp_path):
    code, out = run(tmp_path, "verify", "--suite", "master",
                    "--model", COUPLED, "--steps", "2000")
    assert code == 0
    rep = json.loads((out / "verify_master.json").read_text())
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
    rep = json.loads((out / "verify_master.json").read_text())
    flagged = [r for r in rep["reports"] if r.get("expected_asymmetry")]
    assert flagged and all(r["symmetry_violation"] > 1e-6 for r in flagged)


def test_verify_mp_suite(tmp_path):
    code, out = run(tmp_path, "verify", "--suite", "mp", "--model", COUPLED,
                    "--steps", "500", "--particles", "500")
    assert code == 0
    rep = json.loads((out / "verify_mp.json").read_text())
    assert rep["reports"][0]["terminal_gap"] <= 1e-8


def test_verify_optimality_suite(tmp_path):
    code, out = run(tmp_path, "verify", "--suite", "optimality",
                    "--model", COUPLED, "--steps", "400",
                    "--particles", "4000", "--seed", "2")
    assert code == 0
    rep = json.loads((out / "verify_optimality.json").read_text())
    assert all(g >= 0 for g in rep["reports"][0]["gaps"].values())


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


def test_hjbfp_non_finite_exit_2(tmp_path, monkeypatch):
    import dataclasses
    import masterlq.hjbfp_1d as hj
    orig = hj.cosine_demo
    monkeypatch.setattr(hj, "cosine_demo", lambda **kw: dataclasses.replace(
        orig(**kw), hamiltonian=lambda x, y, q: np.full_like(x, np.nan)))
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
@pytest.mark.parametrize("command", ["hjbfp", "riccati"])
def test_lq_non_finite_field_exit_1(tmp_path, capsys, command, field, value):
    model = tmp_path / "crowd_bad.json"
    model.write_text(json.dumps({**json.loads(open(CROWD).read()), field: value}))
    code, out = run(tmp_path, command, "--model", str(model), "--grid=-4,4,40,50",
                    "--steps", "50")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid model: ")
    assert f"{field} " in err[0] and "finite" in err[0]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("grid", ["-3,3,40", "-3,3,forty,50", "-3,3,40,50,7", "-3,3,40.5,50"])
def test_hjbfp_malformed_grid_exit_1(tmp_path, capsys, grid):
    code, out = run(tmp_path, "hjbfp", "--model", COSINE, f"--grid={grid}")
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --grid expects xmin,xmax,Nx,Nt (got {grid!r})"]
    assert not (out / "hjbfp.json").exists()


def test_hjbfp_nonconvergence_exit_3(tmp_path, monkeypatch):
    import masterlq.hjbfp_1d as hj
    orig = hj.picard_solve
    monkeypatch.setattr(hj, "picard_solve",
                        lambda *a, **kw: orig(*a, **{**kw, "max_iter": 1}))
    code, out = run(tmp_path, "hjbfp", "--model", CROWD, "--kind", "mfg",
                    "--grid=-4,4,100,1000")
    assert code == 3
    rep = json.loads((out / "hjbfp.json").read_text())
    assert rep["converged"] is False and len(rep["history"]) == 1


# ---------------------------------------------------------------------------
# environment / manifest

def test_threads_env_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("MASTERLQ_THREADS", "zero")
    code, _ = run(tmp_path, "riccati", "--model", LQR)
    assert code == 1


def test_threads_env_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("MASTERLQ_THREADS", "4")
    code, _ = run(tmp_path, "riccati", "--model", LQR)
    assert code == 0


def test_manifest_in_every_report(tmp_path):
    code, out = run(tmp_path, "riccati", "--model", LQR)
    assert code == 0
    rep = json.loads((out / "riccati_mfc.json").read_text())
    man = rep["manifest"]
    for key in ("command", "model", "seed", "steps", "particles",
                "grid", "kind", "tolerances"):
        assert key in man
    assert "out" not in man
