"""Output checks for every benchmark operation.

Each check reads the artifacts an operation wrote and compares them with
values computed here from the model file alone: Riccati solutions from the
linear Hamiltonian system (exact up to roundoff on any grid), the tanh
closed form, a value function built from those solutions by Gauss-Legendre
quadrature, and density mass.  Nothing here calls masterlq, so a check
shares no code with the solve it checks.  Where no closed form exists
(maximum principle, optimality gap, lift identities) the check gates on the
artifact's own pass field and recorded residuals.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.linalg import expm

CLOSED_FORM_REL = 1e-8      # RK4 at K >= 1000 on T = 1 is accurate to ~1e-12
VALUE_ABS = 1e-6            # V from K = 1000 RK4 against the closed form
MASTER_RESIDUAL = 1e-6      # gate of `verify --suite master`
MP_TERMINAL_GAP = 1e-8      # gate of `verify --suite mp`
PDE_DIFF = 1e-2             # HJB-FP against the Riccati-built reference
MASS_ABS = 1e-9             # every density slice has unit mass
COST_DT_CONST = 10.0        # |J - V| <= 3 stderr + 10 dt


def load_matrices(path: str) -> dict:
    """Model file as float arrays; missing matrices are zero, as the CLI reads them."""
    with open(path) as fh:
        doc = json.load(fh)
    n, d = int(doc["n"]), int(doc["d"])

    def mat(key, shape):
        return np.asarray(doc.get(key, np.zeros(shape)), dtype=float).reshape(shape)

    m = {k: mat(k, (n, n)) for k in ("A", "Abar", "Q", "Qbar", "S", "QT", "QbarT", "ST")}
    m["B"], m["R"] = mat("B", (n, d)), mat("R", (d, d))
    m.update(n=n, T=float(doc["T"]), sigma=float(doc.get("sigma", 0.0)),
             beta=float(doc.get("beta", 0.0)))
    return m


def _riccati_flow(M1, M2, K, C, terminal, tau):
    """Pi(T - tau) for Pi' + Pi M1 + M2 Pi - Pi K Pi + C = 0, Pi(T) = terminal.

    [X; Y]' = [[M1, -K], [-C, -M2]] [X; Y] with X(T) = I, Y(T) = terminal
    gives Pi = Y X^-1 (Radon's lemma), so one matrix exponential is exact.
    """
    n = len(terminal)
    H = np.block([[M1, -K], [-C, -M2]])
    XY = expm(-tau * H) @ np.vstack([np.eye(n), terminal])
    return np.linalg.solve(XY[:n].T, XY[n:].T).T


def closed_form(m: dict, kind: str, t: float):
    """(P(t), Pi(t)) with Pi = P + Sigma, for kind "mfc" or "mfg".

    Pi solves a constant-coefficient Riccati equation of its own:
    MFC drift A + Abar and cost Q + (I - S)* Qbar (I - S); MFG the
    nonsymmetric Pi' + Pi (A + Abar) + A* Pi - Pi BRB Pi + Q + Qbar - Qbar S = 0.
    """
    eye = np.eye(m["n"])
    A, Ab, Q, Qb, S = m["A"], m["Abar"], m["Q"], m["Qbar"], m["S"]
    QT, QbT, ST = m["QT"], m["QbarT"], m["ST"]
    K = m["B"] @ np.linalg.solve(m["R"], m["B"].T)
    tau = m["T"] - t
    P = _riccati_flow(A, A.T, K, Q + Qb, QT + QbT, tau)
    if kind == "mfc":
        Pi = _riccati_flow(A + Ab, (A + Ab).T, K, Q + (eye - S).T @ Qb @ (eye - S),
                           QT + (eye - ST).T @ QbT @ (eye - ST), tau)
    else:
        Pi = _riccati_flow(A + Ab, A.T, K, Q + Qb - Qb @ S, QT + QbT - QbT @ ST, tau)
    return P, Pi


def bounded_on_horizon(m: dict, limit: float = 1e3, nodes: int = 11) -> bool:
    """True if P and both Pi stay finite and below `limit` on [0, T]."""
    for t in np.linspace(0.0, m["T"], nodes):
        for kind in ("mfc", "mfg"):
            P, Pi = closed_form(m, kind, t)
            if not (np.all(np.isfinite(Pi)) and max(np.abs(P).max(), np.abs(Pi).max()) < limit):
                return False
    return True


def mfc_value(m: dict, m2: float, ybar: float) -> float:
    """V(X0, 0) = 1/2 E x P x + 1/2 ybar Sigma ybar + lambda(0) for n = 1.

    lambda(0) = int_0^T [sigma^2/2 P + beta^2/2 (P + Sigma)] dt by 32-node
    Gauss-Legendre on the closed-form solution.
    """
    P0, Pi0 = closed_form(m, "mfc", 0.0)
    z, w = np.polynomial.legendre.leggauss(32)
    lam = 0.0
    for zi, wi in zip(z, w):
        P, Pi = closed_form(m, "mfc", 0.5 * m["T"] * (zi + 1.0))
        lam += 0.5 * m["T"] * wi * (0.5 * m["sigma"] ** 2 * P[0, 0]
                                    + 0.5 * m["beta"] ** 2 * Pi[0, 0])
    return 0.5 * P0[0, 0] * m2 + 0.5 * (Pi0 - P0)[0, 0] * ybar ** 2 + lam


def digest(out: str) -> dict:
    """SHA-256 of every artifact an operation wrote."""
    result = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def _json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _rows(out, name):
    with open(os.path.join(out, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def check(oracle: str, argv: tuple, rc, out: str) -> tuple[str, dict]:
    """Check one operation.  Returns (failure reason or "", accuracy values)."""
    try:
        return _CHECKS[oracle](argv, rc, out)
    except (OSError, KeyError, ValueError, IndexError, json.JSONDecodeError) as exc:
        return f"artifact unreadable: {exc!r}", {}


def _check_riccati(argv, rc, out, tanh=False):
    if rc != 0:
        return f"exit code {rc}", {}
    kind = _arg(argv, "--kind")
    summary = _json(out, f"riccati_{kind}.json")
    m = load_matrices(_arg(argv, "--model"))
    P_ref, Pi_ref = closed_form(m, kind, 0.0)
    P0, Sig0 = np.asarray(summary["P0"]), np.asarray(summary["Sigma0"])
    scale = max(1.0, np.abs(P_ref).max(), np.abs(Pi_ref).max())
    err = max(np.abs(P0 - P_ref).max(), np.abs(P0 + Sig0 - Pi_ref).max()) / scale
    values = {"riccati_closed_form_err": float(err)}
    if err > CLOSED_FORM_REL:
        return f"P(0), Sigma(0) off the closed form by {err:.3e}", values
    if tanh:
        rows = _rows(out, f"riccati_{kind}.csv")
        tanh_err = max(abs(float(r["P_00"]) - math.tanh(1.0 - float(r["t"]))) for r in rows)
        values["riccati_tanh_err"] = tanh_err
        if tanh_err > CLOSED_FORM_REL:
            return f"max |P - tanh(1 - t)| = {tanh_err:.3e}", values
    return "", values


def _check_master(argv, rc, out):
    payload = _json(out, "verify_master.json")
    residuals = [r["residual_norm"] for r in payload["reports"]
                 if r["check"].startswith("master")]
    values = {"master_residual_max": float(max(residuals))}
    if rc != 0 or not payload["pass"]:
        return f"exit code {rc}, pass = {payload['pass']}", values
    if values["master_residual_max"] > MASTER_RESIDUAL:
        return f"master residual {values['master_residual_max']:.3e}", values
    return "", values


def _check_pass(name):
    def check_suite(argv, rc, out):
        payload = _json(out, f"verify_{name}.json")
        if rc != 0 or not payload["pass"] or not all(r["pass"] for r in payload["reports"]):
            return f"exit code {rc}, pass = {payload['pass']}", {}
        if name == "mp" and payload["reports"][0]["terminal_gap"] > MP_TERMINAL_GAP:
            return f"terminal co-state gap {payload['reports'][0]['terminal_gap']:.3e}", {}
        return "", {}
    return check_suite


def _check_simulate(argv, rc, out):
    summary = _json(out, "simulate.json")
    first = _rows(out, "trajectory.csv")[0]
    m = load_matrices(_arg(argv, "--model"))
    V = mfc_value(m, float(first["m2_0"]), float(first["ybar_0"]))
    J, se = summary["J_hat"], summary["stderr"]
    gap = abs(J - V)
    tol = 3.0 * se + COST_DT_CONST * m["T"] / summary["manifest"]["steps"]
    values = {"cost_gap_se": gap / se} if m["beta"] == 0.0 else {}
    if abs(summary["V_reference"] - V) > VALUE_ABS:
        return f"V_reference {summary['V_reference']!r} vs closed form {V!r}", values
    if gap > tol:
        return f"|J - V| = {gap:.4g} > {tol:.4g}, exit code {rc}", values
    if rc != 0:
        return f"exit code {rc} although |J - V| is within tolerance", values
    return "", values


def _density_mass_error(out) -> float:
    slices = {}
    for r in _rows(out, "hjbfp_fields.csv"):
        slices.setdefault(r["t"], []).append((float(r["x"]), float(r["m"])))
    worst = 0.0
    for pts in slices.values():
        x = np.array([p[0] for p in pts])
        dens = np.array([p[1] for p in pts])
        if dens.min() < 0.0:
            return math.inf
        worst = max(worst, abs(dens.sum() * (x[-1] - x[0]) / (len(x) - 1) - 1.0))
    return worst


def _check_hjbfp(argv, rc, out, lq=True):
    payload = _json(out, "hjbfp.json")
    if rc != 0 or not payload["converged"]:
        return f"exit code {rc}, converged = {payload.get('converged')}", {}
    mass_err = _density_mass_error(out)
    if mass_err > MASS_ABS:
        return f"density mass off by {mass_err:.3e}", {}
    if not lq:
        return "", {}
    cv = payload["cross_validation"]
    values = {"pde_sup_diff": cv["sup_diff"], "pde_mean_flow_diff": cv["mean_flow_diff"]}
    if max(values.values()) > PDE_DIFF:
        return f"cross-validation {values}", values
    return "", values


_CHECKS = {
    "riccati": _check_riccati,
    "riccati_tanh": lambda a, rc, o: _check_riccati(a, rc, o, tanh=True),
    "master": _check_master,
    "lift": _check_pass("lift"),
    "optimality": _check_pass("optimality"),
    "mp": _check_pass("mp"),
    "simulate": _check_simulate,
    "hjbfp_lq": _check_hjbfp,
    "hjbfp_demo": lambda a, rc, o: _check_hjbfp(a, rc, o, lq=False),
}
