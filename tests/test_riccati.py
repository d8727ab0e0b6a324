"""Backward Riccati systems: closed forms, terminals, order, blow-up."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import schur, solve_continuous_are, solve_continuous_lyapunov

from masterlq import lq_model, riccati
from masterlq.riccati import (RiccatiBlowUp, TimeGrid, check_symmetry_conditions,
                              eval_at, solve_mfc, solve_mfg, to_csv)
from masterlq.lq_model import scalar_model

from conftest import make_asymmetric_2x2, make_coupled_2x2


# ---------------------------------------------------------------------------
# RK4 on scalar_lqr, where P' = P^2 - 1 and P(1) = 0 give P(t) = tanh(1 - t)

def test_rk4_zero_rhs_constant(scalar_lqr):
    # P(T) = 1 is a rest point of P' = P^2 - 1: every stage is exactly zero
    sol = solve_mfc(dataclasses.replace(scalar_lqr, QT=1.0), TimeGrid(1.0, 10))
    assert np.all(sol.P == 1.0) and np.all(sol.dP == 0.0)


def test_rk4_tanh_closed_form(scalar_lqr):
    sol = solve_mfc(scalar_lqr, TimeGrid(1.0, 1000))
    assert abs(sol.P[0, 0, 0] - np.tanh(1.0)) < 1e-10


def test_rk4_fourth_order_on_tanh(scalar_lqr):
    errs = []
    for K in (50, 100, 200):
        sol = solve_mfc(scalar_lqr, TimeGrid(1.0, K))
        errs.append(np.max(np.abs(sol.P[:, 0, 0] - np.tanh(1 - sol.grid.nodes()))))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert 3.8 <= order1 <= 4.2
    assert 3.8 <= order2 <= 4.2


# ---------------------------------------------------------------------------
# solve_mfc

def test_mfc_tanh_closed_form(scalar_lqr, sol_lqr):
    t = sol_lqr.grid.nodes()
    assert np.max(np.abs(sol_lqr.P[:, 0, 0] - np.tanh(1 - t))) <= 1e-8
    assert np.max(np.abs(sol_lqr.Sigma)) == 0.0
    assert np.max(np.abs(sol_lqr.lam)) == 0.0      # sigma = beta = 0


def test_mfc_lambda_closed_form(scalar_lqr_sigma1):
    sol = solve_mfc(scalar_lqr_sigma1, TimeGrid(1.0, 1000))
    # lambda(0) = 1/2 * int_0^1 tanh(1-s) ds = 1/2 ln cosh 1
    assert sol.lam[0] == pytest.approx(0.5 * np.log(np.cosh(1.0)), abs=1e-10)


def test_mfc_zero_model_is_fixed_point():
    m = scalar_model(R=1.0, sigma=1.0, beta=1.0)
    sol = solve_mfc(m, TimeGrid(1.0, 100))
    assert np.all(sol.P == 0) and np.all(sol.Sigma == 0) and np.all(sol.lam == 0)


def test_mfc_terminal_conditions_exact(scalar_coupled, sol_coupled_mfc):
    m = scalar_coupled
    PT = m.QT + m.QbarT
    SigT = m.ST.T @ m.QbarT @ m.ST - (m.ST.T @ m.QbarT + m.QbarT @ m.ST)
    assert np.array_equal(sol_coupled_mfc.P[-1], PT)
    assert np.array_equal(sol_coupled_mfc.Sigma[-1], SigT)
    assert sol_coupled_mfc.lam[-1] == 0.0


def test_mfc_sigma_symmetric_all_nodes(coupled_2x2):
    sol = solve_mfc(coupled_2x2, TimeGrid(1.0, 500))
    asym = np.max(np.abs(sol.Sigma - np.swapaxes(sol.Sigma, 1, 2)))
    assert asym <= 1e-9


def test_mfc_p_symmetric_exactly(coupled_2x2):
    sol = solve_mfc(coupled_2x2, TimeGrid(1.0, 500))
    assert np.max(np.abs(sol.P - np.swapaxes(sol.P, 1, 2))) == 0.0


def test_mfc_p_psd_for_convex_model():
    m = lq_model.LQModelSpec(
        n=2, d=2, T=2.0,
        A=np.array([[0.1, 0.3], [-0.2, 0.0]]), Abar=np.zeros((2, 2)),
        B=np.eye(2), Q=np.eye(2), Qbar=0.5 * np.eye(2), S=np.zeros((2, 2)),
        R=np.eye(2), QT=np.eye(2), QbarT=np.eye(2), ST=np.zeros((2, 2)),
        sigma=0.2, beta=0.1, convex=True)
    sol = solve_mfc(m, TimeGrid(2.0, 800))
    for P in sol.P:
        assert np.linalg.eigvalsh(P).min() >= -1e-9


def test_mfc_blowup_detected():
    # nonconvex cost: backward dP/ds = -(P^2 + 4) escapes at s = pi/4 < T
    m = scalar_model(B=1.0, R=1.0, Q=-4.0, T=1.0)
    with pytest.raises(RiccatiBlowUp) as exc:
        solve_mfc(m, TimeGrid(1.0, 4000))
    escape = exc.value.escape_time
    assert abs((1.0 - escape) - np.pi / 4.0) < 0.05


# ---------------------------------------------------------------------------
# solve_mfg

def test_mfg_matches_mfc_without_coupling(scalar_lqr):
    g = TimeGrid(1.0, 500)
    a = solve_mfc(scalar_lqr, g)
    b = solve_mfg(scalar_lqr, g)
    assert np.allclose(a.P, b.P, atol=0)
    assert np.all(b.Sigma == 0) and np.all(b.Gamma == 0)


def test_mfg_eikonal_closed_form():
    # sigma=beta=0, Q=Qbar=0, A=Abar=0, B=R=1, Q_T=1: P(t) = 1/(2-t)
    m = scalar_model(B=1.0, R=1.0, QT=1.0, T=1.0)
    sol = solve_mfg(m, TimeGrid(1.0, 1000))
    t = sol.grid.nodes()
    assert np.max(np.abs(sol.P[:, 0, 0] - 1.0 / (2.0 - t))) < 1e-9


def test_mfg_terminal_conditions_exact(scalar_coupled, sol_coupled_mfg):
    m = scalar_coupled
    assert np.array_equal(sol_coupled_mfg.P[-1], m.QT + m.QbarT)
    assert np.array_equal(sol_coupled_mfg.Sigma[-1], -m.QbarT @ m.ST)
    assert np.array_equal(sol_coupled_mfg.Gamma[-1], m.ST.T @ m.QbarT @ m.ST)
    assert sol_coupled_mfg.mu[-1] == 0.0


def test_mfg_and_mfc_sigma_differ_when_coupled():
    m = scalar_model(A=0.0, Abar=1.0, B=1.0, Q=1.0, Qbar=1.0, S=1.0, R=1.0, T=1.0)
    g = TimeGrid(1.0, 1000)
    a, b = solve_mfc(m, g), solve_mfg(m, g)
    assert np.max(np.abs(a.Sigma - b.Sigma)) > 1e-6


def test_mu_lambda_vanish_without_noise(scalar_coupled):
    m = lq_model.scalar_model(A=0.2, Abar=0.3, B=1.0, Q=1.0, Qbar=0.5,
                              S=0.4, R=1.0, QT=0.5, QbarT=0.3, ST=0.2, T=1.0)
    g = TimeGrid(1.0, 200)
    assert np.all(solve_mfc(m, g).lam == 0)
    assert np.all(solve_mfg(m, g).mu == 0)


# ---------------------------------------------------------------------------
# symmetry diagnosis

def test_symmetry_conditions_trivially_satisfied():
    m = scalar_model(Q=1.0, R=1.0, Qbar=1.0)
    d = check_symmetry_conditions(m)
    assert d["self_adjoint_possible"]


def test_symmetry_conditions_2x2_obstruction(asymmetric_2x2):
    d = check_symmetry_conditions(asymmetric_2x2)
    assert not d["running_commutes"]
    assert not d["terminal_commutes"]
    assert not d["self_adjoint_possible"]


def test_symmetry_conditions_abar_nonzero():
    m = scalar_model(Abar=1.0, Q=1.0, R=1.0)
    assert not check_symmetry_conditions(m)["self_adjoint_possible"]


def test_mfg_sigma_asymmetry_on_obstructed_model(asymmetric_2x2):
    sol = solve_mfg(asymmetric_2x2, TimeGrid(1.0, 1000))
    asym = np.max(np.abs(sol.Sigma - np.swapaxes(sol.Sigma, 1, 2)))
    assert asym > 1e-6


def _mean_flow_cost(model, y0):
    """Oracle for 1/2 y0*Gamma(0) y0 + mu(0) at sigma = beta = 0, by scipy
    alone: P and Sigma backward from T, then the equilibrium mean flow
    y' = (A + Abar - BRB (P + Sigma)) y forward from y0, accumulating the
    y-y part of the agent's running cost, 1/2 y*S*Qbar S y + (Sigma y)*Abar y
    - 1/2 (Sigma y)*BRB (Sigma y), and adding the terminal 1/2 y*ST*QbarT ST y."""
    n, T = model.n, model.T
    A, Abar, Q, Qbar, S, BRB = model.A, model.Abar, model.Q, model.Qbar, model.S, model.BRB()

    def backward(t, v):
        P, Sig = v[:n * n].reshape(n, n), v[n * n:].reshape(n, n)
        M = A + Abar - BRB @ P
        dP = -(P @ A + A.T @ P - P @ BRB @ P + Q + Qbar)
        dSig = -(Sig @ M + (A.T - P @ BRB) @ Sig - Sig @ BRB @ Sig - Qbar @ S + P @ Abar)
        return np.concatenate([dP.ravel(), dSig.ravel()])

    end = np.concatenate([(model.QT + model.QbarT).ravel(), (-model.QbarT @ model.ST).ravel()])
    ps = solve_ivp(backward, (T, 0.0), end, method="DOP853", rtol=1e-12, atol=1e-14,
                   dense_output=True).sol

    def forward(t, v):
        PS = ps(t)
        P, Sig = PS[:n * n].reshape(n, n), PS[n * n:].reshape(n, n)
        y = v[:n]
        Sy = Sig @ y
        run = 0.5 * y @ S.T @ Qbar @ S @ y + Sy @ Abar @ y - 0.5 * Sy @ BRB @ Sy
        return np.concatenate([(A + Abar - BRB @ (P + Sig)) @ y, [run]])

    v = solve_ivp(forward, (0.0, T), np.concatenate([y0, [0.0]]), method="DOP853",
                  rtol=1e-12, atol=1e-14).y[:, -1]
    yT = v[:n]
    return v[n] + 0.5 * yT @ model.ST.T @ model.QbarT @ model.ST @ yT


@pytest.mark.parametrize("name", ["asymmetric_2x2", "coupled_2x2", "seeded_n8"])
def test_mfg_gamma_mu_equal_mean_flow_cost(request, name):
    m = dataclasses.replace(request.getfixturevalue(name), sigma=0.0, beta=0.0)
    sol = solve_mfg(m, TimeGrid(m.T, 4000))
    assert np.max(np.abs(sol.Gamma - np.swapaxes(sol.Gamma, 1, 2))) <= 1e-12
    y0 = np.linspace(1.0, -0.5, m.n)
    ref = _mean_flow_cost(m, y0)
    got = 0.5 * y0 @ sol.Gamma[0] @ y0 + sol.mu[0]
    assert abs(got - ref) <= 1e-8 * abs(ref)


def _stationary(model):
    """The algebraic Riccati solutions that P and the MFC Pi = P + Sigma tend
    to far from T, by scipy's Schur method: P from (A, B, Q + Qbar, R), Pi
    from (A + Abar, B, Q + (I - S)* Qbar (I - S), R)."""
    I = np.eye(model.n)
    P = solve_continuous_are(model.A, model.B, model.Q + model.Qbar, model.R)
    Pi = solve_continuous_are(model.A + model.Abar, model.B,
                              model.Q + (I - model.S).T @ model.Qbar @ (I - model.S), model.R)
    return P, Pi


def _stationary_mfg(model, P):
    """The stationary MFG Sigma and Gamma from P, the stationary P.  Psi =
    P + Sigma solves the non-symmetric algebraic Riccati equation
    Psi (A + Abar) + A* Psi - Psi BRB Psi + Q + Qbar - Qbar S = 0, whose
    solution with N = A + Abar - BRB Psi stable spans the stable invariant
    subspace of H = [[A + Abar, -BRB], [-(Q + Qbar - Qbar S), -A*]]
    (ordered real Schur form); then Gamma solves the Lyapunov equation
    N* Gamma + Gamma N + C = 0, C = S*Qbar S - Sigma* BRB Sigma
    + Sigma* Abar + Abar* Sigma."""
    n, A, Abar, Qbar, S, BRB = model.n, model.A, model.Abar, model.Qbar, model.S, model.BRB()
    H = np.block([[A + Abar, -BRB], [-(model.Q + Qbar - Qbar @ S), -A.T]])
    U = schur(H, sort="lhp")[1][:, :n]
    Psi = np.linalg.solve(U[:n].T, U[n:].T).T
    Sig = Psi - P
    N = A + Abar - BRB @ Psi
    C = S.T @ Qbar @ S - Sig.T @ BRB @ Sig + Sig.T @ Abar + Abar.T @ Sig
    return Sig, solve_continuous_lyapunov(N.T, -C)


@pytest.mark.parametrize("name", ["scalar_coupled", "coupled_2x2", "asymmetric_2x2"])
def test_long_horizon_equals_stationary_riccati(request, name):
    # at T = 20 the gap to the stationary solution, ~ e^{-2 rho T} with rho > 1
    # the slowest closed-loop decay rate, is below rounding
    m = dataclasses.replace(request.getfixturevalue(name), T=20.0)
    grid = TimeGrid(m.T, 4000)
    mfc, mfg = solve_mfc(m, grid), solve_mfg(m, grid)
    P, Pi = _stationary(m)
    assert np.max(np.abs(mfc.P[0] - P)) <= 1e-12
    assert np.max(np.abs(mfc.P[0] + mfc.Sigma[0] - Pi)) <= 1e-12
    assert np.max(np.abs(mfg.P[0] - P)) <= 1e-12
    Sig, Gam = _stationary_mfg(m, P)
    assert np.max(np.abs(mfg.Sigma[0] - Sig)) <= 1e-12
    assert np.max(np.abs(mfg.Gamma[0] - Gam)) <= 1e-12


# ---------------------------------------------------------------------------
# eval_at / CSV

def test_eval_at_exact_at_nodes(sol_coupled_mfc):
    k = 700
    t = sol_coupled_mfc.grid.nodes()[k]
    ev = eval_at(sol_coupled_mfc, t)
    assert np.array_equal(ev["P"], sol_coupled_mfc.P[k])


def test_eval_at_tanh_interpolation(sol_lqr):
    for t in (0.123456, 0.5, 0.987):
        ev = eval_at(sol_lqr, t)
        assert abs(ev["P"][0, 0] - np.tanh(1 - t)) < 1e-6


def test_eval_at_out_of_range(sol_lqr):
    with pytest.raises(ValueError):
        eval_at(sol_lqr, -0.01)
    with pytest.raises(ValueError):
        eval_at(sol_lqr, 1.01)


def test_csv_round_trip(tmp_path, sol_coupled_mfg):
    path = tmp_path / "sol.csv"
    to_csv(sol_coupled_mfg, str(path))
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(lines) == sol_coupled_mfg.grid.K + 2
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == sol_coupled_mfg.P[0, 0, 0]


# ---------------------------------------------------------------------------
# _write_csv: every cell's repr, whichever digits writer produced it

def _repr_rows(table) -> bytes:
    return "".join(",".join(map(repr, row.tolist())) + "\r\n" for row in table).encode()


def _written(tmp_path, table) -> bytes:
    path = tmp_path / "table.csv"
    riccati._write_csv(str(path), [f"c{j}" for j in range(table.shape[1])], table)
    head, _, rows = path.read_bytes().partition(b"\r\n")
    assert head == ",".join(f"c{j}" for j in range(table.shape[1])).encode()
    return rows


def _bits(patterns) -> np.ndarray:
    return np.asarray(patterns, dtype=np.uint64).view(np.float64)


def test_csv_rows_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(20)
    table = rng.integers(0, 2**64, size=(1001, 97), dtype=np.uint64).view(np.float64)
    special = _bits([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                     0x7FF0000000000001, 0xFFF7FFFFFFFFFFFF,       # NaN payloads
                     0x7FF0000000000000, 0xFFF0000000000000,       # +-inf
                     0x0000000000000000, 0x8000000000000000,       # +-0.0
                     0x0000000000000001, 0x800FFFFFFFFFFFFF,       # subnormals
                     0x000FFFFFFFFFFFFF, 0x0010000000000000,
                     0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF])      # +-max
    table[::7, :special.size] = special
    assert _written(tmp_path, table) == _repr_rows(table)
    assert riccati._csv_rows(table) == _repr_rows(table)     # one block of all rows


def test_csv_rows_powers_of_ten_and_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-300, 301)])
    near = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf),
                           np.nextafter(np.nextafter(p, np.inf), np.inf)])
    table = np.concatenate([near, -near]).reshape(-1, 8)
    assert riccati._csv_rows(table) == _repr_rows(table)


def test_csv_rows_at_the_layout_boundaries():
    edges = []
    for b in (1e-4, 1e16, 1e15, 2.0 ** 53):
        lo, hi = np.nextafter(b, 0.0), np.nextafter(b, np.inf)
        edges += [np.nextafter(lo, 0.0), lo, b, hi, np.nextafter(hi, np.inf),
                  b * 1.5, b * 9.87654321, b / 3.0]
    edges = np.array(edges + [1.2345e-4, 9.999e-5, 1234567890123456.7, 9999999999999998.0])
    table = np.concatenate([edges, -edges]).reshape(2, -1)
    assert riccati._csv_rows(table) == _repr_rows(table)
    # the boundary cells alone, where every cell of a block is written by repr or none is
    for row in table.reshape(-1, 1):
        assert riccati._csv_rows(row[None, :]) == _repr_rows(row[None, :])


def test_write_csv_shapes_and_views(tmp_path):
    rng = np.random.default_rng(21)
    big = rng.standard_normal((41, 30)) * np.logspace(-8, 18, 30)
    big[3, 4], big[5, :] = np.nan, np.inf
    for table in (big[:1], big[:, :1], big[:1, :1], big[::3, 1::4], big.T,
                  np.asfortranarray(big), big[::-1], big[:0]):
        assert _written(tmp_path, table) == _repr_rows(table), table.shape


def test_write_csv_peak_memory_is_one_block(tmp_path):
    # 2001 x 194 is the n = 8 MFG table: about 7.7 MB of text, written a
    # few rows at a time; a whole-table dump would hold all of it at once
    table = np.random.default_rng(22).standard_normal((2001, 194))
    path = str(tmp_path / "n8.csv")
    header = [f"c{j}" for j in range(194)]
    peak = _traced_peak(lambda: riccati._write_csv(path, header, table))
    assert (tmp_path / "n8.csv").stat().st_size > 7_000_000
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# _integrate against the five-call reference formulation

def _ref_mfc_rhs(model):
    A, Abar, Q, Qbar, S = model.A, model.Abar, model.Q, model.Qbar, model.S
    BRB = model.BRB()
    a = model.sigma ** 2
    b2 = model.beta ** 2

    def rhs(t, state):
        P, Sig, _ = state
        M = A + Abar - BRB @ P
        dP = -(P @ A + A.T @ P - P @ BRB @ P + Q + Qbar)
        dSig = -(Sig @ M + M.T @ Sig - Sig @ BRB @ Sig
                 + S.T @ Qbar @ S - Qbar @ S - S.T @ Qbar
                 + P @ Abar + Abar.T @ P)
        dlam = -(0.5 * a * np.trace(P) + 0.5 * b2 * np.trace(P + Sig))
        return dP, dSig, dlam

    return rhs


def _ref_mfg_rhs(model):
    A, Abar, Q, Qbar, S = model.A, model.Abar, model.Q, model.Qbar, model.S
    BRB = model.BRB()
    a = model.sigma ** 2
    b2 = model.beta ** 2

    def rhs(t, state):
        P, Sig, Gam, _ = state
        M = A + Abar - BRB @ P
        N = A + Abar - BRB @ (P + Sig)
        dP = -(P @ A + A.T @ P - P @ BRB @ P + Q + Qbar)
        dSig = -(Sig @ M + (A.T - P @ BRB) @ Sig - Sig @ BRB @ Sig
                 - Qbar @ S + P @ Abar)
        dGam = -(Gam @ N + N.T @ Gam + S.T @ Qbar @ S - Sig.T @ BRB @ Sig
                 + Sig.T @ Abar + Abar.T @ Sig)
        dmu = -(0.5 * (b2 + a) * np.trace(P) + 0.5 * b2 * np.trace(Gam) + b2 * np.trace(Sig))
        return dP, dSig, dGam, dmu

    return rhs


def _ref_axpy(state, direction, scale):
    return tuple(s + scale * d for s, d in zip(state, direction))


def _ref_integrate(rhs, state, grid, symmetrize):
    K, h = grid.K, grid.h
    nodes = [state]
    derivs = [rhs(grid.T, state)]
    t = grid.T
    for k in range(K, 0, -1):
        k1 = rhs(t, state)
        k2 = rhs(t - 0.5 * h, _ref_axpy(state, k1, -0.5 * h))
        k3 = rhs(t - 0.5 * h, _ref_axpy(state, k2, -0.5 * h))
        k4 = rhs(t - h, _ref_axpy(state, k3, -h))
        incr = tuple((c1 + 2.0 * c2 + 2.0 * c3 + c4) for c1, c2, c3, c4 in zip(k1, k2, k3, k4))
        state = _ref_axpy(state, incr, -h / 6.0)
        state = symmetrize(state)
        t -= h
        for comp in state:
            if not np.all(np.isfinite(comp)):
                raise riccati.NumericalFailure(k - 1)
            if np.max(np.abs(comp)) > riccati.BLOWUP_THRESHOLD:
                raise RiccatiBlowUp(t)
        nodes.append(state)
        derivs.append(rhs(t, state))
    nodes.reverse()
    derivs.reverse()
    return nodes, derivs


def _ref_solve(kind, m, grid):
    """Every stored array of the reference solve, by RiccatiSolution field."""
    sym = lambda M: 0.5 * (M + M.T)
    ST, QbT = m.ST, m.QbarT
    if kind == "mfc":
        state = (m.QT + QbT, ST.T @ QbT @ ST - (ST.T @ QbT + QbT @ ST), 0.0)
        names, dnames = ("P", "Sigma", "lam"), ("dP", "dSigma")
        nodes, derivs = _ref_integrate(_ref_mfc_rhs(m), state, grid,
                                       lambda s: (sym(s[0]), sym(s[1]), s[2]))
    else:
        state = (m.QT + QbT, -QbT @ ST, ST.T @ QbT @ ST, 0.0)
        names, dnames = ("P", "Sigma", "Gamma", "mu"), ("dP", "dSigma", "dGamma", "dmu")
        nodes, derivs = _ref_integrate(_ref_mfg_rhs(m), state, grid,
                                       lambda s: (sym(s[0]),) + s[1:])
    out = {name: np.array([s[i] for s in nodes]) for i, name in enumerate(names)}
    out.update({name: np.array([d[i] for d in derivs]) for i, name in enumerate(dnames)})
    return out


def _seeded(n: int, seed: int) -> lq_model.LQModelSpec:
    """n x n, d = 2 model with about a third of its entries zero, half of
    those -0.0, so that products and traces meet signed zeros; beta = 0.3
    at odd seeds, 0 at even ones.  The cost weights are symmetric with
    nonnegative entries, their off-diagonal ones scaled by 0.1, and the
    entries of A, Abar, S and ST are divided by n, so that no solve escapes
    before t = 0.  At n >= 2 and seeds 2 and 3 the drift A, Abar is
    scaled by 1e-160, so that its products with tiny states underflow: the
    one way a BLAS product returns -0.0, and so a sum of them can be -0.0."""
    rng = np.random.default_rng(seed)

    def entry(shape, sign=True):
        a = rng.standard_normal(shape)
        a = a if sign else np.abs(a)
        zero = rng.random(shape) < 0.35
        return np.where(zero, np.copysign(0.0, rng.standard_normal(shape)), a)

    def weight():
        w = entry((n, n), False) * np.where(np.eye(n, dtype=bool), 1.0, 0.1)
        return np.where(np.tri(n, dtype=bool), w, w.T)

    G = rng.standard_normal((2, 2))
    drift = (1e-160 if n > 1 and seed in (2, 3) else 1.0) / n
    return lq_model.LQModelSpec(
        n=n, d=2, T=1.0, A=drift * entry((n, n)), Abar=drift * entry((n, n)), B=entry((n, 2)),
        Q=weight(), Qbar=weight(), S=entry((n, n)) / n, R=G @ G.T + np.eye(2), QT=weight(),
        QbarT=weight(), ST=entry((n, n)) / n, sigma=float(rng.random()), beta=0.3 * (seed % 2))


SEEDED_N1 = [f"seeded_n1_{seed}" for seed in range(8)]
SEEDED = SEEDED_N1 + [f"seeded_n{n}_{seed}" for n in (2, 3) for seed in range(4)]


def _seeded_model(name: str) -> lq_model.LQModelSpec:
    n, seed = name.removeprefix("seeded_n").split("_")
    return _seeded(int(n), int(seed))


def _bits(a) -> np.ndarray:
    """The float64 bit patterns: unlike ==, they tell -0.0 from +0.0."""
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", ["scalar_lqr", "scalar_coupled", "crowd_mfg", "asymmetric_2x2",
                                  "coupled_2x2", "seeded_n8"] + SEEDED)
@pytest.mark.parametrize("kind", ["mfc", "mfg"])
def test_integrate_bitwise_equal_reference(request, kind, name):
    m = _seeded_model(name) if name in SEEDED else request.getfixturevalue(name)
    grid = TimeGrid(m.T, 300)
    sol = (solve_mfc if kind == "mfc" else solve_mfg)(m, grid)
    ref = _ref_solve(kind, m, grid)
    for field, arr in ref.items():
        assert np.array_equal(_bits(getattr(sol, field)), _bits(arr)), field
    if kind == "mfg" and name == "asymmetric_2x2":
        assert np.max(np.abs(sol.Sigma - np.swapaxes(sol.Sigma, 1, 2))) > 1e-6


@pytest.mark.parametrize("name", SEEDED)
@pytest.mark.parametrize("kind", ["mfc", "mfg"])
def test_scalar_rhs_bitwise_equal_numpy(kind, name):
    # the binding against the numpy reference on states whose entries are
    # often +0.0 or -0.0: at n = 1 a bare a * b, or a trace without its
    # + 0.0, changes the sign of a zero; at n >= 2 a term summed out of
    # order changes the rounding, and half of the states are tiny, so
    # that with the tiny drift of seeds 2 and 3 the products underflow to
    # signed zeros and a sum that does not start from -0.0, or pads with
    # +0.0, changes the sign of a zero
    m = _seeded_model(name)
    k = 2 if kind == "mfc" else 3
    L = k * m.n * m.n + 1
    ref_rhs = (_ref_mfc_rhs if kind == "mfc" else _ref_mfg_rhs)(m)
    y, out = np.empty(L), np.empty(L)
    rhs = getattr(riccati, f"_{kind}_rhs")(m)(y, out)
    rng = np.random.default_rng(5)
    for i in range(200):
        y[:] = rng.choice([-0.0, 0.0, 1.0], L) * rng.standard_normal(L)
        y *= 1e-170 if m.n > 1 and i % 2 else 1.0
        rhs(0.5)
        ref = ref_rhs(0.5, [b.reshape(m.n, m.n) for b in y[:-1].reshape(k, -1)] + [y[-1]])
        assert np.array_equal(_bits(out), _bits(np.hstack([np.ravel(r) for r in ref]))), y


def test_bind_plan_bitwise_equal_direct_evaluation():
    # a body unlike the two systems: a sum that starts from a constant with
    # -0.0 entries, a product that is a term three times, a state block and
    # a transposed one as terms, and a trace of an intermediate matrix.  The
    # plan must give the bits of the same body evaluated on the arrays.
    mm, tp, tr = riccati._algebra(2)
    C = np.array([[-0.0, 1.5], [0.0, -0.0]])

    def terms(X, Y):
        XY = mm(X, Y)
        return C - XY + X, XY - tp(Y) + C - XY + XY, 0.5 * tr(X + Y) - tr(Y)

    y, out = np.empty(9), np.empty(9)
    rhs = riccati._bind(terms, 2, 2)(y, out)
    rng = np.random.default_rng(7)
    for _ in range(200):
        y[:] = rng.choice([-0.0, 0.0, 1.0], 9) * rng.standard_normal(9)
        rhs(0.5)
        ref = terms(y[:4].reshape(2, 2), y[4:8].reshape(2, 2))
        assert np.array_equal(_bits(out), _bits(np.hstack([-np.ravel(r) for r in ref]))), y


def test_rhs_allocates_no_array_after_first_call(seeded_n8):
    # the n >= 2 plan writes every product and sum into arrays made when it
    # was built: over 100 calls the traced peak stays below 2 kB, about
    # what numpy's reductions take for their iterators; a body that makes
    # its 512-byte temporaries at each call peaks near 5.5 kB
    L = 3 * 64 + 1
    y, out = np.random.default_rng(6).standard_normal(L), np.empty(L)
    rhs = riccati._mfg_rhs(seeded_n8)(y, out)
    rhs(0.5)

    def calls():
        for _ in range(100):
            rhs(0.5)
    assert _traced_peak(calls) < 2048


@pytest.mark.parametrize("kind, name", [("mfc", "coupled_2x2"), ("mfg", "coupled_2x2"),
                                        ("mfc", "scalar_coupled"), ("mfg", "scalar_coupled")],
                         ids=["mfc", "mfg", "mfc-scalar_coupled", "mfg-scalar_coupled"])
def test_integrate_rhs_calls_per_solve(request, monkeypatch, kind, name):
    calls = []

    def counting(factory):
        def counting_factory(model):
            make_rhs = factory(model)

            def make(y, out):
                rhs = make_rhs(y, out)

                def counted(t):
                    calls.append(t)
                    rhs(t)
                return counted
            return make
        return counting_factory

    factory = f"_{kind}_rhs"
    monkeypatch.setattr(riccati, factory, counting(getattr(riccati, factory)))
    K = 37
    (solve_mfc if kind == "mfc" else solve_mfg)(request.getfixturevalue(name), TimeGrid(1.0, K))
    assert len(calls) == 4 * K + 1


@pytest.mark.parametrize("kind", ["mfc", "mfg"])
def test_blowup_escape_time_equals_reference(kind):
    m = scalar_model(B=1.0, R=1.0, Q=-4.0, T=1.0)
    grid = TimeGrid(1.0, 4000)
    with pytest.raises(RiccatiBlowUp) as new:
        (solve_mfc if kind == "mfc" else solve_mfg)(m, grid)
    with pytest.raises(RiccatiBlowUp) as ref:
        _ref_solve(kind, m, grid)
    assert new.value.escape_time == ref.value.escape_time


@pytest.mark.parametrize("bad", [{"Q": np.nan}, {"QT": np.inf}, {"sigma": np.nan}],
                         ids=["Q_nan", "QT_inf", "sigma_nan"])
@pytest.mark.parametrize("kind", ["mfc", "mfg"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_node_equals_reference(kind, bad):
    m = scalar_model(**{"B": 1.0, "R": 1.0, "Q": 1.0, "beta": 0.3, "T": 1.0, **bad})
    grid = TimeGrid(1.0, 50)
    with pytest.raises(riccati.NumericalFailure) as new:
        (solve_mfc if kind == "mfc" else solve_mfg)(m, grid)
    with pytest.raises(riccati.NumericalFailure) as ref:
        _ref_solve(kind, m, grid)
    assert new.value.node == ref.value.node


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_peak_memory_at_most_reference(seeded_n8, scalar_coupled):
    # the packed solve holds two (K+1, L) arrays, no per-node tuples; at
    # n = 1 the float loop writes each node into them and keeps no lists
    grid = TimeGrid(1.0, 2000)
    for m in (seeded_n8, scalar_coupled):
        new = _traced_peak(lambda: solve_mfg(m, grid))
        ref = _traced_peak(lambda: _ref_solve("mfg", m, grid))
        assert new <= ref, (m.n, new, ref)


# ---------------------------------------------------------------------------
# the packed vector's one abs-max keeps the per-block failure order

def _synthetic(g, size):
    """The same rhs g(t) -> (d0 of shape (size,), d1) for _integrate and
    for the tuple-state reference."""
    def make_rhs(y, out):
        def rhs(t):
            d0, d1 = g(t)
            out[:size] = d0.tolist()
            out[size] = d1
        return rhs
    return make_rhs, lambda t, state: g(t)


@pytest.mark.parametrize("size, d0, d1, exc", [
    (2, 1e15, np.nan, RiccatiBlowUp),            # block 0 huge but finite, block 1 NaN
    (2, np.nan, 1e15, riccati.NumericalFailure),  # the reverse: block 0 decides
    (2, 0.0, np.nan, riccati.NumericalFailure),   # a NaN alone
    (1, 1e15, np.nan, RiccatiBlowUp),            # the same three on the n = 1 float loop
    (1, np.nan, 1e15, riccati.NumericalFailure),
    (1, 0.0, np.nan, riccati.NumericalFailure),
], ids=["huge_then_nan", "nan_then_huge", "nan_alone",
        "n1-huge_then_nan", "n1-nan_then_huge", "n1-nan_alone"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_failure_precedence_equals_reference(size, d0, d1, exc):
    # zero rhs until t < 0.52: the step from t = 0.6 to node 5 (t = 0.5) fails
    g = lambda t: (np.full(size, d0), d1) if t < 0.52 else (np.zeros(size), 0.0)
    make_rhs, rhs = _synthetic(g, size)
    grid = TimeGrid(1.0, 10)
    y0 = (np.zeros(size), 0.0)
    with pytest.raises(exc) as new:
        riccati._integrate(make_rhs, y0, grid, 0)
    with pytest.raises(exc) as ref:
        _ref_integrate(rhs, y0, grid, lambda s: s)
    if exc is RiccatiBlowUp:
        assert new.value.escape_time == ref.value.escape_time
    else:
        assert new.value.node == ref.value.node == 5


@pytest.mark.parametrize("size", [2, 1], ids=["numpy", "n1"])
def test_integrate_signed_zero_sum_equals_reference(size):
    # a -0.0 state under a -0.0 rhs: the stage sum of four -0.0 terms must
    # stay -0.0, so that the step gives (-0.0) + (-h/6)(-0.0) = +0.0 as the
    # reference does; a sum that starts from +0.0 would give -0.0
    g = lambda t: (np.full(size, -0.0), -0.0)
    make_rhs, rhs = _synthetic(g, size)
    grid = TimeGrid(1.0, 4)
    y0 = (np.full(size, -0.0), -0.0)
    Y, D = riccati._integrate(make_rhs, y0, grid, 0)
    nodes, derivs = _ref_integrate(rhs, y0, grid, lambda s: s)
    assert np.array_equal(_bits(Y), _bits([np.hstack(s) for s in nodes]))
    assert np.array_equal(_bits(D), _bits([np.hstack(d) for d in derivs]))
