"""1D HJB-Fokker-Planck finite differences and Riccati cross-validation."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrs

from masterlq import hjbfp_1d as fd, lq_model, riccati
from masterlq import master_verifier as mv
from masterlq.hjbfp_1d import (CFLViolation, NonConvergence, SpaceGrid1D,
                               cosine_demo, cross_validate_lq, first_moment,
                               gaussian_density, picard_solve, problem_from_lq,
                               solve_fp_forward, solve_hjb_backward)
from masterlq.lq_model import scalar_model
from masterlq.riccati import NumericalFailure


@pytest.fixture(scope="module")
def grid():
    return SpaceGrid1D(-4.0, 4.0, 200)


@pytest.fixture(scope="module")
def crowd_pde(crowd_mfg, grid):
    tg = riccati.TimeGrid(crowd_mfg.T, 2000)
    m0 = gaussian_density(grid, 1.0, 0.5)
    pde = picard_solve(problem_from_lq(crowd_mfg), grid, tg, m0)
    return pde, tg


@pytest.fixture(scope="module")
def crowd_pde_mfc(crowd_mfg, grid):
    tg = riccati.TimeGrid(crowd_mfg.T, 2000)
    m0 = gaussian_density(grid, 1.0, 0.5)
    return picard_solve(problem_from_lq(crowd_mfg, "MFC"), grid, tg, m0), tg


def _mean_path(m, grid):
    return np.array([first_moment(mk, grid.nodes(), grid.dx) for mk in m])


def _drift(prob, x, y, q):
    """G = dH/dq = g0 - brb q, written out."""
    return prob.g0(x, y) - prob.brb * q


# ---------------------------------------------------------------------------
# grids and densities

def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        SpaceGrid1D(-1.0, 1.0, 8)


@pytest.mark.parametrize("bounds", [(np.nan, 3.0), (-3.0, np.nan), (-3.0, np.inf),
                                    (-np.inf, 3.0), (3.0, 3.0), (3.0, -3.0)])
def test_grid_rejects_bad_bounds(bounds):
    with pytest.raises(ValueError, match="grid bounds must be finite with x_min < x_max"):
        SpaceGrid1D(*bounds, 40)


@pytest.mark.parametrize("mean,std", [(np.nan, 0.5), (np.inf, 0.5), (0.0, 0.0),
                                      (0.0, -1.0), (0.0, np.nan), (0.0, np.inf)])
def test_gaussian_density_rejects_bad_parameters(grid, mean, std):
    with pytest.raises(ValueError, match="initial density"):
        gaussian_density(grid, mean, std)


def test_gaussian_density_normalized(grid):
    m0 = gaussian_density(grid, 0.5, 0.7)
    assert np.sum(m0) * grid.dx == pytest.approx(1.0, abs=1e-12)
    assert m0.min() >= 0.0


# ---------------------------------------------------------------------------
# Fokker-Planck sweep

def test_fp_heat_kernel_variance(grid):
    tg = riccati.TimeGrid(0.5, 1000)
    m0 = gaussian_density(grid, 0.0, 0.5)
    m = solve_fp_forward(lambda k, x, ms: np.zeros_like(x), 0.6, m0, grid, tg)
    x = grid.nodes()
    var = float(np.sum(m[-1] * x * x) * grid.dx
                - (np.sum(m[-1] * x) * grid.dx) ** 2)
    assert var == pytest.approx(0.25 + 0.36 * 0.5, abs=2e-3)


def test_fp_ou_stationary(grid):
    # drift -x, sigma = 1: N(0, 1/2) is invariant
    tg = riccati.TimeGrid(2.0, 4000)
    m0 = gaussian_density(grid, 0.0, np.sqrt(0.5))
    m = solve_fp_forward(lambda k, x, ms: -x, 1.0, m0, grid, tg)
    assert np.max(np.abs(m[-1] - m0)) < 2e-2


def test_fp_mass_and_positivity(grid):
    tg = riccati.TimeGrid(0.5, 800)
    m0 = gaussian_density(grid, 1.0, 0.5)
    m = solve_fp_forward(lambda k, x, ms: 0.5 - 0.3 * x, 0.5, m0, grid, tg)
    masses = np.sum(m, axis=1) * grid.dx
    assert np.max(np.abs(masses - 1.0)) < 1e-6
    assert m.min() >= 0.0


def test_fp_cfl_violation(grid):
    tg = riccati.TimeGrid(1.0, 20)     # dt = 0.05, dx = 0.04: Courant >> 1
    m0 = gaussian_density(grid, 0.0, 0.5)
    with pytest.raises(CFLViolation):
        solve_fp_forward(lambda k, x, ms: 4.0 * np.ones_like(x), 0.5, m0, grid, tg)


# ---------------------------------------------------------------------------
# HJB sweep

def test_hjb_quadratic_preserved(crowd_mfg, grid):
    # frozen uncoupled density, LQ data: u stays quadratic in x
    tg = riccati.TimeGrid(0.5, 2000)
    prob = problem_from_lq(scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0,
                                        QT=0.3, sigma=0.5, T=0.5))
    ybar = np.full(tg.K + 1, first_moment(gaussian_density(grid, 0.0, 1.0),
                                          grid.nodes(), grid.dx))
    u = solve_hjb_backward(ybar, prob, grid, tg)
    x = grid.nodes()
    mask = np.abs(x) <= 2.0
    coef = np.polyfit(x[mask], u[0][mask], 2)
    fit = np.polyval(coef, x[mask])
    assert np.max(np.abs(u[0][mask] - fit)) < 1e-3


def test_hjb_terminal_slice_exact(crowd_mfg, grid):
    tg = riccati.TimeGrid(0.5, 100)
    prob = problem_from_lq(scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0,
                                        QT=0.3, sigma=0.5, T=0.5))
    u = solve_hjb_backward(np.zeros(tg.K + 1), prob, grid, tg)
    x = grid.nodes()
    assert np.array_equal(u[-1], 0.5 * 0.3 * x * x)


# ---------------------------------------------------------------------------
# Picard iteration

def test_picard_decoupled_converges_immediately(grid):
    # costs independent of m: fixed point after the first sweep
    prob = problem_from_lq(scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0,
                                        sigma=0.5, T=0.5))
    tg = riccati.TimeGrid(0.5, 1000)
    m0 = gaussian_density(grid, 0.5, 0.6)
    pde = picard_solve(prob, grid, tg, m0)
    # the undamped first step lands on the fixed point (history 0.0553, then 0.0)
    assert pde.iterations == 2 and pde.history[-1] <= 1e-15


def test_picard_converges_crowd(crowd_pde):
    pde, _ = crowd_pde
    assert pde.iterations < 60
    assert pde.history[-1] < 1e-6


def test_picard_monotone_tail(crowd_pde):
    pde, _ = crowd_pde
    tail = pde.history[-5:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_picard_nonconvergence_reports_history(crowd_mfg, grid):
    with pytest.raises(NonConvergence) as exc:
        picard_solve(problem_from_lq(crowd_mfg), grid,
                     riccati.TimeGrid(0.5, 1000),
                     gaussian_density(grid, 1.0, 0.5), max_iter=2)
    assert len(exc.value.history) == 2


@pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0])
def test_problem_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="diffusion coefficient sigma"):
        fd.cosine_demo(sigma=sigma)


def test_problem_from_lq_rejects_matrix_models(coupled_2x2):
    with pytest.raises(ValueError):
        problem_from_lq(coupled_2x2)


@pytest.mark.parametrize("kind", ["mfc", "mfg", "Mfc", "", "MFC "])
def test_problem_from_lq_rejects_unknown_kind(crowd_mfg, kind):
    # the one kind check: the CLI's lower-case spelling is not a kind
    with pytest.raises(ValueError, match="kind must be MFG or MFC"):
        problem_from_lq(crowd_mfg, kind)


def test_problem_from_lq_rejects_common_noise(scalar_coupled):
    with pytest.raises(ValueError, match="no common noise: needs beta = 0, got beta = 0.3"):
        problem_from_lq(scalar_coupled)


# ---------------------------------------------------------------------------
# cross-validation against the Riccati reference

def test_cross_validate_mfg(crowd_mfg, crowd_pde):
    pde, tg = crowd_pde
    sol = riccati.solve_mfg(crowd_mfg, tg)
    rep = cross_validate_lq(crowd_mfg, sol, pde)
    assert rep["sup_diff"] <= 1e-2
    assert rep["mean_flow_diff"] <= 1e-2


def test_cross_validate_mfc(crowd_mfg, crowd_pde_mfc):
    pde, tg = crowd_pde_mfc
    sol = riccati.solve_mfc(crowd_mfg, tg)
    rep = cross_validate_lq(crowd_mfg, sol, pde)
    assert rep["sup_diff"] <= 1e-2
    assert rep["mean_flow_diff"] <= 1e-2


# crowd's data with a coupled terminal cost, QbarT * ST != 0: the MFC
# terminal carries its measure-derivative correction
COUPLED_TERMINAL = scalar_model(A=0.0, Abar=0.5, B=1.0, Q=1.0, Qbar=1.0, S=1.0, R=1.0, QT=0.2,
                                QbarT=0.8, ST=0.5, sigma=0.5, T=0.5)
COUPLED_TERMINAL_DIFF = 0.03    # matched runs read 0.0138 (MFC) and 0.0238 (MFG)
COUPLED_TERMINAL_ITERATIONS = {"MFC": 6, "MFG": 4}


@pytest.mark.parametrize("kind,other", [("MFC", "MFG"), ("MFG", "MFC")])
def test_cross_validate_coupled_terminal(grid, kind, other):
    # the solve matches its Riccati reference only with its own kind's
    # terminal; the other kind's terminal (the MFC correction dropped, or
    # added to the MFG) moves sup_diff to about 0.42 (MFC) and 0.45 (MFG)
    model = COUPLED_TERMINAL
    tg = riccati.TimeGrid(model.T, 2000)
    m0 = gaussian_density(grid, 1.0, 0.5)
    sol = (riccati.solve_mfc if kind == "MFC" else riccati.solve_mfg)(model, tg)
    prob = problem_from_lq(model, kind)
    pde = picard_solve(prob, grid, tg, m0)
    assert pde.iterations == COUPLED_TERMINAL_ITERATIONS[kind]
    rep = cross_validate_lq(model, sol, pde)
    assert rep["sup_diff"] <= COUPLED_TERMINAL_DIFF
    assert rep["mean_flow_diff"] <= COUPLED_TERMINAL_DIFF
    swapped = dataclasses.replace(prob, terminal=problem_from_lq(model, other).terminal)
    wrong = cross_validate_lq(model, sol, picard_solve(swapped, grid, tg, m0))
    assert wrong["sup_diff"] >= 10 * COUPLED_TERMINAL_DIFF


def test_cross_validate_zero_coupling_lqr(grid):
    m = scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0, sigma=0.5, T=0.5)
    tg = riccati.TimeGrid(0.5, 2000)
    m0 = gaussian_density(grid, 0.5, 0.6)
    pde = picard_solve(problem_from_lq(m), grid, tg, m0)
    sol = riccati.solve_mfg(m, tg)
    rep = cross_validate_lq(m, sol, pde)
    assert rep["sup_diff"] <= 1e-2


def _ref_cross_validate(model, sol, pde):
    """The per-node loop over eval_at that cross_validate_lq replaced."""
    grid, tgrid = pde.grid, pde.tgrid
    x, dx = grid.nodes(), grid.dx
    mask = np.abs(x) <= 0.5 * max(abs(grid.x_min), abs(grid.x_max))
    flow = mv.mean_flow_ode(model, sol, np.array([first_moment(pde.m[0], x, dx)]), tgrid)[:, 0]
    sup = l2 = 0.0
    times = tgrid.nodes()
    for k, t in enumerate(times):
        ev = riccati.eval_at(sol, t)
        P = float(ev["P"][0, 0]); Sig = float(ev["Sigma"][0, 0])
        yb = flow[k]
        if sol.kind == "MFG":
            Gam = float(ev["Gamma"][0, 0])
            diff = pde.u[k] - (0.5 * P * x ** 2 + Sig * x * yb + 0.5 * Gam * yb ** 2 + ev["mu"])
        else:
            diff = pde.u[k] - (0.5 * P * x ** 2 + Sig * x * yb)
            diff = diff - np.mean(diff[mask])
        sup = max(sup, float(np.max(np.abs(diff[mask]))))
        l2 += float(np.sum(diff[mask] ** 2) * dx) * tgrid.h
    moment = np.array([first_moment(pde.m[k], x, dx) for k in range(len(times))])
    return {"sup_diff": sup, "l2_diff": float(np.sqrt(l2)),
            "mean_flow_diff": float(np.max(np.abs(moment - flow)))}


@pytest.mark.parametrize("kind", ["MFG", "MFC"])
def test_cross_validate_equals_per_node_loop(crowd_mfg, crowd_pde, crowd_pde_mfc, kind):
    pde, _ = crowd_pde if kind == "MFG" else crowd_pde_mfc
    # a Riccati grid unlike the PDE's, so that every node interpolates
    sol = (riccati.solve_mfg if kind == "MFG" else riccati.solve_mfc)(crowd_mfg,
                                                                      riccati.TimeGrid(crowd_mfg.T, 1300))
    assert cross_validate_lq(crowd_mfg, sol, pde) == _ref_cross_validate(crowd_mfg, sol, pde)


# ---------------------------------------------------------------------------
# bitwise reference: the per-step solve_banded / np.gradient formulation,
# with the checks after every step

def _ref_check_cfl(vel, dt, dx, k):
    courant = float(np.max(np.abs(vel))) * dt / dx
    if courant > 1.0:
        raise CFLViolation(courant, dt, dx)
    if not courant <= 1.0:
        raise NumericalFailure(k)


def _ref_fp_forward(drift_fn, sigma, m0, grid, tgrid):
    x, dx, dt = grid.nodes(), grid.dx, tgrid.h
    ab = fd._diffusion_banded(0.5 * sigma ** 2 * dt, dx, grid.Nx, neumann=True)
    m = np.empty((tgrid.K + 1, grid.Nx))
    m[0] = np.maximum(m0, 0.0)
    m[0] /= np.sum(m[0]) * dx
    for k in range(tgrid.K):
        G = drift_fn(k, x, m[k])
        _ref_check_cfl(G, dt, dx, k)
        Gf = 0.5 * (G[:-1] + G[1:])
        flux = np.where(Gf > 0.0, Gf * m[k][:-1], Gf * m[k][1:])
        div = np.zeros_like(m[k])
        div[0] = flux[0] / dx
        div[1:-1] = (flux[1:] - flux[:-1]) / dx
        div[-1] = -flux[-1] / dx
        nxt = np.maximum(solve_banded((1, 1), ab, m[k] - dt * div, check_finite=False), 0.0)
        mass = np.sum(nxt) * dx
        if not 0.0 < mass < np.inf:
            raise NumericalFailure(k + 1)
        m[k + 1] = nxt / mass
    return m


def _ref_hjb_backward(m, prob, grid, tgrid, mfc_extra=False, ybar=None):
    """On the moments of m, or on the mean path ybar when it is given."""
    x, dx, dt = grid.nodes(), grid.dx, tgrid.h
    ab = fd._diffusion_banded(0.5 * prob.sigma ** 2 * dt, dx, grid.Nx, neumann=False)
    moment = lambda k: (ybar[k] if ybar is not None else
                        np.sum(x * m[k]) * dx / (np.sum(m[k]) * dx) if prob.uses_mean else 0.0)
    u = np.empty((tgrid.K + 1, grid.Nx))
    u[-1] = prob.terminal(x, moment(tgrid.K))
    for k in range(tgrid.K - 1, -1, -1):
        yb = moment(k)
        q_c = np.gradient(u[k + 1], dx)
        vel = _drift(prob, x, yb, q_c)
        _ref_check_cfl(vel, dt, dx, k)
        fwd = np.empty_like(u[k + 1])
        bwd = np.empty_like(u[k + 1])
        fwd[:-1] = (u[k + 1][1:] - u[k + 1][:-1]) / dx
        fwd[-1] = (u[k + 1][-1] - u[k + 1][-2]) / dx
        bwd[1:] = (u[k + 1][1:] - u[k + 1][:-1]) / dx
        bwd[0] = (u[k + 1][1] - u[k + 1][0]) / dx
        q = np.where(vel > 0.0, bwd, fwd)
        H = prob.h0(x, yb) - 0.5 * prob.brb * q * q + prob.g0(x, yb) * q
        if mfc_extra:
            H = H + prob.dHdm_coeff(yb, float(np.sum(q_c * m[k]) * dx)) * x
        u[k] = solve_banded((1, 1), ab, u[k + 1] + dt * H, check_finite=False)
        if not np.isfinite(u[k]).all():
            raise NumericalFailure(k)
    return u


def _ref_picard(prob, grid, tgrid, m0, kind, tol):
    """Damped (0.5) Picard iteration on the whole density, until the density
    changes by less than tol."""
    x, dx = grid.nodes(), grid.dx
    m0 = m0 / (np.sum(m0) * dx)
    m = np.tile(m0, (tgrid.K + 1, 1))
    for _ in range(500):
        u = _ref_hjb_backward(m, prob, grid, tgrid, kind == "MFC")
        drift = lambda k, xs, ms: _drift(
            prob, xs, np.sum(xs * ms) * dx / (np.sum(ms) * dx) if prob.uses_mean else 0.0,
            np.gradient(u[k], dx))
        m_new = _ref_fp_forward(drift, prob.sigma, m0, grid, tgrid)
        delta = float(np.max(np.abs(m_new - m)))
        m = 0.5 * m_new + 0.5 * m
        m /= np.sum(m, axis=1, keepdims=True) * dx
        if delta < tol:
            return u, m
    raise AssertionError("reference Picard iteration did not converge")


def _bitwise_case(model, name, steps=50):
    if name == "cosine":
        grid = SpaceGrid1D(-3.0, 3.0, 40)
        return cosine_demo(), grid, riccati.TimeGrid(0.5, steps), gaussian_density(grid, 0.0, 0.7)
    grid = SpaceGrid1D(-4.0, 4.0, 40)
    return (problem_from_lq(model, name), grid, riccati.TimeGrid(model.T, steps),
            gaussian_density(grid, 1.0, 0.5))


# The crowd model's coefficients make most products of the LQ Hamiltonian
# exact, so a reordering there may keep every bit; INEXACT's do not.  (ROUGH,
# below, breaks the CFL bound on these 40-node grids.)
INEXACT = scalar_model(A=0.1, Abar=0.3, B=0.9, Q=0.7, Qbar=0.6, S=0.35, R=1.1, sigma=0.5,
                       T=0.5)


def _ref_mean_gradient(u, m, dx):
    """qbar_k = sum np.gradient(u[k+1]) m[k] dx, the sum _ref_hjb_backward forms."""
    return np.array([np.sum(np.gradient(u[k + 1], dx) * m[k]) * dx
                     for k in range(len(m) - 1)])


# K = 50, and three full blocks and a partial block of 5 steps
@pytest.mark.parametrize("inexact,name,steps", [
    (inexact, name, steps) for steps in (50, 3 * fd.SWEEP_BLOCK + 5)
    for inexact, names in ((False, ("MFG", "MFC", "cosine")), (True, ("MFG", "MFC")))
    for name in names], ids=[
        "MFG", "MFC", "cosine", "MFG-inexact", "MFC-inexact",
        "MFG-blocks", "MFC-blocks", "cosine-blocks", "MFG-inexact-blocks", "MFC-inexact-blocks"])
def test_sweeps_bitwise_equal_reference(crowd_mfg, inexact, name, steps):
    prob, grid, tg, m0 = _bitwise_case(INEXACT if inexact else crowd_mfg, name, steps)
    lin = lambda k, xs, ms: 0.3 - 0.5 * xs
    m = _ref_fp_forward(lin, prob.sigma, m0, grid, tg)
    assert _same_bits(solve_fp_forward(lin, prob.sigma, m0, grid, tg), m)
    # the HJB sweep on the moments of m (and, for MFC, the reference's own
    # mean gradient path) equals the reference sweep on m itself
    u = _ref_hjb_backward(m, prob, grid, tg, name == "MFC")
    qbar = _ref_mean_gradient(u, m, grid.dx) if name == "MFC" else None
    ybar = _mean_path(m, grid) if prob.uses_mean else None
    assert _same_bits(solve_hjb_backward(ybar, prob, grid, tg, qbar), u)


@pytest.mark.parametrize("kind,inexact", [("MFG", False), ("MFC", False), ("MFG", True),
                                          ("MFC", True)],
                         ids=["MFG", "MFC", "MFG-inexact", "MFC-inexact"])
def test_anderson_matches_density_picard(crowd_mfg, kind, inexact):
    model = INEXACT if inexact else crowd_mfg
    prob, grid, tg, m0 = _bitwise_case(model, kind)
    pde = picard_solve(prob, grid, tg, m0)
    u_ref, m_ref = _ref_picard(prob, grid, tg, m0, kind, tol=1e-10)
    assert np.max(np.abs(pde.u - u_ref)) <= 1e-5
    assert np.max(np.abs(pde.m - m_ref)) <= 1e-5
    sol = (riccati.solve_mfc if kind == "MFC" else riccati.solve_mfg)(model, tg)
    rep = cross_validate_lq(model, sol, pde)
    ref = cross_validate_lq(model, sol, dataclasses.replace(pde, u=u_ref, m=m_ref))
    assert rep.keys() == ref.keys()
    assert all(abs(rep[k] - ref[k]) <= 1e-6 for k in rep)


def test_anderson_iterations_crowd(crowd_pde, crowd_pde_mfc):
    # undamped Anderson: a damped first step takes 6 sweep pairs for MFG
    for (pde, _), iterations in ((crowd_pde, 4), (crowd_pde_mfc, 6)):
        assert pde.iterations == iterations and len(pde.history) == pde.iterations
        assert pde.history[-1] < 1e-6


def test_anderson_cosine_one_sweep_pair(crowd_mfg):
    prob, grid, tg, m0 = _bitwise_case(crowd_mfg, "cosine")
    pde = picard_solve(prob, grid, tg, m0)
    assert pde.iterations == 1 and pde.history == [0.0]
    u = solve_hjb_backward(None, prob, grid, tg)
    m = solve_fp_forward(lambda k, xs, ms: _drift(prob, xs, 0.0, np.gradient(u[k], grid.dx)),
                         prob.sigma, m0, grid, tg)
    assert np.array_equal(pde.u, u) and np.array_equal(pde.m, m)


@pytest.mark.parametrize("kind", ["MFG", "MFC"])
def test_statistics_equal_per_slice_sums(crowd_mfg, crowd_pde, crowd_pde_mfc, grid, kind):
    pde, _ = crowd_pde if kind == "MFG" else crowd_pde_mfc
    z = fd._statistics(pde.u, pde.m, grid.nodes(), problem_from_lq(crowd_mfg, kind))
    ref = _mean_path(pde.m, grid)
    if kind == "MFC":
        ref = np.concatenate([ref, _ref_mean_gradient(pde.u, pde.m, grid.dx)])
    assert z.shape == ref.shape
    assert np.max(np.abs(z - ref)) <= 1e-13


def test_hjb_qbar_given_exactly_with_measure_term(crowd_mfg, grid):
    # an MFC problem swept without qbar would drop its measure term; an MFG
    # problem or the demo swept with one would be asked for a term it lacks
    tg = riccati.TimeGrid(0.5, 100)
    ybar, qbar = np.zeros(tg.K + 1), np.zeros(tg.K)
    cases = [(problem_from_lq(crowd_mfg, "MFC"), None), (problem_from_lq(crowd_mfg), qbar),
             (cosine_demo(), qbar)]
    for prob, given in cases:
        with pytest.raises(ValueError, match="qbar is given exactly when the problem has"):
            solve_hjb_backward(ybar, prob, grid, tg, given)
    solve_hjb_backward(ybar, problem_from_lq(crowd_mfg, "MFC"), grid, tg, qbar)


@pytest.mark.parametrize("neumann", [True, False], ids=["neumann", "extrapolation"])
def test_factored_solve_equals_solve_banded(neumann):
    ab = fd._diffusion_banded(0.125 * 2.5e-4, 8.0 / 199, 200, neumann)
    lu = fd._diffusion_lu(ab)
    rng = np.random.default_rng(0)
    for _ in range(50):
        b = rng.standard_normal(200) * 10.0 ** rng.uniform(-6, 6)
        x = b.copy()
        dgttrs(*lu, x, overwrite_b=1)
        assert np.array_equal(x, solve_banded((1, 1), ab, b))


# ---------------------------------------------------------------------------
# non-finite values

def test_fp_nan_drift_raises_numerical_failure(grid):
    tg = riccati.TimeGrid(0.5, 100)
    m0 = gaussian_density(grid, 0.0, 0.5)
    with pytest.raises(NumericalFailure) as exc:
        solve_fp_forward(lambda k, x, ms: np.full_like(x, np.nan), 0.5, m0, grid, tg)
    assert exc.value.node == 0


def test_fp_nan_slice_raises_numerical_failure(grid):
    tg = riccati.TimeGrid(0.5, 100)
    m0 = gaussian_density(grid, 0.0, 0.5)
    m0[7] = np.nan
    with pytest.raises(NumericalFailure) as exc:
        solve_fp_forward(lambda k, x, ms: np.zeros_like(x), 0.5, m0, grid, tg)
    assert exc.value.node == 1


@pytest.mark.parametrize("field", ["drift", "hamiltonian"])
def test_hjb_nan_raises_numerical_failure(grid, field):
    # a NaN g0 makes the drift NaN, a NaN h0 only the Hamiltonian
    tg = riccati.TimeGrid(0.5, 100)
    prob = dataclasses.replace(problem_from_lq(scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0,
                                                            sigma=0.5, T=0.5)),
                               **{{"drift": "g0", "hamiltonian": "h0"}[field]:
                                  lambda x, y: np.full(np.broadcast(x, y).shape, np.nan)})
    with pytest.raises(NumericalFailure) as exc:
        solve_hjb_backward(np.zeros(tg.K + 1), prob, grid, tg)
    assert exc.value.node == tg.K - 1


# ---------------------------------------------------------------------------
# checks per block of SWEEP_BLOCK steps: the failure a per-step check raises

B = fd.SWEEP_BLOCK
K_BLOCKS = 3 * B + 5     # three full blocks and a partial one


def _at(y, nodes, value, other):
    """value where the mean y is one of nodes, other elsewhere; y is one mean
    or the column of means of a block of sweep steps."""
    return np.where(np.isin(y, list(nodes)), value, other)


def _failing_hjb(cfl=(), nan_vel=(), nan_ham=()):
    """An LQ problem whose g0 is 1e3 (a velocity with Courant about 90) or
    NaN (a NaN velocity), or whose h0 is NaN (a NaN Hamiltonian), at the
    listed nodes: the mean path is ybar_k = k, so y names the node."""
    base = problem_from_lq(scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0, sigma=0.5, T=0.5))

    def g0(x, y):
        return _at(y, cfl, 1e3, _at(y, nan_vel, np.nan, base.g0(x, 0.0)))

    def h0(x, y):
        return _at(y, nan_ham, np.nan, base.h0(x, 0.0))
    return dataclasses.replace(base, g0=g0, h0=h0)


def _failing_fp(cfl=(), nan_vel=(), nan_slice=()):
    """A linear drift, 1e3 or NaN at the listed nodes; at a nan_slice node it
    sets the slice it reads to NaN, so that the step's mass check fails."""
    def drift_fn(k, x, ms):
        if k in nan_slice:
            ms[...] = np.nan
        if k in cfl:
            return np.full_like(x, 1e3)
        return np.full_like(x, np.nan) if k in nan_vel else 0.3 - 0.5 * x
    return drift_fn


def _raised(fn):
    with pytest.raises((CFLViolation, NumericalFailure)) as exc:
        fn()
    return type(exc.value), getattr(exc.value, "node", None), str(exc.value)


HJB_CASES = {   # the sweep runs k = K-1, ..., 0
    "cfl-then-nan-same-block": dict(cfl={K_BLOCKS - 2}, nan_ham={K_BLOCKS - 4}),
    "nan-then-cfl-same-block": dict(nan_ham={K_BLOCKS - 2}, cfl={K_BLOCKS - 4}),
    "cfl-and-nan-same-step": dict(cfl={K_BLOCKS - 3}, nan_ham={K_BLOCKS - 3}),
    "nan-velocity-then-cfl": dict(nan_vel={K_BLOCKS - 6}, cfl={K_BLOCKS - 7}),
    "first-step": dict(nan_ham={K_BLOCKS - 1}, cfl={K_BLOCKS - 2}),
    "last-step": dict(cfl={0}),
    "block-end": dict(cfl={K_BLOCKS - B}, nan_ham={K_BLOCKS - B - 1}),
    "block-start": dict(nan_ham={K_BLOCKS - B - 1}, cfl={K_BLOCKS - B - 2}),
    "partial-block": dict(nan_ham={3}, cfl={1}),
}


@pytest.mark.parametrize("case", HJB_CASES.values(), ids=HJB_CASES.keys())
def test_hjb_failure_precedence_equals_reference(case):
    grid, tg = SpaceGrid1D(-2.0, 2.0, 40), riccati.TimeGrid(0.5, K_BLOCKS)
    prob, ybar = _failing_hjb(**case), np.arange(K_BLOCKS + 1.0)
    new = _raised(lambda: solve_hjb_backward(ybar, prob, grid, tg))
    assert new == _raised(lambda: _ref_hjb_backward(None, prob, grid, tg, ybar=ybar))


FP_CASES = {    # the sweep runs k = 0, ..., K-1
    "cfl-then-mass-same-block": dict(cfl={3}, nan_slice={6}),
    "mass-then-cfl-same-block": dict(nan_slice={3}, cfl={6}),
    "cfl-then-nan-velocity": dict(cfl={2}, nan_vel={5}),
    "nan-velocity-then-cfl": dict(nan_vel={2}, cfl={5}),
    "first-step": dict(cfl={0}),
    "last-step": dict(nan_slice={K_BLOCKS - 1}),
    "block-end": dict(cfl={B - 1}, nan_slice={B}),
    "block-start": dict(nan_slice={B}, cfl={B + 1}),
    "partial-block": dict(nan_vel={3 * B + 3}, cfl={3 * B + 4}),
}


@pytest.mark.parametrize("case", FP_CASES.values(), ids=FP_CASES.keys())
def test_fp_failure_precedence_equals_reference(grid, case):
    tg, m0 = riccati.TimeGrid(0.5, K_BLOCKS), gaussian_density(grid, 0.0, 0.5)
    new = _raised(lambda: solve_fp_forward(_failing_fp(**case), 0.5, m0, grid, tg))
    assert new == _raised(lambda: _ref_fp_forward(_failing_fp(**case), 0.5, m0, grid, tg))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("last,exc", [
    (lambda x: np.full_like(x, np.nan), NumericalFailure),     # fails at node K-1
    (lambda x: 1e300 * x, CFLViolation)],                      # finite, but the velocity
    ids=["nan", "huge"])                                        # at K-2 overflows q * q
def test_failing_sweeps_warn_nothing(grid, last, exc):
    # the steps computed past the failure, to the end of its block, print nothing
    tg = riccati.TimeGrid(0.5, K_BLOCKS)
    base = _failing_hjb()
    prob = dataclasses.replace(base, h0=lambda x, y: _at(y, {K_BLOCKS - 1}, last(x),
                                                         base.h0(x, y)))
    with pytest.raises(exc) as raised:
        solve_hjb_backward(np.arange(K_BLOCKS + 1.0), prob, grid, tg)
    assert getattr(raised.value, "node", K_BLOCKS - 1) == K_BLOCKS - 1
    with pytest.raises(CFLViolation):     # G[:-1] + G[1:] overflows
        solve_fp_forward(lambda k, x, ms: np.full_like(x, 1e308 if k == 0 else 0.0), 0.5,
                         gaussian_density(grid, 0.0, 0.5), grid, tg)


def _same_bits(a, b):
    """Equal arrays, bit for bit: a -0.0 against a +0.0 is a difference."""
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


# coefficients with no exact products, so that a change in the order of
# the operations changes bits
ROUGH = scalar_model(A=0.3, Abar=0.7, B=1.3, Q=0.9, Qbar=1.1, S=0.45, R=0.8, sigma=0.5, T=0.5)


def _callable_case(name):
    if name == "cosine":
        return cosine_demo(), SpaceGrid1D(-3.0, 3.0, 40)
    return problem_from_lq(ROUGH, name), SpaceGrid1D(-4.0, 4.0, 40)


@pytest.mark.parametrize("name", ["MFG", "MFC", "cosine"])
def test_x_terms_equal_the_written_formulas(name):
    # h0, g0 and brb, the coefficients of H = h0 + g0 q - brb q^2 / 2, must
    # equal the formulas written out in one expression, signed zeros
    # included: for one mean, on the same node array and on a copy, and for
    # a column of means, one row each, as the HJB sweep forms them a block
    # at a time
    prob, grid = _callable_case(name)
    x = grid.nodes()
    f = lambda M: float(M[0, 0])
    A, Ab, Q, Qb, S = (f(ROUGH.A), f(ROUGH.Abar), f(ROUGH.Q), f(ROUGH.Qbar), f(ROUGH.S))
    BRB, kappa = f(ROUGH.BRB()), 0.5
    means = (0.37, 0.0, -0.0, -1.25)
    rows = []
    for y in means:
        if name == "cosine":
            h0, g0, brb = kappa * (1.0 - np.cos(x)), np.zeros_like(x), 1.0
        else:
            h0 = 0.5 * (Q + Qb) * x * x - Qb * S * x * y + 0.5 * S * Qb * S * y * y
            g0, brb = A * x + Ab * y, BRB
        for xs in (x, x.copy()):
            assert _same_bits(prob.h0(xs, y), h0)
            assert _same_bits(prob.g0(xs, y), g0)
        assert not np.array_equal(prob.h0(x + 0.5, y), h0)
        assert prob.brb == brb
        rows.append((h0, g0))
    column = np.array(means)[:, None]
    for fn, want in ((prob.h0, [h for h, _ in rows]), (prob.g0, [g for _, g in rows])):
        got = np.ascontiguousarray(np.broadcast_to(fn(x, column), (len(means), grid.Nx)))
        assert _same_bits(got, np.array(want))


@pytest.mark.parametrize("name", ["MFG", "MFC", "cosine"])
def test_callables_return_fresh_arrays(name):
    # each call of h0 and g0 returns an array of its own, which the sweeps may
    # write to; a later call, with the same or another node array or with a
    # column of means, leaves an earlier result and the inputs unchanged
    prob, grid = _callable_case(name)
    x = grid.nodes()
    x_in = x.copy()
    for fn in (prob.h0, prob.g0):
        first = fn(x, 0.37)
        kept = first.copy()
        for later in (fn(x, -1.25), fn(x + 0.5, 0.37), fn(x, np.array([[0.37], [-1.25]]))):
            assert first.flags.owndata and later.flags.owndata
            assert not np.shares_memory(first, later)
        assert _same_bits(first, kept)
        assert not np.shares_memory(first, x)
    assert _same_bits(x, x_in)


@pytest.mark.parametrize("kind", ["MFG", "MFC"])
def test_fp_inline_mean_equals_first_moment(crowd_mfg, crowd_pde, crowd_pde_mfc, grid, kind):
    # the FP drift computes the slice mean inline; the last iteration's FP
    # sweep reads the returned m, so its K means equal first_moment's on
    # every slice, bit for bit
    pde, tg = crowd_pde if kind == "MFG" else crowd_pde_mfc
    base = problem_from_lq(crowd_mfg, kind)
    means = []

    def g0(x, y):
        if np.ndim(y) == 0:     # the FP sweep's call, one mean per step
            means.append(y)
        return base.g0(x, y)
    prob = dataclasses.replace(base, g0=g0)
    again = picard_solve(prob, grid, tg, gaussian_density(grid, 1.0, 0.5))
    assert np.array_equal(again.u, pde.u) and np.array_equal(again.m, pde.m)
    # each iteration: K calls of the FP sweep (the HJB sweep passes columns)
    assert len(means) == tg.K * again.iterations
    fp_means = np.array(means[-tg.K:])
    ref = np.array([first_moment(mk, grid.nodes(), grid.dx) for mk in pde.m[:-1]])
    assert _same_bits(fp_means, ref)


def test_cross_validate_peak_memory(crowd_mfg, crowd_pde, crowd_pde_mfc):
    # the per-node first moments come a block of CROSSVAL_ROWS rows at a
    # time: no temporary the size of the (K+1) x Nx density
    for kind, (pde, tg) in (("MFG", crowd_pde), ("MFC", crowd_pde_mfc)):
        sol = (riccati.solve_mfg if kind == "MFG" else riccati.solve_mfc)(crowd_mfg, tg)
        tracemalloc.start()
        try:
            cross_validate_lq(crowd_mfg, sol, pde)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pde.m.nbytes // 2, (kind, peak, pde.m.nbytes)


@pytest.mark.parametrize("kind", ["MFG", "MFC"])
def test_picard_peak_memory(crowd_mfg, grid, kind):
    # the sweeps form their q-free rows a block of SWEEP_BLOCK nodes at a
    # time: past the returned u and m, one solve holds only the statistics
    # paths and small buffers (measured 1.06 MFG, 1.13 MFC; one more
    # (K+1) x Nx array would read at least 1.5)
    tg = riccati.TimeGrid(crowd_mfg.T, 2000)
    prob, m0 = problem_from_lq(crowd_mfg, kind), gaussian_density(grid, 1.0, 0.5)
    tracemalloc.start()
    try:
        pde = picard_solve(prob, grid, tg, m0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (pde.u.nbytes + pde.m.nbytes), (peak, pde.u.nbytes + pde.m.nbytes)


# ---------------------------------------------------------------------------
# non-LQ demo

def test_cosine_demo_runs():
    prob = cosine_demo()
    g = SpaceGrid1D(-np.pi, np.pi, 120)
    tg = riccati.TimeGrid(prob.T, 500)
    pde = picard_solve(prob, g, tg, gaussian_density(g, 0.0, 0.7))
    assert np.sum(pde.m[-1]) * g.dx == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.isfinite(pde.u))


def test_first_moment(grid):
    m0 = gaussian_density(grid, 0.8, 0.5)
    assert first_moment(m0, grid.nodes(), grid.dx) == pytest.approx(0.8, abs=1e-6)
