"""1D HJB-Fokker-Planck finite differences and Riccati cross-validation."""
from __future__ import annotations

import dataclasses

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
    pde = picard_solve(problem_from_lq(crowd_mfg), grid, tg, m0,
                       kind="MFG", damping=0.5)
    return pde, tg


@pytest.fixture(scope="module")
def crowd_pde_mfc(crowd_mfg, grid):
    tg = riccati.TimeGrid(crowd_mfg.T, 2000)
    m0 = gaussian_density(grid, 1.0, 0.5)
    return picard_solve(problem_from_lq(crowd_mfg), grid, tg, m0,
                        kind="MFC", damping=0.5), tg


def _mean_path(m, grid):
    return np.array([first_moment(mk, grid.nodes(), grid.dx) for mk in m])


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
    pde = picard_solve(prob, grid, tg, m0, kind="MFG", damping=1.0)
    assert pde.iterations <= 2


def test_picard_converges_crowd(crowd_pde):
    pde, _ = crowd_pde
    assert pde.iterations < 60
    assert pde.history[-1] < 1e-6


def test_picard_monotone_tail(crowd_pde):
    pde, _ = crowd_pde
    tail = pde.history[-5:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))


def test_picard_rejects_bad_damping(crowd_mfg, grid):
    with pytest.raises(ValueError):
        picard_solve(problem_from_lq(crowd_mfg), grid,
                     riccati.TimeGrid(0.5, 1000),
                     gaussian_density(grid, 1.0, 0.5), damping=0.0)


def test_picard_nonconvergence_reports_history(crowd_mfg, grid):
    with pytest.raises(NonConvergence) as exc:
        picard_solve(problem_from_lq(crowd_mfg), grid,
                     riccati.TimeGrid(0.5, 1000),
                     gaussian_density(grid, 1.0, 0.5),
                     kind="MFG", damping=0.5, max_iter=2)
    assert len(exc.value.history) == 2


@pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0])
def test_problem_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="diffusion coefficient sigma"):
        fd.cosine_demo(sigma=sigma)


def test_problem_from_lq_rejects_matrix_models(coupled_2x2):
    with pytest.raises(ValueError):
        problem_from_lq(coupled_2x2)


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


def test_cross_validate_zero_coupling_lqr(grid):
    m = scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0, sigma=0.5, T=0.5)
    tg = riccati.TimeGrid(0.5, 2000)
    m0 = gaussian_density(grid, 0.5, 0.6)
    pde = picard_solve(problem_from_lq(m), grid, tg, m0, kind="MFG", damping=1.0)
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
# bitwise reference: the per-step solve_banded / np.gradient formulation

def _ref_fp_forward(drift_fn, sigma, m0, grid, tgrid):
    x, dx, dt = grid.nodes(), grid.dx, tgrid.h
    ab = fd._diffusion_banded(0.5 * sigma ** 2 * dt, dx, grid.Nx, neumann=True)
    m = np.empty((tgrid.K + 1, grid.Nx))
    m[0] = np.maximum(m0, 0.0)
    m[0] /= np.sum(m[0]) * dx
    for k in range(tgrid.K):
        G = drift_fn(k, x, m[k])
        Gf = 0.5 * (G[:-1] + G[1:])
        flux = np.where(Gf > 0.0, Gf * m[k][:-1], Gf * m[k][1:])
        div = np.zeros_like(m[k])
        div[0] = flux[0] / dx
        div[1:-1] = (flux[1:] - flux[:-1]) / dx
        div[-1] = -flux[-1] / dx
        nxt = np.maximum(solve_banded((1, 1), ab, m[k] - dt * div), 0.0)
        m[k + 1] = nxt / (np.sum(nxt) * dx)
    return m


def _ref_hjb_backward(m, prob, grid, tgrid, mfc_extra=False):
    x, dx, dt = grid.nodes(), grid.dx, tgrid.h
    ab = fd._diffusion_banded(0.5 * prob.sigma ** 2 * dt, dx, grid.Nx, neumann=False)
    moment = lambda ms: np.sum(x * ms) * dx / (np.sum(ms) * dx) if prob.uses_mean else 0.0
    u = np.empty_like(m)
    u[-1] = prob.terminal(x, moment(m[-1]))
    for k in range(tgrid.K - 1, -1, -1):
        yb = moment(m[k])
        q_c = np.gradient(u[k + 1], dx)
        vel = prob.drift(x, yb, q_c)
        fwd = np.empty_like(u[k + 1])
        bwd = np.empty_like(u[k + 1])
        fwd[:-1] = (u[k + 1][1:] - u[k + 1][:-1]) / dx
        fwd[-1] = (u[k + 1][-1] - u[k + 1][-2]) / dx
        bwd[1:] = (u[k + 1][1:] - u[k + 1][:-1]) / dx
        bwd[0] = (u[k + 1][1] - u[k + 1][0]) / dx
        H = prob.hamiltonian(x, yb, np.where(vel > 0.0, bwd, fwd))
        if mfc_extra:
            H = H + prob.dHdm_coeff(yb, float(np.sum(q_c * m[k]) * dx)) * x
        u[k] = solve_banded((1, 1), ab, u[k + 1] + dt * H)
    return u


def _ref_picard(prob, grid, tgrid, m0, kind, tol):
    """Damped (0.5) Picard iteration on the whole density, until the density
    changes by less than tol."""
    x, dx = grid.nodes(), grid.dx
    m0 = m0 / (np.sum(m0) * dx)
    m = np.tile(m0, (tgrid.K + 1, 1))
    for _ in range(500):
        u = _ref_hjb_backward(m, prob, grid, tgrid, kind == "MFC")
        drift = lambda k, xs, ms: prob.drift(
            xs, np.sum(xs * ms) * dx / (np.sum(ms) * dx) if prob.uses_mean else 0.0,
            np.gradient(u[k], dx))
        m_new = _ref_fp_forward(drift, prob.sigma, m0, grid, tgrid)
        delta = float(np.max(np.abs(m_new - m)))
        m = 0.5 * m_new + 0.5 * m
        m /= np.sum(m, axis=1, keepdims=True) * dx
        if delta < tol:
            return u, m
    raise AssertionError("reference Picard iteration did not converge")


def _bitwise_case(crowd, name):
    if name == "cosine":
        grid = SpaceGrid1D(-3.0, 3.0, 40)
        return cosine_demo(), grid, riccati.TimeGrid(0.5, 50), gaussian_density(grid, 0.0, 0.7)
    grid = SpaceGrid1D(-4.0, 4.0, 40)
    return (problem_from_lq(crowd, name), grid, riccati.TimeGrid(crowd.T, 50),
            gaussian_density(grid, 1.0, 0.5))


def _ref_mean_gradient(u, m, dx):
    """qbar_k = sum np.gradient(u[k+1]) m[k] dx, the sum _ref_hjb_backward forms."""
    return np.array([np.sum(np.gradient(u[k + 1], dx) * m[k]) * dx
                     for k in range(len(m) - 1)])


@pytest.mark.parametrize("name", ["MFG", "MFC", "cosine"])
def test_sweeps_bitwise_equal_reference(crowd_mfg, name):
    prob, grid, tg, m0 = _bitwise_case(crowd_mfg, name)
    lin = lambda k, xs, ms: 0.3 - 0.5 * xs
    m = _ref_fp_forward(lin, prob.sigma, m0, grid, tg)
    assert np.array_equal(solve_fp_forward(lin, prob.sigma, m0, grid, tg), m)
    # the HJB sweep on the moments of m (and, for MFC, the reference's own
    # mean gradient path) equals the reference sweep on m itself
    u = _ref_hjb_backward(m, prob, grid, tg, name == "MFC")
    qbar = _ref_mean_gradient(u, m, grid.dx) if name == "MFC" else None
    ybar = _mean_path(m, grid) if prob.uses_mean else None
    assert np.array_equal(solve_hjb_backward(ybar, prob, grid, tg, qbar), u)


@pytest.mark.parametrize("kind", ["MFG", "MFC"])
def test_anderson_matches_density_picard(crowd_mfg, kind):
    prob, grid, tg, m0 = _bitwise_case(crowd_mfg, kind)
    pde = picard_solve(prob, grid, tg, m0, kind=kind)
    u_ref, m_ref = _ref_picard(prob, grid, tg, m0, kind, tol=1e-10)
    assert np.max(np.abs(pde.u - u_ref)) <= 1e-5
    assert np.max(np.abs(pde.m - m_ref)) <= 1e-5
    sol = (riccati.solve_mfc if kind == "MFC" else riccati.solve_mfg)(crowd_mfg, tg)
    rep = cross_validate_lq(crowd_mfg, sol, pde)
    ref = cross_validate_lq(crowd_mfg, sol, dataclasses.replace(pde, u=u_ref, m=m_ref))
    assert rep.keys() == ref.keys()
    assert all(abs(rep[k] - ref[k]) <= 1e-6 for k in rep)


def test_anderson_iterations_crowd(crowd_pde, crowd_pde_mfc):
    for pde, _ in (crowd_pde, crowd_pde_mfc):
        assert pde.iterations <= 8 and len(pde.history) == pde.iterations
        assert pde.history[-1] < 1e-6


def test_anderson_cosine_one_sweep_pair(crowd_mfg):
    prob, grid, tg, m0 = _bitwise_case(crowd_mfg, "cosine")
    pde = picard_solve(prob, grid, tg, m0, kind="MFG")
    assert pde.iterations == 1 and pde.history == [0.0]
    u = solve_hjb_backward(None, prob, grid, tg)
    m = solve_fp_forward(lambda k, xs, ms: prob.drift(xs, 0.0, np.gradient(u[k], grid.dx)),
                         prob.sigma, m0, grid, tg)
    assert np.array_equal(pde.u, u) and np.array_equal(pde.m, m)


@pytest.mark.parametrize("kind", ["MFG", "MFC"])
def test_statistics_equal_per_slice_sums(crowd_pde, crowd_pde_mfc, grid, kind):
    pde, _ = crowd_pde if kind == "MFG" else crowd_pde_mfc
    z = fd._statistics(pde.u, pde.m, grid.nodes(), True, kind == "MFC")
    ref = _mean_path(pde.m, grid)
    if kind == "MFC":
        ref = np.concatenate([ref, _ref_mean_gradient(pde.u, pde.m, grid.dx)])
    assert z.shape == ref.shape
    assert np.max(np.abs(z - ref)) <= 1e-13


def test_picard_mfc_needs_measure_term(grid):
    with pytest.raises(ValueError, match="closed-form measure term"):
        picard_solve(cosine_demo(), grid, riccati.TimeGrid(0.5, 500),
                     gaussian_density(grid, 0.0, 0.7), kind="MFC")


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
    tg = riccati.TimeGrid(0.5, 100)
    prob = dataclasses.replace(problem_from_lq(scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0,
                                                            sigma=0.5, T=0.5)),
                               **{field: lambda x, y, q: np.full_like(x, np.nan)})
    with pytest.raises(NumericalFailure) as exc:
        solve_hjb_backward(np.zeros(tg.K + 1), prob, grid, tg)
    assert exc.value.node == tg.K - 1


# ---------------------------------------------------------------------------
# non-LQ demo

def test_cosine_demo_runs():
    prob = cosine_demo()
    g = SpaceGrid1D(-np.pi, np.pi, 120)
    tg = riccati.TimeGrid(prob.T, 500)
    pde = picard_solve(prob, g, tg, gaussian_density(g, 0.0, 0.7),
                       kind="MFG", damping=0.5)
    assert np.sum(pde.m[-1]) * g.dx == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.isfinite(pde.u))


def test_first_moment(grid):
    m0 = gaussian_density(grid, 0.8, 0.5)
    assert first_moment(m0, grid.nodes(), grid.dx) == pytest.approx(0.8, abs=1e-6)
