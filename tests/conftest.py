"""Shared model fixtures.

Session scope for the Riccati solves that several test modules reuse;
everything is deterministic, so sharing is safe.
"""
from __future__ import annotations

import numpy as np
import pytest

from masterlq import lq_model, riccati


@pytest.fixture(scope="session")
def scalar_lqr():
    """A=0, B=Q=R=1, no coupling: P(t) = tanh(1 - t)."""
    return lq_model.scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0, T=1.0)


@pytest.fixture(scope="session")
def scalar_lqr_sigma1():
    return lq_model.scalar_model(A=0.0, B=1.0, Q=1.0, R=1.0, sigma=1.0, T=1.0)


@pytest.fixture(scope="session")
def scalar_coupled():
    """Fully coupled scalar model with both noises."""
    return lq_model.scalar_model(A=0.2, Abar=0.3, B=1.0, Q=1.0, Qbar=0.5,
                                 S=0.4, R=1.0, QT=0.5, QbarT=0.3, ST=0.2,
                                 sigma=0.5, beta=0.3, T=1.0)


@pytest.fixture(scope="session")
def crowd_mfg():
    """Scalar MFG instance: A=0, Abar=0.5, B=Q=Qbar=S=R=1, sigma=0.5, T=0.5."""
    return lq_model.scalar_model(A=0.0, Abar=0.5, B=1.0, Q=1.0, Qbar=1.0,
                                 S=1.0, R=1.0, sigma=0.5, beta=0.0, T=0.5)


def make_coupled_2x2() -> lq_model.LQModelSpec:
    """Non-commuting 2x2 model; exercises genuinely matrix-valued paths."""
    return lq_model.LQModelSpec(
        n=2, d=2, T=1.0,
        A=np.array([[0.2, 0.5], [-0.3, 0.1]]),
        Abar=np.array([[0.1, 0.0], [0.2, -0.1]]),
        B=np.array([[1.0, 0.0], [0.3, 1.0]]),
        Q=np.array([[1.0, 0.2], [0.2, 0.8]]),
        Qbar=np.array([[0.5, 0.1], [0.1, 0.4]]),
        S=np.array([[0.3, 0.1], [0.0, 0.2]]),
        R=np.eye(2),
        QT=np.array([[0.5, 0.0], [0.0, 0.3]]),
        QbarT=np.array([[0.2, 0.05], [0.05, 0.3]]),
        ST=np.array([[0.1, 0.0], [0.2, 0.1]]),
        sigma=0.4, beta=0.2)


def make_asymmetric_2x2() -> lq_model.LQModelSpec:
    """Qbar S != S* Qbar: the MFG self-adjointness obstruction is active."""
    S = np.array([[0.0, 1.0], [0.0, 0.0]])
    return lq_model.LQModelSpec(
        n=2, d=2, T=1.0,
        A=np.zeros((2, 2)), Abar=np.zeros((2, 2)), B=np.eye(2),
        Q=np.eye(2), Qbar=np.diag([1.0, 2.0]), S=S, R=np.eye(2),
        QT=np.eye(2), QbarT=np.diag([1.0, 2.0]), ST=S,
        sigma=0.3, beta=0.2)


@pytest.fixture(scope="session")
def coupled_2x2():
    return make_coupled_2x2()


@pytest.fixture(scope="session")
def asymmetric_2x2():
    return make_asymmetric_2x2()


@pytest.fixture(scope="session")
def seeded_n8():
    """Convex n = 8 model with weak mean-field coupling and a stable drift."""
    n, rng = 8, np.random.default_rng(1)
    small = lambda scale: scale * rng.standard_normal((n, n)) / np.sqrt(n)

    def psd(scale):
        G = rng.standard_normal((n, n))
        M = scale * (G @ G.T) / n
        return 0.5 * (M + M.T)

    eye = np.eye(n)
    return lq_model.LQModelSpec(
        n=n, d=n, T=1.0, A=-0.3 * eye + small(0.2), Abar=small(0.05),
        B=eye + small(0.1), Q=psd(1.0) + 0.5 * eye, Qbar=psd(0.2), S=small(0.1),
        R=psd(0.1) + eye, QT=psd(0.5), QbarT=psd(0.1), ST=small(0.1),
        sigma=0.5, beta=0.2, convex=True)


@pytest.fixture(scope="session")
def sol_lqr(scalar_lqr):
    return riccati.solve_mfc(scalar_lqr, riccati.TimeGrid(scalar_lqr.T, 1000))


@pytest.fixture(scope="session")
def sol_coupled_mfc(scalar_coupled):
    return riccati.solve_mfc(scalar_coupled, riccati.TimeGrid(scalar_coupled.T, 2000))


@pytest.fixture(scope="session")
def sol_coupled_mfg(scalar_coupled):
    return riccati.solve_mfg(scalar_coupled, riccati.TimeGrid(scalar_coupled.T, 2000))
