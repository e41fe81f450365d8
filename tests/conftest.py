import numpy as np
import pytest

from bearingkit import Formation, load_fixture


@pytest.fixture(scope="session")
def fixtures():
    return {name: load_fixture(name) for name in
            ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b")}


@pytest.fixture(scope="session")
def formations(fixtures):
    return {name: s.target_formation() for name, s in fixtures.items()}


def finite_difference_jacobian(f: Formation, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the stacked bearings; oracle for the
    closed-form rigidity matrix, deliberately built from nothing but the
    bearing function itself."""
    dn = f.d * f.n
    dm = f.d * f.m
    J = np.empty((dm, dn))
    for col in range(dn):
        dp = np.zeros(dn)
        dp[col] = step
        plus = Formation(f.graph, f.d, f.p + dp).bearings
        minus = Formation(f.graph, f.d, f.p - dp).bearings
        J[:, col] = (plus - minus) / (2.0 * step)
    return J
