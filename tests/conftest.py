"""Shared fixtures: the standard desk-scale grid and a mollified ball
dilatation that many tests reuse, and the half-width strategy of the
scale-covariance property tests."""

import numpy as np
import pytest
from hypothesis import strategies as st

import qcplane as q

# Grid half-widths 10**e, e in [-150, 150]: the grid's cell and domain
# areas stay normal doubles, while squares of values of order 1/L do not.
half_widths = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)


def cinf_bump(t):
    """C-infinity bump supported on |t| < 1, peak value 1 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


@pytest.fixture(scope="session")
def grid256():
    return q.Grid(8.0, 256)


@pytest.fixture(scope="session")
def ball256(grid256):
    return q.indicator_ball(grid256, 2j, 1.0, mollify_width=0.25)


@pytest.fixture(scope="session")
def mu_half(ball256):
    return q.BeltramiCoefficient(
        ball256.with_values(0.5 * ball256.values)
    )
