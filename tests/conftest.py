"""Shared fixtures: the standard desk-scale grid and a mollified ball
dilatation that many tests reuse, the half-width strategy of the
scale-covariance property tests, and the dense weighted mu S of the
scenario kinds at n = 32, the oracle of their iterative constants."""

import numpy as np
import pytest
from hypothesis import strategies as st

import qcplane as q
from qcplane.scenarios import ScenarioConfig, build_scenario

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


def dense_weighted_mu_s(mu):
    """Dense M = |y|^-1/2 mu S |y|^1/2 on the n^2 samples, x-major.

    M is mu S in orthonormal coordinates of L^2(dm/|y|), so its 2-norm is
    the weighted norm of mu S and 1 / sigma_min(I - M)^2 is the exact
    invertibility constant c1.  Column j is the padded apply of the j-th
    unit vector scaled by |y_j|^1/2, taken 128 columns at a time as one
    stack of n x n blocks.
    """
    n = mu.grid.n
    plan = q.plan_for(mu.grid)
    whole = (slice(0, n), slice(0, n))
    sqrt_y = np.tile(np.sqrt(np.abs(mu.grid.y)), n)
    columns = []
    for first in range(0, n * n, 128):
        cols = np.arange(first, min(first + 128, n * n))
        units = np.zeros((cols.size, n * n), dtype=complex)
        units[np.arange(cols.size), cols] = sqrt_y[cols]
        image = plan.apply(units.reshape(-1, n, n), plan.multiplier_s, *whole, at=whole)
        columns.append((mu.field.values * image).reshape(cols.size, -1) / sqrt_y)
    return np.concatenate(columns).T


@pytest.fixture(scope="session", params=["ball", "prop2", "ba_extension"])
def dense_scenario(request):
    """(mu, dense_weighted_mu_s(mu)) of a default scenario kind at n = 32."""
    mu = build_scenario(ScenarioConfig(request.param, grid_n=32))[0]
    return mu, dense_weighted_mu_s(mu)
