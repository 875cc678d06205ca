"""Carleson-measure sweeps, the half-plane row-integral bound, and the
weighted rectifiability energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcplane as q
from qcplane import analysis
from qcplane.analysis import _dyadic_radii, _masses, _prefix

# Independently computed supremum of the continuum density |mu|^2 / |Im z|
# over the same center/radius family the sweep uses, for the 0.5-amplitude
# mollified ball at 2i on the 256-point grid: polar Gauss-Legendre (96 nodes)
# times 512-point angular quadrature per ball.
RADIAL_ORACLE = 0.08214926


@pytest.fixture(scope="module")
def density(mu_half):
    return q.carleson_density(mu_half)


class TestCarlesonDensity:
    def test_formula(self, grid256, mu_half, density):
        expected = np.abs(mu_half.field.values) ** 2 / np.abs(grid256.points().imag)
        assert np.allclose(density.values.real, expected, rtol=0, atol=1e-15)
        assert np.all(density.values.imag == 0.0)

    def test_zero_coefficient(self, grid256):
        mu0 = q.BeltramiCoefficient(
            q.ComplexField(grid256, np.zeros((256, 256), complex), support_radius=1.0)
        )
        nu = q.carleson_density(mu0)
        assert np.max(np.abs(nu.values)) == 0.0


class TestCarlesonNorm:
    def test_against_radial_oracle(self, density):
        report = q.carleson_norm(density)
        assert abs(report.norm / RADIAL_ORACLE - 1.0) <= 0.05

    def test_homogeneity(self, mu_half, density):
        scaled = q.carleson_density(mu_half.scaled(0.5))
        a = q.carleson_norm(density).norm
        b = q.carleson_norm(scaled).norm
        assert abs(b - 0.25 * a) <= 1e-12 * a

    def test_witness_reproduces(self, density):
        report = q.carleson_norm(density)
        mass = q.ball_mass(density, report.witness_center, report.witness_radius)
        assert mass == report.witness_mass
        assert report.norm == report.witness_mass / report.witness_radius

    def test_monotone_in_density(self, ball256, mu_half, density):
        smaller = q.carleson_density(
            q.BeltramiCoefficient(
                ball256.with_values(0.3 * ball256.values, ball256.support_radius)
            )
        )
        assert q.carleson_norm(smaller).norm < q.carleson_norm(density).norm

    def test_validation(self, grid256, density):
        signed = q.ComplexField(grid256, -np.ones((256, 256), complex))
        with pytest.raises(ValueError):
            q.carleson_norm(signed)

    def test_dyadic_radius_chain(self, grid256):
        radii = _dyadic_radii(grid256)
        assert radii[0] == 2.0 * grid256.spacing
        assert radii[-1] == grid256.half_width
        assert np.allclose(np.diff(np.log2(radii)), 1.0)

    def test_report_serializes(self, density):
        doc = q.carleson_norm(density).to_json_dict()
        assert set(doc) == {"norm", "witness", "family"}


def full_sweep_masses(P, x, y, centers, radius):
    """Ball masses over every grid row, massless or not: the sweep the
    row-skipping one must reproduce bit for bit."""
    cx = centers.real[:, None]
    cy = centers.imag[:, None]
    rhs = radius * radius - (y[None, :] - cy) ** 2
    inside = rhs >= 0.0
    half = np.sqrt(np.where(inside, rhs, 0.0))
    lo = np.searchsorted(x, cx - half, side="left")
    hi = np.searchsorted(x, cx + half, side="right")
    rows = np.arange(y.size)[None, :]
    per_row = np.where(inside, P[hi, rows] - P[lo, rows], 0.0)
    return per_row.sum(axis=1)


class TestRowSkippingSweep:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64]),
        seed=st.integers(0, 2**32 - 1),
        zero_rows=st.sampled_from(["none", "some", "most", "all"]),
        geometry=st.sampled_from(["line", "off-axis"]),
    )
    def test_matches_full_sweep(self, n, seed, zero_rows, geometry):
        # _masses accepts any centers; carleson_norm sweeps the line family
        rng = np.random.default_rng(seed)
        grid = q.Grid(rng.uniform(1.0, 16.0), n)
        # nonnegative density with zero cells scattered through it
        values = rng.exponential(size=(n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        values[rng.random((n, n)) < 0.3] = 0.0
        share = {"none": 0.0, "some": 0.5, "most": 0.9, "all": 1.0}[zero_rows]
        empty = rng.random(n) < share if share < 1.0 else np.ones(n, bool)
        values[:, empty] = 0.0
        nu = q.ComplexField(grid, values.astype(complex))
        if geometry == "line":
            centers = grid.x.astype(complex)
        else:
            t = np.sort(rng.uniform(-grid.half_width, grid.half_width, 40))
            centers = t + 1j * rng.uniform(-grid.half_width, grid.half_width, 40)
        P = _prefix(nu)
        radii = np.r_[_dyadic_radii(grid), rng.uniform(0.1, 2.0, 3) * grid.half_width]
        for r in radii:
            got = _masses(P, grid.x, grid.y, centers, float(r))
            ref = full_sweep_masses(P, grid.x, grid.y, centers, float(r))
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))

        report = q.carleson_norm(nu)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_masses", full_sweep_masses)
            full = q.carleson_norm(nu)
        assert report.to_json_dict() == full.to_json_dict()
        assert np.signbit(report.norm) == np.signbit(full.norm)


class TestRowIntegral:
    def test_uniform_bound(self, grid256):
        rng = np.random.default_rng(3)
        zs = rng.uniform(-6, 6, 20) + 1j * rng.uniform(0.5, 4.0, 20)
        vals = [q.lemma1_row_integral(z, grid256) for z in zs]
        assert max(vals) <= 4.0 * np.pi

    def test_decays_away_from_line(self, grid256):
        low = q.lemma1_row_integral(0.5j, grid256)
        high = q.lemma1_row_integral(6.0j, grid256)
        assert high < 0.5 * low

    def test_rejects_lower_half(self, grid256):
        with pytest.raises(ValueError):
            q.lemma1_row_integral(-1.0j, grid256)


class TestRectifiabilityEnergy:
    def test_matches_weighted_norm(self, grid256, ball256):
        h = q.ComplexField(
            grid256,
            q.bandlimited_noise(grid256, seed=2).values * ball256.values.real,
            support_radius=ball256.support_radius,
        )
        energy = q.rectifiability_energy(h)
        assert abs(energy - q.norm(h, "inv_abs_y") ** 2) <= 1e-12 * energy

    def test_analytic_cap(self, mu_half):
        # |h| <= 1/2 on B(2i, 1) gives energy <= sup^2 * pi r^2 / dist(B, R)
        energy = q.rectifiability_energy(mu_half.field)
        cap = 0.25 * np.pi * 1.0**2 / 1.0
        assert 0.0 < energy <= cap

    def test_monotone_in_amplitude(self, ball256, mu_half):
        smaller = q.BeltramiCoefficient(
            ball256.with_values(0.3 * ball256.values, ball256.support_radius)
        )
        assert q.rectifiability_energy(smaller.field) < q.rectifiability_energy(mu_half.field)
