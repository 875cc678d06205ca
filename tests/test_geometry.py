"""Curve traces, chord-arc and regularity sweeps, the curve Cauchy operator,
boundary-map extension, and the closed-form sector map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcplane as q

# Frozen dense-discretization oracles for the sin curve t + 0.3i sin t on
# [-2pi, 2pi]: the same sweeps evaluated on a 10x finer trace (10240 points,
# all centers, identical radius family).
SIN_CHORD_ARC_DENSE = 1.02386925
SIN_REGULARITY_DENSE = 2.04511359

# Frozen default-tolerance curve_cauchy_operator estimates on sin_trace(512)
# and on the straight line over [-20, 20] with 1024 points.  They pin the
# iteration itself (seeded start vector, stopping rule), which a change of
# matvec arithmetic may move only by rounding.
SIN_CAUCHY_ESTIMATE = 0.510494023974127
LINE_CAUCHY_ESTIMATE = 0.49693650789607136


def sin_trace(m, scale=1.0):
    t = np.linspace(-2 * np.pi, 2 * np.pi, m)
    return q.CurveTrace(t, scale * (t + 0.3j * np.sin(t)))


class TestCurveTrace:
    def test_validation(self):
        with pytest.raises(ValueError):
            q.CurveTrace(np.array([0.0, 0.0, 1.0]), np.zeros(3, complex))
        with pytest.raises(ValueError):
            q.CurveTrace(np.array([0.0, 1.0]), np.array([0.0, np.nan + 0j]))

    def test_affine_image_length(self):
        a, b = 1.7 - 0.4j, 2.0 + 1.0j
        rho = q.MapEvaluator(lambda z: a * z + b, provenance="closed-form")
        trace = q.trace_curve(rho, 5.0, 1001)
        assert abs(trace.total_length() - 10.0 * abs(a)) <= 1e-12

    def test_strided_keeps_endpoints(self):
        tr = sin_trace(1024)
        small = tr.strided(100)
        assert small.size() <= 100
        assert small.points[0] == tr.points[0]
        assert small.points[-1] == tr.points[-1]

    def test_csv_export(self, tmp_path):
        tr = sin_trace(128)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,re,im,cum_length"
        assert len(lines) == 129


class TestChordArc:
    def test_straight_line_is_one(self):
        t = np.linspace(-10.0, 10.0, 2001)
        report = q.chord_arc_constant(q.CurveTrace(t, t.astype(complex)))
        assert abs(report.constant - 1.0) <= 1e-12

    def test_sin_curve_against_dense_oracle(self):
        report = q.chord_arc_constant(sin_trace(1024))
        assert abs(report.constant / SIN_CHORD_ARC_DENSE - 1.0) <= 0.01

    def test_witness_reproduces_constant(self):
        report = q.chord_arc_constant(sin_trace(1024))
        tr = sin_trace(1024)
        assert q.chord_arc_witness_ratio(tr, *report.witness) == report.constant

    def test_window_restricts_pairs(self):
        report = q.chord_arc_constant(sin_trace(1024), window_fraction=0.5)
        half = report.window_half_width
        assert half == pytest.approx(np.pi)
        assert report.sample_count < 1024


class TestCurveCauchyOperator:
    def test_line_multiplier_value(self):
        t = np.linspace(-20.0, 20.0, 1024)
        val = q.curve_cauchy_operator(q.CurveTrace(t, t.astype(complex)), tol=1e-6)
        assert abs(val - 0.5) <= 0.025

    def test_translation_rotation_invariance(self):
        tr = sin_trace(512)
        base = q.curve_cauchy_operator(tr, tol=1e-6)
        moved = q.curve_cauchy_operator(
            q.CurveTrace(tr.params, tr.points + (5.0 - 3.0j)), tol=1e-6
        )
        turned = q.curve_cauchy_operator(
            q.CurveTrace(tr.params, np.exp(0.7j) * tr.points), tol=1e-6
        )
        assert abs(moved - base) <= 1e-10
        assert abs(turned - base) <= 1e-10

    def test_coincident_points_rejected(self):
        t = np.linspace(0.0, 1.0, 64)
        pts = t.astype(complex)
        pts[10] = pts[11]
        with pytest.raises(ValueError):
            q.curve_cauchy_operator(q.CurveTrace(t, pts))

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(64, 256),
        a=st.floats(0.0, 0.5),
        k=st.integers(1, 4),
    )
    def test_matches_dense_two_norm(self, m, a, k):
        t = np.linspace(-2 * np.pi, 2 * np.pi, m)
        gamma = t + 1j * a * np.sin(k * t)
        tr = q.CurveTrace(t, gamma)
        # A_ij = (1/2 pi i) sqrt(ds_i ds_j)/(gamma_j - gamma_i), A_ii = 0,
        # with midpoint arclength weights ds
        seg = np.abs(np.diff(gamma))
        ds = 0.5 * (np.concatenate([[0.0], seg]) + np.concatenate([seg, [0.0]]))
        diff = gamma[None, :] - gamma[:, None]
        np.fill_diagonal(diff, 1.0)
        dense = np.sqrt(np.outer(ds, ds)) / (2j * np.pi * diff)
        np.fill_diagonal(dense, 0.0)
        ref = np.linalg.norm(dense, 2)
        est = q.curve_cauchy_operator(tr, tol=1e-12, max_iter=5000)
        assert abs(est / ref - 1.0) <= 1e-6
        assert est <= ref * (1.0 + 1e-9)

    def test_frozen_default_estimates(self):
        sin_est = q.curve_cauchy_operator(sin_trace(512))
        t = np.linspace(-20.0, 20.0, 1024)
        line_est = q.curve_cauchy_operator(q.CurveTrace(t, t.astype(complex)))
        assert abs(sin_est / SIN_CAUCHY_ESTIMATE - 1.0) <= 1e-12
        assert abs(line_est / LINE_CAUCHY_ESTIMATE - 1.0) <= 1e-12


class TestRegularity:
    def test_straight_line_value(self):
        t = np.linspace(-20.0, 20.0, 4001)
        val = q.regularity_check(q.CurveTrace(t, t.astype(complex)))
        # a ball around an interior point captures arclength 2R
        assert abs(val / 2.0 - 1.0) <= 0.02

    def test_sin_curve_against_dense_oracle(self):
        val = q.regularity_check(sin_trace(1024))
        assert abs(val / SIN_REGULARITY_DENSE - 1.0) <= 0.02

    def test_dilation_invariant(self):
        a = q.regularity_check(sin_trace(1024))
        b = q.regularity_check(sin_trace(1024, scale=3.0))
        assert abs(b / a - 1.0) <= 1e-12

    def test_short_trace_rejected(self):
        t = np.linspace(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            q.regularity_check(q.CurveTrace(t, t.astype(complex)))


class TestBilipschitz:
    def test_closed_forms(self):
        rng = np.random.default_rng(0)
        pairs = rng.uniform(-4, 4, (40, 2)) + 1j * rng.uniform(-4, 4, (40, 2))
        ident = q.bilipschitz_profile(q.MapEvaluator(lambda z: z, provenance="closed-form"), pairs)
        assert (ident.lower, ident.upper, ident.blowup_exponent) == (1.0, 1.0, None)
        double = q.bilipschitz_profile(q.MapEvaluator(lambda z: 2 * z, provenance="closed-form"), pairs)
        assert (double.lower, double.upper) == (2.0, 2.0)

    def test_degenerate_pairs_rejected(self):
        with pytest.raises(ValueError):
            q.bilipschitz_profile(
                q.MapEvaluator(lambda z: z, provenance="closed-form"),
                np.array([[1.0 + 0j, 1.0 + 0j]]),
            )


class TestBaExtension:
    def test_identity_boundary(self):
        rho = q.ba_extension(lambda x: np.asarray(x, float))
        zs = np.array([0.3 + 0.9j, -1.2 + 0.4j, 2.0 - 2.0j, 0.25 + 0j])
        expected = zs.real + 0.5j * zs.imag
        assert np.max(np.abs(rho(zs) - expected)) <= 1e-13

    def test_affine_boundary_constant_dilatation(self):
        rho = q.ba_extension(lambda x: 2.0 * x + 0.7)
        grid = q.Grid(4.0, 64)
        mu = q.map_dilatation(rho, grid)
        assert np.max(np.abs(mu.field.values - 1.0 / 3.0)) <= 1e-10

    def test_scale_equivariance(self):
        f = lambda x: x + 0.5 * np.tanh(x)
        lam = 2.5
        rho_scaled = q.ba_extension(lambda x: f(lam * x))
        rho = q.ba_extension(f)
        zs = np.array([0.3 + 0.9j, -1.2 + 0.4j, 2.0 + 2.0j, 0.1 - 0.7j, -2.0 - 1.5j])
        assert np.max(np.abs(rho_scaled(zs) - rho(lam * zs))) <= 1e-12

    def test_sampled_boundary_matches_callable(self):
        f = lambda x: x + 0.5 * np.tanh(x)
        lf = q.line_sample(f, 64.0, 8192)
        rho_s = q.ba_extension(lf)
        rho_c = q.ba_extension(f)
        zs = np.array([0.3 + 0.9j, -1.2 + 0.4j, 1.5 + 2.0j])
        assert np.max(np.abs(rho_s(zs) - rho_c(zs))) <= 1e-6

    def test_decreasing_samples_rejected(self):
        lf = q.LineFunction(8.0, np.linspace(1.0, -1.0, 32).astype(complex))
        with pytest.raises(ValueError):
            q.ba_extension(lf)

    def test_power_boundary_contractive_dilatation(self, grid256):
        rho = q.ba_extension(lambda x: np.sign(x) * np.abs(x) ** (1.0 / 1.5))
        mu = q.map_dilatation(rho, grid256)
        sup = float(np.max(np.abs(mu.field.values)))
        assert sup < 1.0
        assert sup == pytest.approx(0.4608, abs=0.01)


class TestFdWirtinger:
    def test_polynomial_derivatives(self):
        rho = q.MapEvaluator(lambda z: z**2 + 0.3 * np.conj(z), provenance="closed-form")
        pts = np.array([1.0 + 1.0j, -2.0 + 0.5j, 0.3 - 1.2j])
        dbar, d = q.fd_wirtinger(rho, pts, 1e-2 * np.ones(3), order=6)
        assert np.max(np.abs(dbar - 0.3)) <= 1e-9
        assert np.max(np.abs(d - 2.0 * pts)) <= 1e-9

    def test_order_validation(self):
        rho = q.MapEvaluator(lambda z: z, provenance="closed-form")
        with pytest.raises(ValueError):
            q.fd_wirtinger(rho, np.array([1.0 + 0j]), np.array([0.1]), order=3)


@pytest.fixture(scope="module")
def sector(grid256):
    return q.prop2_map(1.5, grid256)


class TestSectorMap:
    def test_k_range(self, grid256):
        with pytest.raises(ValueError):
            q.prop2_map(1.0, grid256)
        with pytest.raises(ValueError):
            q.prop2_map(2.0, grid256)

    def test_modulus_power_law(self, sector):
        rho, _ = sector
        rng = np.random.default_rng(1)
        z = rng.uniform(-7, 7, 500) + 1j * rng.uniform(-7, 7, 500)
        z = z[np.abs(z) > 1e-3]
        assert np.max(np.abs(np.abs(rho(z)) - np.abs(z) ** (1 / 1.5))) <= 1e-12

    def test_real_axis_is_signed_power(self, sector):
        rho, _ = sector
        xs = np.linspace(-7, 7, 101)
        xs = xs[xs != 0]
        assert np.max(np.abs(rho(xs) - np.sign(xs) * np.abs(xs) ** (1 / 1.5))) <= 1e-12

    def test_dilatation_sector_structure(self, grid256, sector):
        _, mu = sector
        theta = np.angle(grid256.points())
        on_axis_sectors = (np.abs(theta) <= 0.25 * np.pi) | (np.abs(theta) >= 0.75 * np.pi)
        vals = np.abs(mu.field.values)
        assert vals[on_axis_sectors].max() <= 1e-6
        mid = vals[~on_axis_sectors]
        assert mid.max() - mid.min() <= 1e-6
        # regression value of the constant modulus at K = 1.5
        assert abs(mid.mean() - 0.33333334) <= 1e-6

    def test_boundary_image_chord_arc(self, sector):
        rho, _ = sector
        trace = q.trace_curve(rho, 8.0, 2048)
        assert abs(q.chord_arc_constant(trace).constant - 1.0) <= 1e-9

    def test_blowup_exponent(self, sector):
        rho, _ = sector
        x = np.geomspace(1e-4, 4.0, 24)
        pairs = np.stack([x.astype(complex), -x.astype(complex)], axis=1)
        profile = q.bilipschitz_profile(rho, pairs)
        assert abs(profile.blowup_exponent - (1.0 / 1.5 - 1.0)) <= 0.05
