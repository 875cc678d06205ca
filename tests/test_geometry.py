"""Curve traces, chord-arc and regularity sweeps, the curve Cauchy operator,
boundary-map extension, and the closed-form sector map."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcplane as q
from qcplane.geometry import _CHORD_ARC_WINDOW, _chord_arc_witness_ratio, _dbar_and_mu

# Frozen dense-discretization oracles for the sin curve t + 0.3i sin t on
# [-2pi, 2pi]: the same sweeps evaluated on a 10x finer trace (10240 points,
# all centers, identical radius family).
SIN_CHORD_ARC_DENSE = 1.02386925
SIN_REGULARITY_DENSE = 2.04511359

# Frozen default-tolerance curve_cauchy_operator estimates on sin_trace(512)
# and on the straight line over [-20, 20] with 1024 points.  They pin the
# Lanczos iteration itself (seeded start vector, relative Ritz residual
# stopping rule at tol 1e-4), which a change of matvec arithmetic may move
# only by rounding; both lie within 1e-6 of the dense 2-norm.
SIN_CAUCHY_ESTIMATE = 0.5106431335543907
LINE_CAUCHY_ESTIMATE = 0.49828981145863005


def interior(grid, margin=4):
    """Cells at least ``margin`` cells from the box edge, where the periodic
    wrap of the grid stencil does not reach."""
    inside = np.zeros(grid.n, dtype=bool)
    inside[margin:-margin] = True
    return inside[:, None] & inside[None, :]


def wirtinger_and_stencil(rho, grid):
    """(dbar, d) of a map from its exact pair and from the grid stencil."""
    pts = grid.points()
    sampled = q.ComplexField(grid, rho(pts))
    return (*rho._wirtinger(pts), q.dbar_fd(sampled).values, q.d_fd(sampled).values)


def sin_trace(m, scale=1.0):
    t = np.linspace(-2 * np.pi, 2 * np.pi, m)
    return q.CurveTrace(t, scale * (t + 0.3j * np.sin(t)))


def chord_arc_loop(trace):
    """(constant, witness) of the row-by-row sweep that chord_arc_constant
    runs in blocks: the first maximum in row-major order wins."""
    x = trace.params
    half = _CHORD_ARC_WINDOW * 0.5 * (x[-1] - x[0])
    idx = np.nonzero(np.abs(x - 0.5 * (x[0] + x[-1])) <= half)[0]
    pts, cum = trace.points[idx], trace.cum_length[idx]
    best, best_pair = 0.0, (int(idx[0]), int(idx[1]))
    for a in range(idx.size - 1):
        ratios = (cum[a + 1 :] - cum[a]) / np.abs(pts[a + 1 :] - pts[a])
        b = int(np.argmax(ratios))
        if ratios[b] > best:
            best, best_pair = float(ratios[b]), (int(idx[a]), int(idx[a + 1 + b]))
    return best, best_pair


def regularity_loop(trace):
    """The center-by-center, radius-by-radius sweep of regularity_check."""
    seg = trace.segment_lengths()
    mid = 0.5 * (trace.points[1:] + trace.points[:-1])
    r0 = 8.0 * float(np.median(seg))
    r1 = 0.5 * float(np.abs(trace.points[-1] - trace.points[0]))
    radii = r0 * 2.0 ** np.arange(int(np.floor(np.log2(r1 / r0))) + 1)
    best = 0.0
    for z0 in trace.strided(256).points:
        dist = np.abs(mid - z0)
        for r in radii:
            best = max(best, float(seg[dist <= r].sum()) / r)
    return best


@st.composite
def random_trace(draw, sizes=(40, 1200)):
    """A trace over increasing parameters: a random walk in y, or, for
    equal ratios at many pairs, integer steps of length 5 ((3, +-4),
    (4, +-3), (5, 0)), whose arcs and chords repeat exactly."""
    m = draw(st.integers(*sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        steps = np.array([3 + 4j, 3 - 4j, 4 + 3j, 4 - 3j, 5 + 0j])[rng.integers(0, 5, m - 1)]
        points = np.concatenate([[0j], np.cumsum(steps)])
        return q.CurveTrace(points.real, points)
    params = np.cumsum(rng.uniform(0.5, 1.0, m))
    return q.CurveTrace(params, params + 1j * np.cumsum(rng.standard_normal(m)))


def dense_cauchy_norm(gamma):
    """2-norm of A_ij = (1/2 pi i) sqrt(ds_i ds_j)/(gamma_j - gamma_i), A_ii = 0,
    with midpoint arclength weights ds."""
    seg = np.abs(np.diff(gamma))
    ds = 0.5 * (np.concatenate([[0.0], seg]) + np.concatenate([seg, [0.0]]))
    diff = gamma[None, :] - gamma[:, None]
    np.fill_diagonal(diff, 1.0)
    dense = np.sqrt(np.outer(ds, ds)) / (2j * np.pi * diff)
    np.fill_diagonal(dense, 0.0)
    return np.linalg.norm(dense, 2)


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

    @pytest.mark.parametrize("max_points", [1, 0, -5])
    def test_strided_needs_two_points(self, max_points):
        with pytest.raises(ValueError, match="max_points"):
            sin_trace(128).strided(max_points)

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
        assert _chord_arc_witness_ratio(tr, *report.witness) == report.constant

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.floats(0.5, 1.0), min_size=9, max_size=40),
        data=st.data(),
    )
    def test_at_least_one_and_witnessed(self, steps, data):
        # steps within a factor 2 keep at least two samples in the middle window
        params = np.cumsum(steps)
        coord = st.floats(-100.0, 100.0)
        points = data.draw(
            st.lists(st.tuples(coord, coord), min_size=params.size, max_size=params.size, unique=True)
        )
        trace = q.CurveTrace(params, np.array([complex(x, y) for x, y in points]))
        report = q.chord_arc_constant(trace)
        assert report.constant >= 1.0 - 1e-12
        assert _chord_arc_witness_ratio(trace, *report.witness) == report.constant

    def test_sweep_matches_loop_on_sin_curve(self):
        report = q.chord_arc_constant(sin_trace(1024))
        assert (report.constant, report.witness) == chord_arc_loop(sin_trace(1024))

    def test_ties_keep_the_first_pair(self):
        # a zigzag of 3-4-5 steps: every even gap has arc/chord exactly 5/3
        points = 3.0 * np.arange(600) + 4j * (np.arange(600) % 2)
        trace = q.CurveTrace(points.real, points)
        report = q.chord_arc_constant(trace)
        assert (report.constant, report.witness) == chord_arc_loop(trace)
        x = trace.params
        first = int(np.nonzero(np.abs(x - 0.5 * (x[0] + x[-1])) <= report.window_half_width)[0][0])
        assert report.witness == (first, first + 2)

    @settings(max_examples=40, deadline=None)
    @given(trace=random_trace())
    def test_sweep_matches_loop(self, trace):
        report = q.chord_arc_constant(trace)
        assert (report.constant, report.witness) == chord_arc_loop(trace)

    def test_window_restricts_pairs(self):
        report = q.chord_arc_constant(sin_trace(1024))
        half = report.window_half_width
        assert half == pytest.approx(np.pi)
        assert report.sample_count < 1024


class TestCurveCauchyOperator:
    def test_line_multiplier_value(self):
        t = np.linspace(-20.0, 20.0, 1024)
        val = q.curve_cauchy_operator(q.CurveTrace(t, t.astype(complex)), tol=1e-6).weighted_norm_estimate
        assert abs(val - 0.5) <= 0.025

    def test_translation_rotation_invariance(self):
        tr = sin_trace(512)
        base = q.curve_cauchy_operator(tr, tol=1e-6).weighted_norm_estimate
        moved = q.curve_cauchy_operator(
            q.CurveTrace(tr.params, tr.points + (5.0 - 3.0j)), tol=1e-6
        ).weighted_norm_estimate
        turned = q.curve_cauchy_operator(
            q.CurveTrace(tr.params, np.exp(0.7j) * tr.points), tol=1e-6
        ).weighted_norm_estimate
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
        ref = dense_cauchy_norm(gamma)
        est = q.curve_cauchy_operator(q.CurveTrace(t, gamma), tol=1e-12, max_iter=5000).weighted_norm_estimate
        assert abs(est / ref - 1.0) <= 1e-6
        assert est <= ref * (1.0 + 1e-9)

    def test_frozen_default_estimates(self):
        sin = sin_trace(512)
        sin_record = q.curve_cauchy_operator(sin)
        assert sin_record.converged and sin_record.residual <= 1e-4
        assert len(sin_record.rayleigh_history) == sin_record.iteration_count
        sin_est = sin_record.weighted_norm_estimate
        t = np.linspace(-20.0, 20.0, 1024)
        line = q.CurveTrace(t, t.astype(complex))
        line_est = q.curve_cauchy_operator(line).weighted_norm_estimate
        assert abs(sin_est / SIN_CAUCHY_ESTIMATE - 1.0) <= 1e-12
        assert abs(line_est / LINE_CAUCHY_ESTIMATE - 1.0) <= 1e-12
        assert abs(sin_est - dense_cauchy_norm(sin.points)) <= 1e-6
        assert abs(line_est - dense_cauchy_norm(line.points)) <= 1e-6

    def test_one_step_budget_not_converged(self):
        t = np.linspace(-4.0, 4.0, 64)
        record = q.curve_cauchy_operator(q.CurveTrace(t, t + 0j), max_iter=1)
        assert record.iteration_count == 1 and record.converged is False


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

    @settings(max_examples=40, deadline=None)
    @given(trace=random_trace(sizes=(64, 1200)))
    def test_sweep_matches_loop(self, trace):
        # the masked row sums add the same segments in another pairwise
        # order, so they may differ from the loop's by rounding alone
        assert q.regularity_check(trace) == pytest.approx(regularity_loop(trace), rel=1e-13)

    def test_sweep_matches_loop_on_sin_curve(self):
        expected = regularity_loop(sin_trace(1024))
        assert q.regularity_check(sin_trace(1024)) == pytest.approx(expected, rel=1e-13)

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

    def test_exact_pair_matches_finite_differences(self):
        # the grid stencil of dbar_fd/d_fd, applied to rho sampled on a
        # grid, on cells whose stencil reaches neither the box edge nor
        # the real axis, where the reflection makes rho non-smooth
        rho = q.ba_extension(lambda x: x + 0.5 * np.tanh(x))
        grid = q.Grid(4.0, 256)
        dbar, d, fd_dbar, fd_d = wirtinger_and_stencil(rho, grid)
        keep = interior(grid) & (np.abs(grid.points().imag) > 0.2)
        for half in (grid.points().imag > 0, grid.points().imag < 0):
            cells = keep & half
            scale = np.max(np.abs(fd_d[cells]))
            assert np.max(np.abs(dbar - fd_dbar)[cells]) <= 1e-7 * scale
            assert np.max(np.abs(d - fd_d)[cells]) <= 1e-7 * scale
        rng = np.random.default_rng(3)
        upper = rng.uniform(-4, 4, 100) + 1j * rng.uniform(0.2, 4, 100)
        dbar, d = rho._wirtinger(upper)
        dbar_low, d_low = rho._wirtinger(np.conj(upper))
        assert np.max(np.abs(dbar_low - np.conj(dbar))) <= 1e-15 * np.max(np.abs(dbar))
        assert np.max(np.abs(d_low - np.conj(d))) <= 1e-15 * np.max(np.abs(d))

    def test_power_boundary_contractive_dilatation(self, grid256):
        rho = q.ba_extension(lambda x: np.sign(x) * np.abs(x) ** (1.0 / 1.5))
        mu = q.map_dilatation(rho, grid256)
        sup = float(np.max(np.abs(mu.field.values)))
        assert sup < 1.0
        assert sup == pytest.approx(0.4608, abs=0.01)


def test_map_dilatation_needs_an_exact_pair():
    rho = q.MapEvaluator(lambda z: z + 0.3 * np.conj(z), provenance="closed-form")
    with pytest.raises(ValueError, match="exact Wirtinger pair"):
        q.map_dilatation(rho, q.Grid(4.0, 32))


@pytest.fixture(scope="module")
def sector(grid256):
    rho = q.prop2_map(1.5)
    dbar, mu = _dbar_and_mu(rho, grid256)
    return replace(rho, dbar_field=dbar), mu


class TestSectorMap:
    def test_k_range(self):
        with pytest.raises(ValueError):
            q.prop2_map(1.0)
        with pytest.raises(ValueError):
            q.prop2_map(2.0)

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

    def test_exact_dilatation(self, grid256, sector):
        rho, mu = sector
        theta = np.angle(grid256.points())
        on_axis_sectors = (np.abs(theta) <= 0.25 * np.pi) | (np.abs(theta) >= 0.75 * np.pi)
        assert np.all(mu.field.values[on_axis_sectors] == 0.0)
        assert np.all(rho.dbar_field.values[on_axis_sectors] == 0.0)
        mid = np.abs(mu.field.values[~on_axis_sectors])
        assert np.max(np.abs(mid - (1.0 - 1.0 / 1.5))) <= 1e-15

    def test_exact_pair_matches_finite_differences(self):
        # the grid stencil on cells whose stencil stays inside one smooth
        # piece: off the box edge, the origin and the sector rays |y| = |x|
        grid = q.Grid(8.0, 512)
        dbar, d, fd_dbar, fd_d = wirtinger_and_stencil(q.prop2_map(1.5), grid)
        pts = grid.points()
        ray_gap = np.abs(np.abs(pts.real) - np.abs(pts.imag))
        cells = interior(grid) & (np.abs(pts.imag) > 1.0) & (ray_gap > 4 * grid.spacing)
        assert np.max(np.abs(dbar - fd_dbar)[cells] / np.abs(fd_d[cells])) <= 1e-7
        assert np.max(np.abs(d - fd_d)[cells] / np.abs(fd_d[cells])) <= 1e-7

    @pytest.mark.parametrize("half_width", [1e-150, 1e150])
    def test_dilatation_is_scale_free(self, sector, half_width):
        # mu is homogeneous of degree 0, and the antisymmetric axis keeps
        # the cells on the sector rays on the same branch at every L
        _, mu = sector
        scaled = q.map_dilatation(q.prop2_map(1.5), q.Grid(half_width, 256))
        assert np.max(np.abs(scaled.field.values - mu.field.values)) <= 1e-12

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
