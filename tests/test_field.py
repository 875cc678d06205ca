"""Grid geometry, field containers, dilatation validation, and file IO."""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qcplane as q
from qcplane.field import _root_sum_sq, _smooth_step, _weight_values
from conftest import half_widths


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            q.Grid(8.0, 100)  # not a power of two
        with pytest.raises(ValueError):
            q.Grid(8.0, 8)  # below the minimum
        with pytest.raises(ValueError):
            q.Grid(-1.0, 64)
        with pytest.raises(ValueError):
            q.Grid(np.inf, 64)
        with pytest.raises(ValueError, match="cell area of inf"):
            q.Grid(1e300, 32)
        with pytest.raises(ValueError, match="cell area of 0.0"):
            q.Grid(1e-300, 32)

    def test_staggered_coordinates(self):
        grid = q.Grid(8.0, 64)
        h = 16.0 / 64
        assert grid.spacing == h
        assert grid.stagger == h / 2
        assert grid.cell_area() == h * h
        assert grid.x[0] == -8.0 + h / 2
        assert grid.x[-1] == 8.0 - h / 2
        # no sample sits on either axis
        assert np.all(np.abs(grid.x) >= h / 2)

    @settings(max_examples=60, deadline=None)
    @given(half_width=half_widths, n=st.sampled_from([16, 32, 64, 128, 256, 512]))
    @example(half_width=1e-150, n=256)
    def test_axis_is_antisymmetric(self, half_width, n):
        # prop2's sector test compares |x| with |y|, so cells mirrored
        # through either axis must have exactly negated coordinates
        axis = q.Grid(half_width, n).axis
        assert np.array_equal(axis[::-1], -axis)

    def test_points_axis_convention(self):
        grid = q.Grid(8.0, 64)
        pts = grid.points()
        # axis 0 walks x, axis 1 walks y
        assert pts[3, 5] == grid.x[3] + 1j * grid.y[5]
        assert pts.shape == (64, 64)


class TestComplexField:
    def test_validation(self, grid256):
        with pytest.raises(ValueError):
            q.ComplexField(grid256, np.zeros((8, 8), complex))
        bad = np.zeros((256, 256), complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            q.ComplexField(grid256, bad)

    def test_with_values_keeps_grid(self, ball256):
        other = ball256.with_values(2.0 * ball256.values)
        assert other.grid == ball256.grid
        assert np.array_equal(other.values, 2.0 * ball256.values)

    def test_norm_and_integrate(self, grid256):
        f = q.ComplexField(grid256, np.ones((256, 256), complex))
        area = 16.0 * 16.0
        assert q.norm(f) == pytest.approx(np.sqrt(area), rel=1e-14)
        assert q.integrate(f) == pytest.approx(area, rel=1e-14)
        wn = q.norm(f, "inv_abs_y")
        expected = np.sqrt(np.sum(1.0 / np.abs(grid256.y)) * 256 * grid256.cell_area())
        assert wn == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError):
            q.norm(f, "no-such-weight")

    def test_norm_of_subnormal_values(self):
        # the largest |value| is subnormal: the sum is taken again from the
        # magnitudes over it, a real quotient (the complex one overflows)
        grid = q.Grid(1.0, 16)
        values = np.zeros((16, 16), complex)
        values[3, 4] = 3e-310 + 4e-310j
        f = q.ComplexField(grid, values)
        assert q.norm(f) == grid.spacing * abs(values[3, 4])
        # subnormal results carry about 13 digits
        weighted = grid.spacing * abs(values[3, 4]) / np.sqrt(abs(grid.y[4]))
        assert q.norm(f, "inv_abs_y") == pytest.approx(weighted, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("extreme", [1e-150, 1e150])
    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(t=1.0, seed=0)
    @example(t=0.71875, seed=0)  # L ~ 6e107: every |f|^2 / |y| is subnormal, their sum is not
    def test_norm_scale_covariance(self, extreme, t, seed):
        # L = extreme**t runs from 1 to the extreme; values of order 1/L make
        # |f|^2 / |y| overflow near 1e-150 and underflow near 1e150
        half_width = extreme**t
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        unit = q.ComplexField(q.Grid(1.0, 32), values)
        scaled = q.ComplexField(q.Grid(half_width, 32), values / half_width)
        assert q.norm(scaled) == pytest.approx(q.norm(unit), rel=1e-12, abs=0.0)
        expected = q.norm(unit, "inv_abs_y") / np.sqrt(half_width)
        assert q.norm(scaled, "inv_abs_y") == pytest.approx(expected, rel=1e-12, abs=0.0)


@st.composite
def stacks(draw):
    """A (p, r, c) stack of complex values with magnitudes near 1e-310
    (subnormal), 1e-160, 1 and 1e160, sparse down to all-zero and
    zero-size members, and no weight or the inv_abs_y row of a grid with
    c columns."""
    p, r, c = draw(st.integers(0, 3)), draw(st.integers(0, 5)), draw(st.sampled_from([16, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = draw(st.lists(st.sampled_from([-310, -160, 0, 160]), min_size=1, max_size=4, unique=True))
    shape = (p, r, c)
    values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.choice(exponents, shape)
    values[rng.random(shape) < draw(st.floats(0.0, 1.0))] = 0.0
    values[rng.random(p) < 0.3] = 0.0
    weight = draw(st.one_of(st.none(), half_widths.map(lambda L: _weight_values(q.Grid(L, c), "inv_abs_y"))))
    return values, weight


class TestRootSumSq:
    @settings(max_examples=100, deadline=None)
    @given(stack=stacks())
    def test_members_match_reference(self, stack):
        # each member's root is the one the 2-D call gives, bit for bit, and
        # within 1e-14 of a sum of squares taken over the largest modulus
        values, weight = stack
        roots = _root_sum_sq(values, weight)
        assert roots.shape == (values.shape[0],)
        w = 1.0 if weight is None else weight
        for root, member in zip(roots, values):
            assert root == _root_sum_sq(member, weight)
            mag = np.abs(member)
            largest = mag.max(initial=0.0)
            if largest == 0.0:
                assert root == 0.0
                continue
            terms = np.square(mag / largest) * w
            assert root == pytest.approx(math.sqrt(math.fsum(terms.ravel())) * largest, rel=1e-14, abs=0.0)


class TestIndicatorBall:
    def test_validation(self, grid256):
        with pytest.raises(ValueError):
            q.indicator_ball(grid256, 0.0, -1.0)
        with pytest.raises(ValueError):
            q.indicator_ball(grid256, 0.0, 1.0, mollify_width=2.0)
        with pytest.raises(ValueError):
            q.indicator_ball(grid256, 7.5 + 0j, 1.0)  # escapes the box

    def test_mass_and_range(self, grid256):
        ball = q.indicator_ball(grid256, 2j, 1.0, mollify_width=0.25)
        vals = ball.values.real
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(ball.values.imag == 0.0)
        mass = q.integrate(ball).real
        # the ramp lives between radius - width and radius
        assert np.pi * 0.75**2 < mass < np.pi * 1.0**2
        # the farthest nonzero sample lies within a cell inside |2i| + 1
        assert 3.0 < ball.support_radius <= 3.0 + grid256.spacing

    def test_sharp_indicator_is_binary(self, grid256):
        ball = q.indicator_ball(grid256, 0.0, 1.5)
        assert set(np.unique(ball.values.real)) == {0.0, 1.0}


    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([16, 32, 64, 128, 256]),
        half_width=half_widths,
        fraction=st.floats(1e-3, 0.999),
        offset=st.tuples(st.floats(-0.999, 0.999), st.floats(-0.999, 0.999)),
        ramp=st.sampled_from([0.0, 0.25, 1.0]),
    )
    def test_box_build_matches_full_grid(self, n, half_width, fraction, offset, ramp):
        # the ball is evaluated on its bounding box only; every other cell
        # is exactly the 0 a full-grid evaluation gives
        grid = q.Grid(half_width, n)
        radius = fraction * half_width
        center = complex(offset[0] * (half_width - radius), offset[1] * (half_width - radius))
        dist = np.abs(grid.points() - center)
        if ramp == 0.0:
            full = (dist <= radius).astype(complex)
        else:
            full = _smooth_step((radius - dist) / (ramp * radius)).astype(complex)
        ball = q.indicator_ball(grid, center, radius, mollify_width=ramp * radius)
        assert np.array_equal(ball.values, full)


class TestBandlimitedNoise:
    def test_deterministic_unit_mean_zero(self, grid256):
        a = q.bandlimited_noise(grid256, seed=5)
        b = q.bandlimited_noise(grid256, seed=5)
        c = q.bandlimited_noise(grid256, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert q.norm(a) == pytest.approx(1.0, abs=1e-12)
        assert abs(q.integrate(a)) <= 1e-12

    def test_band_limit_enforced(self, grid256):
        cutoff = 0.1
        f = q.bandlimited_noise(grid256, seed=0, cutoff=cutoff)
        spec = np.fft.fft2(f.values)
        xi = np.fft.fftfreq(256, d=grid256.spacing)
        mag = np.hypot(xi[:, None], xi[None, :])
        # out-of-band content is FFT round-trip rounding only
        out_of_band = np.max(np.abs(spec[mag > cutoff / grid256.spacing]))
        assert out_of_band <= 1e-12 * np.max(np.abs(spec))

    def test_cutoff_validation(self, grid256):
        with pytest.raises(ValueError):
            q.bandlimited_noise(grid256, seed=0, cutoff=0.6)
        with pytest.raises(ValueError):
            q.bandlimited_noise(grid256, seed=0, cutoff=1e-9)


class TestBeltramiCoefficient:
    def test_requires_contractive_sup(self, grid256):
        vals = np.zeros((256, 256), complex)
        vals[100, 100] = 1.0
        with pytest.raises(ValueError):
            q.BeltramiCoefficient(q.ComplexField(grid256, vals))

    def test_scaled(self, mu_half):
        half = mu_half.scaled(0.5)
        assert half.sup_bound == pytest.approx(0.5 * mu_half.sup_bound)
        assert np.array_equal(half.field.values, 0.5 * mu_half.field.values)
        assert half.support_radius == mu_half.support_radius


class TestFieldIO:
    def test_roundtrip_bitwise(self, tmp_path, grid256):
        f = q.bandlimited_noise(grid256, seed=9)
        path = tmp_path / "field.bin"
        q.write_field(f, path)
        g = q.read_field(path)
        assert g.grid == grid256
        assert np.array_equal(g.values, f.values)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.sampled_from([16, 32, 64]),
        half_width=st.floats(1e-3, 1e3),
        data=st.data(),
    )
    def test_roundtrip_bitwise_random(self, tmp_path, n, half_width, data):
        # sparse values, down to the all-zero field; the file is rewritten per example
        finite = st.floats(allow_nan=False, allow_infinity=False)
        cells = data.draw(st.lists(st.integers(0, n * n - 1), max_size=12, unique=True))
        values = np.zeros(n * n, dtype=complex)
        for cell in cells:
            values[cell] = complex(data.draw(finite), data.draw(finite))
        f = q.ComplexField(q.Grid(half_width, n), values.reshape(n, n))
        path = tmp_path / "field.bin"
        q.write_field(f, path)
        g = q.read_field(path)
        assert g.grid == f.grid
        assert g.values.tobytes() == f.values.tobytes()
        # the support radius: farthest nonzero sample plus one cell, or
        # one cell for the zero field; it survives the round trip
        grid = f.grid
        reach = np.abs(grid.points()[np.abs(f.values) > 0])
        if reach.size:
            assert np.all(reach <= f.support_radius)
            assert f.support_radius == reach.max() + grid.spacing
        else:
            assert f.support_radius == grid.spacing
        assert g.support_radius == f.support_radius

    def test_support_radius_reconstruction(self, tmp_path, grid256):
        ball = q.indicator_ball(grid256, 2j, 1.0)
        path = tmp_path / "ball.bin"
        q.write_field(ball, path)
        g = q.read_field(path)
        # reconstructed disc covers every nonzero sample
        pts = grid256.points()
        covered = np.abs(pts[np.abs(g.values) > 0]) <= g.support_radius
        assert covered.all()

    @pytest.mark.parametrize(
        "half_width, n, message",
        [(8.0, 48, "n must be a power of two"), (np.inf, 16, "half_width must be finite"), (-1.0, 16, "half_width")],
        ids=["n48", "infinite", "negative"],
    )
    def test_header_the_grid_rejects(self, tmp_path, half_width, n, message):
        # the payload holds the n x n samples the header promises; the grid
        # rejects the header, and the file is reported corrupt
        path = tmp_path / "field.bin"
        path.write_bytes(struct.pack("<dqd", half_width, n, half_width / n) + bytes(16 * n * n))
        with pytest.raises(ValueError, match=f"corrupt field file: {message}"):
            q.read_field(path)

    def test_truncated_file_rejected(self, tmp_path, grid256):
        f = q.bandlimited_noise(grid256, seed=9)
        path = tmp_path / "field.bin"
        q.write_field(f, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            q.read_field(path)
