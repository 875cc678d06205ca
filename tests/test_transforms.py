"""Spectral plane transforms, free-space point evaluation, line operators,
and the difference-quotient kernel transform."""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

import qcplane as q
from conftest import half_widths
from qcplane import transforms
from qcplane.transforms import _WINDOW_CACHE_SIZE, _lanczos_top, _ritz_top, _window

TABLES = ("multiplier_s", "multiplier_s_star", "multiplier_t")


@pytest.fixture(scope="module")
def plan_exact(grid256):
    return q.SpectralPlan(grid256, padding_factor=1)


@pytest.fixture(scope="module")
def plan_pad(grid256):
    return q.plan_for(grid256)


class TestPlanPreconditions:
    def test_grid_mismatch(self, plan_exact):
        other = q.Grid(8.0, 128)
        f = q.bandlimited_noise(other, seed=0)
        with pytest.raises(ValueError):
            q.beurling(plan_exact, f)

    def test_padded_applies_to_edge_nonzero_field(self, grid256, plan_pad):
        # a field is zero beyond the grid square, so the padded transforms
        # take one that is nonzero out to the edge of the square
        f = q.bandlimited_noise(grid256, seed=0)
        assert f.values[0, 0] != 0 and f.values[-1, -1] != 0
        for transform, table in ((q.beurling, plan_pad.multiplier_s), (q.cauchy_plane, plan_pad.multiplier_t)):
            ref = dense_apply(plan_pad, f.values, table)
            got = transform(plan_pad, f).values
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def dense_apply(plan, values, table):
    """Unpruned padded apply: ifft2(fft2(zero-embedded) * table), cropped."""
    n, N = plan.grid.n, plan.n_padded
    off = (N - n) // 2
    big = np.zeros((N, N), dtype=complex)
    big[off : off + n, off : off + n] = values
    return np.fft.ifft2(np.fft.fft2(big) * table)[off : off + n, off : off + n]


@st.composite
def band(draw, n):
    lo = draw(st.integers(0, n - 1))
    return lo, draw(st.integers(lo + 1, n))


def index_slices(n):
    bound = st.none() | st.integers(-n, n)
    return st.none() | st.builds(slice, bound, bound)


def boxed_values(rng, n, rows, cols):
    """Random values on a rows x cols box whose corners are nonzero."""
    values = np.zeros((n, n), dtype=complex)
    (r0, r1), (c0, c1) = rows, cols
    values[r0:r1, c0:c1] = rng.standard_normal((r1 - r0, c1 - c0)) + 1j * rng.standard_normal((r1 - r0, c1 - c0))
    values[r0, c0] = values[r1 - 1, c1 - 1] = 1.0  # the box is the nonzero span
    return values


class TestPaddedApply:
    """The box-convolution apply against the dense reference path."""

    grid = q.Grid(4.0, 32)

    @settings(max_examples=80, deadline=None)
    @given(
        factor=st.sampled_from([1, 2, 3]),
        table=st.sampled_from(TABLES),
        in_rows=band(32),
        in_cols=band(32),
        rows=index_slices(32),
        cols=index_slices(32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_reference(self, factor, table, in_rows, in_cols, rows, cols, seed):
        plan = q.SpectralPlan(self.grid, factor)
        values = boxed_values(np.random.default_rng(seed), 32, in_rows, in_cols)
        keep = (slice(None) if rows is None else rows, slice(None) if cols is None else cols)
        ref = np.zeros((32, 32), dtype=complex)
        ref[keep] = dense_apply(plan, values, getattr(plan, table))[keep]
        got = plan.apply(values, getattr(plan, table), rows=rows, cols=cols)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref), initial=1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        factor=st.sampled_from([1, 2, 3]),
        table=st.sampled_from(TABLES),
        in_rows=band(32),
        in_cols=band(32),
        margin=st.tuples(*[st.integers(0, 3)] * 4),
        rows=index_slices(32),
        cols=index_slices(32),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_form_matches_dense_reference(self, factor, table, in_rows, in_cols, margin, rows, cols, seed):
        # the block is given at a box that may have zero margins around the
        # input's nonzero box, and comes back as the rows x cols block
        plan = q.SpectralPlan(self.grid, factor)
        values = boxed_values(np.random.default_rng(seed), 32, in_rows, in_cols)
        at = (
            slice(max(0, in_rows[0] - margin[0]), min(32, in_rows[1] + margin[1])),
            slice(max(0, in_cols[0] - margin[2]), min(32, in_cols[1] + margin[3])),
        )
        keep = (slice(None) if rows is None else rows, slice(None) if cols is None else cols)
        ref = dense_apply(plan, values, getattr(plan, table))[keep]
        got = plan.apply(values[at], getattr(plan, table), rows=rows, cols=cols, at=at)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        factor=st.sampled_from([1, 2]),
        steps=st.lists(
            st.tuples(st.sampled_from(TABLES), band(32), band(32), band(32), band(32), st.integers(0, 2**32 - 1)),
            min_size=2,
            max_size=6,
        ),
    )
    def test_workspace_reuse_across_box_shapes(self, factor, steps):
        # one plan serves windows that grow and shrink; a region left
        # unzeroed or a result aliased to the workspace shows as a
        # mismatch now or as a result changed by a later apply
        plan = q.SpectralPlan(self.grid, factor)
        kept = []
        for table, in_rows, in_cols, out_rows, out_cols, seed in steps:
            values = boxed_values(np.random.default_rng(seed), 32, in_rows, in_cols)
            at, keep = (slice(*in_rows), slice(*in_cols)), (slice(*out_rows), slice(*out_cols))
            ref = dense_apply(plan, values, getattr(plan, table))[keep]
            got = plan.apply(values[at], getattr(plan, table), *keep, at=at)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref), initial=1.0)
            kept.append((got, got.copy()))
        assert all(np.array_equal(got, copy) for got, copy in kept)

    def test_scipy_ignoring_overwrite_x(self, monkeypatch):
        # the copy-back path: every transform returns a new array
        import scipy.fft

        for name in ("fft", "ifft"):
            original = getattr(scipy.fft, name)
            monkeypatch.setattr(scipy.fft, name, lambda x, *a, _f=original, overwrite_x=False, **k: _f(x.copy(), *a, **k))
        plan = q.SpectralPlan(self.grid)
        for seed, (in_rows, in_cols, rows, cols) in enumerate(
            [((0, 32), (0, 32), (0, 32), (0, 32)), ((3, 9), (20, 31), (0, 32), (5, 7)), ((10, 12), (1, 30), (4, 20), (0, 32))]
        ):
            values = boxed_values(np.random.default_rng(seed), 32, in_rows, in_cols)
            at, keep = (slice(*in_rows), slice(*in_cols)), (slice(*rows), slice(*cols))
            ref = dense_apply(plan, values, plan.multiplier_s)[keep]
            got = plan.apply(values[at], plan.multiplier_s, *keep, at=at)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_block_must_fill_its_box(self):
        plan = q.plan_for(self.grid)
        with pytest.raises(ValueError, match="block"):
            plan.apply(np.ones((4, 5)), plan.multiplier_s, at=(slice(0, 4), slice(0, 4)))

    @pytest.mark.parametrize("table", TABLES)
    def test_zero_input_gives_zeros(self, table):
        plan = q.plan_for(self.grid)
        got = plan.apply(np.zeros((32, 32), dtype=complex), getattr(plan, table))
        assert got.shape == (32, 32) and not got.any()

    def test_rows_must_be_contiguous(self):
        plan = q.plan_for(self.grid)
        with pytest.raises(ValueError):
            plan.apply(np.ones((32, 32)), plan.multiplier_s, rows=slice(0, 32, 2))

    def test_cols_must_be_contiguous(self):
        plan = q.plan_for(self.grid)
        with pytest.raises(ValueError, match="cols"):
            plan.apply(np.ones((32, 32)), plan.multiplier_s, cols=slice(None, None, -1))

    def test_result_not_aliased_to_cache(self):
        plan = q.plan_for(self.grid)
        rng = np.random.default_rng(1)
        a, b = (rng.standard_normal((32, 32)) + 0j for _ in range(2))
        first = plan.apply(a, plan.multiplier_s)
        kept = first.copy()
        plan.apply(b, plan.multiplier_s)
        assert np.array_equal(first, kept)  # survives the next apply
        first[...] = np.nan
        assert np.array_equal(plan.apply(a, plan.multiplier_s), kept)

    def test_window_cache_stays_bounded(self):
        plan = q.SpectralPlan(self.grid)
        size = _WINDOW_CACHE_SIZE
        boxes = [((k, k + 2), (0, 32)) for k in range(size + 5)]
        first = [plan.apply(boxed_values(np.random.default_rng(k), 32, *box), plan.multiplier_s)
                 for k, box in enumerate(boxes)]
        assert _window.cache_info().currsize == size
        # evicted windows are rebuilt to the same values
        again = plan.apply(boxed_values(np.random.default_rng(0), 32, *boxes[0]), plan.multiplier_s)
        assert np.array_equal(again, first[0])
        assert _window.cache_info().currsize == size

    def test_threads_reproduce_serial_results(self):
        # large enough that the FFTs, which release the GIL, overlap; more
        # distinct boxes than the window cache holds, so threads also race
        # on building and evicting its entries
        n = 128
        rng = np.random.default_rng(2)
        cases = []
        for k in range(_WINDOW_CACHE_SIZE + 8):
            r0, c0 = rng.integers(0, n - 24, size=2)
            box = ((r0, r0 + 8 + k), (c0, c0 + 24))
            out = slice(k, k + 40), slice(n - 50 - k, n - k)
            cases.append((boxed_values(rng, n, *box), out))
        serial_plan = q.SpectralPlan(q.Grid(4.0, n))
        serial = [serial_plan.apply(v, serial_plan.multiplier_s, rows=r, cols=c) for v, (r, c) in cases]
        plan = q.SpectralPlan(q.Grid(4.0, n))
        workers = 4
        results: dict[int, list] = {}
        start = threading.Barrier(workers)

        def worker(k):
            start.wait(timeout=60)
            order = cases[k:] + cases[:k]
            got = [plan.apply(v, plan.multiplier_s, rows=r, cols=c) for v, (r, c) in order]
            results[k] = got[-k:] + got[:-k] if k else got

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(workers):
            assert all(np.array_equal(r, s) for r, s in zip(results[k], serial))
        assert _window.cache_info().currsize == _WINDOW_CACHE_SIZE

    def test_equal_plans_share_one_window(self):
        first, second = q.SpectralPlan(self.grid), q.SpectralPlan(self.grid)
        values = boxed_values(np.random.default_rng(3), 32, (5, 11), (7, 19))
        want = first.apply(values, first.multiplier_s, rows=slice(2, 30))
        before = _window.cache_info()
        got = second.apply(values, second.multiplier_s, rows=slice(2, 30))
        after = _window.cache_info()
        assert after.hits == before.hits + 1 and after.currsize == before.currsize
        assert np.array_equal(got, want)

    def test_rejects_a_table_not_the_plans(self):
        plan = q.plan_for(self.grid)
        with pytest.raises(ValueError, match="table"):
            plan.apply(np.ones((32, 32)), np.ones_like(plan.multiplier_s))

    def test_plan_for_key_is_normalised(self):
        # equal grids share one padding-2 plan
        plan = q.plan_for(self.grid)
        assert plan.padding_factor == 2
        assert q.plan_for(q.Grid(4.0, 32)) is plan
        assert q.plan_for(q.Grid(4.0, 64)) is not plan


class TestLanczosTop:
    """The shared top-singular-value engine on dense A*A."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(4, 48), budget=st.integers(1, 150), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_two_norm(self, m, budget, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        start = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ref = np.linalg.norm(a, 2)

        def apply(v):
            return a.conj().T @ (a @ v)

        history, residual = _lanczos_top(apply, np.vdot, start, 1e-12, 4 * m)
        assert residual <= 1e-12
        est = np.sqrt(history[-1])
        assert abs(est / ref - 1.0) <= 1e-10
        assert est <= ref * (1.0 + 1e-9)
        assert all(y >= x * (1.0 - 1e-12) for x, y in zip(history, history[1:]))

        # fixed budget: exactly `budget` steps, also past the dimension m,
        # unless the recurrence breaks down (residual exactly 0)
        history, residual = _lanczos_top(apply, np.vdot, start, 0.0, budget)
        assert len(history) == budget or residual == 0.0
        assert np.sqrt(history[-1]) <= ref * (1.0 + 1e-9)
        assert all(y >= x * (1.0 - 1e-12) for x, y in zip(history, history[1:]))

    def test_zero_operator_breaks_down(self):
        start = np.ones(8, dtype=complex)
        history, residual = _lanczos_top(np.zeros_like, np.vdot, start, 0.0, 50)
        assert history == [0.0] and residual == 0.0

    @pytest.mark.parametrize(
        "start",
        [np.zeros(8, complex), np.full(8, np.nan, complex), np.full(8, np.inf, complex)],
        ids=["zero", "nan", "inf"],
    )
    def test_rejects_bad_start(self, start):
        # rejected up front: no division by a zero norm, so no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="start vector"):
                _lanczos_top(lambda v: 2.0 * v, np.vdot, start, 1e-6, 10)

    @pytest.mark.parametrize("step", [1, 3])
    def test_rejects_non_finite_operator(self, step):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8))
        calls = []

        def apply(v):
            calls.append(None)
            return np.full_like(v, np.nan) if len(calls) == step else a.T @ (a @ v)

        with pytest.raises(ValueError, match="non-finite"):
            _lanczos_top(apply, np.vdot, np.ones(8, complex), 0.0, 10)
        assert len(calls) == step

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), scale=st.floats(-6.0, 6.0))
    def test_ritz_pair_matches_eigh_tridiagonal(self, k, seed, scale):
        # random positive definite tridiagonals (diagonally dominant, with
        # positive off-diagonals as Lanczos makes them), passed as slices
        # of longer buffers the way _lanczos_top passes them
        rng = np.random.default_rng(seed)
        e = rng.uniform(1e-3, 1.0, k - 1) * 10.0**scale
        d = (rng.uniform(0.0, 1.0, k) + np.r_[0.0, e] + np.r_[e, 0.0]) * 10.0**scale
        d_buf, e_buf = np.empty(300), np.empty(300)
        d_buf[:k], e_buf[: k - 1] = d, e
        theta, last = _ritz_top(d_buf[:k], e_buf[: k - 1])
        w, v = eigh_tridiagonal(d, e, select="i", select_range=(k - 1, k - 1))
        assert theta == w[0]
        assert last == v[-1, 0]

    def test_ritz_pairs_of_a_weighted_norm_run(self, monkeypatch):
        grid = q.Grid(8.0, 64)
        ball = q.indicator_ball(grid, 2j, 1.0, mollify_width=0.25)
        mu = q.BeltramiCoefficient(ball.with_values(0.5 * ball.values))
        steps = []

        def recording(d, e):
            pair = _ritz_top(d, e)
            steps.append((d.copy(), e.copy(), pair))
            return pair

        monkeypatch.setattr(transforms, "_ritz_top", recording)
        stats = q.weighted_operator_norm(mu)
        assert len(steps) == stats.iteration_count > 1
        assert [theta for _, _, (theta, _) in steps] == stats.rayleigh_history
        for d, e, (theta, last) in steps:
            k = d.size
            w, v = eigh_tridiagonal(d, e, select="i", select_range=(k - 1, k - 1))
            assert theta == w[0]
            assert last == v[-1, 0]


class TestBeurling:
    @settings(max_examples=40, deadline=None)
    @given(half_width=half_widths, seed=st.integers(0, 2**32 - 1))
    def test_isometry(self, half_width, seed):
        # the periodic multiplier is unimodular off xi = 0, so S is an
        # isometry on mean-zero fields at every scale
        grid = q.Grid(half_width, 32)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        f = q.ComplexField(grid, values - values.mean())
        plan = q.SpectralPlan(grid, padding_factor=1)
        assert abs(q.norm(q.beurling(plan, f)) / q.norm(f) - 1.0) <= 1e-12

    def test_adjoint_pairing(self, grid256, plan_exact):
        f = q.bandlimited_noise(grid256, seed=1)
        g = q.bandlimited_noise(grid256, seed=2)
        area = grid256.cell_area()
        lhs = np.vdot(g.values, q.beurling(plan_exact, f).values) * area
        rhs = np.vdot(plan_exact.apply(g.values, plan_exact.multiplier_s_star), f.values) * area
        assert abs(lhs - rhs) <= 1e-12

    def test_adjoint_inverts_on_mean_zero(self, grid256, plan_exact):
        f = q.bandlimited_noise(grid256, seed=3)  # mean-zero by construction
        back = plan_exact.apply(q.beurling(plan_exact, f).values, plan_exact.multiplier_s_star)
        assert q.norm(f.with_values(back - f.values)) <= 1e-12

    def test_ball_closed_form(self, grid256, plan_pad):
        # S maps the unit-ball indicator to -1/z^2 outside the ball
        ball = q.indicator_ball(grid256, 0.0, 1.0)
        image = q.beurling(plan_pad, ball)
        pts = grid256.points()
        ring = (np.abs(pts) >= 2.0) & (np.abs(pts) <= 4.0)
        exact = -1.0 / pts[ring] ** 2
        err = np.sqrt(
            np.mean(np.abs(image.values[ring] - exact) ** 2)
            / np.mean(np.abs(exact) ** 2)
        )
        assert err <= 0.05


class TestPlaneCauchy:
    def test_dbar_inverts(self, grid256, plan_exact):
        f = q.bandlimited_noise(grid256, seed=1, cutoff=0.08)
        tf = q.cauchy_plane(plan_exact, f)
        resid = q.dbar_fd(tf)
        rel = q.norm(resid.with_values(resid.values - f.values)) / q.norm(f)
        assert rel <= 1e-3

    def test_d_gives_beurling(self, grid256, plan_exact):
        f = q.bandlimited_noise(grid256, seed=2, cutoff=0.08)
        tf = q.cauchy_plane(plan_exact, f)
        sf = q.beurling(plan_exact, f)
        dtf = q.d_fd(tf)
        rel = q.norm(dtf.with_values(dtf.values - sf.values)) / q.norm(sf)
        assert rel <= 1e-3

    def test_point_evaluation_ball_closed_form(self, grid256):
        # free-space Cauchy transform of a ball indicator: conj(z) inside,
        # r^2/z outside
        ball = q.indicator_ball(grid256, 0.0, 1.0)
        rng = np.random.default_rng(0)
        inside = 0.7 * np.sqrt(rng.uniform(0.01, 1.0, 64)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 64)
        )
        outside = rng.uniform(2.0, 5.0, 64) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
        got_in = q.cauchy_at_points(ball, inside)
        got_out = q.cauchy_at_points(ball, outside)
        assert np.max(np.abs(got_in - np.conj(inside)) / np.abs(inside)) <= 5e-3
        assert np.max(np.abs(got_out - 1.0 / outside) * np.abs(outside)) <= 2e-2


class TestLineFunction:
    def test_node_convention(self):
        lf = q.line_sample(lambda x: x, 8.0, 32)
        assert lf.spacing == 0.5
        assert lf.x[0] == -8.0
        assert lf.x[-1] == 8.0 - 0.5
        assert np.array_equal(lf.values, lf.x.astype(complex))

    def test_validation(self):
        with pytest.raises(ValueError):
            q.LineFunction(8.0, np.zeros(8, complex))  # too few samples
        with pytest.raises(ValueError):
            q.LineFunction(-1.0, np.zeros(32, complex))

    @pytest.mark.parametrize("half_width", [np.nan, np.inf, 0.0, -1.0])
    def test_half_width_must_be_finite_and_positive(self, half_width):
        with pytest.raises(ValueError, match="half_width must be finite and positive"):
            q.LineFunction(half_width, np.ones(16))

    def test_line_sample_rejects_nan_half_width(self):
        with pytest.raises(ValueError, match="half_width must be finite and positive"):
            q.line_sample(np.ones_like, np.nan, 32)


class TestLineCauchy:
    # Cauchy integral of 1/(1+x^2): i/(2(z+i)) above R, i/(2(z-i)) below
    def test_extension_closed_form(self):
        lf = q.line_sample(lambda x: 1.0 / (1.0 + x * x), 25600.0, 204800)
        rng = np.random.default_rng(5)
        zs = rng.uniform(-3, 3, 12) + 1j * rng.uniform(0.5, 3.0, 12)
        upper = q.cauchy_line_extension(lf, zs)
        lower = q.cauchy_line_extension(lf, np.conj(zs))
        assert np.max(np.abs(upper - 0.5j / (zs + 1j))) <= 1e-3
        assert np.max(np.abs(lower - 0.5j / (np.conj(zs) - 1j))) <= 1e-3

    def test_derivative_closed_form(self):
        lf = q.line_sample(lambda x: 1.0 / (1.0 + x * x), 25600.0, 204800)
        rng = np.random.default_rng(5)
        zs = rng.uniform(-3, 3, 12) + 1j * rng.uniform(0.5, 3.0, 12)
        got = q.cauchy_line_derivative(lf, zs)
        assert np.max(np.abs(got + 0.5j / (zs + 1j) ** 2)) <= 1e-3

    def test_too_close_to_line_rejected(self):
        lf = q.line_sample(lambda x: 1.0 / (1.0 + x * x), 16.0, 64)
        with pytest.raises(ValueError):
            q.cauchy_line_extension(lf, np.array([0.1j]))


class TestPlemelj:
    def test_jump_identity_exact(self):
        line = q.line_sample(lambda x: 1.0 / (1.0 + x * x), 100.0, 4096)
        plus, minus = q.plemelj_boundary(line)
        assert np.max(np.abs(plus.values - minus.values - line.values)) <= 1e-12

    def test_pv_closed_form(self):
        # PV Cauchy of 1/(1+x^2) is (i/2) x/(1+x^2); the relative error is
        # dominated by the domain truncation, which shrinks like X^(-1/2)
        line = q.line_sample(lambda x: 1.0 / (1.0 + x * x), 72000.0, 720000)
        pv = q.line_pv_cauchy(line)
        exact = 0.5j * line.x / (1.0 + line.x**2)
        rel = np.sqrt(
            np.sum(np.abs(pv.values - exact) ** 2) / np.sum(np.abs(exact) ** 2)
        )
        assert rel <= 5e-3

    def test_pv_is_mean_of_boundary_values(self):
        line = q.line_sample(lambda x: np.exp(-x * x), 50.0, 1024)
        plus, minus = q.plemelj_boundary(line)
        pv = q.line_pv_cauchy(line)
        assert np.max(np.abs(0.5 * (plus.values + minus.values) - pv.values)) <= 1e-14


class TestDifferenceQuotientKernel:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            q.dq_kernel_transform(0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            q.dq_kernel_transform(1.0, np.array([0.0, 1.0]))
        # a non-finite step or h * xi, including one that overflows, has no transform
        for h_step, xi in ((np.nan, 1.0), (1.0, np.nan), (1.0, np.inf), (np.inf, 1.0), (1e200, 1e200)):
            with pytest.raises(ValueError, match="finite"):
                q.dq_kernel_transform(h_step, np.array([xi]))

    def test_dilation_rule_exact(self):
        xi = np.linspace(-6.0, 6.0, 241)
        xi = xi[xi != 0.0]
        a = q.dq_kernel_transform(2.0, xi)
        b = q.dq_kernel_transform(1.0, 2.0 * xi)
        assert np.array_equal(a, b)

    def test_conjugate_symmetry(self):
        xi = np.linspace(0.05, 6.0, 120)
        plus = q.dq_kernel_transform(1.0, xi)
        minus = q.dq_kernel_transform(1.0, -xi)
        assert np.max(np.abs(minus - np.conj(plus))) <= 1e-10

    @pytest.mark.parametrize("u", [0.05, 0.3, 0.75, 1.7, 4.2])
    def test_matches_quadrature(self, u):
        # independent of the closed form: QUADPACK on [-2, 2], split at the
        # log singularities -1 and 0, and its Fourier-integral routine (QAWF)
        # on the tails, with x -> -x folding the left tail onto [2, inf)
        omega = 2.0 * np.pi * u

        def kernel(x):
            return 2.0 * np.log(np.abs((1.0 + x) / x))

        total = 0.0j
        for a, b in ((-2.0, -1.0), (-1.0, 0.0), (0.0, 2.0)):
            re = quad(lambda x: kernel(x) * np.cos(omega * x), a, b)[0]
            im = quad(lambda x: kernel(x) * np.sin(omega * x), a, b)[0]
            total += re - 1j * im
        for sign in (1.0, -1.0):
            re = quad(lambda x: kernel(sign * x), 2.0, np.inf, weight="cos", wvar=omega)[0]
            im = quad(lambda x: kernel(sign * x), 2.0, np.inf, weight="sin", wvar=omega)[0]
            total += re - sign * 1j * im
        assert abs(q.dq_kernel_transform(1.0, np.array([u]))[0] - total) <= 1e-9

    def test_shape_against_fitted_multiplier(self):
        xi = np.linspace(-6.0, 6.0, 241)
        xi = xi[xi != 0.0]
        khat = q.dq_kernel_transform(1.0, xi)
        shape = (np.exp(2j * np.pi * xi) - 1.0) / np.abs(xi)
        c = np.vdot(shape, khat) / np.vdot(shape, shape)
        resid = np.linalg.norm(khat - c * shape) / np.linalg.norm(khat)
        assert resid <= 0.02
        assert abs(c - (-1.0)) <= 0.01
