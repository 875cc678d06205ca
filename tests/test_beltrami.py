"""Neumann-series solver, weighted operator norms, invertibility probes,
and the half-plane boundary problem."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcplane as q
from qcplane.beltrami import _neumann_stack
from qcplane.field import _root_sum_sq
from qcplane.transforms import _lanczos_top

from conftest import cinf_bump, half_widths


def windowed_noise(grid, ball, seed):
    """Compactly supported right-hand side: seeded noise under the ball window."""
    nz = q.bandlimited_noise(grid, seed=seed, cutoff=0.1)
    return q.ComplexField(grid, nz.values * ball.values.real)


@pytest.fixture(scope="module")
def mu_zero(grid256):
    vals = np.zeros((256, 256), complex)
    return q.BeltramiCoefficient(q.ComplexField(grid256, vals))


def reference_solve(mu, phi, plan, tol=1e-10, max_iter=200):
    """h <- Phi + mu S h on full n x n arrays, stopped on ||step - h||_2 <= tol ||Phi||_2."""
    area = mu.grid.cell_area()
    h = phi.values.copy()
    history = []
    for _ in range(max_iter):
        step = phi.values + mu.field.values * plan.apply(h, plan.multiplier_s)
        history.append(float(np.sqrt(area * (np.abs(step - h) ** 2).sum())))
        h = step
        if history[-1] <= tol * q.norm(phi):
            break
    return h, history


def boxed_field(grid, rows, cols, seed, amplitude=1.0):
    """Random values of modulus <= amplitude on a rows x cols box."""
    rng = np.random.default_rng(seed)
    shape = (rows[1] - rows[0], cols[1] - cols[0])
    values = np.zeros((grid.n, grid.n), dtype=complex)
    values[rows[0] : rows[1], cols[0] : cols[1]] = (
        amplitude * rng.uniform(0.0, 1.0, shape) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, shape))
    )
    return q.ComplexField(grid, values)


@st.composite
def span_within(draw, lo, hi, longest):
    """A nonempty contiguous span [a, b) of [lo, hi) no longer than ``longest``."""
    a = draw(st.integers(lo, hi - 1))
    return a, draw(st.integers(a + 1, min(hi, a + longest)))


@st.composite
def phi_span(draw, n, span, relation):
    """A span of range(n) disjoint from, overlapping or containing ``span``."""
    a, b = span
    if relation == "contains":
        return draw(st.integers(0, a)), draw(st.integers(b, n))
    if relation == "overlaps":
        shift = draw(st.integers(-(b - a) + 1, b - a - 1))
        return max(0, a + shift), min(n, b + shift)
    if a >= 1 and (b == n or draw(st.booleans())):
        return draw(span_within(0, a, n))
    return draw(span_within(b, n, n))


@st.composite
def stack_case(draw):
    """(n, mu's box, probe boxes with None for a zero probe, seed): a compact
    or full-box mu at n = 32 or 64 and two to six probes."""
    n = draw(st.sampled_from([32, 64]))
    if draw(st.booleans()):
        mu_box = ((0, n), (0, n))
    else:
        mu_box = (draw(span_within(0, n, n // 2)), draw(span_within(0, n, n // 2)))
    box = st.tuples(span_within(0, n, n), span_within(0, n, n))
    phi_boxes = draw(st.lists(st.one_of(box, st.none()), min_size=2, max_size=6))
    return n, mu_box, phi_boxes, draw(st.integers(0, 2**32 - 1))


class TestNeumannSolve:
    grid32 = q.Grid(4.0, 32)

    @settings(max_examples=40, deadline=None)
    @given(
        mu_rows=span_within(0, 32, 12),
        mu_cols=span_within(0, 32, 12),
        relations=st.tuples(*[st.sampled_from(["disjoint", "overlaps", "contains"])] * 2),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_box_local_matches_full_iteration(self, mu_rows, mu_cols, relations, seed, data):
        # Phi is disjoint from, overlaps or contains mu's box on each axis
        phi_rows = data.draw(phi_span(32, mu_rows, relations[0]))
        phi_cols = data.draw(phi_span(32, mu_cols, relations[1]))
        mu = q.BeltramiCoefficient(boxed_field(self.grid32, mu_rows, mu_cols, seed, 0.6))
        phi = boxed_field(self.grid32, phi_rows, phi_cols, seed + 1)
        report = q.neumann_solve(mu, phi)
        ref, history = reference_solve(mu, phi, q.plan_for(self.grid32))
        assert report.converged and report.iterations == len(history)
        got = report.solution.values
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.allclose(report.residual_history, history, rtol=1e-9, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        case=stack_case(),
        half_width=half_widths,
        tol=st.sampled_from([1e-3, 1e-6, 1e-10]),
        max_iter=st.integers(1, 40),
    )
    @example(
        case=(32, ((10, 18), (12, 20)), [((2, 30), (4, 8)), ((0, 32), (0, 32)), None], 7),
        half_width=1e-150, tol=1e-10, max_iter=40,
    )
    @example(
        case=(64, ((20, 30), (40, 52)), [((2, 30), (4, 8)), ((10, 60), (1, 64)), None], 8),
        half_width=1e150, tol=1e-10, max_iter=12,
    )
    @example(
        case=(32, ((0, 32), (0, 32)), [((2, 30), (4, 8)), ((0, 32), (0, 32))], 9),
        half_width=1e150, tol=1e-6, max_iter=40,
    )
    def test_stacked_solves_match_single_solves(self, case, half_width, tol, max_iter):
        # each member of a stacked iteration stops, records its residuals
        # and falls back on the rescaled sum exactly as when solved alone;
        # right-hand sides of order 1/L make that fallback run at L = 1e150
        n, mu_box, phi_boxes, seed = case
        grid = q.Grid(half_width, n)
        mu = q.BeltramiCoefficient(boxed_field(grid, *mu_box, seed, 0.6))
        zero = q.ComplexField(grid, np.zeros((n, n), dtype=complex))
        phis = [
            zero if b is None else boxed_field(grid, *b, seed + k, 1.0 / half_width)
            for k, b in enumerate(phi_boxes)
        ]
        stacked = _neumann_stack(mu, phis, [q.norm(phi) for phi in phis], tol, max_iter)
        assert len(stacked) == len(phis)
        for phi, got in zip(phis, stacked):
            alone = q.neumann_solve(mu, phi, tol=tol, max_iter=max_iter)
            assert np.array_equal(got.solution.values, alone.solution.values)
            assert got.residual_history == alone.residual_history
            assert got.converged == alone.converged

    @pytest.mark.parametrize("full_box", [False, True])
    def test_probe_family_iterates_as_one_stack(self, monkeypatch, full_box):
        # each step is one apply to the stack of the members still
        # iterating; one window of a full-box mu already fills the
        # workspace bound, so there every apply holds one member
        if full_box:
            mu = q.BeltramiCoefficient(boxed_field(self.grid32, (0, 32), (0, 32), 5, 0.6))
        else:
            ball = q.indicator_ball(self.grid32, 1.5j, 1.0, mollify_width=0.25)
            mu = q.BeltramiCoefficient(ball.with_values(0.5 * ball.values))
        probes = q.default_probes(self.grid32)
        iterations = [q.neumann_solve(mu, phi).iterations for phi in probes]
        plan = q.SpectralPlan(self.grid32)
        members = []

        def apply(values, table, rows=None, cols=None, at=None):
            assert values.ndim == 3
            members.append(values.shape[0])
            return q.SpectralPlan.apply(plan, values, table, rows, cols, at)

        plan.apply = apply
        monkeypatch.setattr("qcplane.beltrami.plan_for", lambda grid: plan)
        record = q.inverse_weighted_bound(mu, probes)
        assert record.iteration_count == sum(iterations) == sum(members)
        if full_box:
            assert members == [1] * sum(iterations)
        else:
            unconverged = [sum(k < count for count in iterations) for k in range(1, max(iterations))]
            assert len(set(iterations)) > 1
            assert members == [1] * len(probes) + unconverged

    def test_one_cell_mu_box(self):
        mu = q.BeltramiCoefficient(boxed_field(self.grid32, (9, 10), (20, 21), 3, 0.6))
        phi = boxed_field(self.grid32, (4, 28), (2, 30), 4)
        report = q.neumann_solve(mu, phi)
        ref, history = reference_solve(mu, phi, q.plan_for(self.grid32))
        assert report.iterations == len(history) > 1
        assert np.linalg.norm(report.solution.values - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_zero_rhs_gives_zero(self, mu_half, grid256):
        phi = q.ComplexField(grid256, np.zeros((256, 256), complex))
        report = q.neumann_solve(mu_half, phi)
        assert report.converged and report.iterations == 1
        assert report.residual_history == [0.0]
        assert not report.solution.values.any()

    def test_iteration_stays_on_mu_box(self, monkeypatch):
        # one apply per iteration: the source from Phi's box to mu's box,
        # then blocks on mu's box, with no n x n input
        mu = q.BeltramiCoefficient(boxed_field(self.grid32, (10, 16), (12, 20), 5, 0.6))
        phi = boxed_field(self.grid32, (2, 30), (4, 8), 6)
        plan = q.SpectralPlan(self.grid32)
        calls = []

        def apply(values, table, rows=None, cols=None, at=None):
            calls.append((values.shape, rows, cols, at))
            return q.SpectralPlan.apply(plan, values, table, rows, cols, at)

        plan.apply = apply
        monkeypatch.setattr("qcplane.beltrami.plan_for", lambda grid: plan)
        report = q.neumann_solve(mu, phi)
        box = (slice(10, 16), slice(12, 20))
        assert len(calls) == report.iterations > 1
        assert calls[0] == ((1, 28, 4), *box, (slice(2, 30), slice(4, 8)))
        assert all(call == ((1, 6, 8), *box, box) for call in calls[1:])

    @pytest.mark.parametrize("half_width", [4.0, 1e-150, 1e150])
    def test_residuals_are_norms_of_the_steps(self, monkeypatch, half_width):
        # a full-box mu, so each step c_k - c_(k-1) fills the grid; each
        # residual is field.norm of that step field, bit for bit, also
        # where |step|^2 under- or overflows
        grid = q.Grid(half_width, 32)
        mu = q.BeltramiCoefficient(boxed_field(grid, (0, 32), (0, 32), 5, 0.6))
        phi = q.bandlimited_noise(grid, seed=3)
        steps = []

        def record(values, weight=None):
            steps.append(values.copy())
            return _root_sum_sq(values, weight)

        monkeypatch.setattr("qcplane.beltrami._root_sum_sq", record)
        report = q.neumann_solve(mu, phi)
        assert report.converged and len(steps) == report.iterations > 1
        for residual, step in zip(report.residual_history, steps):
            assert step.shape == (1, 32, 32)
            assert residual == q.norm(q.ComplexField(grid, step[0]))
        # the recorded arrays are the steps: they sum to h - Phi
        total = np.sum(steps, axis=0)[0]
        gap = report.solution.values - phi.values
        assert np.linalg.norm(total - gap) <= 1e-12 * np.linalg.norm(gap)

    def test_contraction_and_convergence(self, mu_half):
        report = q.neumann_solve(mu_half, mu_half.field, tol=1e-8)
        assert report.converged
        assert report.iterations <= 30
        assert report.residual_history[-1] <= 1e-8
        hist = report.residual_history
        assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 1))
        # after the first step the residual contracts at least at rate
        # sup|mu| + margin
        ratios = [hist[i + 1] / hist[i] for i in range(1, len(hist) - 1)]
        assert max(ratios) <= 0.55

    def test_mu_zero_returns_rhs(self, grid256, mu_zero, ball256):
        phi = windowed_noise(grid256, ball256, 7)
        report = q.neumann_solve(mu_zero, phi, tol=1e-12)
        assert np.array_equal(report.solution.values, phi.values)
        assert report.iterations == 1 and report.residual_history == [0.0]

    @settings(max_examples=30, deadline=None)
    @given(
        half_width=half_widths,
        boxes=st.lists(st.tuples(span_within(0, 32, 32), span_within(0, 32, 32)), min_size=3, max_size=3),
        weights=st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linearity(self, half_width, boxes, weights, seed):
        grid = q.Grid(half_width, 32)
        mu = q.BeltramiCoefficient(boxed_field(grid, *boxes[0], seed, 0.6))
        # two right-hand sides on boxes, and one nonzero out to the grid's edge
        fs = [boxed_field(grid, *boxes[k], seed + k) for k in (1, 2)]
        fs.append(boxed_field(grid, (0, 32), (0, 32), seed + 3))
        combined = q.ComplexField(grid, sum(w * f.values for w, f in zip(weights, fs)))
        sa = q.neumann_solve(mu, combined, tol=1e-12).solution
        combo = sum(w * q.neumann_solve(mu, f, tol=1e-12).solution.values for w, f in zip(weights, fs))
        dev = q.norm(sa.with_values(sa.values - combo)) / q.norm(sa)
        assert dev <= 1e-10

    def test_resolvent_identity(self, grid256, ball256, mu_half):
        # (I - mu S)^-1 - (I - nu S)^-1 = (I - mu S)^-1 (mu - nu) S (I - nu S)^-1
        mu3 = q.BeltramiCoefficient(
            ball256.with_values(0.3 * ball256.values)
        )
        phi = windowed_noise(grid256, ball256, 4)
        plan = q.plan_for(grid256)
        g_mu = q.neumann_solve(mu_half, phi, tol=1e-12).solution
        g_nu = q.neumann_solve(mu3, phi, tol=1e-12).solution
        sg = q.beurling(plan, g_nu)
        inner = q.ComplexField(grid256, (mu_half.field.values - mu3.field.values) * sg.values)
        rhs = q.neumann_solve(mu_half, inner, tol=1e-12).solution
        dev = q.norm(
            g_mu.with_values(g_mu.values - g_nu.values - rhs.values)
        ) / q.norm(g_mu)
        assert dev <= 1e-7

    def test_stall_reports_nonconvergence(self, mu_half):
        report = q.neumann_solve(mu_half, mu_half.field, tol=1e-12, max_iter=2)
        assert not report.converged

    def test_report_serializes(self, mu_half):
        report = q.neumann_solve(mu_half, mu_half.field, tol=1e-8)
        doc = report.to_json_dict()
        assert doc["converged"] is True
        assert doc["iterations"] == report.iterations


class TestSolveBeltrami:
    def test_decay_envelope(self, mu_half):
        # the correction rho(z) - z decays like C/|z|; fit C on a middle
        # annulus and bound the outer annulus by 1.5 C / |z|
        rho = q.solve_beltrami(mu_half, tol=1e-12)
        R = mu_half.support_radius
        th = np.exp(1j * np.linspace(0, 2 * np.pi, 17)[:-1])
        mid = np.concatenate([r * th for r in (2.2 * R, 2.8 * R, 3.6 * R)])
        outer = np.concatenate([r * th for r in (4.2 * R, 5.0 * R, 5.8 * R)])
        C = np.mean(np.abs(rho(mid) - mid) * np.abs(mid))
        assert C > 0.01
        assert np.max(np.abs(rho(outer) - outer) * np.abs(outer)) <= 1.5 * C

    def test_mirror_symmetry(self, grid256, ball256, mu_half):
        # mu~(z) = conj(mu(conj z)) forces rho~ = conj(rho) on the real line
        mirrored = q.BeltramiCoefficient(
            q.ComplexField(grid256, np.conj(0.5 * ball256.values[:, ::-1]))
        )
        rho = q.solve_beltrami(mu_half, tol=1e-12)
        rho_m = q.solve_beltrami(mirrored, tol=1e-12)
        xs = np.linspace(-6.0, 6.0, 41)
        assert np.max(np.abs(rho_m(xs) - np.conj(rho(xs)))) <= 1e-7

    def test_trace_is_injective(self, grid256, ball256):
        mu3 = q.BeltramiCoefficient(
            ball256.with_values(0.3 * ball256.values)
        )
        rho = q.solve_beltrami(mu3, tol=1e-10)
        pts = q.trace_curve(rho, 8.0, 2048).points
        a, d = pts[:-1], np.diff(pts)
        crossings = 0
        for i in range(len(a) - 2):
            j = np.arange(i + 2, len(a))
            r, s = d[i], d[j]
            qp = a[j] - a[i]
            rxs = r.real * s.imag - r.imag * s.real
            t = qp.real * s.imag - qp.imag * s.real
            u = qp.real * r.imag - qp.imag * r.real
            with np.errstate(divide="ignore", invalid="ignore"):
                tt, uu = t / rxs, u / rxs
            hit = (rxs != 0) & (tt > 0) & (tt < 1) & (uu > 0) & (uu < 1)
            crossings += int(hit.sum())
        assert crossings == 0


class TestWeightedOperatorNorm:
    def test_homogeneity_exact(self, mu_half):
        base = q.weighted_operator_norm(mu_half, tol=0.0, max_iter=40)
        scaled = q.weighted_operator_norm(mu_half.scaled(0.37), tol=0.0, max_iter=40)
        dev = abs(scaled.weighted_norm_estimate - 0.37 * base.weighted_norm_estimate)
        assert dev <= 1e-10

    def test_stats_serialize(self, mu_half):
        stats = q.weighted_operator_norm(mu_half)
        doc = dataclasses.asdict(stats)
        assert doc["weighted_norm_estimate"] == stats.weighted_norm_estimate
        assert len(stats.rayleigh_history) == stats.iteration_count

    def test_matches_dense_top_singular_value(self):
        grid = q.Grid(8.0, 32)
        ball = q.indicator_ball(grid, 3j, 2.0, mollify_width=0.5)
        mu = q.BeltramiCoefficient(ball.with_values(0.5 * ball.values))
        stats = q.weighted_operator_norm(mu)
        assert stats.converged
        # B = W^1/2 mu S W^-1/2 with W = 1/|y| is A in orthonormal
        # coordinates; built column by column from the padded apply
        plan = q.plan_for(grid)
        sqrt_w = np.broadcast_to(1.0 / np.sqrt(np.abs(grid.y))[None, :], (32, 32))
        dense = np.empty((32 * 32, 32 * 32), dtype=complex)
        unit = np.zeros((32, 32), dtype=complex)
        for j in range(32 * 32):
            unit.flat[j] = 1.0 / sqrt_w.flat[j]
            dense[:, j] = (sqrt_w * mu.field.values * plan.apply(unit, plan.multiplier_s)).ravel()
            unit.flat[j] = 0.0
        ref = np.linalg.norm(dense, 2)
        assert abs(stats.weighted_norm_estimate / ref - 1.0) <= 1e-9

    def test_estimate_independent_of_seed(self, mu_half):
        # the power iteration this replaced moved by 1e-5 to 1.7e-4
        # between start vectors at its 80-iteration cap
        ests = [q.weighted_operator_norm(mu_half, seed=s).weighted_norm_estimate for s in range(5)]
        assert max(ests) - min(ests) <= 1e-9 * max(ests)

    def test_mu_zero_is_zero(self, mu_zero):
        stats = q.weighted_operator_norm(mu_zero)
        assert stats.weighted_norm_estimate == 0.0 and stats.converged
        # Lanczos stops at step 1: A v = 0 spans an invariant subspace
        assert stats.iteration_count == 1 and stats.rayleigh_history == [0.0]
        assert stats.residual == 0.0

    def test_iteration_stays_on_mu_box(self, monkeypatch):
        # each Lanczos step is two block-form applies: S from the whole
        # grid onto mu's box B, then S* from B back to the whole grid
        grid = q.Grid(4.0, 32)
        mu = q.BeltramiCoefficient(boxed_field(grid, (10, 16), (12, 20), 5, 0.6))
        plan = q.SpectralPlan(grid)
        calls = []

        def apply(values, table, rows=None, cols=None, at=None):
            name = "S" if table is plan.multiplier_s else "S*" if table is plan.multiplier_s_star else "?"
            calls.append((name, values.shape, rows, cols, at))
            return q.SpectralPlan.apply(plan, values, table, rows, cols, at)

        plan.apply = apply
        monkeypatch.setattr("qcplane.beltrami.plan_for", lambda grid: plan)
        stats = q.weighted_operator_norm(mu)
        box = (slice(10, 16), slice(12, 20))

        def spans(*slices):
            return [range(32)[s or slice(None)] for s in slices]

        assert len(calls) == 2 * stats.iteration_count > 2
        for (name, shape, rows, cols, at), (star, star_shape, *out, star_at) in zip(calls[::2], calls[1::2]):
            assert (name, shape, (rows, cols), spans(*at)) == ("S", (32, 32), box, spans(None, None))
            assert (star, star_shape, spans(*out), star_at) == ("S*", (6, 8), spans(None, None), box)

    @pytest.mark.parametrize("seed", [2])
    def test_same_krylov_sequence_as_weighted_inner_product(self, seed):
        # Lanczos in the weighted inner product itself, on n x n fields:
        # A*A v = |y| S*(conj(mu) mu S v / |y|), <u, v> = area vdot(u/|y|, v)
        grid = q.Grid(8.0, 64)
        ball = q.indicator_ball(grid, 3j, 1.5, mollify_width=0.5)
        mu = q.BeltramiCoefficient(ball.with_values(0.6 * ball.values))
        plan = q.plan_for(grid)
        abs_y = np.abs(grid.y)[None, :]
        mu_vals = mu.field.values

        def apply(v):
            av = mu_vals * plan.apply(v, plan.multiplier_s)
            return abs_y * plan.apply(np.conj(mu_vals) * av / abs_y, plan.multiplier_s_star)

        def inner(u, v):
            return grid.cell_area() * np.vdot(u / abs_y, v)

        # the seeded start vector of weighted_operator_norm
        rng = np.random.default_rng(seed)
        start = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        stats = q.weighted_operator_norm(mu, seed=seed)
        history, _ = _lanczos_top(apply, inner, start, 1e-6, 80)
        assert stats.iteration_count == len(history)
        rel = np.abs(np.array(stats.rayleigh_history) / np.array(history) - 1.0)
        assert rel.max() <= 1e-12


class TestInverseWeightedBound:
    def test_identity_at_mu_zero(self, mu_zero):
        stats = q.inverse_weighted_bound(mu_zero)
        assert abs(stats.probe_c1_estimate - 1.0) <= 1e-10

    def test_probe_stop_is_scale_free(self):
        # the stop is relative to ||Phi||, so rescaling the grid by L moves
        # no probe solve's stopping step, even where |Phi|^2 under- or overflows
        def prop2(L):
            return q.ScenarioConfig(kind="prop2", grid_n=32, grid_l=L)

        def ball(L):
            return q.ScenarioConfig(kind="ball", grid_n=32, grid_l=L, c=0.5, center=0.5j * L, radius=L / 8)

        for config in (prop2, ball):
            counts = []
            for half_width in (8.0, 1e-150, 1e150):
                mu, _ = q.build_scenario(config(half_width))
                stats = q.inverse_weighted_bound(mu)
                assert stats.converged
                counts.append(stats.iteration_count)
            assert counts[0] == counts[1] == counts[2]
        # neither mu moves with L, so neither do the residuals relative to
        # ||Phi||: not at L = 1e-150, where h^2 times an order-one sum of
        # squares is subnormal, nor at L = 1e150, where the noise probes'
        # late steps of order 1/L have subnormal squares
        for config in (prop2, ball):
            histories = {}
            for half_width in (8.0, 1e-150, 1e150):
                mu, _ = q.build_scenario(config(half_width))
                histories[half_width] = [
                    np.array(q.neumann_solve(mu, phi).residual_history) / q.norm(phi)
                    for phi in q.default_probes(mu.grid)
                ]
            for extreme in (1e-150, 1e150):
                for base, scaled in zip(histories[8.0], histories[extreme]):
                    assert np.max(np.abs(scaled / base - 1.0)) <= 1e-5

    def test_neumann_series_bound(self, mu_half):
        s = q.weighted_operator_norm(mu_half, tol=0.0, max_iter=40).weighted_norm_estimate
        c1 = q.inverse_weighted_bound(mu_half).probe_c1_estimate
        assert 1.0 <= c1 <= 1.05 / (1.0 - s) ** 2

    def test_probe_doubling_stable(self, grid256, mu_half):
        # twice the default family, by its rules: 16 windowed noise fields
        # and 8 balls at heights 0.1 L to 0.7 L
        L = grid256.half_width
        window = q.indicator_ball(grid256, 0.0, L / 2.0, mollify_width=L / 8.0)
        noise = [q.bandlimited_noise(grid256, seed=k, cutoff=0.25) for k in range(16)]
        probes = [f.with_values(f.values * window.values) for f in noise]
        for height in np.linspace(0.1, 0.7, 8) * L:
            probes.append(q.indicator_ball(grid256, 1j * height, L / 16.0, mollify_width=L / 64.0))
        base = q.inverse_weighted_bound(mu_half).probe_c1_estimate
        more = q.inverse_weighted_bound(mu_half, probes=probes).probe_c1_estimate
        assert abs(more / base - 1.0) <= 0.10

    def test_zero_probe_is_named(self, mu_half):
        probes = q.default_probes(mu_half.grid)
        probes[2] = probes[2].with_values(np.zeros_like(probes[2].values))
        with pytest.raises(ValueError, match="probe 2 is zero"):
            q.inverse_weighted_bound(mu_half, probes)


class TestSolveInhomogeneous:
    def test_requires_fine_line_sampling(self, grid256, mu_half):
        coarse = q.line_sample(lambda x: np.exp(-x * x), 16.0, 256)
        with pytest.raises(ValueError):
            q.solve_inhomogeneous(mu_half, coarse)

    def test_mu_zero_gives_zero_correction(self, grid256, mu_zero):
        m = int(round(32.0 / grid256.stagger))
        lf = q.line_sample(lambda x: cinf_bump(x / 3.0), 16.0, m)
        H, boundary = q.solve_inhomogeneous(mu_zero, lf)
        assert np.max(np.abs(H.values)) == 0.0
        assert np.max(np.abs(boundary.values)) == 0.0

    def test_boundary_duality(self, grid256, ball256):
        # pairing of the boundary trace against h equals 2i times the plane
        # pairing of dbar H against the upper Cauchy extension of h
        mu = q.BeltramiCoefficient(
            ball256.with_values(0.4 * ball256.values)
        )
        X = 16.0
        m = int(round(2 * X / grid256.stagger))
        lf = q.line_sample(lambda x: cinf_bump(x / 3.0) * np.cos(1.3 * x / 3.0), X, m)
        H, boundary = q.solve_inhomogeneous(mu, lf, tol=1e-10)

        z = grid256.points()
        mask = np.abs(mu.field.values) > 0
        rhs_vals = np.zeros_like(z)
        rhs_vals[mask] = mu.field.values[mask] * q.cauchy_line_derivative(lf, z[mask])
        g = q.neumann_solve(
            mu,
            q.ComplexField(grid256, rhs_vals),
            tol=1e-10,
        ).solution

        hb = (np.cos(0.8 * boundary.x + 0.3) * cinf_bump(boundary.x / 3.0)).astype(complex)
        lhs = np.sum(boundary.values * hb) * boundary.spacing
        hf = q.line_sample(lambda x: np.cos(0.8 * x + 0.3) * cinf_bump(x / 3.0), X, m)
        nz = np.abs(g.values) > 0
        rhs = 2j * np.sum(g.values[nz] * q.cauchy_line_extension(hf, z[nz])) * grid256.cell_area()
        assert abs(lhs - rhs) / abs(rhs) <= 1e-3

    def test_nonconvergence_raises(self, grid256, ball256):
        mu = q.BeltramiCoefficient(
            ball256.with_values(0.5 * ball256.values)
        )
        m = int(round(32.0 / grid256.stagger))
        lf = q.line_sample(lambda x: cinf_bump(x / 3.0), 16.0, m)
        with pytest.raises(q.NonConvergenceError):
            q.solve_inhomogeneous(mu, lf, tol=1e-12, max_iter=1)


def _small_mu():
    grid = q.Grid(4.0, 32)
    ball = q.indicator_ball(grid, 1j, 0.8, mollify_width=0.2)
    return q.BeltramiCoefficient(ball.with_values(0.4 * ball.values))


ITERATIONS = {
    "neumann_solve": lambda mu, k: q.neumann_solve(mu, mu.field, max_iter=k),
    "solve_beltrami": lambda mu, k: q.solve_beltrami(mu, max_iter=k),
    "weighted_operator_norm": lambda mu, k: q.weighted_operator_norm(mu, max_iter=k),
    "inverse_weighted_bound": lambda mu, k: q.inverse_weighted_bound(mu, max_iter=k),
    "solve_inhomogeneous": lambda mu, k: q.solve_inhomogeneous(
        mu, q.line_sample(lambda x: cinf_bump(x / 2.0), 4.0, 128), max_iter=k
    ),
    "curve_cauchy_operator": lambda mu, k: q.curve_cauchy_operator(
        q.CurveTrace(np.linspace(-4.0, 4.0, 64), np.linspace(-4.0, 4.0, 64) + 0j), max_iter=k
    ),
}


@pytest.mark.parametrize("max_iter", [0, -3])
@pytest.mark.parametrize("entry", sorted(ITERATIONS))
def test_iteration_budget_below_one_rejected(entry, max_iter):
    mu = _small_mu()
    for coefficient in (mu, mu.scaled(0.0)):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            ITERATIONS[entry](coefficient, max_iter)
