"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single summary line ("criterion N PASS/FAIL") with
the measured quantities next to their bounds, then asserts the verdict.
Reference values and discretization levels are frozen; see the test
bodies for the constructions.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

import qcplane as q
from conftest import cinf_bump
from qcplane import validate_document
from qcplane.cli import main


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ball_map():
    config = q.ScenarioConfig(kind="ball", grid_n=256, grid_l=8.0, c=0.5, center=3j, radius=1.0)
    mu, _ = q.build_scenario(config)
    return q.solve_beltrami(mu, tol=1e-10)


@pytest.fixture(scope="module")
def sector_map():
    rho = q.prop2_map(1.5)
    return rho, q.map_dilatation(rho, q.Grid(8.0, 256))


def test_criterion_01_beurling_ball_oracle():
    errs = {}
    for n in (512, 1024):
        grid = q.Grid(8.0, n)
        plan = q.SpectralPlan(grid, padding_factor=2)
        image = q.beurling(plan, q.indicator_ball(grid, 0.0, 1.0))
        pts = grid.points()
        ring = (np.abs(pts) >= 2.0) & (np.abs(pts) <= 4.0)
        exact = -1.0 / pts[ring] ** 2
        errs[n] = float(
            np.sqrt(np.mean(np.abs(image.values[ring] - exact) ** 2) / np.mean(np.abs(exact) ** 2))
        )
    ok = errs[1024] <= 0.02 and errs[1024] <= 0.6 * errs[512]
    _verdict(
        1,
        ok,
        f"annulus error {errs[1024]:.4%} at n=1024 (bound 2%), "
        f"refinement ratio {errs[1024] / errs[512]:.3f} (bound 0.6)",
    )


def test_criterion_02_isometry():
    grid = q.Grid(8.0, 256)
    plan = q.SpectralPlan(grid, padding_factor=1)
    worst = 0.0
    for seed in range(20):
        f = q.bandlimited_noise(grid, seed=seed, cutoff=0.2)
        worst = max(worst, abs(q.norm(q.beurling(plan, f)) / q.norm(f) - 1.0))
    _verdict(2, worst <= 1e-12, f"max isometry deviation {worst:.2e} over 20 seeds (bound 1e-12)")


def test_criterion_03_derivative_identities():
    grid = q.Grid(8.0, 512)
    plan = q.SpectralPlan(grid, padding_factor=1)
    worst = 0.0
    for seed in range(4):
        f = q.bandlimited_noise(grid, seed=seed, cutoff=0.05)
        tf = q.cauchy_plane(plan, f)
        r1 = q.norm(q.ComplexField(grid, q.dbar_fd(tf).values - f.values)) / q.norm(f)
        sf = q.beurling(plan, f)
        r2 = q.norm(q.ComplexField(grid, q.d_fd(tf).values - sf.values)) / q.norm(sf)
        worst = max(worst, float(r1), float(r2))
    _verdict(3, worst <= 1e-4, f"worst derivative-identity residual {worst:.2e} over 4 fields (bound 1e-4)")


def test_criterion_04_row_integral_bound():
    grid = q.Grid(8.0, 512)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-6, 6, 100) + 1j * rng.uniform(grid.stagger, 6, 100)
    vals = [q.lemma1_row_integral(z, grid) for z in pts]
    bound = 4.0 * np.pi * 1.001
    _verdict(4, max(vals) <= bound, f"max row integral {max(vals):.4f} at 100 points (bound {bound:.4f})")


def test_criterion_05_equivalence_family():
    grid = q.Grid(16.0, 256)
    ratios = []
    hom_member = None
    for r in (0.5, 1.0, 2.0, 4.0):
        for c in (0.2, 0.5, 0.8):
            ball = q.indicator_ball(grid, 2 * r * 1j, r)
            mu = q.BeltramiCoefficient(ball.with_values(c * ball.values))
            if (r, c) == (1.0, 0.2):
                hom_member = mu
            est = q.weighted_operator_norm(mu, tol=1e-5, max_iter=60).weighted_norm_estimate
            ratios.append(est**2 / q.carleson_norm(q.carleson_density(mu)).norm)
    bracket = max(max(ratios), 1.0 / min(ratios))
    base = q.weighted_operator_norm(hom_member, tol=0.0, max_iter=40).weighted_norm_estimate
    scaled = q.weighted_operator_norm(
        hom_member.scaled(0.37), tol=0.0, max_iter=40
    ).weighted_norm_estimate
    hom_dev = abs(scaled / (0.37 * base) - 1.0)
    ok = bracket <= 100.0 and hom_dev <= 1e-9
    _verdict(
        5,
        ok,
        f"12 ratios in [{min(ratios):.3f}, {max(ratios):.3f}], one bracket C={bracket:.3f} "
        f"(bound 100); homogeneity deviation {hom_dev:.2e} (bound 1e-9)",
    )


def test_criterion_06_neumann_solver():
    grid = q.Grid(8.0, 256)
    ball = q.indicator_ball(grid, 3j, 1.5, mollify_width=0.3)
    mu = q.BeltramiCoefficient(ball.with_values(0.8 * ball.values))
    phi = ball.with_values((0.3 + 0.1j) * ball.values)
    rep = q.neumann_solve(mu, phi, tol=1e-8, max_iter=100)
    hist = rep.residual_history
    ratios = [hist[i + 1] / hist[i] for i in range(1, len(hist) - 1) if hist[i] > 0]
    mu0 = q.BeltramiCoefficient(ball.with_values(0.0 * ball.values))
    exact0 = np.array_equal(q.neumann_solve(mu0, phi, tol=1e-8, max_iter=100).solution.values, phi.values)
    ok = (
        rep.converged
        and rep.iterations <= 100
        and hist[-1] <= 1e-8
        and max(ratios) <= 0.85
        and exact0
    )
    _verdict(
        6,
        ok,
        f"residual {hist[-1]:.2e} after {rep.iterations} iterations (bounds 1e-8, 100); "
        f"max contraction ratio {max(ratios):.4f} (bound 0.85); zero-coefficient exact: {exact0}",
    )


def _lemma4_g(grid, seed):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    z = grid.points()
    w = cinf_bump(np.abs(z) / 2.0)
    poly = (
        coef[0]
        + coef[1] * z / 2
        + coef[2] * np.conj(z) / 2
        + coef[3] * (z / 2) ** 2
        + coef[4] * z * np.conj(z) / 4
        + coef[5] * (np.conj(z) / 2) ** 2
    )
    return q.ComplexField(grid, w * poly)


def _lemma4_h(X, m, seed):
    rng = np.random.default_rng(seed + 1000)
    freq, phase = rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi)
    return q.line_sample(lambda x: np.cos(freq * x + phase) * cinf_bump(x / 3.0), X, m)


def _lemma4_sides(n, seed):
    grid = q.Grid(8.0, n)
    g = _lemma4_g(grid, seed)
    X = 16.0
    d = grid.stagger
    m = int(round(2 * X / d))
    lf = _lemma4_h(X, m, seed)
    x = lf.x
    nz = np.abs(lf.values) > 0
    up = x[nz] + 1j * grid.stagger
    H = 0.5 * (q.cauchy_at_points(g, up) + q.cauchy_at_points(g, np.conj(up)))
    lhs = d * np.sum(H * lf.values[nz])
    mask = np.abs(g.values) > 0
    pts = grid.points()[mask]
    rhs = 2j * grid.cell_area() * np.sum(g.values[mask] * q.cauchy_line_extension(lf, pts))
    return lhs, rhs


def test_criterion_07_pairing_duality():
    coarse, fine = [], []
    for seed in range(5):
        lhs, rhs = _lemma4_sides(512, seed)
        coarse.append(abs(lhs - rhs) / abs(rhs))
        lhs, rhs = _lemma4_sides(1024, seed)
        fine.append(abs(lhs - rhs) / abs(rhs))
    improves = all(f < c for c, f in zip(coarse, fine))
    ok = max(coarse) <= 1e-3 and improves
    _verdict(
        7,
        ok,
        f"max pairing mismatch {max(coarse):.2e} at n=512 over 5 pairs (bound 1e-3); "
        f"all improve at n=1024: {improves}",
    )


def _restriction_ratio(n):
    grid = q.Grid(8.0, n)
    ball = q.indicator_ball(grid, 2j, 1.0, mollify_width=0.25)
    mu = q.BeltramiCoefficient(ball.with_values(0.4 * ball.values))
    X = 16.0
    m = int(round(2 * X / grid.stagger))
    f = q.line_sample(lambda x: cinf_bump(x / 3.0) * np.cos(1.3 * x / 3.0), X, m)
    _, boundary = q.solve_inhomogeneous(mu, f, tol=1e-10)
    num = np.sqrt(boundary.spacing * np.sum(np.abs(boundary.values) ** 2))
    den = np.sqrt(f.spacing * np.sum(np.abs(f.values) ** 2))
    return float(num / den), f


def test_criterion_08_line_restriction():
    ratios = [_restriction_ratio(n)[0] for n in (128, 256, 512)]
    spread = max(abs(r / ratios[0] - 1.0) for r in ratios)
    grid = q.Grid(8.0, 128)
    ball = q.indicator_ball(grid, 2j, 1.0, mollify_width=0.25)
    mu0 = q.BeltramiCoefficient(ball.with_values(0.0 * ball.values))
    _, f = _restriction_ratio(128)
    H0, b0 = q.solve_inhomogeneous(mu0, f, tol=1e-10)
    zero_dev = float(max(np.max(np.abs(H0.values)), np.max(np.abs(b0.values))))
    ok = all(np.isfinite(ratios)) and spread <= 0.15 and zero_dev == 0.0
    _verdict(
        8,
        ok,
        f"restriction ratios {[f'{r:.6f}' for r in ratios]} at n=128/256/512, "
        f"spread {spread:.2%} (bound 15%); zero-coefficient restriction max {zero_dev}",
    )


def test_criterion_09_sector_map(sector_map):
    rho, mu = sector_map
    rng = np.random.default_rng(0)
    z = rng.uniform(-8, 8, 10000) + 1j * rng.uniform(-8, 8, 10000)
    mod_dev = float(np.max(np.abs(np.abs(rho(z)) - np.abs(z) ** (1 / 1.5))))
    theta = np.angle(mu.grid.points())
    axis = (np.abs(theta) <= 0.25 * np.pi) | (np.abs(theta) >= 0.75 * np.pi)
    vals = np.abs(mu.field.values)
    axis_max = float(vals[axis].max())
    mid = vals[~axis]
    mid_spread = float(mid.max() - mid.min())
    x = np.geomspace(1e-4, 4.0, 24)
    pairs = np.stack([x.astype(complex), -x.astype(complex)], axis=1)
    blowup = q.bilipschitz_profile(rho, pairs).blowup_exponent
    chord_arc = q.chord_arc_constant(q.trace_curve(rho, 8.0, 2048)).constant
    ok = (
        mod_dev <= 1e-12
        and axis_max <= 1e-6
        and mid_spread <= 1e-6
        and abs(blowup - (1.0 / 1.5 - 1.0)) <= 0.05
        and abs(chord_arc - 1.0) <= 1e-9
    )
    _verdict(
        9,
        ok,
        f"modulus deviation {mod_dev:.2e} at 1e4 points (bound 1e-12); axis-sector max "
        f"{axis_max:.2e}, mid-sector spread {mid_spread:.2e} (bounds 1e-6); blowup exponent "
        f"{blowup:.5f} (target -1/3 +- 0.05); chord-arc deviation {abs(chord_arc - 1.0):.2e} (bound 1e-9)",
    )


def test_criterion_10_curve_operator(ball_map, sector_map):
    xs = np.linspace(-8.0, 8.0, 4096)
    line_est = q.curve_cauchy_operator(q.CurveTrace(xs, xs.astype(complex)))
    stability = {}
    for label, rho in (("ball", ball_map), ("sector", sector_map[0])):
        coarse = q.curve_cauchy_operator(q.trace_curve(rho, 8.0, 1024))
        fine = q.curve_cauchy_operator(q.trace_curve(rho, 8.0, 2048))
        stability[label] = abs(fine / coarse - 1.0)
    ok = abs(line_est - 0.5) <= 0.025 and all(v <= 0.10 for v in stability.values())
    _verdict(
        10,
        ok,
        f"line norm {line_est:.6f} at 4096 samples (target 0.5 +- 5%); doubling changes "
        f"ball {stability['ball']:.2%}, sector {stability['sector']:.2%} (bound 10%)",
    )


def test_criterion_11_rectifiability_diagnostic(ball_map):
    lengths = [q.trace_curve(ball_map, 8.0, m).cum_length[-1] for m in (1025, 2049, 4097)]
    deltas = [abs(lengths[i + 1] / lengths[i] - 1.0) for i in range(2)]

    def freq_window(lo, hi, m=241):
        g = np.linspace(lo, hi, m)
        return g[g != 0.0]

    base = freq_window(-6.0, 6.0)
    k1 = q.dq_kernel_transform(1.0, base)
    sups = {1.0: float(np.max(np.abs(k1)))}
    for h in (0.5, 2.0):
        sups[h] = float(np.max(np.abs(q.dq_kernel_transform(h, freq_window(-6.0 / h, 6.0 / h)))))
    spread = (max(sups.values()) - min(sups.values())) / min(sups.values())
    mask = np.abs(base) >= 0.05
    shape = (np.exp(2j * np.pi * base[mask]) - 1.0) / np.abs(base[mask])
    fit = np.vdot(shape, k1[mask]) / np.vdot(shape, shape)
    resid = float(np.linalg.norm(k1[mask] - fit * shape) / np.linalg.norm(k1[mask]))
    ok = (
        max(deltas) <= 1e-3
        and all(np.isfinite(v) for v in sups.values())
        and spread <= 0.02
        and resid <= 0.02
    )
    _verdict(
        11,
        ok,
        f"traced-length refinement changes {deltas[0]:.2e}, {deltas[1]:.2e} (bound 1e-3); "
        f"kernel sup {sups[1.0]:.4f} with h-spread {spread:.2%} (bound 2%); shape-fit residual "
        f"{resid:.2e} at c={fit.real:.4f} (bound 2%)",
    )


def test_criterion_12_boundary_jump_and_pv():
    line = q.line_sample(lambda x: 1.0 / (1.0 + x * x), 100.0, 4096)
    plus, minus = q.plemelj_boundary(line)
    jump = float(np.max(np.abs(plus.values - minus.values - line.values)))
    X, d = 1440000.0, 0.2
    wide = q.line_sample(lambda x: 1.0 / (1.0 + x * x), X, int(round(2 * X / d)))
    pv = q.line_pv_cauchy(wide)
    oracle = 0.5j * wide.x / (1.0 + wide.x**2)
    rel = float(np.sqrt(np.sum(np.abs(pv.values - oracle) ** 2) / np.sum(np.abs(oracle) ** 2)))
    ok = jump <= 1e-12 and rel <= 1e-3
    _verdict(
        12,
        ok,
        f"jump identity deviation {jump:.2e} (bound 1e-12); principal-value error {rel:.2e} "
        f"against the closed form (bound 1e-3)",
    )


def test_criterion_13_boundary_extension():
    identity = q.ba_extension(lambda x: np.asarray(x, float))
    rng = np.random.default_rng(2)
    z = rng.uniform(-4, 4, 400) + 1j * rng.uniform(-4, 4, 400)
    affine_dev = float(np.max(np.abs(identity(z) - (z.real + 0.5j * z.imag))))
    mu_id = q.map_dilatation(identity, q.Grid(4.0, 64))
    const_dev = float(np.max(np.abs(mu_id.field.values - 1.0 / 3.0)))
    power = q.ba_extension(lambda x: np.sign(x) * np.abs(x) ** (1.0 / 1.5))
    norms = {}
    sup = 0.0
    for n in (256, 512):
        mu = q.map_dilatation(power, q.Grid(8.0, n))
        sup = max(sup, mu.sup_bound)
        norms[n] = q.carleson_norm(q.carleson_density(mu)).norm
    change = abs(norms[512] / norms[256] - 1.0)
    ok = affine_dev <= 1e-12 and const_dev <= 1e-12 and sup < 1.0 and change <= 0.10
    _verdict(
        13,
        ok,
        f"identity extension affine to {affine_dev:.2e} with dilatation constant to "
        f"{const_dev:.2e}; power boundary sup |mu| {sup:.6f} (< 1); Carleson refinement "
        f"change {change:.2%} (bound 10%)",
    )


def _silent_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_criterion_14_cli_determinism(tmp_path):
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = _silent_cli(["run", "--scenario", "ball", "--grid-n", "128", "--out", str(out)])
        assert code == 0
        digests.append(
            {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("report.json", "trace.csv", "mu.bin")
            }
        )
        validate_document(json.loads((out / "report.json").read_text()))
    identical = digests[0] == digests[1]
    t1 = _silent_cli(["theorem1", "--grid-n", "64", "--out", str(tmp_path / "t1")])
    t2 = _silent_cli(["theorem2", "--scenario", "ball", "--grid-n", "64", "--out", str(tmp_path / "t2")])
    validate_document(json.loads((tmp_path / "t1" / "theorem1.json").read_text()))
    validate_document(json.loads((tmp_path / "t2" / "theorem2.json").read_text()))
    ok = identical and t1 == 0 and t2 == 0
    _verdict(
        14,
        ok,
        f"repeated runs byte-identical: {identical} (report.json, trace.csv, mu.bin); "
        f"schema validation passed on all emitted documents",
    )
