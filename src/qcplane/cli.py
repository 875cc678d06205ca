"""Command-line entry points.

Subcommands: ``run`` (one scenario, full report bundle), ``theorem1``
(equivalence table over a ball family), ``theorem2`` (invertibility
summary), ``transform-selftest`` (quick operator sanity checks).

Exit codes: 0 success, 2 configuration error, 3 numerical
non-convergence or failed selftest.  The default output root comes from
the QCPLANE_OUT environment variable when ``--out`` is not given.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .beltrami import NonConvergenceError
from .field import Grid, bandlimited_noise, indicator_ball, norm
from .scenarios import (
    SCENARIO_KINDS,
    ConfigError,
    ScenarioConfig,
    compare_theorem1,
    default_output_root,
    run_scenario,
    verify_theorem2,
)
from .transforms import SpectralPlan, beurling, cauchy_plane, dbar_fd, plemelj_boundary, line_sample

__all__ = ["main", "build_parser"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-n", type=int, default=256, help="grid points per axis (power of two)")
    parser.add_argument("--grid-l", type=float, default=8.0, help="grid half-width")
    parser.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
    parser.add_argument("--out", type=str, default=None, help="output directory (default: $QCPLANE_OUT)")


def _add_scenario_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=float, default=1.5, help="distortion parameter in (1, 2)")
    parser.add_argument("--c", type=float, default=0.3, help="ball dilatation amplitude, |c| < 1")
    parser.add_argument("--center", type=complex, default=4j, help="ball center, e.g. '1+4j'")
    parser.add_argument("--radius", type=float, default=1.0, help="ball radius")
    parser.add_argument("--mu-file", type=str, default=None, help="stored field for the custom scenario")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcplane", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "run one scenario and write its report bundle"),
        ("theorem2", "invertibility and chord-arc summary for one scenario"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
        _add_common(p)
        _add_scenario_params(p)

    p_t1 = sub.add_parser("theorem1", help="Carleson norm vs operator norm table over a ball family")
    _add_common(p_t1)
    p_t1.add_argument("--c", type=float, nargs="+", default=[0.2, 0.4, 0.6], help="family amplitudes")
    p_t1.add_argument("--center", type=complex, default=4j)
    p_t1.add_argument("--radius", type=float, default=1.0)

    p_st = sub.add_parser("transform-selftest", help="quick operator identities on a seeded field")
    p_st.add_argument("--grid-n", type=int, default=256)
    p_st.add_argument("--grid-l", type=float, default=8.0)
    return parser


def _config_from(args: argparse.Namespace, kind: str, c: float | None = None) -> ScenarioConfig:
    return ScenarioConfig(
        kind=kind,
        grid_n=args.grid_n,
        grid_l=args.grid_l,
        tol=args.tol,
        c=args.c if c is None else c,
        center=args.center,
        radius=args.radius,
        k=getattr(args, "k", 1.5),
        mu_file=getattr(args, "mu_file", None),
        out_dir=args.out,
    )


def _out(args: argparse.Namespace) -> str:
    return args.out or str(default_output_root())


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_scenario(_config_from(args, args.scenario))
    print(f"report written to {_out(args)}/report.json (config {report['config_hash'][:12]})")
    print(
        f"carleson={report['carleson']['norm']:.6g} "
        f"opnorm={report['operator']['weighted_norm_estimate']:.6g} "
        f"c1={report['invertibility']['probe_c1_estimate']:.6g} "
        f"chord_arc={report['chord_arc']['constant']:.6g}"
    )
    return 0


def _cmd_theorem1(args: argparse.Namespace) -> int:
    table = compare_theorem1([_config_from(args, "ball", c=c) for c in args.c], out_dir=_out(args))
    for row in table["rows"]:
        print(
            f"{row['label']}: carleson={row['carleson_norm']:.6g} "
            f"opnorm_sq={row['operator_norm_sq']:.6g} ratio={row['ratio']:.6g}"
        )
    print(f"norm_sq_slope={table['norm_sq_slope']:.4f} (table in {_out(args)}/theorem1.csv)")
    return 0


def _cmd_theorem2(args: argparse.Namespace) -> int:
    summary = verify_theorem2(_config_from(args, args.scenario), out_path=f"{_out(args)}/theorem2.json")
    print(
        f"carleson={summary['carleson_norm']:.6g} c1={summary['c1_estimate']:.6g} "
        f"chord_arc={summary['chord_arc_constant']:.6g}"
    )
    print(
        f"energy={summary['energy']:.6g} refinement_delta={summary['trace_refinement_delta']:.3g} "
        f"non_bilipschitz={summary['non_bilipschitz']}"
    )
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    try:
        grid = Grid(args.grid_l, args.grid_n)
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
    # the sharp unit-ball image misses its 0.05 bound on a correct
    # operator once fewer than 8 cells span the ball's radius
    if grid.spacing > 1.0 / 8.0:
        raise ConfigError(
            f"grid spacing {grid.spacing:g} is too coarse for the selftest: it needs at most 1/8 "
            "(8 cells across the unit ball's radius)"
        )
    plan_exact = SpectralPlan(grid, padding_factor=1)
    checks: list[tuple[str, float, float]] = []

    noise = bandlimited_noise(grid, seed=0, cutoff=0.2)
    iso = abs(norm(beurling(plan_exact, noise)) / norm(noise) - 1.0)
    checks.append(("beurling isometry deviation", iso, 1e-12))

    smooth = bandlimited_noise(grid, seed=1, cutoff=0.08)
    tf = cauchy_plane(plan_exact, smooth)
    resid = norm(dbar_fd(tf).with_values(dbar_fd(tf).values - smooth.values)) / norm(smooth)
    checks.append(("dbar(Tf) = f relative residual", resid, 1e-3))

    plan_pad = SpectralPlan(grid, padding_factor=2)
    ball = indicator_ball(grid, 0.0, 1.0)
    s_ball = beurling(plan_pad, ball)
    pts = grid.points()
    ring = (np.abs(pts) >= 2.0) & (np.abs(pts) <= 4.0)
    exact = -1.0 / pts[ring] ** 2
    err = np.sqrt(np.mean(np.abs(s_ball.values[ring] - exact) ** 2) / np.mean(np.abs(exact) ** 2))
    checks.append(("ball image relative error", float(err), 0.05))

    line = line_sample(lambda x: 1.0 / (1.0 + x * x), 100.0, 4096)
    plus, minus = plemelj_boundary(line)
    jump = np.max(np.abs(plus.values - minus.values - line.values))
    checks.append(("boundary jump identity", float(jump), 1e-12))

    failed = False
    for name, value, bound in checks:
        ok = value <= bound
        failed = failed or not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {value:.3e} (bound {bound:.0e})")
    return 3 if failed else 0


_COMMANDS = {
    "run": _cmd_run,
    "theorem1": _cmd_theorem1,
    "theorem2": _cmd_theorem2,
    "transform-selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(json.dumps({"error": "non-convergence", "message": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
