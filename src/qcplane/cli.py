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
from dataclasses import fields

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
    parser.add_argument("--grid-n", type=int, help="grid points per axis (power of two)")
    parser.add_argument("--grid-l", type=float, help="grid half-width")
    parser.add_argument("--tol", type=float, help="solver tolerance")
    parser.add_argument("--out", dest="out_dir", metavar="OUT", help="output directory (default: $QCPLANE_OUT)")
    parser.add_argument("--center", type=complex, help="ball center, e.g. '1+4j'")
    parser.add_argument("--radius", type=float, help="ball radius")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcplane", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # a scenario option left out is absent from the namespace and takes its ScenarioConfig default
    for name, help_text in (
        ("run", "run one scenario and write its report bundle"),
        ("theorem2", "invertibility and chord-arc summary for one scenario"),
    ):
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
        _add_common(p)
        p.add_argument("--k", type=float, help="distortion parameter in (1, 2)")
        p.add_argument("--c", type=float, help="ball dilatation amplitude, |c| < 1")
        p.add_argument("--mu-file", type=str, help="stored field for the custom scenario")

    p_t1 = sub.add_parser(
        "theorem1", help="Carleson norm vs operator norm table over a ball family", argument_default=argparse.SUPPRESS
    )
    _add_common(p_t1)
    p_t1.add_argument("--c", type=float, nargs="+", default=[0.2, 0.4, 0.6], help="family amplitudes")

    p_st = sub.add_parser("transform-selftest", help="quick operator identities on a seeded field")
    p_st.add_argument("--grid-n", type=int, default=256)
    p_st.add_argument("--grid-l", type=float, default=8.0)
    return parser


def _config_from(args: argparse.Namespace, **given) -> ScenarioConfig:
    """The config of the options given and of ``given``; an option left out takes its ScenarioConfig default."""
    options = {f.name: getattr(args, f.name) for f in fields(ScenarioConfig) if hasattr(args, f.name)}
    return ScenarioConfig(**{**options, **given})


def _out(args: argparse.Namespace) -> str:
    return getattr(args, "out_dir", None) or str(default_output_root())


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_scenario(_config_from(args, kind=args.scenario))
    print(f"report written to {_out(args)}/report.json (config {report['config_hash'][:12]})")
    print(
        f"carleson={report['carleson']['norm']:.6g} "
        f"opnorm={report['operator']['weighted_norm_estimate']:.6g} "
        f"c1={report['invertibility']['probe_c1_estimate']:.6g} "
        f"chord_arc={report['chord_arc']['constant']:.6g}"
    )
    return 0


def _cmd_theorem1(args: argparse.Namespace) -> int:
    table = compare_theorem1([_config_from(args, kind="ball", c=c) for c in args.c], out_dir=_out(args))
    for row in table["rows"]:
        print(
            f"{row['label']}: carleson={row['carleson_norm']:.6g} "
            f"opnorm_sq={row['operator_norm_sq']:.6g} ratio={row['ratio']:.6g}"
        )
    print(f"norm_sq_slope={table['norm_sq_slope']:.4f} (table in {_out(args)}/theorem1.csv)")
    return 0


def _cmd_theorem2(args: argparse.Namespace) -> int:
    summary = verify_theorem2(_config_from(args, kind=args.scenario), out_path=f"{_out(args)}/theorem2.json")
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
    dbar_tf = dbar_fd(tf)
    resid = norm(dbar_tf.with_values(dbar_tf.values - smooth.values)) / norm(smooth)
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
