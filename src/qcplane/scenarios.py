"""Scenario pipeline: build a dilatation, run every diagnostic, emit reports.

A scenario names a dilatation source (mollified ball amplitude, the
closed-form sector map, a boundary-map extension, or a field file), a
grid and tolerances.  ``run_scenario`` wires it through the solver and
the analyzers and writes a JSON report plus CSV/binary artifacts whose
bytes depend only on the config: seeds are explicit, no timestamps are
recorded, and keys are emitted sorted.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files as _resource_files
from pathlib import Path

import jsonschema
import numpy as np

from .analysis import carleson_density, carleson_norm, rectifiability_energy
from .beltrami import (
    BeltramiCoefficient,
    NonConvergenceError,
    inverse_weighted_bound,
    solve_beltrami,
    weighted_operator_norm,
)
from .field import ComplexField, Grid, indicator_ball, norm, read_field, write_field
from .geometry import (
    MapEvaluator,
    ba_extension,
    bilipschitz_profile,
    chord_arc_constant,
    curve_cauchy_operator,
    fd_wirtinger,
    map_dilatation,
    prop2_map,
    regularity_check,
    trace_curve,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "build_scenario",
    "run_scenario",
    "compare_theorem1",
    "verify_theorem2",
    "default_output_root",
    "OUTPUT_ROOT_ENV",
]

OUTPUT_ROOT_ENV = "QCPLANE_OUT"

SCENARIO_KINDS = ("ball", "prop2", "ba_extension", "custom-file")


class ConfigError(ValueError):
    """Invalid scenario configuration; reported before any compute."""


def default_output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "qcplane-out"))


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one experiment.

    ``c``, ``center``, ``radius``, ``mollify`` parameterize the ball
    scenario; ``k`` is the distortion parameter of the sector map and of
    the power boundary map; ``mu_file`` points at a stored field for the
    custom scenario.  Unused parameters are ignored by the other kinds
    but still participate in the config hash.
    """

    kind: str
    grid_n: int = 256
    grid_l: float = 8.0
    tol: float = 1e-10
    max_iter: int = 200
    seed: int = 0
    trace_samples: int = 2048
    c: float = 0.3
    center: complex = 4j
    radius: float = 1.0
    mollify: float | None = None
    k: float = 1.5
    mu_file: str | None = None
    out_dir: str | None = None

    def validate(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; expected one of {SCENARIO_KINDS}")
        try:
            grid = Grid(self.grid_l, self.grid_n)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid grid: {exc}") from exc
        if not self.tol > 0:
            raise ConfigError("tol must be positive")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if self.trace_samples < 64:
            raise ConfigError("trace_samples must be at least 64")
        if self.kind == "ball":
            if not abs(self.c) < 1.0:
                raise ConfigError("ball amplitude must satisfy |c| < 1")
            if not self.radius > 0:
                raise ConfigError("ball radius must be positive")
            width = self.mollify if self.mollify is not None else self.radius / 4.0
            try:
                indicator_ball(grid, complex(self.center), self.radius, mollify_width=width)
            except ValueError as exc:
                raise ConfigError(f"invalid ball: {exc}") from exc
        elif self.kind in ("prop2", "ba_extension"):
            if not 1.0 < self.k < 2.0:
                raise ConfigError(f"k must lie in (1, 2), got {self.k}")
        elif self.kind == "custom-file":
            if not self.mu_file:
                raise ConfigError("custom-file scenario requires mu_file")

    def canonical_dict(self) -> dict:
        center = complex(self.center)
        return {
            "kind": self.kind,
            "grid_n": int(self.grid_n),
            "grid_l": float(self.grid_l),
            "tol": float(self.tol),
            "max_iter": int(self.max_iter),
            "seed": int(self.seed),
            "trace_samples": int(self.trace_samples),
            "c": float(self.c),
            "center": [center.real, center.imag],
            "radius": float(self.radius),
            "mollify": None if self.mollify is None else float(self.mollify),
            "k": float(self.k),
            "mu_file": self.mu_file,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _power_boundary(k: float):
    alpha = 1.0 / k

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.abs(x) ** alpha

    return f


def build_scenario(config: ScenarioConfig) -> tuple[BeltramiCoefficient, MapEvaluator | None]:
    """Materialize the dilatation and, for closed-form kinds, the map.

    Returns (mu, rho); rho is None when the map must come from the
    solver (ball and custom-file scenarios).
    """
    config.validate()
    grid = Grid(config.grid_l, config.grid_n)
    if config.kind == "ball":
        width = config.mollify if config.mollify is not None else config.radius / 4.0
        bump = indicator_ball(grid, complex(config.center), config.radius, mollify_width=width)
        mu = BeltramiCoefficient(bump.with_values(config.c * bump.values, bump.support_radius))
        return mu, None
    if config.kind == "prop2":
        rho, mu = prop2_map(config.k, grid)
        return mu, rho
    if config.kind == "ba_extension":
        rho = ba_extension(_power_boundary(config.k))
        mu = map_dilatation(rho, grid)
        return mu, rho
    if config.kind == "custom-file":
        path = Path(config.mu_file)
        if not path.exists():
            raise ConfigError(f"mu_file does not exist: {path}")
        try:
            mu = BeltramiCoefficient(read_field(path))
        except ValueError as exc:
            raise ConfigError(f"unusable mu_file {path}: {exc}") from exc
        return mu, None
    raise ConfigError(f"unknown scenario kind {config.kind!r}")


def _dbar_field_of(rho: MapEvaluator, grid: Grid) -> ComplexField:
    if rho.dbar_field is not None and rho.dbar_field.grid == grid:
        return rho.dbar_field
    pts = grid.points()
    dbar, _ = fd_wirtinger(rho, pts, 0.125 * np.abs(pts.imag), order=6)
    return ComplexField(grid, dbar, support_radius=float(np.sqrt(2.0) * grid.half_width))


@lru_cache(maxsize=1)
def report_schema() -> dict:
    text = _resource_files("qcplane").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def validate_document(document: dict) -> None:
    """Check an emitted document against the shipped schema; raises
    jsonschema.ValidationError on mismatch."""
    jsonschema.validate(document, report_schema())


def _write_json(path: Path, document: dict) -> None:
    validate_document(document)
    path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")


def _resolve_out(config: ScenarioConfig) -> Path:
    out = Path(config.out_dir) if config.out_dir else default_output_root()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _mu_summary(mu: BeltramiCoefficient) -> dict:
    return {
        "sup_bound": mu.sup_bound,
        "support_radius": mu.support_radius,
        "norm_l2": norm(mu.field),
    }


def run_scenario(config: ScenarioConfig) -> dict:
    """Full diagnostic pipeline; writes report.json, trace.csv, mu.bin.

    Raises NonConvergenceError after writing a partial report flagged
    ``converged: false`` if the solver stalls.
    """
    config.validate()
    out = _resolve_out(config)
    mu, rho = build_scenario(config)
    grid = mu.grid

    report: dict = {
        "document": "scenario-report",
        "config": config.canonical_dict(),
        "config_hash": config.config_hash(),
        "grid": {"half_width": grid.half_width, "n": grid.n, "spacing": grid.spacing},
        "mu": _mu_summary(mu),
        "converged": True,
    }
    write_field(mu.field, out / "mu.bin")
    report["artifacts"] = {"mu_field": "mu.bin", "trace_csv": "trace.csv"}

    density = carleson_density(mu)
    report["carleson"] = carleson_norm(density, "line").to_json_dict()
    report["operator"] = weighted_operator_norm(mu, seed=config.seed).to_json_dict()
    report["invertibility"] = inverse_weighted_bound(
        mu, tol=config.tol, max_iter=config.max_iter
    ).to_json_dict()

    try:
        if rho is None:
            rho = solve_beltrami(mu, tol=config.tol, max_iter=config.max_iter)
    except NonConvergenceError as exc:
        report["converged"] = False
        report["error"] = str(exc)
        report["solver"] = None
        _write_json(out / "report.json", report)
        raise
    report["map_provenance"] = rho.provenance
    report["solver"] = rho.report.to_json_dict() if rho.report is not None else None

    trace = trace_curve(rho, grid.half_width, config.trace_samples)
    trace.to_csv(out / "trace.csv")
    report["chord_arc"] = chord_arc_constant(trace).to_json_dict()
    report["regularity"] = regularity_check(trace)
    report["energy"] = rectifiability_energy(_dbar_field_of(rho, grid))
    report["curve_operator_norm"] = curve_cauchy_operator(trace.strided(2048))
    _write_json(out / "report.json", report)
    return report


def compare_theorem1(
    configs: list[ScenarioConfig],
    t_values: tuple[float, ...] = (0.2, 0.4, 0.8),
    out_dir: Path | str | None = None,
) -> dict:
    """Equivalence table: Carleson norm vs weighted operator norm squared.

    One row per family member plus the log-log slope of the operator
    norm squared under mu -> t*mu for the first member (computed with a
    fixed iteration budget so the scaling is exact by homogeneity).
    """
    if len(configs) < 3:
        raise ConfigError("theorem1 family needs at least 3 members")
    rows = []
    for i, config in enumerate(configs):
        mu, _ = build_scenario(config)
        if i == 0:
            mu0 = mu
        carleson = carleson_norm(carleson_density(mu), "line").norm
        stats = weighted_operator_norm(mu, seed=config.seed)
        op_sq = stats.weighted_norm_estimate**2
        rows.append(
            {
                "label": f"{config.kind}-{i}",
                "carleson_norm": carleson,
                "operator_norm_sq": op_sq,
                "ratio": (op_sq / carleson) if carleson > 0 else None,
            }
        )

    estimates = []
    for t in t_values:
        stats = weighted_operator_norm(mu0.scaled(t), tol=0.0, max_iter=40, seed=configs[0].seed)
        estimates.append(stats.weighted_norm_estimate)
    slope = float(
        np.polyfit(np.log(np.asarray(t_values)), np.log(np.asarray(estimates) ** 2), 1)[0]
    )
    table = {
        "document": "theorem1-table",
        "rows": rows,
        "t_values": [float(t) for t in t_values],
        "norm_sq_slope": slope,
        "config_hashes": [config.config_hash() for config in configs],
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["label,carleson_norm,operator_norm_sq,ratio"]
        for row in rows:
            ratio = "" if row["ratio"] is None else repr(row["ratio"])
            lines.append(f"{row['label']},{row['carleson_norm']!r},{row['operator_norm_sq']!r},{ratio}")
        lines.append(f"norm_sq_slope,,,{slope!r}")
        (out_dir / "theorem1.csv").write_text("\n".join(lines) + "\n")
        _write_json(out_dir / "theorem1.json", table)
    return table


def _blowup_pairs(half_width: float) -> np.ndarray:
    x = np.geomspace(1e-4 * half_width, 0.5 * half_width, 24)
    return np.stack([x.astype(complex), -x.astype(complex)], axis=1)


def verify_theorem2(config: ScenarioConfig, out_path: Path | str | None = None) -> dict:
    """Invertibility-vs-geometry summary for one scenario.

    Emits the triple (Carleson norm, empirical c1, windowed chord-arc
    constant) and the rectifiability pair (weighted energy, relative
    trace-length change under sample doubling).  The sector-map scenario
    carries a non-bilipschitz flag with the measured boundary blowup
    exponent.
    """
    config.validate()
    mu, rho = build_scenario(config)
    grid = mu.grid
    carleson = carleson_norm(carleson_density(mu), "line").norm
    c1 = inverse_weighted_bound(mu, tol=config.tol, max_iter=config.max_iter).probe_c1_estimate
    if rho is None:
        rho = solve_beltrami(mu, tol=config.tol, max_iter=config.max_iter)
    trace = trace_curve(rho, grid.half_width, config.trace_samples)
    fine = trace_curve(rho, grid.half_width, 2 * config.trace_samples)
    length = trace.total_length()
    delta = abs(fine.total_length() - length) / length
    chord_arc = chord_arc_constant(trace)
    energy = rectifiability_energy(_dbar_field_of(rho, grid))

    blowup = None
    if config.kind == "prop2":
        blowup = bilipschitz_profile(rho, _blowup_pairs(grid.half_width)).blowup_exponent
    summary = {
        "document": "theorem2-summary",
        "config": config.canonical_dict(),
        "config_hash": config.config_hash(),
        "carleson_norm": carleson,
        "c1_estimate": c1,
        "chord_arc_constant": chord_arc.constant,
        "energy": energy,
        "trace_refinement_delta": delta,
        "non_bilipschitz": config.kind == "prop2",
        "blowup_exponent": blowup,
        "converged": True,
    }
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(out_path, summary)
    return summary
