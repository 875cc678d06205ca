"""Scenario pipeline: build a dilatation, run every diagnostic, emit reports.

A scenario names a dilatation source (mollified ball amplitude, the
closed-form sector map, a boundary-map extension, or a field file), a
grid and tolerances.  ``run_scenario`` wires it through the solver and
the analyzers and writes a JSON report plus CSV/binary artifacts whose
bytes depend only on the config: seeds are explicit, no timestamps are
recorded, and keys are emitted sorted.  ``run_scenario``,
``compare_theorem1`` and ``verify_theorem2`` read their stages from one
per-run record, ``_Run``, which writes each stage and ``converged`` once.
"""

from __future__ import annotations

import cmath
import errno
import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, lru_cache
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
from .field import Grid, indicator_ball, norm, read_field, write_field
from .geometry import (
    MapEvaluator,
    _dbar_and_mu,
    ba_extension,
    bilipschitz_profile,
    chord_arc_constant,
    curve_cauchy_operator,
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

    ``c``, ``center``, ``radius`` parameterize the ball scenario, whose
    indicator is mollified over a ramp of width radius/4; ``k`` is the
    distortion parameter of the sector map and of the power boundary
    map; ``mu_file`` points at a stored field for the custom scenario.
    Unused parameters are ignored by the other kinds but still
    participate in the config hash.
    """

    kind: str
    grid_n: int = 256
    grid_l: float = 8.0
    tol: float = 1e-10
    seed: int = 0
    trace_samples: int = 2048
    c: float = 0.3
    center: complex = 4j
    radius: float = 1.0
    k: float = 1.5
    mu_file: str | None = None
    out_dir: str | None = None

    def canonical_dict(self) -> dict:
        """Every field but ``out_dir``, cast by its declared type; a complex is [re, im]."""
        casts = {"int": int, "float": float, "complex": lambda z: [complex(z).real, complex(z).imag]}
        return {
            f.name: casts.get(f.type, lambda value: value)(getattr(self, f.name))
            for f in fields(self)
            if f.name != "out_dir"
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
    solver (ball and custom-file scenarios).  A closed-form rho carries
    its ``dbar_field`` on the scenario grid, from its exact Wirtinger
    pair.

    Raises
    ------
    ConfigError
        On a config that names no scenario kind, that has a non-finite
        number, even in a field its kind ignores (every field goes into
        the report header), or that its kind cannot build: each
        parameter is checked before the computation that uses it.
    """
    if config.kind not in SCENARIO_KINDS:
        raise ConfigError(f"unknown scenario kind {config.kind!r}; expected one of {SCENARIO_KINDS}")
    try:
        grid = Grid(config.grid_l, config.grid_n)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
    for param in fields(config):
        value = getattr(config, param.name)
        if param.type in ("float", "complex") and not cmath.isfinite(value):
            raise ConfigError(f"{param.name} must be finite, got {value!r}")
    if not config.tol > 0:
        raise ConfigError("tol must be positive")
    if config.trace_samples < 64:
        raise ConfigError("trace_samples must be at least 64")
    if config.kind == "ball":
        if not abs(config.c) < 1.0:
            raise ConfigError("ball amplitude must satisfy |c| < 1")
        if not config.radius > 0:
            raise ConfigError("ball radius must be positive")
        try:
            width = config.radius / 4.0
            bump = indicator_ball(grid, complex(config.center), config.radius, mollify_width=width)
        except ValueError as exc:
            raise ConfigError(f"invalid ball: {exc}") from exc
        mu = BeltramiCoefficient(bump.with_values(config.c * bump.values))
        return mu, None
    if config.kind in ("prop2", "ba_extension"):
        if not 1.0 < config.k < 2.0:
            raise ConfigError(f"k must lie in (1, 2), got {config.k}")
        rho = prop2_map(config.k) if config.kind == "prop2" else ba_extension(_power_boundary(config.k))
        dbar, mu = _dbar_and_mu(rho, grid)
        return mu, replace(rho, dbar_field=dbar)
    if not config.mu_file:  # custom-file, the one kind left
        raise ConfigError("custom-file scenario requires mu_file")
    path = Path(config.mu_file)
    try:
        mu = BeltramiCoefficient(read_field(path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unusable mu_file {path}: {exc}") from exc
    return mu, None


@lru_cache(maxsize=1)
def report_schema() -> dict:
    text = _resource_files("qcplane").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


@lru_cache(maxsize=1)
def _report_validator():
    """Validator for the shipped schema; the schema itself is checked once."""
    schema = report_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_document(document: dict) -> None:
    """Check an emitted document against the shipped schema; raises
    jsonschema.ValidationError on mismatch, the error
    ``jsonschema.validate`` would raise."""
    error = jsonschema.exceptions.best_match(_report_validator().iter_errors(document))
    if error is not None:
        raise error


# errors of an output path that cannot take a bundle; a failing device (ENOSPC, EIO) stays an OSError
_PATH_ERRNOS = {errno.EISDIR, errno.ENOTDIR, errno.EEXIST, errno.EACCES, errno.EPERM, errno.EROFS, errno.ENAMETOOLONG}


def _write(path: Path | str, write) -> Path:
    """Make one bundle directory or file by ``write(path)``; a path that cannot take it is a config error."""
    path = Path(path)
    try:
        write(path)
    except OSError as exc:
        if exc.errno not in _PATH_ERRNOS:
            raise
        raise ConfigError(f"unusable output path {path}: {exc}") from exc
    return path


def _write_json(path: Path | str, document: dict) -> None:
    validate_document(document)
    _write(path, lambda p: p.write_text(json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"))


def _not_a_directory(path: Path) -> None:
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def _output_dir(path: Path | str, *names: str) -> Path:
    """Make the output directory; a bundle name in it taken by a directory
    is the config error its write would raise, before any compute."""
    out = _write(path, lambda p: p.mkdir(parents=True, exist_ok=True))
    for name in names:
        _write(out / name, _not_a_directory)
    return out


class _Run:
    """One scenario's pipeline: the recorded config, mu, and each stage,
    computed on first read and kept.

    The stage functions are looked up in this module at call time, so
    rebinding one (for tracing, or in a test) reaches every entry point.
    """

    def __init__(self, config: ScenarioConfig):
        self.mu, self._closed_form = build_scenario(config)
        self.grid = self.mu.grid
        # a custom-file scenario runs on the file's grid, not on grid_n/grid_l
        if config.kind == "custom-file":
            config = replace(config, grid_n=self.grid.n, grid_l=self.grid.half_width)
        self.config = config

    def header(self, document: str) -> dict:
        return {
            "document": document,
            "config": self.config.canonical_dict(),
            "config_hash": self.config.config_hash(),
        }

    @cached_property
    def carleson(self):
        return carleson_norm(carleson_density(self.mu))

    @cached_property
    def operator(self):
        return weighted_operator_norm(self.mu, seed=self.config.seed)

    @cached_property
    def invertibility(self):
        """The probe stage; ConfigError if the grid is too coarse to hold the probe family."""
        try:
            return inverse_weighted_bound(self.mu, tol=self.config.tol)
        except ValueError as exc:
            raise ConfigError(f"grid n={self.grid.n} is too coarse for the probe family: {exc}") from exc

    @cached_property
    def rho(self) -> MapEvaluator:
        """The closed-form map, or the solved one; NonConvergenceError if the solve stalls."""
        if self._closed_form is not None:
            return self._closed_form
        return solve_beltrami(self.mu, tol=self.config.tol)

    @cached_property
    def trace(self):
        return trace_curve(self.rho, self.grid.half_width, self.config.trace_samples)

    @cached_property
    def chord_arc(self):
        return chord_arc_constant(self.trace)

    @cached_property
    def regularity(self) -> float:
        return regularity_check(self.trace)

    @cached_property
    def curve_operator(self):
        return curve_cauchy_operator(self.trace.strided(2048))

    @cached_property
    def refinement_delta(self) -> float:
        """Relative change of the trace length when the samples double."""
        length = self.trace.total_length()
        fine = trace_curve(self.rho, self.grid.half_width, 2 * self.config.trace_samples)
        return abs(fine.total_length() - length) / length

    @cached_property
    def blowup_exponent(self) -> float:
        """Bilipschitz blowup exponent of the map over the pairs (x, -x), x from 1e-4 L to L/2."""
        x = np.geomspace(1e-4 * self.grid.half_width, 0.5 * self.grid.half_width, 24).astype(complex)
        return bilipschitz_profile(self.rho, np.stack([x, -x], axis=1)).blowup_exponent

    @cached_property
    def energy(self) -> float:
        return rectifiability_energy(self.rho.dbar_field)

    def converged(self, *stages: str) -> bool:
        """The AND of the flags of the named stages, each computed if not yet run: ``operator``,
        ``invertibility``, and ``rho``, whose flag is its solver's (a closed-form map has none)."""
        records = [self.rho.report if stage == "rho" else getattr(self, stage) for stage in stages]
        return all(record.converged for record in records if record is not None)


def run_scenario(config: ScenarioConfig) -> dict:
    """Full diagnostic pipeline; writes report.json, trace.csv, mu.bin.

    ``operator`` and ``invertibility`` each record an iteration count, a
    final residual and a flag; ``converged`` is ``_Run.converged`` of them
    and of the map.  Raises NonConvergenceError after writing a partial
    report flagged ``converged: false`` if the solver stalls.
    """
    run = _Run(config)
    out = _output_dir(config.out_dir or default_output_root(), "mu.bin", "trace.csv", "report.json")
    mu, grid = run.mu, run.grid
    report: dict = {
        **run.header("scenario-report"),
        "grid": {"half_width": grid.half_width, "n": grid.n, "spacing": grid.spacing},
        "mu": {"sup_bound": mu.sup_bound, "support_radius": mu.support_radius, "norm_l2": norm(mu.field)},
        "artifacts": {"mu_field": "mu.bin", "trace_csv": "trace.csv"},
        # the probe stage first: a grid too coarse for its family is a
        # ConfigError before any file is written
        "invertibility": asdict(run.invertibility),
    }
    _write(out / "mu.bin", lambda p: write_field(mu.field, p))
    report["carleson"] = run.carleson.to_json_dict()
    report["operator"] = asdict(run.operator)

    try:
        rho = run.rho
    except NonConvergenceError as exc:
        report.update(converged=False, error=str(exc), solver=None)
        _write_json(out / "report.json", report)
        raise
    report["map_provenance"] = rho.provenance
    report["solver"] = rho.report.to_json_dict() if rho.report is not None else None
    report["converged"] = run.converged("operator", "invertibility", "rho")

    _write(out / "trace.csv", run.trace.to_csv)
    report["chord_arc"] = run.chord_arc.to_json_dict()
    report["regularity"] = run.regularity
    report["energy"] = run.energy
    report["curve_operator_norm"] = run.curve_operator.weighted_norm_estimate
    _write_json(out / "report.json", report)
    return report


def _fit_rank(sups: list[float]) -> int:
    """Rank of the log-sup design of a degree-1 fit, by the test ``np.polyfit``
    applies: columns scaled to unit norm, ``lstsq`` rank at rcond len * eps.
    Amplitudes equal up to rounding give rank 1."""
    design = np.vander(np.log(sups), 2)
    design /= np.sqrt((design * design).sum(axis=0))
    return int(np.linalg.lstsq(design, np.zeros(len(sups)), rcond=len(sups) * np.finfo(float).eps)[2])


def compare_theorem1(configs: list[ScenarioConfig], out_dir: Path | str | None = None) -> dict:
    """Equivalence table: Carleson norm vs weighted operator norm squared.

    One row per family member plus ``norm_sq_slope``, the least-squares
    slope of log operator norm squared against log sup|mu| over the
    members.  There is one Lanczos run per ball shape: ball members whose
    configs are equal apart from ``c`` and ``out_dir`` share the run of
    the first of them, scaled by |c| / |c_ref| (the ratio taken first, so
    a power-of-two ratio is exact).  That is each member's own estimate
    up to rounding: mu = c * bump, so its own run would start from the
    same seeded vector with ``_MuS.gram`` scaled by (c / c_ref)^2, and
    the stop, a relative Ritz residual, is invariant under that scaling.
    So a family of scalings of one mu (the CLI's ``--c`` list) has slope
    2 up to rounding.  A member whose Carleson norm is 0 or subnormal (mu
    vanishes, or |mu|^2 underflows, so its ratio and the slope are
    rounding artefacts), or a family whose sup|mu| are one amplitude up
    to rounding, which leaves the slope undefined, is a ConfigError,
    raised before the output directory is made and before any operator
    norm runs.
    """
    if len(configs) < 3:
        raise ConfigError("theorem1 family needs at least 3 members")
    runs = [_Run(config) for config in configs]
    for i, run in enumerate(runs):
        if not run.carleson.norm >= np.finfo(float).tiny:
            raise ConfigError(f"theorem1 member {i} has a vanishing dilatation; its ratio is undefined")
    sups = [run.mu.sup_bound for run in runs]
    if _fit_rank(sups) < 2:
        raise ConfigError(f"theorem1 family has one amplitude, sup|mu| = {sups[0]:g}; its slope is undefined")
    if out_dir is not None:
        out_dir = _output_dir(out_dir, "theorem1.csv", "theorem1.json")
    shape_runs: dict = {}
    norms_sq = []
    for i, run in enumerate(runs):
        config = run.config
        shape = replace(config, c=0.0, out_dir=None) if config.kind == "ball" else i
        ref = shape_runs.setdefault(shape, run)
        scale = 1.0 if ref is run else abs(config.c) / abs(ref.config.c)
        norms_sq.append((ref.operator.weighted_norm_estimate * scale) ** 2)
    rows = [
        {
            "label": f"{run.config.kind}-{i}",
            "carleson_norm": run.carleson.norm,
            "operator_norm_sq": op_sq,
            "ratio": op_sq / run.carleson.norm,
        }
        for i, (run, op_sq) in enumerate(zip(runs, norms_sq))
    ]
    slope = float(np.polyfit(np.log(sups), np.log(norms_sq), 1)[0])
    table = {
        "document": "theorem1-table",
        "rows": rows,
        "norm_sq_slope": slope,
        "config_hashes": [config.config_hash() for config in configs],
    }
    if out_dir is not None:
        lines = ["label,carleson_norm,operator_norm_sq,ratio"]
        lines += [f"{r['label']},{r['carleson_norm']!r},{r['operator_norm_sq']!r},{r['ratio']!r}" for r in rows]
        lines.append(f"norm_sq_slope,,,{slope!r}")
        _write(out_dir / "theorem1.csv", lambda p: p.write_text("\n".join(lines) + "\n"))
        _write_json(out_dir / "theorem1.json", table)
    return table


def verify_theorem2(config: ScenarioConfig, out_path: Path | str | None = None) -> dict:
    """Invertibility-vs-geometry summary for one scenario.

    Emits the triple (Carleson norm, empirical c1, windowed chord-arc
    constant) and the rectifiability pair (weighted energy, relative
    trace-length change under sample doubling).  The sector-map scenario
    carries a non-bilipschitz flag with the measured boundary blowup
    exponent.  ``converged`` is ``_Run.converged`` of the probes, the AND of
    the probe solves' flags, as the operator norm does not run; a stalled
    Beltrami solve raises NonConvergenceError.
    """
    run = _Run(config)
    if out_path is not None:
        _output_dir(Path(out_path).parent, Path(out_path).name)
    summary = {
        **run.header("theorem2-summary"),
        "carleson_norm": run.carleson.norm,
        "c1_estimate": run.invertibility.probe_c1_estimate,
        "chord_arc_constant": run.chord_arc.constant,
        "energy": run.energy,
        "trace_refinement_delta": run.refinement_delta,
        "non_bilipschitz": config.kind == "prop2",
        "blowup_exponent": run.blowup_exponent if config.kind == "prop2" else None,
        "converged": run.converged("invertibility"),
    }
    if out_path is not None:
        _write_json(out_path, summary)
    return summary
