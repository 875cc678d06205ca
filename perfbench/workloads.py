"""Benchmark workloads: inputs from a seed, one invocation, the correctness gate.

Each workload calls one public pipeline entry point exactly as the CLI
subcommand does (``run_scenario`` for ``qcplane run``, ``compare_theorem1``
for ``qcplane theorem1``), with the output directory the CLI would write to.
Sizes are scaled so that one invocation takes two to three seconds: a
run repeats its invocation many times to report a steady median.

The gate compares every invocation's document with ``reference.json``
(written by ``make_reference.py``): values with a relative or absolute
tolerance or a range, flags that must be true, and the norm estimates
against direct references computed on the same discretisation.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np

from qcplane import validate_document
from qcplane.scenarios import (
    ScenarioConfig,
    build_scenario,
    compare_theorem1,
    run_scenario,
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

THEOREM1_AMPLITUDES = (0.2, 0.4, 0.6)

WORKLOADS = {
    "ball-run": "run_scenario, ball c=0.5, n=128, 512 trace samples",
    "theorem1": "compare_theorem1, balls c=0.2/0.4/0.6, n=128",
}


def configs(name: str, seed: int, out_dir: str | None = None) -> list[ScenarioConfig]:
    """The scenario configs of one workload; ``seed`` is ScenarioConfig.seed."""
    if name == "ball-run":
        return [ScenarioConfig(kind="ball", grid_n=128, c=0.5, trace_samples=512, seed=seed, out_dir=out_dir)]
    if name == "theorem1":
        # The start vector stays at seed 0: the 80-iteration cap leaves this
        # estimate unconverged, so its error moves 16x between start vectors
        # (1e-5 to 1.7e-4 at seeds 0-9) and norm_rel_err would measure the
        # seed rather than the code.
        return [ScenarioConfig(kind="ball", grid_n=128, c=c, out_dir=out_dir) for c in THEOREM1_AMPLITUDES]
    raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")


def build_inputs(name: str, seed: int) -> None:
    """The set-up a fresh process pays before its first call."""
    for config in configs(name, seed):
        build_scenario(config)


def invoke(name: str, cfgs: list[ScenarioConfig], out_dir: Path) -> dict:
    """One workload invocation; returns the emitted document."""
    if name == "ball-run":
        return run_scenario(cfgs[0])
    return compare_theorem1(cfgs, out_dir=out_dir)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def lookup(document: dict, path: str):
    """Value at a dotted path; integer parts index lists (``rows.0.ratio``)."""
    value = document
    for part in path.split("."):
        value = value[int(part)] if isinstance(value, list) else value[part]
    return value


def check(document: dict, reference: dict) -> tuple[list[str], float | None]:
    """Gate one document; returns (failed checks, norm_rel_err).

    norm_rel_err is the largest |estimate - reference| / reference over
    the workload's norm estimates.  Every estimate is a lower bound of
    its reference (a Rayleigh quotient of a power iteration), so
    one above its reference is also a failure.
    """
    failures: list[str] = []
    try:
        validate_document(document)
    except jsonschema.ValidationError as exc:
        failures.append(f"schema: {str(exc).splitlines()[0]}")
    for path in reference.get("true", []):
        if _get(document, path, failures) is not True:
            failures.append(f"{path} is not true")
    for path, spec in reference.get("values", {}).items():
        value = _get(document, path, failures)
        if not isinstance(value, (int, float)) or not np.isfinite(value):
            failures.append(f"{path} = {value!r} is not a finite number")
        elif "range" in spec:
            lo, hi = spec["range"]
            if not lo <= value <= hi:
                failures.append(f"{path} = {value!r} outside [{lo}, {hi}]")
        else:
            err = abs(value - spec["value"])
            if "rel_tol" in spec:
                err /= abs(spec["value"])
            tol = spec.get("rel_tol", spec.get("abs_tol"))
            if not err <= tol:
                failures.append(f"{path} = {value!r} differs from {spec['value']!r} by {err:.3g} > {tol}")
    errors = []
    for path, spec in reference.get("norms", {}).items():
        value = _get(document, path, failures)
        if not isinstance(value, (int, float)) or not np.isfinite(value):
            failures.append(f"{path} = {value!r} is not a finite number")
            continue
        ref = spec["reference"]
        err = abs(value - ref) / ref
        errors.append(err)
        if not err <= spec["rel_tol"]:
            failures.append(f"{path} = {value!r} is {err:.3g} from its reference {ref!r} > {spec['rel_tol']}")
        if value > ref * (1.0 + 1e-9):
            failures.append(f"{path} = {value!r} exceeds its reference {ref!r}")
    return failures, (max(errors) if errors else None)


def _get(document: dict, path: str, failures: list[str]):
    try:
        return lookup(document, path)
    except (KeyError, IndexError, TypeError, ValueError):
        failures.append(f"{path} missing")
        return None
