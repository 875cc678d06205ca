"""Spans and counts at the qcplane layer boundaries, from outside the package.

``Tracer.install`` rebinds the public names each layer is reached
through to timing wrappers, and ``uninstall`` puts the originals back,
so untraced invocations run the package's own objects.  The names are:

- ``qcplane.scenarios.<fn>``: the stage functions the pipeline entry
  points look up in their own module at call time;
- ``qcplane.beltrami.neumann_solve`` and ``cauchy_at_points``: the
  solver's inner solves and the solved map's kernel sums;
- ``SpectralPlan.apply``: every padded FFT apply;
- ``MapEvaluator.__call__``: every evaluation of a planar map.

A span records name, start, end and parent; spans stay in memory and
are written out once the run ends.  Self time is a span's duration
minus its direct children's, which never overlap: the pipeline runs on
one thread.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from qcplane import beltrami, scenarios
from qcplane.geometry import MapEvaluator
from qcplane.transforms import SpectralPlan

ENTRY = "scenarios.entry"


def _opnorm_counts(args, kwargs, stats):
    return {"iters": stats.iteration_count, "converged": int(stats.converged), "calls": 1}


def _fft_counts(args, kwargs, result):
    plan, values = args[0], args[1]
    batch = np.asarray(values).size // (plan.grid.n * plan.grid.n)
    # bytes of the padded complex128 array each apply transforms, from sizes
    return {"applies": 1, "bytes": 16 * plan.n_padded * plan.n_padded * batch}


def _cauchy_counts(args, kwargs, result):
    field, points = args[0], args[1]
    return {"pairs": np.asarray(points).size * int(np.count_nonzero(field.values))}


# (owner, attribute, span name, counter); several names may share a span name
TARGETS = [
    (scenarios, "build_scenario", "scenarios.build", None),
    (scenarios, "validate_document", "scenarios.validate", None),
    (scenarios, "write_field", "field.io", None),
    (scenarios, "carleson_density", "analysis.carleson", None),
    (scenarios, "carleson_norm", "analysis.carleson", None),
    (scenarios, "rectifiability_energy", "analysis.energy", None),
    (scenarios, "weighted_operator_norm", "beltrami.opnorm", _opnorm_counts),
    (scenarios, "inverse_weighted_bound", "beltrami.probes", None),
    (scenarios, "solve_beltrami", "beltrami.solve", None),
    (scenarios, "trace_curve", "geometry.trace", None),
    (scenarios, "chord_arc_constant", "geometry.chord_arc", None),
    (scenarios, "regularity_check", "geometry.regularity", None),
    (scenarios, "curve_cauchy_operator", "geometry.curve_op", lambda a, k, r: {"points": a[0].size()}),
    (beltrami, "neumann_solve", "beltrami.neumann", lambda a, k, r: {"iters": r.iterations}),
    (beltrami, "cauchy_at_points", "transforms.cauchy_points", _cauchy_counts),
    (SpectralPlan, "apply", "transforms.fft", _fft_counts),
    (MapEvaluator, "__call__", "geometry.map_eval", lambda a, k, r: {"points": np.asarray(a[1]).size}),
]


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` bracket traced calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    for key, value in counter(args, kwargs, result).items():
                        record["counts"][key] = record["counts"].get(key, 0) + value
                return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _self_times(spans: list[dict]) -> list[float]:
    """Duration minus direct children's, for the spans of one invocation."""
    index = {s["id"]: i for i, s in enumerate(spans)}
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] in index:
            own[index[s["parent"]]] -= s["end"] - s["start"]
    return own


def invocation_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced invocation, keyed by metric name.

    ``spans`` are the spans recorded during the invocation; the first is
    its root.  Iterations of a Neumann solve count towards the stage
    that called it (probes or solve).
    """
    names = {s["id"]: s["name"] for s in spans}
    time_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counts: dict[tuple[str, str], float] = {}
    for s, own in zip(spans, _self_times(spans)):
        time_s[s["name"]] = time_s.get(s["name"], 0.0) + s["end"] - s["start"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + own
        scope = s["name"]
        if scope == "beltrami.neumann":
            scope = names.get(s["parent"], "") + ".neumann"
        for key, value in s["counts"].items():
            counts[(scope, key)] = counts.get((scope, key), 0) + value

    def t(name):
        return time_s.get(name, 0.0)

    def own(name):
        return self_s.get(name, 0.0)

    def c(scope, key):
        return counts.get((scope, key), 0)

    def ratio(num, den, scale):
        return scale * num / den if den else 0.0

    return {
        "scenarios.entry_s": t(ENTRY),
        "scenarios.entry_self_s": own(ENTRY),
        "scenarios.build_s": t("scenarios.build"),
        "scenarios.build_self_s": own("scenarios.build"),
        "scenarios.validate_s": t("scenarios.validate"),
        "field.io_s": t("field.io"),
        "analysis.carleson_s": t("analysis.carleson"),
        "analysis.energy_s": t("analysis.energy"),
        "beltrami.opnorm_s": t("beltrami.opnorm"),
        "beltrami.opnorm_self_s": own("beltrami.opnorm"),
        "beltrami.opnorm_iters": c("beltrami.opnorm", "iters"),
        "beltrami.opnorm_converged": ratio(c("beltrami.opnorm", "converged"), c("beltrami.opnorm", "calls"), 1.0),
        "beltrami.probes_s": t("beltrami.probes"),
        "beltrami.probes_self_s": own("beltrami.probes"),
        "beltrami.probe_iters": c("beltrami.probes.neumann", "iters"),
        "beltrami.solve_s": t("beltrami.solve"),
        "beltrami.solve_self_s": own("beltrami.solve"),
        "beltrami.solve_iters": c("beltrami.solve.neumann", "iters"),
        "transforms.fft_s": t("transforms.fft"),
        "transforms.fft_applies": c("transforms.fft", "applies"),
        "transforms.fft_ms_per_apply": ratio(t("transforms.fft"), c("transforms.fft", "applies"), 1e3),
        "transforms.fft_bytes_computed": c("transforms.fft", "bytes"),
        "transforms.cauchy_points_s": t("transforms.cauchy_points"),
        "transforms.cauchy_points_pairs": c("transforms.cauchy_points", "pairs"),
        "transforms.cauchy_ns_per_pair": ratio(
            t("transforms.cauchy_points"), c("transforms.cauchy_points", "pairs"), 1e9
        ),
        "geometry.map_evals": c("geometry.map_eval", "points"),
        "geometry.trace_s": t("geometry.trace"),
        "geometry.trace_self_s": own("geometry.trace"),
        "geometry.chord_arc_s": t("geometry.chord_arc"),
        "geometry.regularity_s": t("geometry.regularity"),
        "geometry.curve_op_s": t("geometry.curve_op"),
        "geometry.curve_op_points": c("geometry.curve_op", "points"),
    }


def layer_shares(spans: list[dict]) -> dict[str, float]:
    """Self time of each span name as a share of one invocation's root span."""
    total = spans[0]["end"] - spans[0]["start"]
    shares: dict[str, float] = {}
    for s, own in zip(spans, _self_times(spans)):
        shares[s["name"]] = shares.get(s["name"], 0.0) + own / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
