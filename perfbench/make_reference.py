#!/usr/bin/env python3
"""Write perfbench/reference.json: the correctness gate of every workload.

Runs each workload once at seed 0 and stores the values its documents
must reproduce, with their tolerances, plus direct references for the
norm estimates on the same discretisation:

- curve-operator norm: dense 2-norm of the symmetrised PV Cauchy matrix
  built from the bundle's own trace.csv;
- weighted operator norm of mu S on L^2(dm/|y|): Lanczos (``eigsh``) on
  B^H B, with B = W^(1/2) mu S W^(-1/2) and W the weight area/|y|.

Only the power-iteration start vector depends on the seed, and every
gated value is independent of it except the weighted-norm estimates,
which are gated against their direct reference; the stored values
therefore hold for every seed.

Usage: python3 perfbench/make_reference.py   (takes under a minute)
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
from scipy.sparse.linalg import LinearOperator, eigsh  # noqa: E402

import workloads  # noqa: E402
from qcplane import CurveTrace, plan_for  # noqa: E402
from qcplane.scenarios import build_scenario  # noqa: E402

# Relative tolerances.  Values computed without FFTs repeat to rounding;
# values that pass through the padded spectral solves may move by the
# wraparound level when a solve is restructured (cropping, batching).
EXACT = 1e-9
SPECTRAL = 1e-3
# Criterion 10 accepts a curve-operator norm within 5% of its target.
CURVE_NORM_TOL = 0.05
# Power iteration at its 80-iteration cap is within 2e-4 of the Lanczos
# norm at every seed tried; 1e-3 leaves room for other start vectors.
OPNORM_TOL = 1e-3


def weighted_norm_reference(mu) -> float:
    grid, n = mu.grid, mu.grid.n
    plan = plan_for(grid)
    sw = np.sqrt(grid.cell_area() / np.abs(grid.y))[None, :]
    m, mc = mu.field.values, np.conj(mu.field.values)

    def matvec(u):
        b = sw * (m * plan.apply(u.reshape(n, n) / sw, plan.multiplier_s))
        return (plan.apply(mc * sw * b, plan.multiplier_s_star) / sw).ravel()

    op = LinearOperator((n * n, n * n), matvec=matvec, dtype=complex)
    top = eigsh(op, k=1, which="LA", tol=1e-10, ncv=16, return_eigenvectors=False)[0]
    return float(np.sqrt(top))


def curve_norm_reference(trace_csv: Path) -> float:
    table = np.loadtxt(trace_csv, delimiter=",", skiprows=1)
    trace = CurveTrace(table[:, 0], table[:, 1] + 1j * table[:, 2]).strided(2048)
    gamma = trace.points
    seg = trace.segment_lengths()
    ds = np.empty(gamma.size)
    ds[0], ds[-1] = 0.5 * seg[0], 0.5 * seg[-1]
    ds[1:-1] = 0.5 * (seg[:-1] + seg[1:])
    sqrt_ds = np.sqrt(ds)
    diff = gamma[None, :] - gamma[:, None]
    np.fill_diagonal(diff, 1.0)
    kernel = 1.0 / diff
    np.fill_diagonal(kernel, 0.0)
    matrix = sqrt_ds[:, None] * kernel * sqrt_ds[None, :] / (2j * np.pi)
    return float(np.linalg.norm(matrix, 2))


def _values(document: dict, spec: dict[str, float]) -> dict:
    return {path: {"value": workloads.lookup(document, path), "rel_tol": tol} for path, tol in spec.items()}


def _support_fraction(mu) -> float:
    return float(np.count_nonzero(mu.field.values) / mu.field.values.size)


def reference_for(name: str, out_dir: Path) -> dict:
    cfgs = workloads.configs(name, 0, str(out_dir))
    document = workloads.invoke(name, cfgs, out_dir)
    mus = [build_scenario(config)[0] for config in cfgs]
    entry = {"support_fraction": _support_fraction(mus[0])}
    if name == "ball-run":
        entry["true"] = ["converged", "invertibility.converged", "solver.converged"]
        if document["operator"]["converged"]:
            entry["true"].append("operator.converged")
        entry["values"] = _values(
            document,
            {
                "mu.norm_l2": EXACT,
                "carleson.norm": EXACT,
                "invertibility.probe_c1_estimate": SPECTRAL,
                "chord_arc.constant": SPECTRAL,
                "regularity": SPECTRAL,
                "energy": SPECTRAL,
            },
        )
        entry["norms"] = {
            "curve_operator_norm": {
                "reference": curve_norm_reference(out_dir / "trace.csv"),
                "rel_tol": CURVE_NORM_TOL,
                "method": "dense 2-norm of the symmetrised matrix on the bundle's trace",
            },
            "operator.weighted_norm_estimate": {
                "reference": weighted_norm_reference(mus[0]),
                "rel_tol": OPNORM_TOL,
                "method": "eigsh on B^H B, B = W^1/2 mu S W^-1/2",
            },
        }
    else:
        entry["values"] = {"norm_sq_slope": {"value": 2.0, "abs_tol": 1e-9}}
        entry["norms"] = {}
        for i, (row, mu) in enumerate(zip(document["rows"], mus)):
            entry["values"][f"rows.{i}.carleson_norm"] = {"value": row["carleson_norm"], "rel_tol": EXACT}
            # criterion 5: one bracket C <= 100 holds for the family
            entry["values"][f"rows.{i}.ratio"] = {"range": [0.01, 100.0]}
            entry["norms"][f"rows.{i}.operator_norm_sq"] = {
                "reference": weighted_norm_reference(mu) ** 2,
                "rel_tol": 2 * OPNORM_TOL,
                "method": "square of eigsh on B^H B, B = W^1/2 mu S W^-1/2",
            }
    return entry


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name in workloads.WORKLOADS:
            out_dir = Path(tmp) / name
            out_dir.mkdir()
            reference[name] = reference_for(name, out_dir)
            print(name, json.dumps(reference[name]["norms"]), flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
