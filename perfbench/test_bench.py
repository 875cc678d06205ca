"""Smoke test of the benchmark itself.

    python -m pytest -q perfbench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a wrong reference value shows up in the failure count, and
that tracing leaves the untraced code path running the package's own
functions.  Uses the cheapest workload with a one-second budget.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "theorem1"


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", WORKLOAD, "--seed", "0", "--seconds", "1",
            "--trace", str(trace)]
    done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_emitted_with_its_unit():
    spec = _spec()
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = _run(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_reference_value_raises_fail_rate():
    reference = copy.deepcopy(workloads.load_reference()[WORKLOAD])
    reference["values"]["rows.0.carleson_norm"]["value"] *= 1.01
    result = run.measure(WORKLOAD, 0, 0.1, trace=False, reference=reference)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_traced_run_leaves_untraced_path_unwrapped():
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(getattr(owner, attr) is not f for (owner, attr, _, _), f in zip(tracing.TARGETS, originals))
    tracer.uninstall()
    workloads.invoke(WORKLOAD, workloads.configs(WORKLOAD, 0), run.OUT / WORKLOAD)
    assert tracer.spans == []

    result = run.measure(WORKLOAD, 0, 0.1, trace=True)
    assert result["correct"]
    assert result["metrics"]["transforms.fft_applies"]["value"] > 0
    assert all(getattr(owner, attr) is f for (owner, attr, _, _), f in zip(tracing.TARGETS, originals))
