#!/usr/bin/env python3
"""qcplane benchmark: closed-loop batch runs of the public pipeline entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client: each invocation starts when the previous one
has returned and been checked.  ``--workload all`` runs every workload
in its own process and prints one table.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall
time of fresh processes that import qcplane and build the workload's
inputs), ``run_s`` (median wall time of one invocation), ``peak_rss_mib``
and ``norm_rel_err``.  ``--trace 1`` alternates untraced and traced
invocations and reports the per-layer metrics of the traced ones, the
tracing overhead, and kernel micro-timings through public calls.  The
last line of standard output is the JSON result; lines before it give
the failure rate, the machine record and, when traced, layer shares.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS pools are fixed to one thread, below nproc, before numpy loads:
# a shared two-core machine gives steadier single-thread timings, and
# numpy.fft (pocketfft), which the transforms use, is single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

SETUP_REPEATS = 5
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB", "norm_rel_err": "ratio"}

_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build_inputs(sys.argv[3], int(sys.argv[4]))"
)


def unit_of(metric: str) -> str:
    for suffix, unit in (
        ("_ns_per_pair", "ns"),
        ("_ms_per_apply", "ms"),
        ("_ms", "ms"),
        ("_s", "s"),
        ("_bytes_computed", "B"),
        ("_converged", "ratio"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


def setup_seconds(name: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import qcplane and build the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(BENCH), str(SRC), name, str(seed)],
            check=True,
            cwd=ROOT,
        )
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpuinfo("model name"),
        "caches": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "openblas_threads": _openblas_threads(),
        "fft": "numpy.fft (pocketfft), single-threaded",
    }


def _cpuinfo(key: str) -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports through its own API."""
    import ctypes

    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def kernel_timings(repeats: int = 5) -> dict[str, float]:
    """Per-call cost of the kernels under the layers, through public calls."""
    import numpy as np

    from qcplane import CurveTrace, Grid, cauchy_at_points, curve_cauchy_operator, neumann_solve, plan_for
    from qcplane.scenarios import ScenarioConfig, build_scenario

    def median_of(fn) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    rng = np.random.default_rng(0)
    out = {}
    for n in (256, 512):
        plan = plan_for(Grid(8.0, n))
        values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out[f"transforms.fft_apply_n{n}_ms"] = 1e3 * median_of(lambda: plan.apply(values, plan.multiplier_s))
    mu, _ = build_scenario(ScenarioConfig(kind="ball", grid_n=256, c=0.5))
    out["beltrami.neumann_step_ms"] = 1e3 * median_of(lambda: neumann_solve(mu, mu.field, max_iter=1))
    targets = np.linspace(-8.0, 8.0, 1024) + 0j
    pairs = targets.size * np.count_nonzero(mu.field.values)
    out["transforms.cauchy_kernel_ns_per_pair"] = 1e9 * median_of(lambda: cauchy_at_points(mu.field, targets)) / pairs
    xs = np.linspace(-8.0, 8.0, 512)
    line = CurveTrace(xs, xs.astype(complex))
    out["geometry.curve_matvec_ms"] = 1e3 * median_of(lambda: curve_cauchy_operator(line, max_iter=1))
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, reference: dict | None = None) -> dict:
    """One benchmark run; returns the result object and prints the report lines."""
    import resource

    import tracing
    import workloads

    if reference is None:
        reference = workloads.load_reference()[name]
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    setup = [] if trace else setup_seconds(name, seed)
    cfgs = workloads.configs(name, seed, str(out_dir))

    tracer = tracing.Tracer()
    untraced, traced, errors, layer_runs, failures = [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        traced_call = trace and attempted % 2 == 1
        first_span = len(tracer.spans)
        document = None
        if traced_call:
            tracer.install()
        try:
            t0 = time.perf_counter()
            if traced_call:
                with tracer.span(tracing.ENTRY):
                    document = workloads.invoke(name, cfgs, out_dir)
            else:
                document = workloads.invoke(name, cfgs, out_dir)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a raising invocation is a failure, never an abort
            elapsed = time.perf_counter() - t0
            failures.append([f"raised {type(exc).__name__}: {exc}"])
        finally:
            tracer.uninstall()
        attempted += 1
        (traced if traced_call else untraced).append(elapsed)
        if traced_call:
            layer_runs.append(tracer.spans[first_span:])
        if document is not None:
            failed_checks, err = workloads.check(document, reference)
            if failed_checks:
                failures.append(failed_checks)
            if err is not None:
                errors.append(err)
        done = time.perf_counter() - start
        typical = statistics.median(untraced + traced)
        if attempted >= (2 if trace else 1) and done + typical > seconds:
            break

    failed = len(failures)
    print(f"workload {name}: {workloads.WORKLOADS[name]}; seed {seed}")
    print(f"fail_rate {failed / attempted:.4f} ratio ({failed} of {attempted} invocations)")
    for checks in failures[:3]:
        print("  failed:", "; ".join(checks)[:500])
    print("environment", json.dumps(environment(), sort_keys=True))

    if trace:
        per_run = [tracing.invocation_metrics(spans) for spans in layer_runs]
        values = {key: statistics.median(run[key] for run in per_run) for key in per_run[0]}
        values.update(kernel_timings())
        values["bench.untraced_run_s"] = statistics.median(untraced)
        values["bench.traced_run_s"] = statistics.median(traced)
        values["bench.trace_overhead_s"] = values["bench.traced_run_s"] - values["bench.untraced_run_s"]
        shares = tracing.layer_shares(layer_runs[-1])
        print("layer self-time shares", json.dumps({k: round(v, 4) for k, v in shares.items()}))
        spans_path = OUT / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(untraced),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # 1.0 (everything wrong) when no invocation produced a document
            "norm_rel_err": statistics.median(errors) if errors else 1.0,
        }
        print(f"run_s samples {len(untraced)}: " + " ".join(f"{t:.3f}" for t in untraced))
    metrics = {key: {"value": value, "unit": END_TO_END.get(key) or unit_of(key)} for key, value in values.items()}
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process; prints one table of the results."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        fail_rate = results[name]["failed"] / results[name]["attempted"]
        cells = [f"fail_rate = {fail_rate:.4f} ratio"]
        cells += [f"{key} = {m['value']:.6g} {m['unit']}" for key, m in results[name]["metrics"].items()]
        print(f"{name:14s} " + "  ".join(cells))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qcplane" / "__init__.py").is_file():
        print(f"qcplane sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(BENCH), str(SRC)]
    import qcplane
    import workloads

    if Path(qcplane.__file__).resolve().parent != (SRC / "qcplane").resolve():
        print(f"imported qcplane from {qcplane.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in workloads.WORKLOADS:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
