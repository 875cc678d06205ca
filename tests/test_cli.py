"""Command-line interface: exit codes, artifacts, schema validation."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import qcplane.scenarios
from qcplane import Grid, ba_extension, indicator_ball, prop2_map, validate_document, write_field
from qcplane.cli import _config_from, build_parser, main
from qcplane.scenarios import ScenarioConfig


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
            build_parser().parse_args([])

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
            build_parser().parse_args(["run", "--scenario", "disc"])

    def test_run_defaults(self):
        # an option left out takes its ScenarioConfig default
        args = build_parser().parse_args(["run", "--scenario", "ball"])
        assert _config_from(args, kind=args.scenario) == ScenarioConfig(kind="ball")
        args = build_parser().parse_args(["theorem1"])
        members = [_config_from(args, kind="ball", c=c) for c in args.c]
        assert members == [ScenarioConfig(kind="ball", c=c) for c in (0.2, 0.4, 0.6)]


class TestRun:
    def test_ball_scenario_bundle(self, tmp_path):
        code, out, _ = run_cli(
            ["run", "--scenario", "ball", "--grid-n", "64", "--out", str(tmp_path)]
        )
        assert code == 0
        for name in ("report.json", "trace.csv", "mu.bin"):
            assert (tmp_path / name).exists()
        report = json.loads((tmp_path / "report.json").read_text())
        validate_document(report)
        assert report["converged"] is True
        assert report["operator"]["converged"] is True
        assert report["config"]["grid_n"] == 64
        assert "report written to" in out
        assert "chord_arc=" in out
        # a wrong type is rejected with jsonschema.validate's own error
        report["operator"]["iteration_count"] = "31"
        with pytest.raises(jsonschema.ValidationError) as ours:
            validate_document(report)
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(report, qcplane.scenarios.report_schema())
        assert str(ours.value) == str(reference.value)
        assert list(ours.value.path) == ["operator", "iteration_count"]

    def test_unconverged_operator_clears_top_level_flag(self, tmp_path, monkeypatch):
        real = qcplane.scenarios.weighted_operator_norm

        def unconverged(mu, **kwargs):
            return dataclasses.replace(real(mu, **kwargs), converged=False)

        monkeypatch.setattr(qcplane.scenarios, "weighted_operator_norm", unconverged)
        code, _, _ = run_cli(
            ["run", "--scenario", "ball", "--grid-n", "64", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["operator"]["converged"] is False
        assert report["invertibility"]["converged"] is True
        assert report["converged"] is False

    def test_custom_file_records_the_file_grid(self, tmp_path):
        ball = indicator_ball(Grid(8.0, 64), 3j, 1.5)
        path = tmp_path / "mu.bin"
        write_field(ball.with_values(0.3 * ball.values), path)
        code, _, _ = run_cli(
            [
                "run",
                "--scenario",
                "custom-file",
                "--mu-file",
                str(path),
                "--grid-n",
                "256",
                "--grid-l",
                "4",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["grid_n"] == report["grid"]["n"] == 64
        assert report["config"]["grid_l"] == report["grid"]["half_width"] == 8.0
        blob = json.dumps(report["config"], sort_keys=True).encode()
        assert report["config_hash"] == hashlib.sha256(blob).hexdigest()


    def test_mu_bin_replay_matches_the_original_run(self, tmp_path):
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert run_cli(["run", "--scenario", "ball", "--grid-n", "64", "--out", str(first)])[0] == 0
        argv = ["run", "--scenario", "custom-file", "--mu-file", str(first / "mu.bin"), "--out", str(replay)]
        assert run_cli(argv)[0] == 0
        a, b = (json.loads((d / "report.json").read_text()) for d in (first, replay))
        for key in ("carleson", "operator", "invertibility"):
            assert_numbers_close(a[key], b[key], 1e-12, key)
        assert a["solver"]["iterations"] == b["solver"]["iterations"]

    @pytest.mark.parametrize("kind", ["prop2", "ba_extension"])
    def test_closed_form_scenarios_use_exact_derivatives(self, tmp_path, kind):
        argv = ["--scenario", kind, "--grid-n", "64", "--out", str(tmp_path)]
        assert run_cli(["run", *argv])[0] == 0
        report = json.loads((tmp_path / "report.json").read_text())
        validate_document(report)
        assert report["converged"] is True
        # the energy is ||dbar rho||^2 in L^2(dm/|y|), from the exact pair
        grid = Grid(8.0, 64)
        pts = grid.points()
        if kind == "prop2":
            rho = prop2_map(1.5)
        else:
            rho = ba_extension(lambda x: np.sign(x) * np.abs(x) ** (1.0 / 1.5))
        dbar, _ = rho._wirtinger(pts)
        energy = grid.cell_area() * np.sum(np.abs(dbar) ** 2 / np.abs(pts.imag))
        assert report["energy"] == pytest.approx(energy, rel=1e-12)
        assert run_cli(["theorem2", *argv])[0] == 0
        summary = json.loads((tmp_path / "theorem2.json").read_text())
        assert summary["energy"] == report["energy"]


def test_every_schema_definition_is_referenced():
    schema = qcplane.scenarios.report_schema()
    refs = set(re.findall(r'"#/definitions/([^"]+)"', json.dumps(schema)))
    assert refs == set(schema["definitions"])


def assert_numbers_close(a, b, rtol, path):
    """Same JSON structure, with every number equal to ``rtol`` relative."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_numbers_close(a[key], b[key], rtol, f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_numbers_close(x, y, rtol, f"{path}.{i}")
    elif isinstance(a, (int, float)) and not isinstance(a, bool):
        assert b == pytest.approx(a, rel=rtol, abs=0.0), path
    else:
        assert a == b, path

class TestErrorPaths:
    def test_config_error_exit_two(self, tmp_path):
        code, _, err = run_cli(
            ["run", "--scenario", "ball", "--c", "1.5", "--out", str(tmp_path)]
        )
        assert code == 2
        assert json.loads(err.strip())["error"] == "config"

    def test_missing_custom_file_exit_two(self, tmp_path):
        code, _, err = run_cli(
            [
                "run",
                "--scenario",
                "custom-file",
                "--mu-file",
                str(tmp_path / "nope.bin"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert json.loads(err.strip())["error"] == "config"

    def _run_custom_file(self, tmp_path, path):
        return run_cli(
            ["run", "--scenario", "custom-file", "--mu-file", str(path), "--out", str(tmp_path)]
        )

    def test_random_bytes_custom_file_exit_two(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(np.random.default_rng(0).bytes(4000))
        code, _, err = self._run_custom_file(tmp_path, path)
        assert code == 2
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "corrupt field file" in doc["message"]

    def test_out_of_range_custom_file_exit_two(self, tmp_path):
        ball = indicator_ball(Grid(8.0, 64), 2j, 1.0)
        path = tmp_path / "mu.bin"
        write_field(ball.with_values(1.5 * ball.values), path)
        code, _, err = self._run_custom_file(tmp_path, path)
        assert code == 2
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "sup norm 1.5" in doc["message"]

    def test_directory_custom_file_exit_two(self, tmp_path):
        folder = tmp_path / "a-directory"
        folder.mkdir()
        code, _, err = self._run_custom_file(tmp_path, folder)
        assert code == 2
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "a-directory" in doc["message"]

    def test_selftest_invalid_grid_exit_two(self):
        code, out, err = run_cli(["transform-selftest", "--grid-n", "100"])
        assert code == 2
        assert out == ""
        assert json.loads(err.strip())["error"] == "config"

    def test_theorem1_vanishing_member_exit_two(self, tmp_path):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["theorem1", "--grid-n", "64", "--c", "0", "0.2", "0.4", "--out", str(out_dir)])
        assert code == 2
        assert out == ""
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "vanishing dilatation" in doc["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("c", ["1e-200", "1e-160"])
    def test_theorem1_underflowing_member_exit_two(self, tmp_path, c):
        # |c|^2 underflows to 0 (1e-200) or to a subnormal (1e-160): the ratio
        # and the slope would be rounding artefacts, and the slope a NaN
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["theorem1", "--grid-n", "64", "--c", c, "0.2", "0.4", "--out", str(out_dir)])
        assert code == 2
        assert out == ""
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "vanishing dilatation" in doc["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "amplitudes",
        [["0.3", "0.3", "0.3"], ["0.3", "-0.3", "0.3"], ["0.3", "0.30000000000000004", "0.3"]],
        ids=["same", "signed", "one-ulp"],
    )
    def test_theorem1_single_amplitude_exit_two(self, tmp_path, amplitudes):
        # one sup|mu|, exactly or to rounding, leaves the log-log slope of the table undefined
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["theorem1", "--grid-n", "64", "--c", *amplitudes, "--out", str(out_dir)])
        assert code == 2
        assert out == ""
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "one amplitude" in doc["message"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "kind, flag",
        [("ball", "--k"), ("prop2", "--c"), ("prop2", "--radius"), ("ball", "--tol"), ("prop2", "--center")],
        ids=lambda p: p.lstrip("-"),
    )
    @pytest.mark.parametrize("command", ["run", "theorem2"])
    def test_non_finite_config_value_exit_two(self, tmp_path, command, kind, flag, value):
        # every config field goes into the report header, even one the kind ignores
        code, out, err = run_cli(
            [command, "--scenario", kind, flag, value, "--grid-n", "32", "--out", str(tmp_path)]
        )
        assert code == 2
        assert out == ""
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "must be finite" in doc["message"]
        for name in ("mu.bin", "report.json", "theorem2.json"):
            assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("blocker", ["file", "under-file", "taken"])
    @pytest.mark.parametrize(
        "argv, artifacts",
        [
            (["run", "--scenario", "ball"], ["mu.bin", "trace.csv", "report.json"]),
            (["theorem1"], ["theorem1.csv", "theorem1.json"]),
            (["theorem2", "--scenario", "ball"], ["theorem2.json"]),
        ],
        ids=["run", "theorem1", "theorem2"],
    )
    def test_unusable_out_exit_two(self, tmp_path, argv, artifacts, blocker):
        blocked = tmp_path / "a-file"
        blocked.write_text("")
        if blocker == "taken":
            # a directory takes the name of one bundle file, each in turn
            unusable = [tmp_path / name / name for name in artifacts]
            for path in unusable:
                path.mkdir(parents=True)
            out_dirs = [path.parent for path in unusable]
        else:
            unusable = out_dirs = [blocked / "sub" if blocker == "under-file" else blocked]
        for out_dir, path in zip(out_dirs, unusable):
            code, out, err = run_cli([*argv, "--grid-n", "32", "--out", str(out_dir)])
            assert code == 2
            assert out == ""
            doc = json.loads(err.strip())
            assert doc["error"] == "config"
            assert str(path) in doc["message"]
            if blocker == "taken":
                # the taken name is found before any compute: no other bundle file is written
                assert sorted(p.name for p in out_dir.iterdir()) == [path.name]

    @pytest.mark.parametrize("kind", ["ball", "prop2", "ba_extension"])
    @pytest.mark.parametrize("command", ["run", "theorem2"])
    def test_grid_too_coarse_for_probes_exit_two(self, tmp_path, command, kind):
        # at n = 16 the lowest ball probe (radius L/16) covers no sample
        code, out, err = run_cli([command, "--scenario", kind, "--grid-n", "16", "--out", str(tmp_path)])
        assert code == 2
        assert out == ""
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "too coarse for the probe family" in doc["message"]
        for name in ("mu.bin", "report.json", "theorem2.json"):
            assert not (tmp_path / name).exists()

    def test_theorem1_runs_on_a_grid_too_coarse_for_probes(self, tmp_path):
        code, _, _ = run_cli(["theorem1", "--grid-n", "16", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "theorem1.json").exists()

    @pytest.mark.parametrize("kind", ["prop2", "ba_extension"])
    def test_infinite_half_width_exit_two(self, tmp_path, kind):
        code, out, err = run_cli(
            ["run", "--scenario", kind, "--grid-l", "inf", "--grid-n", "32", "--out", str(tmp_path)]
        )
        assert code == 2
        assert out == ""
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "invalid grid" in doc["message"]
        assert not (tmp_path / "mu.bin").exists()

    @pytest.mark.parametrize("kind", ["ball", "prop2", "ba_extension"])
    @pytest.mark.parametrize("half_width", ["1e300", "1e-300"])
    def test_unrepresentable_cell_area_exit_two(self, tmp_path, half_width, kind):
        # at n = 32 the cell area overflows to inf (1e300) or underflows to 0 (1e-300)
        code, out, err = run_cli(
            ["run", "--scenario", kind, "--grid-l", half_width, "--grid-n", "32", "--out", str(tmp_path)]
        )
        assert code == 2
        assert out == ""
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "invalid grid" in doc["message"]
        assert not (tmp_path / "mu.bin").exists()

    @pytest.mark.parametrize(
        "kind, half_width, reason",
        [
            ("ball", "1e-150", "escapes the domain"),
            ("ball", "1e150", None),
            ("prop2", "1e-150", None),
            ("prop2", "1e150", None),
            ("ba_extension", "1e-150", None),
            ("ba_extension", "1e150", None),
        ],
    )
    def test_extreme_half_width_writes_no_nan(self, tmp_path, kind, half_width, reason):
        # probe values of order 1/L square to inf (1e-150) or to 0 (1e150),
        # and the 1e-150 box cannot hold the ball B(4i, 1)
        code, _, err = run_cli(
            ["run", "--scenario", kind, "--grid-l", half_width, "--grid-n", "32", "--out", str(tmp_path)]
        )
        if reason is not None:
            assert code == 2
            doc = json.loads(err.strip())
            assert doc["error"] == "config"
            assert reason in doc["message"]
            return
        assert code == 0, err

        def reject(constant):
            raise ValueError(f"report.json holds {constant}")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        validate_document(report)

    def test_non_convergence_exit_three(self, tmp_path):
        # unreachable tolerance: the solver stalls at the floating-point floor
        code, _, err = run_cli(
            [
                "run",
                "--scenario",
                "ball",
                "--grid-n",
                "64",
                "--tol",
                "1e-300",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3
        assert json.loads(err.strip())["error"] == "non-convergence"
        partial = json.loads((tmp_path / "report.json").read_text())
        validate_document(partial)
        assert partial["converged"] is False


class TestSelftest:
    def test_passes_on_defaults(self):
        code, out, _ = run_cli(["transform-selftest", "--grid-n", "128"])
        assert code == 0
        assert out.count("ok  ") == 4
        assert "FAIL" not in out

    def test_coarse_grid_exit_two(self):
        # spacing 1/4: the ball image error of a correct operator is 5.4e-2,
        # above its 0.05 bound
        code, out, err = run_cli(["transform-selftest", "--grid-n", "64"])
        assert code == 2
        assert out == ""
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "too coarse" in doc["message"]

    def test_passes_at_spacing_one_eighth(self):
        code, out, _ = run_cli(["transform-selftest", "--grid-n", "64", "--grid-l", "4"])
        assert code == 0
        assert out.count("ok  ") == 4


class TestTheorem1:
    def test_table_under_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QCPLANE_OUT", str(tmp_path / "from-env"))
        code, out, _ = run_cli(["theorem1", "--grid-n", "64", "--c", "0.2", "0.4", "0.6"])
        assert code == 0
        root = tmp_path / "from-env"
        table = json.loads((root / "theorem1.json").read_text())
        validate_document(table)
        assert len(table["rows"]) == 3
        assert table["norm_sq_slope"] == pytest.approx(2.0, abs=1e-6)
        csv_lines = (root / "theorem1.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "label,carleson_norm,operator_norm_sq,ratio"
        assert "norm_sq_slope" in out


class TestTheorem2:
    def test_sector_summary(self, tmp_path):
        code, out, _ = run_cli(
            ["theorem2", "--scenario", "prop2", "--grid-n", "64", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "theorem2.json").read_text())
        validate_document(summary)
        assert summary["non_bilipschitz"] is True
        assert summary["blowup_exponent"] == pytest.approx(-1.0 / 3.0, abs=0.05)
        assert summary["converged"] is True
        assert "chord_arc=" in out

    def test_unconverged_probes_clear_flag(self, tmp_path, monkeypatch):
        real = qcplane.scenarios.inverse_weighted_bound

        def unconverged(mu, **kwargs):
            return dataclasses.replace(real(mu, **kwargs), converged=False)

        monkeypatch.setattr(qcplane.scenarios, "inverse_weighted_bound", unconverged)
        code, _, _ = run_cli(
            ["theorem2", "--scenario", "prop2", "--grid-n", "64", "--out", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "theorem2.json").read_text())
        assert summary["converged"] is False


# every qcplane.scenarios name the benchmark's tracer rebinds for its spans
STAGE_NAMES = (
    "build_scenario",
    "validate_document",
    "write_field",
    "carleson_density",
    "carleson_norm",
    "rectifiability_energy",
    "weighted_operator_norm",
    "inverse_weighted_bound",
    "solve_beltrami",
    "trace_curve",
    "chord_arc_constant",
    "regularity_check",
    "curve_cauchy_operator",
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        # run: each stage once
        pytest.param(["run", "--scenario", "ball"], dict.fromkeys(STAGE_NAMES, 1), id="run"),
        # theorem2: trace_curve twice (the trace and its refinement), the rest once
        pytest.param(
            ["theorem2", "--scenario", "prop2"],
            {
                "build_scenario": 1,
                "validate_document": 1,
                "carleson_density": 1,
                "carleson_norm": 1,
                "inverse_weighted_bound": 1,
                "trace_curve": 2,
                "chord_arc_constant": 1,
                "rectifiability_energy": 1,
            },
            id="theorem2",
        ),
        # theorem1: three members and one ball shape, so one weighted-norm run
        pytest.param(
            ["theorem1"],
            {
                "build_scenario": 3,
                "validate_document": 1,
                "carleson_density": 3,
                "carleson_norm": 3,
                "weighted_operator_norm": 1,
            },
            id="theorem1",
        ),
    ],
)
def test_entry_points_reach_stages_through_module_names(tmp_path, monkeypatch, argv, expected):
    calls = dict.fromkeys(STAGE_NAMES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in STAGE_NAMES:
        monkeypatch.setattr(qcplane.scenarios, name, counting(name, getattr(qcplane.scenarios, name)))
    assert run_cli([*argv, "--grid-n", "64", "--out", str(tmp_path)])[0] == 0
    assert {name: count for name, count in calls.items() if count} == expected


def test_import_leaves_slow_scipy_modules_unloaded():
    # scipy.interpolate loads only where sampled boundary data needs it;
    # no module of the package imports scipy.integrate
    probe = "import sys, qcplane; print(sorted(set(sys.modules) & {'scipy.interpolate', 'scipy.integrate'}))"
    src = str(Path(qcplane.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert done.stdout.strip() == "[]"
