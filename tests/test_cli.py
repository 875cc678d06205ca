"""Command-line interface: exit codes, artifacts, schema validation."""

import contextlib
import io
import json

import numpy as np
import pytest

from qcplane import Grid, indicator_ball, validate_document, write_field
from qcplane.cli import build_parser, main


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
        args = build_parser().parse_args(["run", "--scenario", "ball"])
        assert args.grid_n == 256
        assert args.c == 0.3
        assert args.out is None


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
        assert report["config"]["grid_n"] == 64
        assert "report written to" in out
        assert "chord_arc=" in out


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
        write_field(ball.with_values(1.5 * ball.values, ball.support_radius), path)
        code, _, err = self._run_custom_file(tmp_path, path)
        assert code == 2
        doc = json.loads(err.strip())
        assert doc["error"] == "config"
        assert "sup norm 1.5" in doc["message"]

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
        assert "chord_arc=" in out
