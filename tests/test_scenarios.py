"""Scenario entry points: the stages they share report the same numbers."""

import numpy as np
import pytest

import qcplane.scenarios
from qcplane import Grid
from qcplane.scenarios import ScenarioConfig, build_scenario, compare_theorem1, run_scenario, verify_theorem2


def test_build_scenario_builds_the_ball_once(monkeypatch):
    calls = []
    indicator_ball = qcplane.scenarios.indicator_ball

    def counted(*args, **kwargs):
        calls.append(args)
        return indicator_ball(*args, **kwargs)

    monkeypatch.setattr(qcplane.scenarios, "indicator_ball", counted)
    for radius in (1.0, 2.0):
        calls.clear()
        config = ScenarioConfig(kind="ball", grid_n=32, radius=radius)
        mu, rho = build_scenario(config)
        assert len(calls) == 1
        assert rho is None
        # the ball is mollified over radius/4
        bump = indicator_ball(Grid(config.grid_l, 32), config.center, radius, mollify_width=radius / 4)
        assert np.array_equal(mu.field.values, config.c * bump.values)


@pytest.mark.parametrize("kind", ["ball", "prop2", "ba_extension"])
def test_theorem2_matches_run(tmp_path, kind):
    config = ScenarioConfig(kind=kind, grid_n=32, trace_samples=64, out_dir=str(tmp_path))
    report = run_scenario(config)
    summary = verify_theorem2(config)
    assert summary["config_hash"] == report["config_hash"]
    assert summary["carleson_norm"] == report["carleson"]["norm"]
    assert summary["c1_estimate"] == report["invertibility"]["probe_c1_estimate"]
    assert summary["chord_arc_constant"] == report["chord_arc"]["constant"]
    assert summary["energy"] == report["energy"]


@pytest.mark.parametrize("kind", ["ball", "prop2", "ba_extension"])
def test_records_hold_what_their_stage_computes(tmp_path, kind):
    config = ScenarioConfig(kind=kind, grid_n=64, out_dir=str(tmp_path))
    report = run_scenario(config)
    shared = {"iteration_count", "residual", "converged"}
    assert set(report["operator"]) == shared | {"weighted_norm_estimate", "rayleigh_history"}
    assert set(report["invertibility"]) == shared | {"probe_c1_estimate", "probe_ratios"}
    # a converged record's residual is the quantity its stop compared with tol
    for key, tol in (("operator", 1e-6), ("invertibility", config.tol)):
        assert report[key]["converged"] and 0.0 <= report[key]["residual"] <= tol


def test_theorem1_row_matches_run(tmp_path):
    configs = [ScenarioConfig(kind="ball", grid_n=32, c=c, out_dir=str(tmp_path)) for c in (0.2, 0.4, 0.6)]
    row = compare_theorem1(configs)["rows"][0]
    report = run_scenario(configs[0])
    assert row["carleson_norm"] == report["carleson"]["norm"]
    assert row["operator_norm_sq"] == report["operator"]["weighted_norm_estimate"] ** 2
