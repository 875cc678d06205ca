"""Scenario entry points: the stages they share report the same numbers."""

import numpy as np
import pytest

import qcplane.scenarios
from qcplane import Grid, carleson_density, carleson_norm, inverse_weighted_bound, weighted_operator_norm
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


# (c, center, radius, seed) per member, and the members whose weighted-norm
# run the family makes: one per ball shape, the first member of that shape
ONE_RUN_PER_SHAPE = {
    "cli": (((0.2, 4j, 1.0, 0), (0.4, 4j, 1.0, 0), (0.6, 4j, 1.0, 0)), [0]),
    "mixed": (((0.2, 4j, 1.0, 0), (0.5, 3j, 2.0, 0), (0.3, 1 + 5j, 1.5, 0)), [0, 1, 2]),
    "center": (((0.2, 4j, 1.0, 0), (0.3, 2j, 1.0, 0), (0.4, 4j, 1.0, 0)), [0, 1]),
    "seed": (((0.2, 4j, 1.0, 0), (0.4, 4j, 1.0, 1), (0.6, 4j, 1.0, 0)), [0, 1]),
}


@pytest.mark.parametrize("members, referenced", ONE_RUN_PER_SHAPE.values(), ids=ONE_RUN_PER_SHAPE)
def test_theorem1_runs_one_operator_norm_per_shape(monkeypatch, members, referenced):
    calls = []
    weighted_norm = qcplane.scenarios.weighted_operator_norm

    def counted(mu, **kwargs):
        calls.append((mu.sup_bound, kwargs["seed"]))
        return weighted_norm(mu, **kwargs)

    monkeypatch.setattr(qcplane.scenarios, "weighted_operator_norm", counted)
    configs = [
        ScenarioConfig(kind="ball", grid_n=32, c=c, center=center, radius=radius, seed=seed)
        for c, center, radius, seed in members
    ]
    compare_theorem1(configs)
    sups = [build_scenario(config)[0].sup_bound for config in configs]
    assert calls == [(sups[i], configs[i].seed) for i in referenced]


def test_theorem1_scaled_rows_match_own_runs():
    # a member that shares a run reads that member's own estimate to rounding
    configs = [ScenarioConfig(kind="ball", grid_n=64, c=c) for c in (0.2, -0.4, 0.6, 0.9)]
    table = compare_theorem1(configs)
    for config, row in zip(configs, table["rows"]):
        own = weighted_operator_norm(build_scenario(config)[0], seed=config.seed).weighted_norm_estimate
        assert row["operator_norm_sq"] == pytest.approx(own**2, rel=1e-14, abs=0)


def test_theorem1_slope_of_a_scaled_family_is_two():
    # the CLI's default family: scalings of one mu, whose estimates scale exactly
    table = compare_theorem1([ScenarioConfig(kind="ball", grid_n=64, c=c) for c in (0.2, 0.4, 0.6)])
    assert table["norm_sq_slope"] == pytest.approx(2.0, abs=1e-12)


def test_theorem1_slope_is_the_fit_over_the_rows():
    # not a family of scalings: mixed radii and centers
    configs = [
        ScenarioConfig(kind="ball", grid_n=64, c=c, center=center, radius=radius)
        for c, center, radius in ((0.2, 4j, 1.0), (0.5, 3j, 2.0), (0.3, 1 + 5j, 1.5))
    ]
    table = compare_theorem1(configs)
    sups = [build_scenario(config)[0].sup_bound for config in configs]
    norms_sq = [row["operator_norm_sq"] for row in table["rows"]]
    assert table["norm_sq_slope"] == float(np.polyfit(np.log(sups), np.log(norms_sq), 1)[0])


def test_theorem1_single_amplitude_is_a_config_error(monkeypatch):
    # the same c at three centers: one sup|mu|, so no slope
    monkeypatch.setattr(qcplane.scenarios, "weighted_operator_norm", None)
    configs = [ScenarioConfig(kind="ball", grid_n=32, c=0.3, center=center) for center in (2j, 4j, 6j)]
    with pytest.raises(qcplane.scenarios.ConfigError, match="one amplitude"):
        compare_theorem1(configs)


def _carleson(kind, n, **params):
    mu, _ = build_scenario(ScenarioConfig(kind=kind, grid_n=n, **params))
    return mu, carleson_norm(carleson_density(mu)).norm


def test_ball_constants_converge_in_h():
    # Carleson norm, weighted norm of mu S and probe c1 of the c = 0.5 ball
    # read 0.01909 / 0.52998 / 1.2023 at n = 128 and 0.01889 / 0.53029 /
    # 1.2037 at n = 256: changes of 1.07%, 0.058% and 0.118%.  Each bound
    # is at least twice its measured change.
    constants = []
    for n in (128, 256):
        mu, carleson = _carleson("ball", n, c=0.5)
        operator = weighted_operator_norm(mu).weighted_norm_estimate
        constants.append((carleson, operator, inverse_weighted_bound(mu).probe_c1_estimate))
    for coarse, fine, bound in zip(*constants, (0.025, 0.002, 0.003)):
        assert abs(fine / coarse - 1.0) <= bound


def test_ba_extension_carleson_grows_like_log_one_over_h():
    # |mu| -> 1/3 along the whole real axis, so the Carleson norm grows by
    # (4/9) ln 2 = 0.3081 per halving of h.  It read 3.2583 at n = 256 and
    # 3.5689 at 512, an increment 0.81% above that.
    increment = _carleson("ba_extension", 512)[1] - _carleson("ba_extension", 256)[1]
    assert abs(increment / (4.0 / 9.0 * np.log(2.0)) - 1.0) <= 0.03
