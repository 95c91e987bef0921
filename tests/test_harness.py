import json

import numpy as np
import pytest

from sliceloop.harness import (
    FIXED_BASELINES,
    HarnessConfig,
    make_backend,
    run_scenario1,
    run_scenario2,
    run_token_comparison,
    scenario2_draws,
    scenario2_figure_csvs,
    token_figure_csv,
    write_run_dir,
)
from sliceloop.stats import compute_distribution_stats, write_csv

from csv_rows import read_csv


def small_config(**overrides):
    """Desk-scale configuration that keeps harness tests fast."""
    defaults = dict(
        total_rbs=10,
        scenario1_cycles=12,
        scenario1_steps=(((0, 5.0), (3, 16.0)), ((0, 4.0),)),
        scenario2_grid=(4.0, 8.0, 16.0),
        scenario2_cycles=4,
    )
    defaults.update(overrides)
    return HarnessConfig(**defaults)


class TestDistributionStats:
    def test_quartiles_of_one_to_five(self):
        stats = compute_distribution_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (stats["q1"], stats["median"], stats["q3"]) == (2.0, 3.0, 4.0)
        assert stats["min"] == 1.0 and stats["max"] == 5.0
        assert stats["p95"] == pytest.approx(4.8)

    def test_cdf_shape(self):
        stats = compute_distribution_stats([3.0, 1.0, 2.0])
        xs = [x for x, _ in stats["cdf"]]
        fs = [f for _, f in stats["cdf"]]
        assert xs == sorted(xs)
        assert fs == sorted(fs)
        assert fs[-1] == 1.0

    def test_order_invariant(self):
        a = compute_distribution_stats([5.0, 1.0, 3.0])
        b = compute_distribution_stats([1.0, 3.0, 5.0])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_distribution_stats([])


class TestCsvRoundTrip:
    def test_floats_bit_exact(self, tmp_path):
        rows = [
            {"a": 0.1 + 0.2, "b": 1 / 3, "c": 7},
            {"a": 1e-17, "b": 233.2, "c": -1},
        ]
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], rows)
        back = read_csv(path)
        assert back == rows

    def test_text_passthrough(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "x"], [{"name": "adaptive", "x": 1.5}])
        assert read_csv(path) == [{"name": "adaptive", "x": 1.5}]


class TestScenario2Draws:
    def test_membership_and_length(self):
        cfg = HarnessConfig()
        draws = scenario2_draws(cfg, trials=30, seed=42)
        assert len(draws) == 30
        for r1, r2 in draws:
            assert r1 in cfg.scenario2_grid and r2 in cfg.scenario2_grid

    def test_deterministic_per_trial(self):
        cfg = HarnessConfig()
        a = scenario2_draws(cfg, trials=10, seed=42)
        b = scenario2_draws(cfg, trials=20, seed=42)
        assert a == b[:10]  # extending the study keeps earlier trials

    def test_seed_changes_draws(self):
        cfg = HarnessConfig()
        assert scenario2_draws(cfg, 20, 1) != scenario2_draws(cfg, 20, 2)


class TestHarnessConfig:
    def test_dict_round_trip(self):
        cfg = small_config()
        assert HarnessConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = HarnessConfig()
        assert HarnessConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    # 10**400 is an int beyond float range, which compares with inf as finite.
    @pytest.mark.parametrize("key, value", [
        ("scenario2_grid", (80.0, -5.0)),
        ("scenario2_grid", (80.0, float("inf"))),
        ("scenario2_grid", (80.0, 10 ** 400)),
        ("scenario1_steps", (((0, 5.0), (3, 10 ** 400)), ((0, 4.0),))),
        ("scenario1_steps", (((0, 5.0),), ((0, float("nan")),))),
        ("initial_shares", (10 ** 400, 0.0)),
        ("scenario2_grid", (80.0, "90")),
        ("initial_shares", (0.5, 0.7)),
        # Not a list, or steps out of order.
        ("scenario2_grid", 5),
        ("scenario1_steps", (5, 6)),
        ("scenario1_steps", (((0, 5.0), (3, 6.0), (3, 7.0)), ((0, 4.0),))),
        # A start that is not a whole number, which int() would truncate.
        ("scenario1_steps", (((0, 80.0), (2.9, 120.0)), ((0, 80.0),))),
        # Keys whose types name their own fields: sla_target, weight, shape_a, sinr.
        ("s1_sla_ms", -1.0),
        ("s2_weight", -1.0),
        ("s1_shape_a", 0.0),
        ("ue_sinr", -1.0),
        # Radio and queue keys, checked when the config is built, not when a run starts.
        ("wait_period_s", float("nan")),
        ("packet_size_bytes", 0),
        ("total_rbs", 1),
    ])
    def test_bad_rate_names_the_field(self, key, value):
        with pytest.raises(ValueError, match=key):
            HarnessConfig(**{key: value})
        # A config file's lists, which from_dict checks before any float().
        with pytest.raises(ValueError, match=key):
            HarnessConfig.from_dict(json.loads(json.dumps({key: value})))

    def test_from_dict_names_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['bogus', 'zz'\]"):
            HarnessConfig.from_dict({"zz": 1, "total_rbs": 10, "bogus": 2})

    @pytest.mark.parametrize("data", ["abc", 5, None, [["total_rbs", 10]]])
    def test_from_dict_rejects_a_non_object(self, data):
        with pytest.raises(ValueError, match="not a JSON object"):
            HarnessConfig.from_dict(data)

    def test_env_hands_out_the_objects_built_at_construction(self):
        cfg = small_config()
        env = cfg.env(cfg.scenario1_profile)
        assert env.specs is cfg.specs
        assert env.radio_cfg is cfg.radio_cfg and env.channels is cfg.channels

    def test_default_capacity_calibration(self):
        cfg = HarnessConfig()
        per_rb = cfg.rb_bandwidth_hz * np.log2(1 + cfg.ue_sinr) / 1e6
        assert per_rb == pytest.approx(2.2)
        assert cfg.total_rbs // 2 * per_rb < 120.0  # half the pool < step peak


class TestMakeBackend:
    def test_oracle(self):
        assert make_backend("oracle", HarnessConfig()).label == "oracle"

    def test_scripted_needs_path(self):
        with pytest.raises(ValueError):
            make_backend("scripted", HarnessConfig())

    def test_remote_needs_endpoint(self):
        with pytest.raises(ValueError):
            make_backend("remote", HarnessConfig())

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_backend("magic", HarnessConfig())


class TestScenario1:
    def test_summary_shape_and_repair(self):
        log, summary = run_scenario1(small_config(), seed=1)
        assert summary["cycles"] == 12
        assert summary["reallocation_count"] >= 1
        assert len(summary["phases"]) == 2
        assert summary["phases"][1]["settled_s1_latency_ms"] < 10.0

    def test_backend_calls_match_reallocations_for_oracle(self):
        log, summary = run_scenario1(small_config(), seed=1)
        assert summary["backend_call_count"] == summary["reallocation_count"]


class TestScenario2:
    def test_paired_policies_and_sample_counts(self):
        cfg = small_config()
        res = run_scenario2(cfg, trials=3, seed=7)
        assert set(res["policies"]) == {"adaptive", *FIXED_BASELINES}
        for data in res["policies"].values():
            assert len(data["s1_latency_ms"]) == 3 * cfg.scenario2_cycles
            assert len(data["trial_max_s2_drop"]) == 3


class TestArtifacts:
    def test_write_run_dir(self, tmp_path):
        cfg = small_config()
        log, summary = run_scenario1(cfg, seed=1)
        write_run_dir(tmp_path / "run", cfg, log, summary)
        assert (tmp_path / "run" / "config.json").exists()
        assert (tmp_path / "run" / "summary.json").exists()
        rows = read_csv(tmp_path / "run" / "timeline.csv")
        assert len(rows) == 12 * 2
        reloaded = HarnessConfig.from_dict(
            json.loads((tmp_path / "run" / "config.json").read_text())
        )
        assert reloaded == cfg

    def test_scenario2_figures(self):
        res = run_scenario2(small_config(), trials=2, seed=7)
        csvs = scenario2_figure_csvs(res)
        assert set(csvs) == {
            "fig3a_latency_cdf.csv", "fig3b_drop_cdf.csv",
            "fig4a_latency_box.csv", "fig4b_drop_box.csv",
        }
        fields, rows = csvs["fig4a_latency_box.csv"]
        assert len(rows) == 4  # one row per policy

    def test_token_figure(self):
        comparison = run_token_comparison(small_config(), seed=1)
        fields, rows = token_figure_csv(comparison)
        assert len(rows) == 12
        assert all(r["gated_cumulative"] <= r["ungated_cumulative"] for r in rows)
