import json

import pytest

from sliceloop.cli import main
from sliceloop.harness import HarnessConfig
from sliceloop.radio import SimState, simulate_interval

from csv_rows import read_csv

SMALL = dict(
    total_rbs=10,
    scenario1_cycles=12,
    scenario1_steps=[[[0, 5.0], [3, 16.0]], [[0, 4.0]]],
    scenario2_grid=[4.0, 8.0, 16.0],
    scenario2_cycles=4,
)


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return path


class TestScenario1Command:
    def test_writes_run_dir(self, tmp_path, small_cfg):
        out = tmp_path / "run1"
        rc = main(["scenario1", "--config", str(small_cfg), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cycles"] == 12
        rows = read_csv(out / "timeline.csv")
        assert len(rows) == 12 * 2

    def test_no_gate_flag(self, tmp_path, small_cfg):
        out = tmp_path / "run1u"
        rc = main(["scenario1", "--config", str(small_cfg), "--out", str(out),
                   "--no-gate"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gate_enabled"] is False
        assert summary["backend_call_count"] == 12

    def test_same_seed_is_byte_identical(self, tmp_path, small_cfg):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["scenario1", "--config", str(small_cfg),
                         "--out", str(out), "--seed", "42"]) == 0
        assert (out_a / "timeline.csv").read_bytes() == (
            out_b / "timeline.csv"
        ).read_bytes()

    def test_steps_at_or_after_last_cycle_are_dropped(self, tmp_path):
        # The default timeline steps at cycles 10, 20, 30 and 40.
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"scenario1_cycles": 10}))
        out = tmp_path / "short"
        assert main(["scenario1", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [(p["start"], p["end"]) for p in summary["phases"]] == [(0, 10)]


class TestScenario2Command:
    def test_writes_figures(self, tmp_path, small_cfg):
        out = tmp_path / "run2"
        rc = main(["scenario2", "--config", str(small_cfg), "--out", str(out),
                   "--trials", "2"])
        assert rc == 0
        for name in ("fig3a_latency_cdf.csv", "fig3b_drop_cdf.csv",
                     "fig4a_latency_box.csv", "fig4b_drop_box.csv"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] == 2
        assert "adaptive" in summary["policies"]


class TestTokensCommand:
    def test_writes_comparison(self, tmp_path, small_cfg):
        out = tmp_path / "runtok"
        rc = main(["tokens", "--config", str(small_cfg), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "fig5_tokens.csv")
        assert len(rows) == 12
        assert all(r["gated_cumulative"] <= r["ungated_cumulative"] for r in rows)


class TestOracleTableCommand:
    def test_writes_table(self, tmp_path, small_cfg):
        out = tmp_path / "table"
        rc = main(["oracle-table", "--config", str(small_cfg), "--out", str(out),
                   "--rates", "16", "4"])
        assert rc == 0
        rows = read_csv(out / "oracle_table.csv")
        assert len(rows) == 9
        assert {"rb_counts", "sigma", "objective", "feasible"} <= set(rows[0])

    def test_throughput_past_int64_bits_is_the_live_steps(self, tmp_path):
        # Slice 1 delivers 1e19 bits an interval, past 2**63.
        config = {"rb_bandwidth_hz": 1e24, "buffer_capacity_packets": 10 ** 17,
                  "monitoring_interval_s": 0.01}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "table"
        assert main(["oracle-table", "--rates", "1e15", "80", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = read_csv(out / "oracle_table.csv")
        h = HarnessConfig.from_dict(config)
        assert len(rows) == h.total_rbs - 1
        for row in rows:
            counts = [int(c) for c in row["rb_counts"].split("-")]
            live = simulate_interval([1e15, 80.0], counts, h.channels, h.radio_cfg,
                                     h.queue_cfg, SimState.fresh(2)).kpm
            assert [row["s1_throughput_mbps"], row["s2_throughput_mbps"]] \
                == [kpm.mean_throughput_mbps for kpm in live]
        assert rows[0]["s1_throughput_mbps"] == 999999999999999.6


class TestErrors:
    def test_unknown_config_key_json_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not_a_real_key": 1}))
        rc = main(["scenario1", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "not_a_real_key" in err["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["scenario1", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FileNotFoundError"

    def test_scripted_backend_without_path(self, tmp_path, capsys, small_cfg):
        rc = main(["scenario1", "--config", str(small_cfg),
                   "--backend", "scripted", "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"

    @pytest.mark.parametrize("command, field", [
        (["scenario1"], "scenario1_cycles"),
        (["scenario2", "--trials", "2"], "scenario2_cycles"),
    ])
    def test_cycle_count_below_one_names_the_field(self, tmp_path, capsys,
                                                   command, field):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({**SMALL, field: 0}))
        rc = main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert field in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("k", [0, -1])
    def test_retrieve_k_below_one_names_the_field(self, tmp_path, capsys, k):
        # Five cycles open no gate, so an unchecked k would never be used.
        cfg = tmp_path / "k.json"
        cfg.write_text(json.dumps({**SMALL, "scenario1_cycles": 5, "retrieve_k": k}))
        rc = main(["scenario1", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "retrieve_k" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [1.5, True])
    @pytest.mark.parametrize("field", [
        "scenario1_cycles", "scenario2_cycles", "retrieve_k",
        "total_rbs", "packet_size_bytes", "buffer_capacity_packets",
    ])
    def test_non_integer_count_names_the_field(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "count.json"
        cfg.write_text(json.dumps({**SMALL, "scenario1_cycles": 5, field: value}))
        rc = main(["scenario1", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert field in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_step_rate_rejected(self, tmp_path, capsys, rate):
        cfg = tmp_path / "steps.json"
        cfg.write_text(json.dumps({**SMALL, "scenario1_steps": [[[0, rate]], [[0, 8.0]]]}))
        rc = main(["scenario1", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "finite" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_non_finite_slice_weight_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "weight.json"
        cfg.write_text(json.dumps({**SMALL, "s1_weight": float("nan")}))
        rc = main(["scenario1", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "weight" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value", [
        ("wait_period_s", float("nan")), ("wait_period_s", float("inf")),
        ("rb_bandwidth_hz", float("inf")),
        # Integers beyond float range, which compare with inf as finite.
        *(pytest.param(field, 10 ** 400, id=f"{field}-int-beyond-float")
          for field in ("wait_period_s", "rb_bandwidth_hz", "tick_duration_ms")),
    ])
    def test_non_finite_radio_field_names_the_field(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "radio.json"
        cfg.write_text(json.dumps({**SMALL, field: value}))
        rc = main(["scenario1", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert field in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tick_ms", [2000.0, 0.7])
    def test_interval_not_whole_ticks_names_both_fields(self, tmp_path, capsys, tick_ms):
        cfg = tmp_path / "tick.json"
        cfg.write_text(json.dumps({**SMALL, "tick_duration_ms": tick_ms}))
        rc = main(["scenario1", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "tick_duration_ms" in err["message"]
        assert "monitoring_interval_s" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, field, value", [
        (["scenario2", "--trials", "2"], "scenario2_grid", []),
        (["scenario1"], "initial_shares", [0.4, 0.3, 0.3]),
        (["scenario1"], "initial_shares", [1.0]),
        (["scenario1"], "scenario1_steps", [[[0, 5.0]]]),
        (["scenario1"], "scenario1_steps", [[[0, 5.0]], [[0, 4.0]], [[0, 4.0]]]),
    ])
    def test_config_list_of_wrong_length_names_the_field(self, tmp_path, capsys,
                                                         command, field, value):
        cfg = tmp_path / "lists.json"
        cfg.write_text(json.dumps({**SMALL, field: value}))
        rc = main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert field in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, field, value", [
        (["scenario2", "--trials", "2"], "scenario2_grid", [80.0, -5.0]),
        (["scenario2", "--trials", "2"], "scenario2_grid", [80.0, float("nan")]),
        (["scenario1"], "scenario1_steps", [[[0, 5.0], [3, -5.0]], [[0, 4.0]]]),
        # An integer beyond float range, and shares that do not sum to 1.
        (["scenario2", "--trials", "2"], "scenario2_grid", [80, 10 ** 400]),
        (["scenario1"], "initial_shares", [0.5, 0.7]),
        (["oracle-table", "--rates", "120", "80"], "initial_shares", [0.5, 0.7]),
    ])
    def test_bad_config_rate_names_the_field(self, tmp_path, capsys, command, field, value):
        # Rejected before any trial runs, whether or not a trial would draw it.
        cfg = tmp_path / "rates.json"
        cfg.write_text(json.dumps({**SMALL, field: value}))
        rc = main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert field in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, config, field", [
        # Rates whose interval offers 8.3e19 packets, beyond int64 counts.
        (["scenario1"], {"scenario1_steps": [[[0, 5.0], [3, 1e18]], [[0, 4.0]]]},
         "scenario1_steps"),
        (["scenario2", "--trials", "2"], {"scenario2_grid": [4.0, 1e18]}, "scenario2_grid"),
        (["oracle-table", "--rates", "1e18", "80"], {}, "offered_mbps 1e+18"),
        # Counts beyond float range.
        (["scenario1"], {"packet_size_bytes": 10 ** 400}, "packet_size_bytes"),
        (["scenario1"], {"total_rbs": 10 ** 400}, "total_rbs"),
        (["scenario1"], {"buffer_capacity_packets": 10 ** 400}, "buffer_capacity_packets"),
    ], ids=["steps-rate", "grid-rate", "oracle-rate", "packet-size", "pool", "buffer"])
    def test_value_beyond_the_simulators_counts_names_the_field(self, tmp_path, capsys,
                                                                command, config, field):
        cfg = tmp_path / "beyond.json"
        cfg.write_text(json.dumps({**SMALL, **config}))
        rc = main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert field in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_names_the_option(self, tmp_path, capsys, small_cfg,
                                               trials):
        rc = main(["scenario2", "--trials", trials, "--config", str(small_cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "trials" in err["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "-5"])
    def test_oracle_table_rejects_bad_offered_rate(self, tmp_path, capsys, small_cfg,
                                                   rate):
        rc = main(["oracle-table", "--rates", rate, "80", "--config", str(small_cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "offered_mbps" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_oracle_table_rejects_pool_smaller_than_the_slice_count(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"total_rbs": 1}))
        rc = main(["oracle-table", "--rates", "5", "5", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InfeasibleAllocationError"
        assert "total_rbs (1)" in err["message"] and "2 slices" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_oracle_table_takes_no_seed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["oracle-table", "--seed", "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
