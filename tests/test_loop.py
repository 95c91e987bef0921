import dataclasses
import json

import pytest

from sliceloop.agents import (
    AllocationRatio,
    BackendError,
    DecisionOutcome,
    HeuristicOracleBackend,
)
from sliceloop.core import RadioConfig, SliceKind, SliceSpec
from sliceloop.loop import Environment, SweepMemo, run_experiment
from sliceloop.radio import QueueConfig, StepProfile, UeChannelState
from sliceloop.store import ExperienceStore

SINR = 2.0 ** (2_200_000 / 180_000) - 1.0  # 2.2 Mbps per RB

SPECS = [
    SliceSpec(0, SliceKind.LATENCY, 10.0, 2.0, 10.0, 0.2),
    SliceSpec(1, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02),
]


def make_env(steps=None, wait_period_s=5.0):
    profile = StepProfile(
        steps=steps if steps is not None else (((0, 5.0), (3, 16.0)), ((0, 4.0),))
    )
    radio = RadioConfig(
        total_rbs=10, monitoring_interval_s=1.0, wait_period_s=wait_period_s
    )
    channels = [UeChannelState(0, 0, SINR), UeChannelState(1, 1, SINR)]
    return Environment(
        radio_cfg=radio,
        queue_cfg=QueueConfig(),
        specs=SPECS,
        channels=channels,
        profile=profile,
    )


class FixedDecisionBackend:
    """Always proposes the same shares; counts how often it is consulted."""

    label = "fixed-decision"

    def __init__(self, shares=(0.8, 0.2)):
        self.shares = shares
        self.calls = 0

    def propose(self, prompt, current_allocation, predictor=None):
        self.calls += 1
        return DecisionOutcome(
            allocation=AllocationRatio(self.shares),
            prompt_tokens=100,
            completion_tokens=10,
            backend_label=self.label,
            raw_response=json.dumps({"shares": list(self.shares)}),
        )


class AlwaysErrorBackend:
    label = "broken"

    def __init__(self):
        self.calls = 0

    def propose(self, prompt, current_allocation, predictor=None):
        self.calls += 1
        raise BackendError("simulated outage")


class TestFixedPolicy:
    def test_allocation_never_changes(self):
        log = run_experiment(make_env(), 10, backend=None)
        assert log.reallocation_count == 0
        assert log.backend_call_count == 0
        first = log.cycles[0].rb_counts
        assert all(c.rb_counts == first for c in log.cycles)

    def test_assessments_still_produced(self):
        log = run_experiment(make_env(), 10, backend=None)
        # the overload at interval 3 is detected even though nothing acts
        assert any(c.assessment.violation_detected for c in log.cycles[3:])

    def test_experience_recorded_every_cycle(self):
        store = ExperienceStore(2)
        run_experiment(make_env(), 10, backend=None, store=store)
        assert len(store) == 10


class TestGate:
    def test_backend_called_exactly_on_open_gates(self):
        backend = FixedDecisionBackend()
        log = run_experiment(make_env(), 12, backend=backend)
        open_cycles = [c for c in log.cycles if c.gate_open]
        assert backend.calls == len(open_cycles)
        for c in log.cycles:
            assert c.gate_open == (c.decision is not None)
            if c.gate_open:
                assert c.assessment.violation_detected

    def test_cooldown_blocks_gate(self):
        # a permanent overload the fixed decision cannot fix: violations
        # persist, but after each decision the gate stays shut for
        # ceil(5 / 1) = 5 cycles
        env = make_env(steps=(((0, 30.0),), ((0, 30.0),)))
        backend = FixedDecisionBackend(shares=(0.5, 0.5))
        log = run_experiment(env, 12, backend=backend)
        open_idx = [c.interval_index for c in log.cycles if c.gate_open]
        assert open_idx == [0, 6]
        assert all(c.assessment.violation_detected for c in log.cycles)

    def test_no_cooldown_when_ungated(self):
        env = make_env(steps=(((0, 30.0),), ((0, 30.0),)))
        backend = FixedDecisionBackend(shares=(0.5, 0.5))
        log = run_experiment(env, 8, backend=backend, gate_enabled=False)
        assert backend.calls == 8
        assert all(c.gate_open for c in log.cycles)

    def test_gated_calls_never_exceed_ungated(self):
        env = make_env()
        gated = run_experiment(env, 15, backend=FixedDecisionBackend())
        ungated = run_experiment(
            make_env(), 15, backend=FixedDecisionBackend(), gate_enabled=False
        )
        assert gated.backend_call_count <= ungated.backend_call_count
        g, u = gated.cumulative_tokens, ungated.cumulative_tokens
        assert all(a <= b for a, b in zip(g, u))


class TestTokenAccounting:
    def test_cumulative_is_monotone(self):
        log = run_experiment(
            make_env(), 12, backend=FixedDecisionBackend(), gate_enabled=False
        )
        cum = log.cumulative_tokens
        assert all(a <= b for a, b in zip(cum, cum[1:]))
        assert cum[-1] == 12 * 110

    def test_zero_delta_without_decision(self):
        log = run_experiment(make_env(), 10, backend=None)
        assert all(c.token_delta == 0 for c in log.cycles)


class TestFailStatic:
    def test_allocation_unchanged_on_backend_error(self):
        backend = AlwaysErrorBackend()
        log = run_experiment(make_env(), 12, backend=backend)
        first = log.cycles[0].rb_counts
        assert all(c.rb_counts == first for c in log.cycles)
        assert log.reallocation_count == 0
        errored = [c for c in log.cycles if c.backend_error]
        assert errored and all("simulated outage" in c.backend_error for c in errored)
        # a failed call does not start a cooldown, so the gate reopens
        # on the next violating cycle
        assert backend.calls == sum(
            1 for c in log.cycles if c.assessment.violation_detected
        )

    def test_storage_error_keeps_record_and_run_going(self, tmp_path):
        # A directory cannot be opened for appending.
        store = ExperienceStore(2, path=tmp_path)
        log = run_experiment(make_env(), 6, backend=HeuristicOracleBackend(), store=store)
        assert len(log.cycles) == 6
        assert len(store) == 6
        assert all(c.storage_error for c in log.cycles)
        assert log.reallocation_count >= 1

    def test_thousand_failed_writes_then_one_lands_every_line(self, tmp_path):
        # The pending lines are the failed records' own: 1,000 failed
        # writes change no decision, and the next write lands them all.
        store = ExperienceStore(2, path=tmp_path)
        memo = SweepMemo()
        log = run_experiment(make_env(), 1000, HeuristicOracleBackend(), store=store, memo=memo)
        assert all(c.storage_error for c in log.cycles)
        in_memory = run_experiment(make_env(), 1000, HeuristicOracleBackend(), memo=memo)
        assert [c.rb_counts for c in log.cycles] == [c.rb_counts for c in in_memory.cycles]
        assert log.reallocation_count >= 1
        store.path = tmp_path / "store.jsonl"
        last = run_experiment(make_env(), 1, None, store=store)
        assert last.cycles[0].storage_error is None
        ids = [json.loads(line)["id"] for line in store.path.read_text().splitlines()]
        assert ids == list(range(1001))

    def test_errors_cost_no_tokens(self):
        log = run_experiment(make_env(), 12, backend=AlwaysErrorBackend())
        assert log.cumulative_tokens[-1] == 0


class TestOracleClosedLoop:
    def test_overload_is_repaired(self):
        log = run_experiment(make_env(), 12, backend=HeuristicOracleBackend())
        assert log.reallocation_count >= 1
        # after settling, the latency slice meets its bound again
        last = log.cycles[-1]
        assert last.kpm[0].mean_latency_ms < 10.0
        assert not last.assessment.violation_detected

    def test_store_grows_one_record_per_cycle(self):
        store = ExperienceStore(2)
        run_experiment(make_env(), 12, backend=HeuristicOracleBackend(), store=store)
        assert len(store) == 12

    def test_new_allocation_recorded_on_violation_cycle(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=path)
        backend = FixedDecisionBackend(shares=(0.8, 0.2))
        log = run_experiment(make_env(), 12, backend=backend, store=store)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(log.cycles)
        for c in log.cycles:
            rec = lines[c.interval_index]
            assert rec["id"] == c.interval_index
            if c.reallocated:
                assert rec["shares"] == [0.8, 0.2]

    def test_timeline_rows_shape(self):
        log = run_experiment(make_env(), 5, backend=None)
        rows = log.timeline_rows()
        assert len(rows) == 5 * 2
        assert rows[0]["interval"] == 0 and rows[1]["slice_id"] == 1
        assert {"latency_ms", "throughput_mbps", "drop_ratio", "offered_mbps",
                "rb_count"} <= set(rows[0])

    def test_determinism(self):
        a = run_experiment(make_env(), 10, backend=HeuristicOracleBackend())
        b = run_experiment(make_env(), 10, backend=HeuristicOracleBackend())
        assert [c.rb_counts for c in a.cycles] == [c.rb_counts for c in b.cycles]
        assert a.cumulative_tokens == b.cumulative_tokens


def dataclass_graph(obj):
    """Every dataclass instance reachable from obj through fields and tuples."""
    if isinstance(obj, tuple):
        for item in obj:
            yield from dataclass_graph(item)
    elif dataclasses.is_dataclass(obj):
        yield obj
        for f in dataclasses.fields(obj):
            yield from dataclass_graph(getattr(obj, f.name))


class TestCycleReportMemory:
    def test_report_graph_holds_no_instance_dict(self):
        # Runs keep every cycle's report, so each object in it is slotted.
        log = run_experiment(make_env(), 10, backend=HeuristicOracleBackend())
        report = next(c for c in log.cycles if c.decision is not None)
        graph = list(dataclass_graph(report))
        kinds = {type(obj).__name__ for obj in graph}
        assert {"CycleReport", "SliceKpm", "RiskAssessment", "SliceRisk",
                "SliceAccounting", "DecisionOutcome", "AllocationRatio"} <= kinds
        for obj in graph:
            assert not hasattr(obj, "__dict__"), type(obj).__name__
