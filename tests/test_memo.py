"""The sweep memo: a memoised sweep is bit-identical to simulating every interval."""
import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliceloop import radio
from sliceloop.agents import HeuristicOracleBackend
from sliceloop.core import AllocationRatio, RadioConfig, SliceKind, SliceSpec
from sliceloop.harness import HarnessConfig, run_scenario2
from sliceloop.loop import Environment, LoopState, SweepMemo, run_cycle, run_experiment
from sliceloop.radio import QueueConfig, SimState, SliceQueueState, StepProfile, UeChannelState
from sliceloop.store import ExperienceStore

SINR = 2.0 ** (2_200_000 / 180_000) - 1.0  # 2.2 Mbps per RB: 22 Mbps over 10 RBs
CYCLES = 3
# 100-tick intervals keep each slice-interval cheap; 30 Mbps overloads the pool.
RATES = (0.0, -0.0, 4.0, 8.0, 16.0, 30.0)
SHARES = ((0.5, 0.5), (0.1, 0.9), (0.9, 0.1))
# (slice 0's SLA weight, violation threshold)
SLAS = ((2.0, 0.7), (1.0, 0.7), (2.0, 0.5))


def make_env(rates, sla=SLAS[0]):
    weight, theta = sla
    return Environment(
        radio_cfg=RadioConfig(total_rbs=10, monitoring_interval_s=0.1, wait_period_s=0.2,
                              violation_threshold=theta),
        queue_cfg=QueueConfig(buffer_capacity_packets=64),
        specs=[SliceSpec(0, SliceKind.LATENCY, 10.0, weight, 10.0, 0.2),
               SliceSpec(1, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02)],
        channels=[UeChannelState(0, 0, SINR), UeChannelState(1, 1, SINR)],
        profile=StepProfile(steps=tuple(((0, r),) for r in rates)),
    )


class Queue(NamedTuple):
    ages: tuple  # ticks before the start tick at which each queued packet arrived
    carry: float
    credit: float


class Run(NamedTuple):
    rates: tuple
    shares: tuple
    oracle: bool
    start: int
    queues: tuple
    sla: tuple = SLAS[0]


EMPTY = Queue((), 0.0, 0.0)
HALF = Queue((3, 1), 0.5, 0.5)


def one_ulp_apart(field):
    """Two runs whose carried states differ by one ulp of one slice's field."""
    a = Run((8.0, 8.0), SHARES[0], False, 100, (HALF, EMPTY))
    bumped = HALF._replace(**{field: math.nextafter(getattr(HALF, field), 1.0)})
    return [a, a._replace(queues=(bumped, EMPTY))]


queues = st.builds(
    Queue,
    ages=st.lists(st.integers(0, 20), max_size=40).map(lambda a: tuple(sorted(a, reverse=True))),
    carry=st.sampled_from([0.0, 0.25, 0.5]),
    credit=st.sampled_from([0.0, 0.5, 0.75]),
)
runs = st.lists(st.builds(
    Run,
    rates=st.tuples(st.sampled_from(RATES), st.sampled_from(RATES)),
    shares=st.sampled_from(SHARES),
    oracle=st.booleans(),
    start=st.sampled_from([0, 100, 5000]),
    queues=st.tuples(st.one_of(st.just(EMPTY), queues), st.one_of(st.just(EMPTY), queues)),
    sla=st.sampled_from(SLAS),
), min_size=1, max_size=3)


def hexes(*xs):
    return tuple(float.hex(x) for x in xs)


def report_bits(report):
    """Every field of a cycle report, floats as float.hex."""
    a = report.assessment
    return (
        report.interval_index,
        [hexes(k.mean_latency_ms, k.mean_throughput_mbps, k.drop_ratio, k.offered_load_mbps)
         for k in report.kpm],
        [hexes(r.epsilon, r.rho) for r in a.slices],
        hexes(a.sigma),
        a.violation_detected,
        report.accounting,
        report.rb_counts,
        report.gate_open,
        repr(report.decision),
        report.backend_error,
        report.storage_error,
    )


def state_bits(state):
    return state.tick, [(q.arrival_ticks.tolist(), float.hex(q.arrival_carry),
                         float.hex(q.service_credit)) for q in state.queues]


def sweep(runs, memo):
    """Every run's report bits and final state bits, and the distinct slice inputs stepped."""
    stepped = []
    advance = radio._advance_slice

    def recording(qs, offered_bps, service_bps, n_ticks, tick_s, packet_bits, cap, start):
        stepped.append((float.hex(offered_bps), float.hex(service_bps),
                        (qs.arrival_ticks - start).tobytes(),
                        float.hex(qs.arrival_carry), float.hex(qs.service_credit)))
        return advance(qs, offered_bps, service_bps, n_ticks, tick_s, packet_bits, cap, start)

    out = []
    with mock.patch.object(radio, "_advance_slice", recording):
        for run in runs:
            env = make_env(run.rates, run.sla)
            sim = SimState(run.start, [
                SliceQueueState(np.array([run.start - 1 - a for a in q.ages], dtype=np.int64),
                                q.carry, q.credit)
                for q in run.queues
            ])
            state = LoopState(AllocationRatio(run.shares), 0, sim)
            store = ExperienceStore(2)
            backend = HeuristicOracleBackend() if run.oracle else None
            for _ in range(CYCLES):
                state, report = run_cycle(state, env, store, backend, memo=memo)
                out.append(report_bits(report))
            out.append(state_bits(state.sim_state))
    return out, stepped


class TestSweepMemo:
    @settings(max_examples=40, deadline=None)
    @given(runs=runs)
    @example(runs=one_ulp_apart("carry"))
    @example(runs=one_ulp_apart("credit"))
    @example(runs=[Run((0.0, 8.0), SHARES[0], False, 0, (EMPTY, EMPTY)),
                   Run((-0.0, 8.0), SHARES[0], False, 0, (EMPTY, EMPTY))])
    # Idle slices: equal KPMs and books, with different RB counts or SLA inputs.
    @example(runs=[Run((0.0, 0.0), share, False, 0, (EMPTY, EMPTY)) for share in SHARES[:2]])
    @example(runs=[Run((0.0, 4.0), SHARES[0], False, 0, (EMPTY, EMPTY), sla) for sla in SLAS])
    def test_memoised_sweep_is_bit_identical(self, runs):
        # Each run twice, so the memoised sweep has hits to take.
        plain, every_input = sweep(runs + runs, None)
        memoised, stepped = sweep(runs + runs, SweepMemo())
        assert memoised == plain
        # The memo steps each distinct input once: a key that merged two
        # inputs of different bits would step fewer.
        assert len(stepped) == len(set(stepped)) == len(set(every_input))

    def test_hit_at_a_later_tick_rebases_the_fifo(self):
        env = make_env((30.0, 30.0))
        backlog = [SliceQueueState(np.array([95, 97, 99], dtype=np.int64), 0.25, 0.5),
                   SliceQueueState()]
        args = ([30.0, 30.0], [5, 5], env.channels, env.radio_cfg, env.queue_cfg)
        memo = {}
        first = radio.simulate_interval(*args, SimState(100, backlog), memo=memo)
        shift = 7000
        later = SimState(100 + shift, [
            SliceQueueState(q.arrival_ticks + shift, q.arrival_carry, q.service_credit)
            for q in backlog
        ])
        with mock.patch.object(radio, "_advance_slice", side_effect=AssertionError("missed")):
            hit = radio.simulate_interval(*args, later, memo=memo)
        expected = radio.simulate_interval(*args, later)
        assert hit.kpm == expected.kpm and hit.accounting == expected.accounting
        assert all(a is b for a, b in zip(hit.kpm + hit.accounting,
                                          first.kpm + first.accounting))
        assert hit.state.tick == expected.state.tick
        for h, f, e in zip(hit.state.queues, first.state.queues, expected.state.queues):
            assert len(f.arrival_ticks) > 0
            np.testing.assert_array_equal(h.arrival_ticks, f.arrival_ticks + shift)
            np.testing.assert_array_equal(h.arrival_ticks, e.arrival_ticks)
            assert (h.arrival_carry, h.service_credit) == (e.arrival_carry, e.service_credit)

        # What the memo stores is read-only, and no returned FIFO is a view of it.
        assert len(memo) == 2
        for entry in memo.values():
            assert not entry.tail.flags.writeable
            with pytest.raises(ValueError):
                entry.tail[:] = 0
            for result in (first, hit):
                for q in result.state.queues:
                    assert not np.shares_memory(q.arrival_ticks, entry.tail)

    def test_nothing_survives_a_sweep(self):
        config = HarnessConfig(total_rbs=10, scenario2_grid=(4.0, 8.0, 16.0),
                               scenario2_cycles=4)
        counts = []
        advance = radio._advance_slice

        def counting(*args):
            counts[-1] += 1
            return advance(*args)

        with mock.patch.object(radio, "_advance_slice", counting):
            results = []
            for _ in range(2):
                counts.append(0)
                results.append(run_scenario2(config, trials=6, seed=3))
            # A plain run keeps no memo: its constant traffic steps every cycle.
            counts.append(0)
            run_experiment(make_env((8.0, 8.0)), 5, None,
                           initial_allocation=AllocationRatio((0.5, 0.5)))
        assert results[0] == results[1]
        slice_intervals = 6 * 4 * config.scenario2_cycles * 2
        assert counts[0] == counts[1] < slice_intervals
        assert counts[2] == 5 * 2
