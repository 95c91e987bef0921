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
    ages: tuple  # ticks before the interval's start at which each queued packet arrived
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


def interval_bits(result):
    """A ``simulate_interval`` result's KPMs, accounting and carried queues, floats as float.hex."""
    return ([hexes(k.mean_latency_ms, k.mean_throughput_mbps, k.drop_ratio, k.offered_load_mbps)
             for k in result.kpm], result.accounting, state_bits(result.state)[1])


def carried_queue(q):
    return SliceQueueState(np.array([-1 - a for a in q.ages], dtype=np.int64), q.carry, q.credit)


def sweep(runs, memo):
    """Every run's report bits and final state bits, and the distinct slice inputs stepped."""
    stepped = []
    advance = radio._advance_slice

    def recording(qs, offered_bps, service_bps, n_ticks, tick_s, packet_bits, cap):
        stepped.append((float.hex(offered_bps), float.hex(service_bps),
                        qs.arrival_ticks.tobytes(),
                        float.hex(qs.arrival_carry), float.hex(qs.service_credit)))
        return advance(qs, offered_bps, service_bps, n_ticks, tick_s, packet_bits, cap)

    out = []
    with mock.patch.object(radio, "_advance_slice", recording):
        for run in runs:
            env = make_env(run.rates, run.sla)
            sim = SimState(run.start, [carried_queue(q) for q in run.queues])
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

    @settings(max_examples=60, deadline=None)
    @given(carried=st.tuples(queues, queues),
           rates=st.tuples(st.sampled_from(RATES), st.sampled_from(RATES)),
           rbs=st.integers(1, 9),
           ticks=st.tuples(st.sampled_from([0, 100]) | st.integers(0, 10 ** 9),
                           st.sampled_from([0, 100]) | st.integers(0, 10 ** 9)))
    @example(carried=(HALF, EMPTY), rates=(30.0, 30.0), rbs=5, ticks=(100, 7100))
    def test_result_does_not_depend_on_the_tick(self, carried, rates, rbs, ticks):
        env = make_env(rates)
        args = (list(rates), [rbs, 10 - rbs], env.channels, env.radio_cfg, env.queue_cfg)
        memo = {}
        earlier = SimState(ticks[0], [carried_queue(q) for q in carried])
        first = radio.simulate_interval(*args, earlier, memo=memo)
        # Equal queue states, as new objects, at the other tick.
        later = SimState(ticks[1], [carried_queue(q) for q in carried])
        plain = radio.simulate_interval(*args, later)
        assert interval_bits(plain) == interval_bits(first)
        with mock.patch.object(radio, "_advance_slice", side_effect=AssertionError("missed")):
            hit = radio.simulate_interval(*args, later, memo=memo)
        assert hit.state.tick == plain.state.tick == ticks[1] + 100
        # A hit hands back the stored objects themselves, FIFOs read-only.
        stored = list(memo.values())
        for k in range(2):
            kpm, acct, qs = hit.kpm[k], hit.accounting[k], hit.state.queues[k]
            assert any(kpm is a and acct is b and qs is c for a, b, c in stored)
            assert kpm is first.kpm[k] and acct is first.accounting[k]
            assert qs is first.state.queues[k]
        for result in (first, plain, hit):
            for q in result.state.queues:
                assert not q.arrival_ticks.flags.writeable
                with pytest.raises(ValueError):
                    q.arrival_ticks[:] = 0

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
