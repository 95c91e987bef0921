import math

import numpy as np
import pytest

from sliceloop.baselines import (
    UnsupportedScaleError,
    brute_force_optimal,
    enumerate_splits,
)
from sliceloop.core import RadioConfig, SliceKind, SliceSpec
from sliceloop.radio import QueueConfig, SimState, UeChannelState

SINR = 2.0 ** (2_200_000 / 180_000) - 1.0  # 2.2 Mbps per RB

SPECS = [
    SliceSpec(0, SliceKind.LATENCY, 10.0, 2.0, 10.0, 0.2),
    SliceSpec(1, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02),
]


def make_env(total_rbs=10, n_slices=2):
    radio = RadioConfig(total_rbs=total_rbs)
    channels = [UeChannelState(i, i, SINR) for i in range(n_slices)]
    return radio, QueueConfig(), channels


class TestEnumerateSplits:
    def test_two_slice_count(self):
        radio, queue, channels = make_env()
        rows = enumerate_splits([5.0, 5.0], channels, radio, queue, SPECS)
        assert len(rows) == 9  # compositions of 10 into 2 parts >= 1
        assert {r.rb_counts for r in rows} == {(i, 10 - i) for i in range(1, 10)}

    def test_three_slice_count(self):
        radio, queue, channels = make_env(n_slices=3)
        specs = SPECS + [SliceSpec(2, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02)]
        rows = enumerate_splits([3.0, 3.0, 3.0], channels, radio, queue, specs)
        assert len(rows) == math.comb(9, 2)  # compositions of 10 into 3
        assert all(sum(r.rb_counts) == 10 and min(r.rb_counts) >= 1 for r in rows)

    def test_unsupported_slice_count(self):
        radio, queue, channels = make_env(n_slices=4)
        specs = [SliceSpec(i, SliceKind.THROUGHPUT, 10.0, 1.0, -30.0, -0.02)
                 for i in range(4)]
        with pytest.raises(UnsupportedScaleError):
            enumerate_splits([1.0] * 4, channels, radio, queue, specs)

    def test_feasible_rows_meet_latency_bound_strictly(self):
        radio, queue, channels = make_env()
        rows = enumerate_splits([11.0, 4.0], channels, radio, queue, SPECS)
        for r in rows:
            if r.feasible:
                assert r.latencies_ms[0] < SPECS[0].sla_target
            else:
                assert r.latencies_ms[0] >= SPECS[0].sla_target


class TestBruteForceOptimal:
    def test_matches_independent_enumeration(self):
        # independent argmax written directly from the documented rule
        radio, queue, channels = make_env()
        for offered in ([5.0, 5.0], [11.0, 4.0], [16.0, 4.0], [4.0, 16.0],
                        [10.0, 10.0]):
            rows = enumerate_splits(offered, channels, radio, queue, SPECS)
            feas = [r for r in rows if r.feasible]
            if feas:
                want = min(feas, key=lambda r: (-r.objective, r.rb_counts[0],
                                                r.rb_counts[0]))
            else:
                want = min(rows, key=lambda r: (-r.sigma, r.rb_counts[0],
                                                r.rb_counts[0]))
            got = brute_force_optimal(offered, channels, radio, queue, SPECS)
            assert got.rb_counts == want.rb_counts
            assert got.feasible == bool(feas)
            assert got.objective == want.objective

    def test_infeasible_instance_falls_back_to_sigma(self):
        # the latency slice alone needs more than the whole pool
        radio, queue, channels = make_env()
        got = brute_force_optimal([30.0, 4.0], channels, radio, queue, SPECS)
        assert not got.feasible

    def test_feasible_latency_bound_holds(self):
        radio, queue, channels = make_env()
        got = brute_force_optimal([11.0, 4.0], channels, radio, queue, SPECS)
        assert got.feasible
        rows = enumerate_splits([11.0, 4.0], channels, radio, queue, SPECS)
        row = next(r for r in rows if r.rb_counts == got.rb_counts)
        assert row.latencies_ms[0] < SPECS[0].sla_target

    def test_objective_dominates_every_feasible_split(self):
        radio, queue, channels = make_env()
        rng = np.random.default_rng(17)
        for _ in range(20):
            offered = [float(rng.uniform(2, 18)), float(rng.uniform(2, 18))]
            rows = enumerate_splits(offered, channels, radio, queue, SPECS)
            got = brute_force_optimal(offered, channels, radio, queue, SPECS)
            if got.feasible:
                assert all(got.objective >= r.objective
                           for r in rows if r.feasible)
            else:
                assert all(got.sigma >= r.sigma for r in rows)

    def test_tie_breaks_toward_fewest_latency_rbs(self):
        # idle system: every split is feasible with identical (zero)
        # objective, so the latency slice gets the minimum single RB
        radio, queue, channels = make_env()
        got = brute_force_optimal([0.0, 0.0], channels, radio, queue, SPECS)
        assert got.feasible
        assert got.rb_counts[0] == 1

    def test_starved_latency_slice_is_infeasible(self):
        # A latency slice that delivers nothing reports 0 ms; at SINR 0.01
        # one or a few RBs carry no packet of its 5 Mbps in an interval.
        channels = [UeChannelState(0, 0, 0.01), UeChannelState(1, 1, SINR)]
        args = ([5.0, 100.0], channels, RadioConfig(), QueueConfig(), SPECS)
        assert not any(r.feasible for r in enumerate_splits(*args))
        got = brute_force_optimal(*args)
        assert not got.feasible
        assert got.rb_counts == (1, 105)  # best sigma: every split starves or lags

    def test_allocation_matches_counts(self):
        radio, queue, channels = make_env()
        got = brute_force_optimal([11.0, 4.0], channels, radio, queue, SPECS)
        assert got.allocation.shares == tuple(c / 10 for c in got.rb_counts)

    def test_deterministic(self):
        radio, queue, channels = make_env()
        a = brute_force_optimal([11.0, 7.0], channels, radio, queue, SPECS)
        b = brute_force_optimal([11.0, 7.0], channels, radio, queue, SPECS)
        assert a == b

    def test_respects_initial_state(self):
        # a full buffer of backlog cannot drain within one interval, so a
        # load that is feasible from a fresh state stops being feasible
        radio, queue, channels = make_env()
        from sliceloop.radio import simulate_interval

        backlog = simulate_interval(
            [22.0, 0.0], [5, 5], channels, radio, queue, SimState.fresh(2)
        ).state
        fresh = brute_force_optimal([5.0, 4.0], channels, radio, queue, SPECS)
        loaded = brute_force_optimal(
            [5.0, 4.0], channels, radio, queue, SPECS, state=backlog
        )
        assert fresh.feasible
        assert not loaded.feasible
