import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sliceloop.baselines as baselines
from sliceloop.agents import Predictor
from sliceloop.baselines import (
    EnumerationRow,
    OptimizerResult,
    UnsupportedScaleError,
    brute_force_optimal,
    enumerate_splits,
)
from sliceloop.core import AllocationRatio, RadioConfig, SliceKind, SliceSpec
from sliceloop.radio import QueueConfig, SimState, UeChannelState, simulate_interval
from split_reference import reference_splits

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

    # 10**400 is an int beyond float range, which compares with inf as finite.
    @pytest.mark.parametrize("rate", [-5.0, math.inf, math.nan, 10 ** 400])
    def test_bad_offered_rate_names_the_field(self, rate):
        radio, queue, channels = make_env()
        with pytest.raises(ValueError, match="offered_mbps"):
            enumerate_splits([5.0, rate], channels, radio, queue, SPECS)

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


def reference_rows(offered, channels, radio, queue, specs, state):
    """The table split by split: one ``Predictor.score`` call per split.

    A latency slice that delivered no packet of a positive offered load is
    starved, and infeasible, by ``simulate_interval``'s accounting.
    """
    predictor = Predictor(offered, channels, radio, queue, specs, state)
    rows = []
    for counts in reference_splits(radio.total_rbs, len(specs)):
        score = predictor.score(counts)
        slices = score.kpm
        accounting = simulate_interval(offered, counts, channels, radio, queue,
                                       state).accounting
        feasible = all(
            spec.kind is SliceKind.THROUGHPUT
            or (not (a.delivered_packets == 0 and s.offered_load_mbps > 0)
                and s.mean_latency_ms < spec.sla_target)
            for spec, s, a in zip(specs, slices, accounting)
        )
        rows.append(EnumerationRow(
            rb_counts=counts,
            latencies_ms=tuple(s.mean_latency_ms for s in slices),
            throughputs_mbps=tuple(s.mean_throughput_mbps for s in slices),
            drop_ratios=tuple(s.drop_ratio for s in slices),
            sigma=score.sigma,
            objective=score.throughput_mbps,
            feasible=feasible,
        ))
    return rows


def reference_optimum(rows, specs, total_rbs):
    """One ``min`` over (-value, latency RBs, slice-0 count)."""
    feasible = [r for r in rows if r.feasible]
    pool, value = (feasible, "objective") if feasible else (rows, "sigma")
    best = min(pool, key=lambda r: (
        -getattr(r, value),
        sum(c for c, spec in zip(r.rb_counts, specs) if spec.kind is SliceKind.LATENCY),
        r.rb_counts[0],
    ))
    return OptimizerResult(
        allocation=AllocationRatio([c / total_rbs for c in best.rb_counts]),
        rb_counts=best.rb_counts,
        feasible=bool(feasible),
        objective=best.objective,
        sigma=best.sigma,
    )


LAT, THR = SPECS


def optimizer_args(specs, sinrs, offered, total_rbs, interval_s=1.0, carried=False):
    n = len(specs)
    radio = RadioConfig(total_rbs=total_rbs, monitoring_interval_s=interval_s)
    queue = QueueConfig()
    channels = [UeChannelState(k, k, x) for k, x in enumerate(sinrs)]
    state = SimState.fresh(n)
    if carried:
        # Two overloaded intervals leave backlogs, arrival carries and credit.
        counts = [total_rbs - n + 1] + [1] * (n - 1)
        for _ in range(2):
            state = simulate_interval([30.31, 25.13, 20.77][:n], counts, channels,
                                      radio, queue, state).state
    return list(offered), channels, radio, queue, list(specs), state


def assert_matches_reference(args):
    rows = enumerate_splits(*args)
    want = reference_rows(*args)
    assert [repr(r) for r in rows] == [repr(r) for r in want]
    specs, total_rbs = args[4], args[2].total_rbs
    assert repr(brute_force_optimal(*args)) == repr(reference_optimum(want, specs, total_rbs))
    return rows


@st.composite
def optimizer_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    # Weights that are not powers of two round differently in w * r * r
    # and w * (r * r).
    weights = st.sampled_from([1.0, 2.0, 0.3, 1.7])
    specs = [
        replace(LAT, slice_id=k, weight=draw(weights),
                sla_target=draw(st.sampled_from([2.0, 10.0, 40.0])))
        if draw(st.booleans())
        else replace(THR, slice_id=k, weight=draw(weights),
                     sla_target=draw(st.sampled_from([5.0, 1000.0])))
        for k in range(n)
    ]
    sinrs = draw(st.lists(st.sampled_from([SINR, 0.01]), min_size=n, max_size=n))
    rates = st.sampled_from([0.0, 4.0, 11.0]) | st.floats(0.0, 30.0)
    offered = draw(st.lists(rates, min_size=n, max_size=n))
    if n == 3 and draw(st.booleans()):
        # Twin slices: every split and its swap score the same, forcing ties.
        specs[2], sinrs[2], offered[2] = replace(specs[1], slice_id=2), sinrs[1], offered[1]
    return (specs, sinrs, offered, draw(st.integers(n, 13)),
            draw(st.sampled_from([0.1, 1.0])), draw(st.booleans()))


class TestBatchEqualsScalarWalk:
    @settings(max_examples=60, deadline=None)
    @given(case=optimizer_cases())
    def test_rows_and_optimum_match_the_score_walk(self, case):
        assert_matches_reference(optimizer_args(*case))

    def test_infeasible_fallback(self):
        rows = assert_matches_reference(optimizer_args([LAT, THR], [SINR, SINR], [30.0, 4.0], 10))
        assert not any(r.feasible for r in rows)

    @pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried"])
    def test_twin_throughput_slices_tie(self, carried):
        specs = [LAT, THR, replace(THR, slice_id=2)]
        args = optimizer_args(specs, [SINR] * 3, [5.0, 12.0, 12.0], 12, carried=carried)
        rows = assert_matches_reference(args)
        pool = [r for r in rows if r.feasible] or rows
        value = [r.objective if r.feasible else r.sigma for r in pool]
        assert value.count(max(value)) > 1

    def test_starved_latency_slice(self):
        rows = assert_matches_reference(
            optimizer_args([THR, LAT], [SINR, 0.01], [10.0, 5.0], 10))
        assert any(r.latencies_ms[1] == 0.0 and not r.feasible for r in rows)

    def test_zero_offered_load(self):
        specs = [THR, LAT, replace(THR, slice_id=2)]
        rows = assert_matches_reference(optimizer_args(specs, [SINR] * 3, [0.0] * 3, 9))
        assert all(r.feasible and r.objective == 0.0 for r in rows)

    def test_latency_slice_last(self):
        specs = [replace(THR, slice_id=0), replace(THR, slice_id=1), replace(LAT, slice_id=2)]
        assert_matches_reference(
            optimizer_args(specs, [SINR] * 3, [8.0, 6.0, 9.0], 12, carried=True))

    def test_pool_smaller_than_the_slice_count_has_no_splits(self):
        specs = [LAT, THR, replace(THR, slice_id=2)]
        assert enumerate_splits(*optimizer_args(specs, [SINR] * 3, [1.0] * 3, 2)) == []

    def test_optimizer_rejects_pool_smaller_than_the_slice_count(self):
        specs = [LAT, THR, replace(THR, slice_id=2)]
        with pytest.raises(ValueError, match=r"total_rbs \(2\) cannot cover 3 slices"):
            brute_force_optimal(*optimizer_args(specs, [SINR] * 3, [1.0] * 3, 2))

    @pytest.mark.parametrize("n_slices", [2, 3])
    def test_objective_of_latency_slices_only_is_a_float(self, n_slices):
        specs = [replace(LAT, slice_id=k) for k in range(n_slices)]
        args = optimizer_args(specs, [SINR] * n_slices, [4.0] * n_slices, 10)
        rows = assert_matches_reference(args)
        assert all(repr(r.objective) == "0.0" for r in rows)
        assert "objective=0.0," in repr(brute_force_optimal(*args))

    @pytest.mark.parametrize("n_slices", [2, 3])
    def test_pool_of_one_rb_per_slice_has_one_row(self, n_slices):
        specs = [LAT, THR, replace(THR, slice_id=2)][:n_slices]
        args = optimizer_args(specs, [SINR] * n_slices, [4.0] * n_slices, n_slices)
        (row,) = assert_matches_reference(args)
        assert row.rb_counts == (1,) * n_slices
        got = brute_force_optimal(*args)
        assert (got.rb_counts, got.objective, got.sigma) == (row.rb_counts, row.objective,
                                                              row.sigma)

    def test_rows_with_one_rb_count_share_its_kpm_floats(self):
        # One float object per slice, RB count and field, not one per row.
        specs = [LAT, THR, replace(THR, slice_id=2)]
        rows = enumerate_splits(*optimizer_args(specs, [SINR] * 3, [4.0, 9.0, 6.0], 20))
        three = [r for r in rows if r.rb_counts[0] == 3]
        assert len(three) == 16
        for field in ("latencies_ms", "throughputs_mbps", "drop_ratios"):
            first = getattr(three[0], field)[0]
            assert all(getattr(r, field)[0] is first for r in three)

    def test_optimizer_reads_rows_through_the_module_level_enumerate_splits(
            self, monkeypatch):
        # Callers that wrap baselines.enumerate_splits see every row scored.
        calls = []

        def fake(*args, **kwargs):
            calls.append(args)
            row = EnumerationRow((2, 8), (1.0, 0.0), (4.0, 5.0), (0.0, 0.0),
                                 -0.5, 5.0, True)
            return [row._replace(rb_counts=(3, 7), objective=4.0), row]

        monkeypatch.setattr(baselines, "enumerate_splits", fake)
        radio, queue, channels = make_env()
        got = brute_force_optimal([5.0, 5.0], channels, radio, queue, SPECS)
        assert len(calls) == 1
        assert got.rb_counts == (2, 8) and got.objective == 5.0
