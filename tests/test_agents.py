import json
import math
import tempfile
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliceloop.agents import (
    API_KEY_ENV,
    BackendError,
    BackendTimeoutError,
    DecisionOutcome,
    HeuristicOracleBackend,
    ParseError,
    Predictor,
    RemoteBackend,
    ScriptedBackend,
    build_meta_prompt,
    count_tokens,
    heuristic_oracle_decide,
    parse_allocation_response,
)
from sliceloop.core import (
    AllocationRatio,
    InfeasibleAllocationError,
    RadioConfig,
    SliceKind,
    SliceKpm,
    SliceSpec,
    ratio_to_rb_counts,
    rb_splits,
)
from sliceloop.loop import Environment, LoopState, run_cycle, run_experiment
from sliceloop.radio import (
    InternalStateError,
    QueueConfig,
    SimState,
    StepProfile,
    UeChannelState,
    generate_traffic,
    simulate_interval,
)
from sliceloop.sla import assess, risk_factor, slice_risk, starved
from sliceloop.store import ExperienceRecord, ExperienceStore
from split_reference import reference_splits

SINR = 2.0 ** (2_200_000 / 180_000) - 1.0  # 2.2 Mbps per RB

SPECS = [
    SliceSpec(0, SliceKind.LATENCY, 10.0, 2.0, 10.0, 0.2),
    SliceSpec(1, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02),
]


def make_kpm(lat=25.0, thr=80.0, drop=0.0, off=(120.0, 80.0)):
    return (
        SliceKpm(lat, min(off[0], 100.0), 0.1, off[0]),
        SliceKpm(1.0, min(thr, off[1]), drop, off[1]),
    )


CURRENT = AllocationRatio([0.5, 0.5])


def make_prompt(retrieved=(), sigma_kpm=None):
    kpm = sigma_kpm or make_kpm()
    assessment = assess(kpm, SPECS, 0.7)
    return build_meta_prompt(
        assessment, kpm, CURRENT, list(retrieved), SPECS, RadioConfig(total_rbs=10),
    )


def make_predictor(offered=(120.0, 80.0), total_rbs=10, state=None):
    radio = RadioConfig(total_rbs=total_rbs)
    channels = [
        UeChannelState(0, 0, SINR),
        UeChannelState(1, 1, SINR),
    ]
    return Predictor(
        list(offered), channels, radio, QueueConfig(), SPECS,
        state or SimState.fresh(2),
    )


class TestBuildMetaPrompt:
    def test_deterministic(self):
        assert make_prompt() == make_prompt()

    def test_no_examples_line(self):
        text = make_prompt()
        assert "No historical examples" in text

    def test_examples_rendered(self):
        rec = ExperienceRecord(0, (118.0, 82.0), (0.6, 0.4), -0.25)
        text = make_prompt(retrieved=[rec])
        assert "118.000" in text and "0.600" in text

    def test_fixed_precision_sigma(self):
        # sigma is rendered with exactly three decimals
        sigma = assess(make_kpm(), SPECS, 0.7).sigma
        assert f"{sigma:.3f}" in make_prompt()

    def test_output_contract_mentioned(self):
        assert '{"shares": [..]}' in make_prompt()


class TestParseAllocationResponse:
    def test_plain(self):
        assert parse_allocation_response('{"shares":[0.7,0.3]}', 2).shares == (0.7, 0.3)

    def test_embedded(self):
        got = parse_allocation_response('Sure! {"shares":[0.5,0.5]} Let me know', 2)
        assert got.shares == (0.5, 0.5)

    def test_sum_out_of_tolerance(self):
        with pytest.raises(ParseError):
            parse_allocation_response('{"shares":[0.9,0.2]}', 2)

    def test_small_drift_renormalized(self):
        got = parse_allocation_response('{"shares":[0.495,0.495]}', 2)
        assert sum(got.shares) == 1.0
        assert got.shares[0] == pytest.approx(0.5)

    def test_no_json(self):
        with pytest.raises(ParseError):
            parse_allocation_response("I would allocate more to slice 1", 2)

    def test_wrong_length(self):
        with pytest.raises(ParseError):
            parse_allocation_response('{"shares":[1.0]}', 2)

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_allocation_response('{"shares":[1.4,-0.4]}', 2)

    def test_offending_text_attached(self):
        with pytest.raises(ParseError) as err:
            parse_allocation_response("nope", 2)
        assert err.value.text == "nope"

    @settings(max_examples=500)
    @given(data=st.data())
    def test_near_one_replies_parse_or_raise_parse_error(self, data):
        # Shares on a 0.001 grid, often exactly 0; one of them is set so the
        # sum lands within a little over the parser's 0.02 tolerance of 1.
        milli = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, 1000)),
                                   min_size=2, max_size=4))
        j = data.draw(st.integers(0, len(milli) - 1))
        rest = sum(milli) - milli[j]
        milli[j] = max(0, 1000 - rest + data.draw(st.integers(-25, 25)))
        shares = [m / 1000 for m in milli]
        text = json.dumps({"shares": shares})
        try:
            got = parse_allocation_response(text, len(shares))
        except ParseError:
            return
        assert isinstance(got, AllocationRatio) and len(got) == len(shares)


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_exact_multiple(self):
        assert count_tokens("12345678") == 2

    def test_ceiling(self):
        assert count_tokens("123456789") == 3

    @given(a=st.text(max_size=200), b=st.text(max_size=200))
    def test_monotone_in_length(self, a, b):
        assert count_tokens(a + b) >= count_tokens(a)


def scalar_excess(spec, epsilon):
    """One slice's term of ``SplitScore.excess``, from its documented rule."""
    if spec.kind is SliceKind.LATENCY:
        return max(0.0, 1e6 if math.isinf(epsilon) else epsilon)
    return max(0.0, -epsilon)


def assessed_score(kpm, specs, theta):
    """(sigma, excess, throughput) of one interval's KPMs by ``sla.assess``."""
    a = assess(kpm, specs, theta)
    excess = 0.0
    for spec, risk in zip(specs, a.slices):
        excess += scalar_excess(spec, risk.epsilon)
    thr = sum(s.mean_throughput_mbps for s, spec in zip(kpm, specs)
              if spec.kind is SliceKind.THROUGHPUT)
    return a.sigma, excess, thr


class TestPredictor:
    @pytest.mark.parametrize("n_slices", [2, 3])
    @pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried"])
    def test_predict_equals_simulate_interval_for_every_split(self, n_slices, carried):
        radio = RadioConfig(total_rbs=20)
        queue = QueueConfig()
        channels = [UeChannelState(k, k, SINR) for k in range(n_slices)]
        specs = (SPECS + [replace(SPECS[1], slice_id=2)])[:n_slices]
        state = SimState.fresh(n_slices)
        if carried:
            # Two overloaded intervals leave every slice a backlog, a
            # fractional arrival carry and service credit.
            heavy = [30.31, 25.13, 20.77][:n_slices]
            counts = [10, 10] if n_slices == 2 else [7, 7, 6]
            for _ in range(2):
                state = simulate_interval(heavy, counts, channels, radio, queue,
                                          state).state
            assert all(len(q.arrival_ticks) and q.arrival_carry and q.service_credit
                       for q in state.queues)
        offered = [26.31, 9.7, 14.0][:n_slices]
        predictor = Predictor(offered, channels, radio, queue, specs, state)
        for counts in reference_splits(20, n_slices):
            expected = simulate_interval(offered, counts, channels, radio, queue, state)
            assert repr(predictor.predict(counts)) == repr(expected.kpm)

    @staticmethod
    def reference_score(predictor, counts):
        """Scores ``predict(counts)`` with a full ``assess`` call."""
        return assessed_score(predictor.predict(counts), predictor.specs,
                              predictor.radio_cfg.violation_threshold)

    @staticmethod
    def risk_branch(spec, kpm):
        if spec.kind is SliceKind.LATENCY:
            return "starved" if starved(kpm) else "latency"
        if spec.sla_target <= kpm.offered_load_mbps:
            return "floor"
        return "idle" if kpm.offered_load_mbps <= 0 else "capped"

    @pytest.mark.parametrize("n_slices", [2, 3])
    @pytest.mark.parametrize("carried", [False, True], ids=["fresh", "carried"])
    def test_score_equals_assess_of_predict_for_every_split(self, n_slices, carried):
        radio = RadioConfig(total_rbs=20)
        queue = QueueConfig()
        lat, capped = SPECS
        floor = replace(capped, slice_id=1, sla_target=5.0)
        # (specs, SINR per slice, offered Mbps): every risk branch, with
        # SINR 0 starving the latency slice and 0 Mbps idling a slice.
        cases = {
            2: [([lat, floor], [SINR, SINR], [26.31, 9.7]),
                ([lat, capped], [0.0, SINR], [4.0, 0.0]),
                ([lat, capped], [SINR, SINR], [9.1, 30.5])],
            3: [([lat, floor, replace(capped, slice_id=2)], [SINR] * 3,
                 [26.31, 9.7, 14.0]),
                ([lat, capped, replace(capped, slice_id=2)], [0.0, SINR, SINR],
                 [4.0, 0.0, 14.0])],
        }[n_slices]
        state = SimState.fresh(n_slices)
        if carried:
            channels = [UeChannelState(k, k, SINR) for k in range(n_slices)]
            counts = [10, 10] if n_slices == 2 else [7, 7, 6]
            for _ in range(2):
                state = simulate_interval([30.31, 25.13, 20.77][:n_slices], counts,
                                          channels, radio, queue, state).state
        branches = set()
        for specs, sinrs, offered in cases:
            channels = [UeChannelState(k, k, x) for k, x in enumerate(sinrs)]
            predictor = Predictor(offered, channels, radio, queue, specs, state)
            for counts in reference_splits(20, n_slices):
                got = predictor.score(counts)
                want = self.reference_score(predictor, counts)
                assert [float.hex(x) for x in (got.sigma, got.excess, got.throughput_mbps)] \
                    == [float.hex(x) for x in want]
                assert got.kpm == predictor.predict(counts)
                branches.update(self.risk_branch(spec, s)
                                for spec, s in zip(specs, got.kpm))
        assert branches == {"starved", "latency", "floor", "idle", "capped"}

    @settings(max_examples=60, deadline=None)
    @given(n_slices=st.integers(2, 3), total_rbs=st.integers(3, 24),
           heavy=st.lists(st.floats(0.0, 60.0), min_size=3, max_size=3),
           offered=st.lists(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 60.0),
                            min_size=3, max_size=3),
           sinrs=st.lists(st.sampled_from([0.0, SINR]) | st.floats(0.0, 10_000.0),
                          min_size=3, max_size=3),
           targets=st.lists(st.floats(0.5, 80.0), min_size=3, max_size=3),
           warmup=st.integers(0, 2))
    def test_tables_equal_each_entrys_risk(self, n_slices, total_rbs, heavy, offered, sinrs,
                                           targets, warmup):
        """The rho, excess and throughput tables, taken from one array
        ``slice_risk`` call per slice, equal the scalar ``slice_risk`` and
        excess rule of every entry's ``SliceKpm``."""
        radio, queue = RadioConfig(total_rbs=total_rbs), QueueConfig()
        channels = [UeChannelState(k, k, x) for k, x in enumerate(sinrs[:n_slices])]
        specs = [replace(SPECS[0], sla_target=targets[0])] + [
            replace(SPECS[1], slice_id=k, sla_target=targets[k]) for k in range(1, n_slices)]
        counts = ratio_to_rb_counts(AllocationRatio([1.0 / n_slices] * n_slices), total_rbs)
        state = SimState.fresh(n_slices)
        for _ in range(warmup):
            state = simulate_interval(heavy[:n_slices], counts, channels, radio, queue,
                                      state).state
        predictor = Predictor(offered[:n_slices], channels, radio, queue, specs, state)
        tables = predictor.kpm_tables()
        for k, (spec, table) in enumerate(zip(specs, tables)):
            kpms = [table.kpm(count) for count in range(1, total_rbs - n_slices + 2)]
            risks = [slice_risk(spec, kpm) for kpm in kpms]
            assert [x.hex() for x in predictor._rhos[k].tolist()] == [r.rho.hex() for r in risks]
            assert [x.hex() for x in predictor._excess[k].tolist()] == [
                scalar_excess(spec, r.epsilon).hex() for r in risks]
            assert [x.hex() for x in predictor._thr[k].tolist()] == [
                kpm.mean_throughput_mbps.hex() for kpm in kpms]

    @settings(max_examples=40, deadline=None)
    @given(n_slices=st.integers(2, 3), total_rbs=st.integers(3, 10),
           heavy=st.lists(st.floats(0.0, 60.0), min_size=3, max_size=3),
           warmup=st.integers(0, 2),
           offered=st.lists(st.sampled_from([0.0, -0.0, 0.5, 2.0, 5]) | st.floats(0.0, 60.0),
                            min_size=3, max_size=3),
           sinrs=st.lists(st.sampled_from([0.0, SINR]) | st.floats(0.0, 10_000.0),
                          min_size=3, max_size=3),
           targets=st.lists(st.sampled_from([1.0, 5.0]) | st.floats(0.5, 80.0),
                            min_size=3, max_size=3),
           buffer=st.sampled_from([8, 256]),
           interval_s=st.sampled_from([0.05, 0.2]))
    # A starved latency slice, an idle slice and one whose KPMs, drop-free,
    # are the same for every RB count past the first: most splits tie.
    @example(n_slices=3, total_rbs=8, heavy=[60.0] * 3, warmup=1, offered=[2.0, 0.0, 0.5],
             sinrs=[0.0, SINR, SINR], targets=[5.0, 5.0, 1.0], buffer=256, interval_s=0.2)
    # A slice idle at -0.0 Mbps, which min and max must not turn into 0.0.
    @example(n_slices=2, total_rbs=10, heavy=[0.0] * 3, warmup=0, offered=[0.5, -0.0, 0.0],
             sinrs=[SINR] * 3, targets=[5.0, 1.0, 1.0], buffer=8, interval_s=0.05)
    # An int rate below what a carried backlog drains: throughput is its float.
    @example(n_slices=2, total_rbs=10, heavy=[30.0] * 3, warmup=1, offered=[5, 5, 0.0],
             sinrs=[SINR] * 3, targets=[5.0, 1.0, 1.0], buffer=256, interval_s=0.2)
    def test_scores_equal_assess_of_simulated_kpms(self, n_slices, total_rbs, heavy, warmup,
                                                   offered, sinrs, targets, buffer,
                                                   interval_s):
        """``score_splits`` of every split equals ``sla.assess`` and the
        excess rule applied to ``simulate_interval``'s KPMs for it, and
        ``predict`` equals those KPMs, bit for bit."""
        radio = RadioConfig(total_rbs=total_rbs, monitoring_interval_s=interval_s)
        queue = QueueConfig(buffer_capacity_packets=buffer)
        channels = [UeChannelState(k, k, x) for k, x in enumerate(sinrs[:n_slices])]
        specs = [replace(SPECS[0], sla_target=targets[0])] + [
            replace(SPECS[1], slice_id=k, sla_target=targets[k]) for k in range(1, n_slices)]
        counts = ratio_to_rb_counts(AllocationRatio([1.0 / n_slices] * n_slices), total_rbs)
        state = SimState.fresh(n_slices)
        for _ in range(warmup):
            state = simulate_interval(heavy[:n_slices], counts, channels, radio, queue,
                                      state).state
        offered = offered[:n_slices]
        predictor = Predictor(offered, channels, radio, queue, specs, state)
        splits = rb_splits(total_rbs, n_slices)
        scores = zip(*(x.tolist() for x in predictor.score_splits(splits)))
        for split, got in zip(splits.tolist(), scores):
            kpm = simulate_interval(offered, split, channels, radio, queue, state).kpm
            assert repr(predictor.predict(split)) == repr(kpm)
            want = assessed_score(kpm, specs, radio.violation_threshold)
            assert [x.hex() for x in got] == [float(x).hex() for x in want]

    def test_risk_factor_of_an_array_equals_each_floats(self):
        # With a = -1 and b = 0 the exponent is epsilon itself.  At the
        # first two, np.exp differs from math.exp in the last bit, and so
        # does 1 / (1 + exp), on numpy 2.4 with AVX-512; the rest cover
        # signed zeros, the clamp at exponent 709 and starvation.
        spec = SliceSpec(1, SliceKind.THROUGHPUT, 10.0, 1.0, -1.0, 0.0)
        eps = [float.fromhex("0x1.7732162703180p+1"), float.fromhex("0x1.713b7bbb375bcp+3"),
               0.0, -0.0, 709.0, 800.0, -800.0, math.inf]
        got = risk_factor(np.array(eps), spec)
        assert [x.hex() for x in got.tolist()] == [risk_factor(e, spec).hex() for e in eps]

    def test_prediction_of_the_applied_split_is_the_next_intervals_kpms(self):
        """When the next interval's offered rates are unchanged, the
        Predictor's KPMs for the split the oracle applied are the KPMs the
        next cycle measures, bit for bit."""
        env = Environment(
            radio_cfg=RadioConfig(total_rbs=20),
            queue_cfg=QueueConfig(),
            specs=SPECS,
            channels=[UeChannelState(k, k, SINR) for k in range(2)],
            profile=StepProfile(steps=(((0, 16.31), (4, 30.5), (9, 5.0)),
                                       ((0, 20.0), (6, 2.2)))),
        )
        predicted = []

        class RecordingOracle(HeuristicOracleBackend):
            def propose(self, prompt, current_allocation, predictor=None):
                outcome = super().propose(prompt, current_allocation, predictor)
                counts = ratio_to_rb_counts(outcome.allocation, env.radio_cfg.total_rbs)
                predicted.append((tuple(counts), predictor.predict(counts)))
                return outcome

        log = run_experiment(env, 12, RecordingOracle(), gate_enabled=False)
        steps = 0
        for cycle, (counts, kpm), following in zip(log.cycles, predicted, log.cycles[1:]):
            assert following.rb_counts == counts
            if following.offered_mbps == cycle.offered_mbps:
                assert [astuple(s) for s in kpm] == [astuple(s) for s in following.kpm]
                assert repr(kpm) == repr(following.kpm)
            else:
                steps += 1
                assert kpm != following.kpm
        assert steps == 3 and len({c.rb_counts for c in log.cycles}) > 2

    def test_split_off_the_pool_rejected(self):
        predictor = make_predictor()
        with pytest.raises(ValueError):
            predictor.predict([0, 10])
        with pytest.raises(InternalStateError):
            predictor.predict([5, 6])

    def test_score_splits_checks_its_splits_like_predict(self):
        predictor = make_predictor()
        with pytest.raises(ValueError):
            predictor.score_splits(np.array([[5, 5], [0, 10]]))
        with pytest.raises(InternalStateError):
            predictor.score_splits(np.array([[5, 5], [5, 6]]))
        with pytest.raises(InternalStateError):
            predictor.score_splits(np.array([[3, 3, 4]]))
        with pytest.raises(InternalStateError):
            predictor.score_splits(np.array([5, 5]))

    def test_pool_of_fewer_rbs_than_slices_rejected(self):
        radio, queue = RadioConfig(total_rbs=1), QueueConfig()
        channels = [UeChannelState(k, k, SINR) for k in range(2)]
        predictor = Predictor([5.0, 5.0], channels, radio, queue, SPECS, SimState.fresh(2))
        with pytest.raises(InfeasibleAllocationError, match="total_rbs"):
            predictor.kpm_tables()
        with pytest.raises(InfeasibleAllocationError, match="total_rbs"):
            predictor.score_splits(np.empty((0, 2), dtype=int))

    def test_throughput_of_no_throughput_slice_is_a_float(self):
        radio, queue = RadioConfig(total_rbs=10), QueueConfig()
        channels = [UeChannelState(k, k, SINR) for k in range(2)]
        specs = [SPECS[0], replace(SPECS[0], slice_id=1)]
        predictor = Predictor([5.0, 5.0], channels, radio, queue, specs, SimState.fresh(2))
        assert repr(predictor.score([5, 5]).throughput_mbps) == "0.0"
        _, _, thr = predictor.score_splits(np.array([[5, 5]]))
        assert thr.tolist() == [0.0]

    @pytest.mark.parametrize("ue_slices", [[0], [0, 1, 1]], ids=["no_ue", "two_ues"])
    def test_slice_without_exactly_one_ue_rejected(self, ue_slices):
        radio, queue = RadioConfig(total_rbs=10), QueueConfig()
        channels = [UeChannelState(i, k, SINR) for i, k in enumerate(ue_slices)]
        with pytest.raises(InternalStateError, match="slice 1"):
            simulate_interval([5.0, 5.0], [5, 5], channels, radio, queue, SimState.fresh(2))
        predictor = Predictor([5.0, 5.0], channels, radio, queue, SPECS, SimState.fresh(2))
        with pytest.raises(InternalStateError, match="slice 1"):
            predictor.predict([5, 5])


def reference_oracle(current_allocation, predictor):
    """The oracle split by split: ``max`` over the recursive enumeration,
    keyed on one ``Predictor.score`` call per split."""
    latency_idx = next(
        k for k, s in enumerate(predictor.specs) if s.kind is SliceKind.LATENCY
    )
    total = predictor.radio_cfg.total_rbs
    current_lat = ratio_to_rb_counts(current_allocation, total)[latency_idx]

    def key(counts):
        s = predictor.score(counts)
        lat = counts[latency_idx]
        return (round(s.sigma, 6), -round(s.excess, 3), round(s.throughput_mbps, 1),
                -abs(lat - current_lat), -lat)

    chosen = max(reference_splits(total, 2), key=key)[latency_idx]
    shares = [0.0, 0.0]
    shares[latency_idx] = chosen / total
    shares[1 - latency_idx] = 1.0 - chosen / total
    return AllocationRatio(shares)


class TestHeuristicOracle:
    def test_fixed_point_under_light_load(self):
        predictor = make_predictor(offered=(5.0, 5.0))
        got = heuristic_oracle_decide(CURRENT, predictor)
        assert got.shares == (0.5, 0.5)

    def test_overloaded_latency_slice_gains_share(self):
        # 5 RBs = 11 Mbps; slice 0 offered 16 needs more than half
        predictor = make_predictor(offered=(16.0, 4.0))
        got = heuristic_oracle_decide(CURRENT, predictor)
        assert got.shares[0] > 0.5
        kpm = predictor.predict([round(got.shares[0] * 10), round(got.shares[1] * 10)])
        assert kpm[0].mean_latency_ms < 10.0

    def test_hand_enumerated_selection_small_grid(self):
        # independent enumeration of all 9 candidate splits
        offered = (16.0, 4.0)
        predictor = make_predictor(offered=offered)
        scored = []
        current = 5
        for i in range(1, 10):
            s = predictor.score([i, 10 - i])
            scored.append(
                ((round(s.sigma, 6), -round(s.excess, 3), round(s.throughput_mbps, 1),
                  -abs(i - current), -i), i)
            )
        best = max(scored, key=lambda t: t[0])[1]
        got = heuristic_oracle_decide(CURRENT, predictor)
        assert got.shares[0] == pytest.approx(best / 10)

    def test_never_worse_than_current(self):
        for offered in ((16.0, 4.0), (8.0, 14.0), (11.0, 11.0)):
            predictor = make_predictor(offered=offered)
            got = heuristic_oracle_decide(CURRENT, predictor)
            sigma_new = predictor.score(
                [round(got.shares[0] * 10), round(got.shares[1] * 10)]
            ).sigma
            sigma_cur = predictor.score([5, 5]).sigma
            # the oracle compares sigma rounded to 1e-6, so the chosen
            # candidate can trail the current one by at most that much
            assert sigma_new >= sigma_cur - 1e-6

    @pytest.mark.parametrize("latency_idx", [0, 1])
    def test_ties_go_to_fewest_latency_rbs(self, latency_idx):
        # every split but the current 5-5 scores the same, so its two
        # neighbours tie on every key but the latency RB count
        specs = SPECS if latency_idx == 0 else [
            replace(SPECS[1], slice_id=0), replace(SPECS[0], slice_id=1)
        ]

        class FlatPredictor:
            radio_cfg = RadioConfig(total_rbs=10)

            def score_splits(self, splits):
                sigma = np.where(splits[:, latency_idx] == 5, -1.0, 0.0)
                zeros = np.zeros(len(splits))
                return sigma, zeros, zeros

        predictor = FlatPredictor()
        predictor.specs = specs
        got = heuristic_oracle_decide(CURRENT, predictor)
        assert got.shares[latency_idx] == pytest.approx(0.4)

    @settings(max_examples=80, deadline=None)
    @given(
        latency_idx=st.sampled_from([0, 1]),
        carried=st.booleans(),
        starved=st.booleans(),
        total_rbs=st.integers(2, 24),
        offered=st.tuples(*[st.sampled_from([0.0, 1.0, 2.2, 5.0, 11.0, 16.0, 26.31])] * 2),
        current=st.floats(0.0, 1.0),
    )
    @example(latency_idx=0, carried=False, starved=False, total_rbs=20,
             offered=(1.0, 1.0), current=0.5)  # a plateau: every split ties on score
    @example(latency_idx=1, carried=True, starved=True, total_rbs=20,
             offered=(16.0, 5.0), current=0.3)
    def test_matches_the_per_split_reference(self, latency_idx, carried, starved,
                                             total_rbs, offered, current):
        specs = SPECS if latency_idx == 0 else [
            replace(SPECS[1], slice_id=0), replace(SPECS[0], slice_id=1)
        ]
        radio, queue = RadioConfig(total_rbs=total_rbs), QueueConfig()
        state = SimState.fresh(2)
        if carried:
            # Two overloaded intervals leave both slices a backlog and credit.
            channels = [UeChannelState(k, k, SINR) for k in range(2)]
            half = [total_rbs // 2, total_rbs - total_rbs // 2]
            for _ in range(2):
                state = simulate_interval([30.31, 25.13], half, channels, radio, queue,
                                          state).state
        sinrs = [SINR, SINR]
        if starved:
            sinrs[latency_idx] = 0.0  # the latency slice delivers nothing
        channels = [UeChannelState(k, k, x) for k, x in enumerate(sinrs)]
        predictor = Predictor(list(offered), channels, radio, queue, specs, state)
        allocation = AllocationRatio([current, 1.0 - current])
        got = heuristic_oracle_decide(allocation, predictor)
        assert got.shares == reference_oracle(allocation, predictor).shares

    def test_backend_wraps_decision_with_tokens(self):
        backend = HeuristicOracleBackend()
        prompt = make_prompt(sigma_kpm=make_kpm(off=(16.0, 4.0)))
        predictor = make_predictor(offered=(16.0, 4.0))
        outcome = backend.propose(prompt, CURRENT, predictor)
        assert outcome.prompt_tokens == count_tokens(prompt)
        assert outcome.completion_tokens > 0
        assert outcome.backend_label == "oracle"

    def test_backend_requires_predictor(self):
        with pytest.raises(BackendError):
            HeuristicOracleBackend().propose(make_prompt(), CURRENT)

    @pytest.mark.parametrize("specs", [
        [SPECS[0], SPECS[1], replace(SPECS[1], slice_id=2)],
        [replace(SPECS[1], slice_id=0), SPECS[1]],
    ], ids=["three_slices", "no_latency_slice"])
    def test_run_refuses_specs_it_cannot_decide(self, specs):
        n = len(specs)
        env = Environment(
            radio_cfg=RadioConfig(total_rbs=12),
            queue_cfg=QueueConfig(),
            specs=specs,
            channels=[UeChannelState(k, k, SINR) for k in range(n)],
            profile=StepProfile(steps=tuple(((0, 4.0),) for _ in range(n))),
        )
        latency = sum(s.kind == SliceKind.LATENCY for s in specs)
        message = (f"the heuristic oracle needs exactly two slices, one of them "
                   f"latency-constrained; got {n} slices, {latency} of them latency-constrained")
        cycles = []
        with mock.patch("sliceloop.loop.run_cycle", side_effect=cycles.append):
            with pytest.raises(ValueError) as err:
                run_experiment(env, 4, HeuristicOracleBackend(), gate_enabled=False)
        assert str(err.value) == message
        assert cycles == []
        # The oracle's own check is the same one, for callers of run_cycle.
        report = run_cycle(LoopState(AllocationRatio([1.0 / n] * n), 0, SimState.fresh(n)),
                           env, ExperienceStore(n), HeuristicOracleBackend(),
                           gate_enabled=False)[1]
        assert report.backend_error == f"ValueError: {message}"
        # Other backends run such specs.
        assert len(run_experiment(env, 4, None).cycles) == 4


class TestScriptedBackend:
    def test_replay(self):
        backend = ScriptedBackend(
            [{"shares": [0.6, 0.4], "prompt_tokens": 11, "completion_tokens": 3}]
        )
        outcome = backend.propose(make_prompt(), CURRENT)
        assert outcome.allocation.shares == (0.6, 0.4)
        assert (outcome.prompt_tokens, outcome.completion_tokens) == (11, 3)
        with pytest.raises(BackendError):
            backend.propose(make_prompt(), CURRENT)

    def test_from_file(self, tmp_path):
        path = tmp_path / "decisions.json"
        path.write_text(json.dumps([{"shares": [0.55, 0.45]}]))
        backend = ScriptedBackend.from_file(path)
        assert backend.propose(make_prompt(), CURRENT).allocation.shares == (0.55, 0.45)


class FakeResponse:
    def __init__(self, content, status=200, usage=None, body=None):
        self.status_code = status
        self.text = content
        self._content = content
        self._usage = usage or {"prompt_tokens": 10, "completion_tokens": 5}
        self._body = body  # replaces the wire body; an exception is raised

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        if self._body is not None:
            return self._body
        return {
            "choices": [{"message": {"content": self._content}}],
            "usage": self._usage,
        }


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers,
                           "timeout": timeout})
        resp = self.responses.pop(0)
        if isinstance(resp, Exception):
            raise resp
        return resp


class TestRemoteBackend:
    def test_parses_wire_format(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        session = FakeSession([FakeResponse('{"shares":[0.55,0.45]}')])
        backend = RemoteBackend("https://api.example/v1/chat", "some-model",
                                session=session)
        outcome = backend.propose(make_prompt(), CURRENT)
        assert outcome.allocation.shares == (0.55, 0.45)
        assert (outcome.prompt_tokens, outcome.completion_tokens) == (10, 5)
        call = session.calls[0]
        assert call["json"]["model"] == "some-model"
        assert call["json"]["temperature"] == 0.0
        assert call["json"]["messages"][0]["role"] == "user"
        assert call["headers"]["Authorization"] == "Bearer sk-test"

    def test_retries_once_on_bad_output(self):
        session = FakeSession(
            [FakeResponse("let me think about it"),
             FakeResponse('{"shares":[0.5,0.5]}')]
        )
        backend = RemoteBackend("https://api.example/v1/chat", "m", session=session)
        outcome = backend.propose(make_prompt(), CURRENT)
        assert outcome.allocation.shares == (0.5, 0.5)
        assert len(session.calls) == 2
        # token usage accumulates across the retry
        assert outcome.prompt_tokens == 20

    def test_retries_once_on_a_share_beyond_float_range(self):
        # float() of a 401-digit integer raises OverflowError, a parse error.
        session = FakeSession(
            [FakeResponse('{"shares":[1' + "0" * 400 + ',0]}'),
             FakeResponse('{"shares":[0.6,0.4]}')]
        )
        backend = RemoteBackend("https://api.example/v1/chat", "m", session=session)
        outcome = backend.propose(make_prompt(), CURRENT)
        assert outcome.allocation.shares == (0.6, 0.4)
        assert len(session.calls) == 2
        assert (outcome.prompt_tokens, outcome.completion_tokens) == (20, 10)

    def test_gives_up_after_retry(self):
        session = FakeSession([FakeResponse("nope"), FakeResponse("still nope")])
        backend = RemoteBackend("https://api.example/v1/chat", "m", session=session)
        with pytest.raises(ParseError):
            backend.propose(make_prompt(), CURRENT)

    def test_timeout_maps_to_backend_timeout(self):
        import requests

        session = FakeSession([requests.Timeout("too slow")])
        backend = RemoteBackend("https://api.example/v1/chat", "m", session=session)
        with pytest.raises(BackendTimeoutError):
            backend.propose(make_prompt(), CURRENT)

    def test_http_error(self):
        session = FakeSession([FakeResponse("oops", status=500)])
        backend = RemoteBackend("https://api.example/v1/chat", "m", session=session)
        with pytest.raises(BackendError):
            backend.propose(make_prompt(), CURRENT)


class TestFailStatic:
    """Malformed backend output fails the cycle, never the run."""

    @staticmethod
    def env():
        return Environment(
            radio_cfg=RadioConfig(total_rbs=10),
            queue_cfg=QueueConfig(),
            specs=SPECS,
            channels=[UeChannelState(0, 0, SINR), UeChannelState(1, 1, SINR)],
            profile=StepProfile(steps=(((0, 16.0),), ((0, 4.0),))),
        )

    @classmethod
    def run_cycles(cls, backend, n_cycles=2):
        log = run_experiment(cls.env(), n_cycles, backend, gate_enabled=False)
        assert len(log.cycles) == n_cycles
        assert all(c.backend_error and c.decision is None for c in log.cycles)
        assert log.final_state.current_allocation.shares == (0.5, 0.5)
        assert log.cumulative_tokens[-1] == 0

    def test_scripted_shares_not_summing_to_one(self):
        entries = [{"shares": [0.9, 0.9]}] * 2
        with pytest.raises(ParseError):
            ScriptedBackend(entries).propose(make_prompt(), CURRENT)
        self.run_cycles(ScriptedBackend(entries))

    def test_scripted_share_beyond_float_range(self):
        entries = [{"shares": [10 ** 400, 0]}] * 2
        with pytest.raises(ParseError, match="shares"):
            ScriptedBackend(entries).propose(make_prompt(), CURRENT)
        self.run_cycles(ScriptedBackend(entries))

    @pytest.mark.parametrize(
        "tokens",
        [{"prompt_tokens": -1}, {"completion_tokens": "5"}, {"prompt_tokens": 2.5},
         {"completion_tokens": None}, {"prompt_tokens": True, "completion_tokens": False}],
        ids=["negative", "string", "float", "null", "bool"],
    )
    def test_scripted_bad_token_counts(self, tokens):
        entries = [{"shares": [0.7, 0.3], **tokens}] * 2
        with pytest.raises(ParseError):
            ScriptedBackend(entries).propose(make_prompt(), CURRENT)
        self.run_cycles(ScriptedBackend(entries))

    @pytest.mark.parametrize(
        "body, error",
        [
            (json.JSONDecodeError("Expecting value", "<html>", 0), BackendError),
            ({"error": {"message": "overloaded"}}, BackendError),
            ({"choices": []}, BackendError),
            ({"choices": [{"message": {"content": None}}]}, ParseError),
            ({"choices": [{"message": {"content": '{"shares": [0.5, 0.5]}'}}],
              "usage": {"prompt_tokens": True, "completion_tokens": 5}}, BackendError),
        ],
        ids=["not_json", "no_choices", "empty_choices", "null_content", "bool_usage"],
    )
    def test_remote_malformed_body(self, body, error):
        def backend():
            responses = [FakeResponse("", body=body) for _ in range(2)]
            return RemoteBackend("https://api.example/v1/chat", "m",
                                 session=FakeSession(responses))

        with pytest.raises(error):
            backend().propose(make_prompt(), CURRENT)
        self.run_cycles(backend())


def test_three_slice_remote_reply_renormalized_to_a_zero_share_is_applied():
    # The renormalised last share of this reply rounds to -2.2e-16.
    reply = '{"shares":[0.362,0.647,0.0]}'
    env = replace(
        TestFailStatic.env(),
        specs=SPECS + [replace(SPECS[1], slice_id=2)],
        channels=[UeChannelState(k, k, SINR) for k in range(3)],
        profile=StepProfile(steps=(((0, 16.0),), ((0, 4.0),), ((0, 4.0),))),
    )
    session = FakeSession([FakeResponse(reply) for _ in range(2)])
    backend = RemoteBackend("https://api.example/v1/chat", "m", session=session)
    log = run_experiment(env, 2, backend, gate_enabled=False)
    assert [c.backend_error for c in log.cycles] == [None, None]
    shares = log.final_state.current_allocation.shares
    assert shares == parse_allocation_response(reply, 3).shares
    assert shares[2] == 0.0


class FaultSession:
    """Answers a cycle's request, and its retry, as that cycle's plan says."""

    def __init__(self, plans):
        self.plans = list(plans)
        self.plan = None

    def post(self, url, **kwargs):
        if len(kwargs["json"]["messages"]) == 1:  # a retry carries three
            self.plan = self.plans.pop(0)
        kind, arg = self.plan
        if kind == "raise":
            raise arg
        if kind == "ok":
            return FakeResponse(json.dumps({"shares": arg}))
        if kind == "status":
            return FakeResponse("upstream trouble", status=arg)
        if kind == "body":
            return FakeResponse("", body=arg)
        return FakeResponse(arg)  # "content": a wire-valid reply with junk text


class PlannedBackend:
    """Each cycle's plan: a remote exchange over a ``FaultSession``, or else
    an unusable outcome built or an exception raised directly."""

    label = "planned"

    def __init__(self, plans):
        self.plans = list(plans)
        wire = [plan for plan in plans if plan[0] not in ("outcome", "error")]
        self.remote = RemoteBackend("https://api.example/v1/chat", "m",
                                    session=FaultSession(wire))

    def propose(self, prompt, current_allocation, predictor=None):
        kind, arg = self.plans.pop(0)
        if kind == "outcome":
            shares, prompt_tokens, completion_tokens = arg
            return DecisionOutcome(AllocationRatio(shares), prompt_tokens,
                                   completion_tokens, "planned", "")
        if kind == "error":
            raise arg
        return self.remote.propose(prompt, current_allocation, predictor)


def fault_plans():
    import requests

    return st.lists(
        st.one_of(
            st.tuples(st.just("ok"), st.sampled_from([[0.3, 0.7], [0.625, 0.375]])),
            st.tuples(st.just("status"),
                      st.integers(100, 599).filter(lambda code: code != 200)),
            st.tuples(st.just("body"), st.sampled_from([
                json.JSONDecodeError("Expecting value", "<html>", 0),
                ValueError("not json"), [], "text", {}, {"choices": "x"},
                {"choices": [None]}, {"choices": [{"message": {}}]},
                {"choices": [{"message": {"content": 7}}]},
                *({"choices": [{"message": {"content": '{"shares": [0.5, 0.5]}'}}],
                   "usage": usage}
                  for usage in (["x"], {"prompt_tokens": None},
                                {"completion_tokens": -3}, {"prompt_tokens": 2.5})),
            ])),
            st.tuples(st.just("content"), st.text(max_size=40).filter(
                lambda text: "shares" not in text)),
            st.tuples(st.just("raise"), st.sampled_from([
                requests.Timeout("read timed out"),
                requests.ConnectionError("connection refused"),
            ])),
            # A wrong-length allocation, or two shares with bool, float or
            # negative token counts.
            st.tuples(st.just("outcome"), st.sampled_from([
                ([0.2, 0.3, 0.5], 1, 1), ([1.0], 1, 1), ([0.3, 0.7], True, 1),
                ([0.3, 0.7], 1, False), ([0.3, 0.7], 2.5, 1), ([0.3, 0.7], -1, 1),
                ([0.3, 0.7], 1, -2),
            ])),
            st.tuples(st.just("error"), st.sampled_from([
                ValueError("allocation_shares must be 2 finite values"),
                KeyError("shares"), ZeroDivisionError("division by zero"),
                BackendError("planned outage"),
            ])),
        ),
        min_size=1, max_size=6,
    )


class FailingWriteStore(ExperienceStore):
    """A history whose durable write fails on the chosen cycles: on those it
    appends to its own directory, which cannot be opened for appending."""

    def __init__(self, path, failing):
        super().__init__(2, path=path)
        self.failing = failing

    def record(self, *args, **kwargs):
        path = self.path
        if len(self) in self.failing:
            self.path = path.parent
        try:
            return super().record(*args, **kwargs)
        finally:
            self.path = path


def all_records(store):
    """A store's records, by id."""
    return sorted(store.retrieve([0.0] * store.n_slices, len(store)),
                  key=lambda r: r.record_id)


class TestRemoteFaultMatrix:
    """Any backend or storage fault keeps the allocation and is reported,
    never ends the run."""

    @settings(max_examples=60, deadline=None)
    @given(plans=fault_plans(), failing=st.sets(st.integers(0, 5)))
    @example(plans=[("outcome", ([0.2, 0.3, 0.5], 1, 1)), ("error", ValueError("boom"))],
             failing={1})
    def test_every_fault_keeps_the_allocation_and_is_reported(self, plans, failing):
        backend = PlannedBackend(plans)
        env = TestFailStatic.env()
        with tempfile.TemporaryDirectory() as tmp:
            store = FailingWriteStore(Path(tmp) / "history.jsonl", failing)
            log = run_experiment(env, len(plans), backend, store=store,
                                 gate_enabled=False)
            written = max((i + 1 for i in range(len(plans)) if i not in failing), default=0)
            assert store.path.exists() == bool(written)
            loaded = all_records(ExperienceStore.load(store.path, 2)) if written else []
        assert len(log.cycles) == len(plans)
        assert [c.storage_error is not None for c in log.cycles] == [
            i in failing for i in range(len(plans))]
        assert len(store) == len(plans)
        rebuilt = ExperienceStore(2)
        assert not backend.plans and not backend.remote.session.plans
        shares = (0.5, 0.5)
        for (kind, arg), report in zip(plans, log.cycles):
            assert report.rb_counts == tuple(
                ratio_to_rb_counts(AllocationRatio(shares), 10))
            assert sum(report.rb_counts) == 10
            assert all(a.delivered_packets + a.dropped_packets + a.queued_after
                       - a.queued_before == a.offered_packets for a in report.accounting)
            assert report.reallocated == (kind == "ok")
            if kind == "ok":
                assert report.backend_error is None
                shares = report.decision.allocation.shares
                assert shares == tuple(arg)
            else:
                assert report.backend_error and report.decision is None
                assert report.token_delta == 0
            if kind == "outcome" and len(arg[0]) == 2:
                # Its token counts fail the outcome's own constructor.
                assert report.backend_error.startswith("ValueError: token counts")
            elif kind == "outcome":
                assert report.backend_error.startswith("bad outcome for 2 slices")
            elif kind == "error" and not isinstance(arg, BackendError):
                assert report.backend_error == f"{type(arg).__name__}: {arg}"
            elif kind == "error":
                assert report.backend_error == str(arg)
            rebuilt.record(report.kpm, shares, report.assessment.sigma, report.interval_index)
        assert log.final_state.current_allocation.shares == shares
        # Every cycle retrieved the same traffic, so this scans one record.
        query = generate_traffic(env.profile, len(plans) - 1)
        assert store.retrieve(query, env.retrieve_k) == rebuilt.retrieve(query, env.retrieve_k)
        # The history holds every record up to the last successful write.
        assert loaded == all_records(store)[:written]


def test_decision_outcome_rejects_negative_tokens():
    with pytest.raises(ValueError):
        DecisionOutcome(AllocationRatio([0.5, 0.5]), -1, 0, "x", "")


@pytest.mark.parametrize("tokens", [(True, 0), (0, False), (2.5, 0), (0, "5"), (None, 0)])
def test_decision_outcome_takes_only_int_token_counts(tokens):
    with pytest.raises(ValueError, match="token counts must be nonnegative ints"):
        DecisionOutcome(AllocationRatio([0.5, 0.5]), *tokens, "x", "")
