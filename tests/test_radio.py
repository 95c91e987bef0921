import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceloop.core import RadioConfig
from sliceloop.radio import (
    InternalStateError,
    QueueConfig,
    SimState,
    SliceQueueState,
    StepProfile,
    UeChannelState,
    _advance_slice,
    _advance_slice_batch,
    _interval_ticks,
    channel_capacity,
    generate_traffic,
    simulate_interval,
)


def make_env(total_rbs=10, sinr=None, monitoring_s=1.0, buffer_packets=256):
    # default sinr gives 2.2 Mbps per RB at 180 kHz
    sinr = sinr if sinr is not None else 2.0 ** (2_200_000 / 180_000) - 1.0
    radio = RadioConfig(total_rbs=total_rbs, monitoring_interval_s=monitoring_s)
    queue = QueueConfig(buffer_capacity_packets=buffer_packets)
    channels = [
        UeChannelState(ue_id=0, slice_id=0, sinr=sinr),
        UeChannelState(ue_id=1, slice_id=1, sinr=sinr),
    ]
    return radio, queue, channels


class TestChannelCapacity:
    def test_unit_sinr(self):
        ue = UeChannelState(0, 0, sinr=1.0)
        assert channel_capacity(ue, 10, 180_000.0) == pytest.approx(1_800_000.0)

    def test_zero_rbs(self):
        ue = UeChannelState(0, 0, sinr=7.5)
        assert channel_capacity(ue, 0, 180_000.0) == 0.0

    def test_sinr_three(self):
        ue = UeChannelState(0, 0, sinr=3.0)
        assert channel_capacity(ue, 5, 180_000.0) == pytest.approx(1_800_000.0)

    def test_negative_sinr_rejected(self):
        for sinr in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                UeChannelState(0, 0, sinr=sinr)

    @given(
        sinr=st.floats(0.0, 1e4),
        rbs=st.integers(0, 50),
        more=st.integers(1, 20),
    )
    def test_monotone_in_rbs(self, sinr, rbs, more):
        ue = UeChannelState(0, 0, sinr=sinr)
        assert channel_capacity(ue, rbs + more, 1.0) >= channel_capacity(ue, rbs, 1.0)
        # The array form is the scalar form entry by entry, bit for bit.
        counts = np.arange(rbs + more + 1)
        assert [float.hex(c) for c in channel_capacity(ue, counts, 180_000.0).tolist()] \
            == [float.hex(channel_capacity(ue, n, 180_000.0)) for n in range(rbs + more + 1)]


class TestGenerateTraffic:
    def test_step_profile_before_and_after(self):
        profile = StepProfile(steps=(((0, 80.0), (10, 120.0)), ((0, 80.0),)))
        assert generate_traffic(profile, 5) == [80.0, 80.0]
        assert generate_traffic(profile, 12) == [120.0, 80.0]

    def test_step_validation(self):
        with pytest.raises(ValueError):
            StepProfile(steps=(((5, 80.0), (5, 90.0)),))


def independent_scalar_queue(offered_bps, service_bps, n_ticks, pkt_bits, buffer_cap):
    """Plain integer recurrence of the documented queue model, written
    separately from the simulator for cross-checking."""
    carry = 0.0
    credit = 0.0
    q = 0
    offered = delivered = dropped = 0
    tick_s = 0.001
    for _ in range(n_ticks):
        carry += offered_bps * tick_s / pkt_bits
        a = int(carry)
        carry -= a
        offered += a
        adm = min(a, buffer_cap - q)
        dropped += a - adm
        q += adm
        credit += service_bps * tick_s / pkt_bits
        s = min(int(credit), q)
        q -= s
        credit -= s
        delivered += s
        if q == 0:
            credit = 0.0
    return offered, delivered, dropped, q


class TestIntervalTicks:
    @pytest.mark.parametrize("interval_s, tick_ms, n_ticks", [
        (1.0, 1.0, 1000), (0.1, 1.0, 100), (1.0, 0.25, 4000), (0.3, 0.1, 3000),
    ])
    def test_whole_ticks(self, interval_s, tick_ms, n_ticks):
        tick_s, got, length_s = _interval_ticks(
            RadioConfig(monitoring_interval_s=interval_s), QueueConfig(tick_duration_ms=tick_ms)
        )
        assert (tick_s, got, length_s) == (tick_ms / 1000.0, n_ticks, n_ticks * tick_s)

    @pytest.mark.parametrize("interval_s, tick_ms", [(1.0, 2000.0), (1.0, 0.7), (0.1, 0.3)])
    def test_partial_tick_rejected(self, interval_s, tick_ms):
        with pytest.raises(ValueError, match="tick_duration_ms"):
            _interval_ticks(
                RadioConfig(monitoring_interval_s=interval_s),
                QueueConfig(tick_duration_ms=tick_ms),
            )


class TestSimulateInterval:
    def test_empty_system(self):
        radio, queue, channels = make_env()
        res = simulate_interval([0.0, 0.0], [5, 5], channels, radio, queue,
                                SimState.fresh(2))
        for s in res.kpm.slices:
            assert s.mean_latency_ms == 0.0
            assert s.mean_throughput_mbps == 0.0
            assert s.drop_ratio == 0.0
            assert s.delivered_count == 0

    def test_offered_equals_capacity(self):
        # 5 RBs = 11 Mbps per slice; offer exactly that
        radio, queue, channels = make_env()
        res = simulate_interval([11.0, 11.0], [5, 5], channels, radio, queue,
                                SimState.fresh(2))
        for s in res.kpm.slices:
            assert s.drop_ratio == 0.0
            assert s.mean_throughput_mbps == pytest.approx(11.0, rel=0.01)

    def test_double_overload_drops_half(self):
        radio, queue, channels = make_env(monitoring_s=10.0)
        res = simulate_interval([22.0, 0.0], [5, 5], channels, radio, queue,
                                SimState.fresh(2))
        assert res.kpm.slices[0].drop_ratio == pytest.approx(0.5, abs=0.05)
        off, dlv, drp, q = independent_scalar_queue(
            22e6, 11e6, 10_000, queue.packet_bits, queue.buffer_capacity_packets
        )
        acct = res.accounting[0]
        assert (acct.offered_packets, acct.delivered_packets,
                acct.dropped_packets, acct.queued_after) == (off, dlv, drp, q)

    def test_matches_independent_recurrence_under_load(self):
        radio, queue, channels = make_env()
        for rate in (5.0, 10.9, 11.0, 14.3, 33.0):
            res = simulate_interval([rate, 0.0], [5, 5], channels, radio, queue,
                                    SimState.fresh(2))
            off, dlv, drp, q = independent_scalar_queue(
                rate * 1e6, 11e6, 1000, queue.packet_bits,
                queue.buffer_capacity_packets,
            )
            acct = res.accounting[0]
            assert (acct.offered_packets, acct.delivered_packets,
                    acct.dropped_packets, acct.queued_after) == (off, dlv, drp, q)

    def test_conservation_exact(self):
        radio, queue, channels = make_env()
        rng = np.random.default_rng(3)
        state = SimState.fresh(2)
        for _ in range(30):
            rates = rng.uniform(0, 30, size=2)
            rb0 = int(rng.integers(1, 10))
            res = simulate_interval(list(rates), [rb0, 10 - rb0], channels,
                                    radio, queue, state)
            for acct in res.accounting:
                assert (
                    acct.delivered_packets + acct.dropped_packets
                    + acct.queued_after - acct.queued_before
                    == acct.offered_packets
                )
            state = res.state

    def test_latency_monotone_in_rbs(self):
        radio, queue, channels = make_env(total_rbs=20)
        latencies = []
        for rb0 in range(4, 17):
            res = simulate_interval([25.0, 0.0], [rb0, 20 - rb0], channels,
                                    radio, queue, SimState.fresh(2))
            latencies.append(res.kpm.slices[0].mean_latency_ms)
        assert all(a >= b for a, b in zip(latencies, latencies[1:]))

    def test_determinism(self):
        radio, queue, channels = make_env()
        a = simulate_interval([15.0, 8.0], [6, 4], channels, radio, queue,
                              SimState.fresh(2))
        b = simulate_interval([15.0, 8.0], [6, 4], channels, radio, queue,
                              SimState.fresh(2))
        assert a.kpm == b.kpm
        assert a.accounting == b.accounting

    def test_state_not_mutated(self):
        # Predictions and the optimizer roll every candidate forward from
        # one shared state, so simulate_interval must leave it untouched.
        radio, queue, channels = make_env()
        carried = simulate_interval(
            [25.31, 8.0], [6, 4], channels, radio, queue, SimState.fresh(2)
        ).state
        backlog = carried.queues[0]
        assert len(backlog.arrival_ticks) > 0
        assert backlog.arrival_carry != 0.0 and backlog.service_credit != 0.0
        for state in (SimState.fresh(2), carried):
            before = (
                state.tick,
                [(q.arrival_ticks.copy(), q.arrival_carry, q.service_credit)
                 for q in state.queues],
            )
            res = simulate_interval([15.0, 8.0], [6, 4], channels, radio, queue, state)
            assert res.state is not state
            assert state.tick == before[0]
            for q, (ticks, carry, credit) in zip(state.queues, before[1]):
                assert np.array_equal(q.arrival_ticks, ticks)
                assert q.arrival_ticks.dtype == ticks.dtype
                assert (q.arrival_carry, q.service_credit) == (carry, credit)

    def test_inconsistent_state_rejected(self):
        radio, queue, channels = make_env()
        with pytest.raises(InternalStateError):
            simulate_interval([1.0, 1.0], [5, 5], channels, radio, queue,
                              SimState.fresh(3))
        with pytest.raises(InternalStateError):
            simulate_interval([1.0, 1.0], [5, 6], channels, radio, queue,
                              SimState.fresh(2))

    def test_backlog_drain_caps_reported_throughput(self):
        radio, queue, channels = make_env()
        res = simulate_interval([33.0, 0.0], [5, 5], channels, radio, queue,
                                SimState.fresh(2))
        # now drain the backlog with generous capacity and little traffic
        res2 = simulate_interval([1.0, 0.0], [9, 1], channels, radio, queue,
                                 res.state)
        s = res2.kpm.slices[0]
        assert s.mean_throughput_mbps <= s.offered_load_mbps
        assert res2.accounting[0].delivered_packets > res2.accounting[0].offered_packets


@st.composite
def carried_queues(draw):
    """(buffer capacity, start tick, carried state): any backlog, carry, credit."""
    cap = draw(st.integers(1, 64))
    ages = draw(st.lists(st.integers(0, 400), max_size=cap))
    start = draw(st.integers(max(ages, default=-1) + 1, 5000))
    qs = SliceQueueState(
        arrival_ticks=np.array(sorted(start - 1 - a for a in ages), dtype=np.int64),
        arrival_carry=draw(st.floats(0.0, 1.0, exclude_max=True)),
        service_credit=draw(st.floats(0.0, 1.0, exclude_max=True)),
    )
    return cap, start, qs


class TestBatchedQueue:
    """``_advance_slice_batch`` against the scalar loop it vectorises."""

    @settings(max_examples=300, deadline=None)
    @given(
        carried=carried_queues(),
        offered_mbps=st.floats(0.0, 40.0),
        service_mbps=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=6),
        n_ticks=st.integers(1, 300),
    )
    def test_matches_scalar_loop_bit_for_bit(self, carried, offered_mbps,
                                             service_mbps, n_ticks):
        cap, start, qs = carried
        tick_s, packet_bits = 0.001, 12_000
        batch = _advance_slice_batch(qs, offered_mbps * 1e6,
                                     np.array(service_mbps) * 1e6, n_ticks,
                                     tick_s, packet_bits, cap, start)
        for i, mbps in enumerate(service_mbps):
            _, acct, latency, delivered = _advance_slice(
                qs, offered_mbps * 1e6, mbps * 1e6, n_ticks, tick_s,
                packet_bits, cap, start)
            assert (batch.offered_packets, int(batch.delivered_packets[i]),
                    int(batch.dropped_packets[i]), int(batch.queued_after[i])) == (
                acct.offered_packets, delivered, acct.dropped_packets,
                acct.queued_after)
            assert float(batch.mean_latency_ticks[i]).hex() == latency.hex()

    def test_backlog_beyond_buffer_rejected(self):
        qs = SliceQueueState(arrival_ticks=np.zeros(5, dtype=np.int64))
        with pytest.raises(InternalStateError):
            _advance_slice_batch(qs, 1e6, np.array([1e6]), 10, 0.001, 12_000, 4, 1)
