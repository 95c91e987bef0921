import math
from collections import deque
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceloop import radio
from sliceloop.core import RadioConfig
from sliceloop.sla import starved
from sliceloop.radio import (
    InternalStateError,
    QueueConfig,
    SimState,
    SliceAccounting,
    SliceQueueState,
    StepProfile,
    UeChannelState,
    _advance_slice,
    _advance_slice_batch,
    _arrivals,
    _column_latency,
    _credit_path,
    _fifo_latency,
    _interval_ticks,
    _slice_kpm,
    channel_capacity,
    generate_traffic,
    simulate_interval,
    slice_kpm_tables,
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

    @pytest.mark.parametrize("rbs", [-1, np.int64(-1), np.array([3, -1, 2])])
    def test_negative_rbs_rejected(self, rbs):
        with pytest.raises(ValueError, match="assigned_rbs"):
            channel_capacity(UeChannelState(0, 0, sinr=1.0), rbs, 180_000.0)

    def test_negative_sinr_rejected(self):
        # 10**400 is an int beyond float range, which compares with inf as finite.
        for sinr in (-0.5, math.inf, math.nan, 10 ** 400):
            with pytest.raises(ValueError, match="sinr"):
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

    @pytest.mark.parametrize("start", [2.9, 0.5, math.inf, math.nan])
    def test_start_that_is_not_a_whole_number_rejected(self, start):
        with pytest.raises(ValueError, match="whole numbers"):
            StepProfile(steps=(((0, 80.0), (start, 120.0)), ((0, 80.0),)))
        # A whole float start is the interval it names.
        profile = StepProfile(steps=(((0, 80.0), (2.0, 120.0)), ((0, 80.0),)))
        assert generate_traffic(profile, 2) == [120.0, 80.0]

    @pytest.mark.parametrize("rate", [-5.0, math.inf, math.nan, 10 ** 400])
    def test_bad_rate_names_the_field(self, rate):
        with pytest.raises(ValueError, match="steps rates"):
            StepProfile(steps=(((0, 80.0), (3, rate)), ((0, 5.0),)))


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
        for s, a in zip(res.kpm, res.accounting):
            assert s.mean_latency_ms == 0.0
            assert s.mean_throughput_mbps == 0.0
            assert s.drop_ratio == 0.0
            assert a.delivered_packets == 0

    def test_offered_equals_capacity(self):
        # 5 RBs = 11 Mbps per slice; offer exactly that
        radio, queue, channels = make_env()
        res = simulate_interval([11.0, 11.0], [5, 5], channels, radio, queue,
                                SimState.fresh(2))
        for s in res.kpm:
            assert s.drop_ratio == 0.0
            assert s.mean_throughput_mbps == pytest.approx(11.0, rel=0.01)

    def test_double_overload_drops_half(self):
        radio, queue, channels = make_env(monitoring_s=10.0)
        res = simulate_interval([22.0, 0.0], [5, 5], channels, radio, queue,
                                SimState.fresh(2))
        assert res.kpm[0].drop_ratio == pytest.approx(0.5, abs=0.05)
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
            latencies.append(res.kpm[0].mean_latency_ms)
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
        s = res2.kpm[0]
        assert s.mean_throughput_mbps <= s.offered_load_mbps
        assert res2.accounting[0].delivered_packets > res2.accounting[0].offered_packets

    def test_numpy_rb_counts_give_the_int_results_and_memo_keys(self):
        # A row of core.rb_splits holds numpy integers.  Slice 1 is
        # overloaded, so its live step takes the credit path's closed form.
        radio_cfg, queue, channels = make_env(total_rbs=106)
        splits = ([70, 36], np.array([70, 36]), [np.int64(70), np.int64(36)])
        fresh = [simulate_interval([120.0, 80.0], rbs, channels, radio_cfg, queue,
                                   SimState.fresh(2)) for rbs in splits]
        assert fresh[0].accounting[1].queued_after > 0
        for res in fresh[1:]:
            assert res.accounting == fresh[0].accounting
            for got, want in zip(res.kpm, fresh[0].kpm):
                assert [x.hex() for x in astuple(got)] == [x.hex() for x in astuple(want)]
        # A memo that one RB count type fills serves the others.
        memo = {}
        first = simulate_interval([120.0, 80.0], splits[0], channels, radio_cfg, queue,
                                  SimState.fresh(2), memo)
        for rbs in splits[1:]:
            res = simulate_interval([120.0, 80.0], rbs, channels, radio_cfg, queue,
                                    SimState.fresh(2), memo)
            assert all(a is b for a, b in zip(res.kpm, first.kpm))
        assert len(memo) == 2


@st.composite
def carried_queues(draw):
    """(buffer capacity, carried state): any backlog, carry, credit."""
    cap = draw(st.integers(1, 64))
    ages = draw(st.lists(st.integers(0, 400), max_size=cap))
    qs = SliceQueueState(
        arrival_ticks=np.array(sorted(-1 - a for a in ages), dtype=np.int64),
        arrival_carry=draw(st.floats(0.0, 1.0, exclude_max=True)),
        service_credit=draw(st.floats(0.0, 1.0, exclude_max=True)),
    )
    return cap, qs


@st.composite
def stacked_slices(draw):
    """(buffer capacity, carried states, offered Mbps, service Mbps) for 1-3
    slices sharing one buffer capacity, each with its own backlog, carries
    and rates, and the same number of service rates per slice."""
    cap = draw(st.integers(1, 64))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    ages = [draw(st.lists(st.integers(0, 400), max_size=cap)) for _ in range(n)]
    queues = [
        SliceQueueState(
            arrival_ticks=np.array(sorted(-1 - a for a in slice_ages), dtype=np.int64),
            arrival_carry=draw(st.floats(0.0, 1.0, exclude_max=True)),
            service_credit=draw(st.floats(0.0, 1.0, exclude_max=True)),
        )
        for slice_ages in ages
    ]
    offered = draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n))
    service = draw(st.lists(st.lists(st.floats(0.0, 40.0), min_size=m, max_size=m),
                            min_size=n, max_size=n))
    return cap, queues, offered, service


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
        cap, qs = carried
        tick_s, packet_bits = 0.001, 12_000
        (offered,), *books = _advance_slice_batch([qs], [offered_mbps * 1e6],
                                                  np.array([service_mbps]) * 1e6, n_ticks,
                                                  tick_s, packet_bits, cap)
        delivered, dropped, queued_after, mean_latency = (x[0].tolist() for x in books)
        for i, mbps in enumerate(service_mbps):
            _, acct, latency = _advance_slice(
                qs, offered_mbps * 1e6, mbps * 1e6, n_ticks, tick_s, packet_bits, cap)
            assert (offered, delivered[i], dropped[i], queued_after[i]) == (
                acct.offered_packets, acct.delivered_packets, acct.dropped_packets,
                acct.queued_after)
            assert mean_latency[i].hex() == latency.hex()

    def test_backlog_beyond_buffer_rejected(self):
        qs = SliceQueueState(arrival_ticks=np.full(5, -1, dtype=np.int64))
        with pytest.raises(InternalStateError):
            _advance_slice_batch([qs], [1e6], np.array([[1e6]]), 10, 0.001, 12_000, 4)

    @settings(max_examples=300, deadline=None)
    @given(stacked=stacked_slices(), n_ticks=st.integers(1, 300))
    def test_stacked_slices_match_scalar_loop_bit_for_bit(self, stacked, n_ticks):
        cap, queues, offered_mbps, service_mbps = stacked
        tick_s, packet_bits = 0.001, 12_000
        offered_packets, *books = _advance_slice_batch(
            queues, [r * 1e6 for r in offered_mbps], np.array(service_mbps) * 1e6, n_ticks,
            tick_s, packet_bits, cap)
        n, m = len(queues), len(service_mbps[0])
        assert offered_packets.shape == (n,) and all(x.shape == (n, m) for x in books)
        for k, (qs, offered, rates) in enumerate(zip(queues, offered_mbps, service_mbps)):
            delivered, dropped, queued_after, mean_latency = (x[k].tolist() for x in books)
            for i, mbps in enumerate(rates):
                _, acct, latency = _advance_slice(
                    qs, offered * 1e6, mbps * 1e6, n_ticks, tick_s, packet_bits, cap)
                assert (offered_packets[k], delivered[i], dropped[i], queued_after[i]) == (
                    acct.offered_packets, acct.delivered_packets, acct.dropped_packets,
                    acct.queued_after)
                assert mean_latency[i].hex() == latency.hex()
                assert (delivered[i] + dropped[i] + queued_after[i] - len(qs.arrival_ticks)
                        == offered_packets[k])

    def test_slice_count_mismatch_rejected(self):
        radio, queue, channels = make_env()
        with pytest.raises(InternalStateError):
            slice_kpm_tables([5.0], channels, radio, queue, SimState.fresh(2), 9)
        with pytest.raises(InternalStateError):
            _advance_slice_batch([SliceQueueState()] * 2, [1e6, 1e6], np.array([[1e6]]),
                                 10, 0.001, 12_000, 4)


def column_books(backlog, admitted, served):
    """(queue length after service summed over the ticks, end queue) of a FIFO
    column that starts with ``backlog`` packets."""
    q, queue_sum = backlog, 0
    for adm, s in zip(admitted, served):
        q += adm - s
        assert q >= 0
        queue_sum += q
    return queue_sum, q


def per_packet_latency(qs, admitted, served):
    """Delivered packets, their mean latency and the undelivered packets'
    arrival ticks counted from the next interval's start, packet by packet
    through a FIFO."""
    fifo = deque(qs.arrival_ticks.tolist())
    latency_sum = delivered = 0
    for t, (adm, s) in enumerate(zip(admitted, served)):
        fifo.extend([t] * adm)
        for _ in range(s):
            latency_sum += t - fifo.popleft() + 1
        delivered += s
    mean = float(latency_sum) / float(delivered) if delivered else 0.0
    return delivered, mean, [t - len(admitted) for t in fifo]


def carried_fifo(ages):
    return SliceQueueState(np.array(sorted(-1 - a for a in ages), dtype=np.int64))


def per_tick(draw, n_ticks, hi, sparse):
    """Counts of 0..hi per tick: every tick drawn, or a few drawn ticks
    and zeros elsewhere."""
    if not sparse:
        return draw(st.lists(st.integers(0, hi), min_size=n_ticks, max_size=n_ticks))
    counts = [0] * n_ticks
    for t, x in draw(st.dictionaries(st.integers(0, n_ticks - 1), st.integers(1, hi),
                                     max_size=12)).items():
        counts[t] = x
    return counts


@st.composite
def fifo_columns(draw, n_ticks, backlog, sparse=False):
    """(admitted, served) per tick of a FIFO that starts with ``backlog``
    packets: any admissions, and every tick serving none of its queue, all
    of it, or a drawn count capped by it.  ``sparse`` admits and serves on
    a few ticks only, so that in a long interval the ticks back to the
    carried packets' first arrival can span any stretch of it."""
    admitted = per_tick(draw, n_ticks, 4, sparse)
    service = draw(st.sampled_from([0, math.inf, None]))
    service = per_tick(draw, n_ticks, 6, sparse) if service is None else [service] * n_ticks
    served, q = [], backlog
    for adm, s in zip(admitted, service):
        served.append(min(q + adm, s))
        q += adm - served[-1]
    return admitted, served


def check_column(qs, admitted, served):
    """The one-column and stacked latency forms against the packet-by-packet
    FIFO, bit for bit, and the one-column carried FIFO against it and
    against every admitted packet's tick, repeated; returns the delivered
    count."""
    queue_sum, q = column_books(len(qs.arrival_ticks), admitted, served)
    delivered, latency, fifo = per_packet_latency(qs, admitted, served)
    column = np.array(admitted, dtype=np.int64)
    got = _column_latency(qs, column, queue_sum, q)
    assert got[:2] == (delivered, latency)
    repeated = np.repeat(np.arange(-len(column), 0, dtype=np.int64), column)
    want = np.concatenate([qs.arrival_ticks[delivered:] - len(column),
                           repeated[max(delivered - len(qs.arrival_ticks), 0):]])
    assert got[2].dtype == np.int64
    assert got[2].tolist() == want.tolist() == fifo
    got_delivered, got_latency = _fifo_latency([qs], column[:, None], np.array([queue_sum]),
                                                np.array([q]))
    assert got_delivered.tolist() == [delivered]
    assert float(got_latency[0]).hex() == latency.hex()
    return delivered


class TestFifoLatency:
    """The cut-tick latency identity, one column and stacked, against a
    packet-by-packet FIFO."""

    @pytest.mark.parametrize("ages, admitted, served, delivered", [
        ([5, 3, 1], [2, 0, 1], [0, 0, 0], 0),  # nothing delivered
        ([9, 7, 4, 2], [1, 2, 0], [1, 1, 0], 2),  # inside the carried backlog
        ([6, 2, 0], [2, 1, 0], [1, 2, 0], 3),  # exactly the carried backlog
        ([3, 1], [1, 3, 0, 2], [3, 3, 0, 2], 8),  # every admitted packet
        ([], [2, 0, 0, 3, 0], [0, 0, 1, 1, 0], 2),  # zero ticks after the cut
        ([4], [0, 0, 2, 0, 1], [0, 0, 0, 0, 3], 3),  # zero ticks before the cut
        ([], [2, 0, 2, 1], [1, 1, 1, 0], 3),  # the cut tick's packets split
    ])
    def test_cases(self, ages, admitted, served, delivered):
        assert check_column(carried_fifo(ages), admitted, served) == delivered

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), ages=st.lists(st.integers(0, 400), max_size=20),
           sparse=st.booleans())
    def test_one_column_matches_packet_fifo(self, data, ages, sparse):
        n_ticks = data.draw(st.integers(1, 300 if sparse else 100))
        admitted, served = data.draw(fifo_columns(n_ticks, len(ages), sparse))
        check_column(carried_fifo(ages), admitted, served)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n_slices=st.integers(1, 3), m=st.integers(1, 3),
           n_ticks=st.integers(1, 300), sparse=st.booleans())
    def test_stacked_columns_match_each_column_alone(self, data, n_slices, m, n_ticks, sparse):
        ages = [data.draw(st.lists(st.integers(0, 400), max_size=20)) for _ in range(n_slices)]
        queues = [carried_fifo(a) for a in ages]
        columns = [data.draw(fifo_columns(n_ticks, len(a), sparse))
                   for a in ages for _ in range(m)]
        books = [column_books(len(qs.arrival_ticks), *col)
                 for qs, col in zip(np.repeat(queues, m), columns)]
        admitted = np.array([adm for adm, _ in columns], dtype=np.uint8).T
        # The tail's first block is one tick, so tails cross up to nine
        # doubling blocks, and columns leave the walk at different blocks.
        with mock.patch.object(radio, "_BLOCK_TICKS", 1):
            delivered, latency = _fifo_latency(
                queues, admitted, np.array([s for s, _ in books]),
                np.array([q for _, q in books]))
        for i, ((adm, _), (queue_sum, q)) in enumerate(zip(columns, books)):
            want = _column_latency(queues[i // m], np.array(adm, dtype=np.int64),
                                   queue_sum, q)
            assert (int(delivered[i]), float(latency[i]).hex()) == (want[0], want[1].hex())


class TestStarvation:
    """``sla.starved`` reads a KPM's throughput and offered load; the
    accounting says whether anything was delivered.  The two must agree."""

    @settings(max_examples=150, deadline=None)
    @given(
        stacked=stacked_slices(),
        offered=st.lists(st.sampled_from([0.0, 1e-3, 0.012]) | st.floats(0.0, 40.0),
                         min_size=3, max_size=3),
        # SINR 0 and 1e-9 deliver nothing; 1e-4 only with a carried credit.
        sinrs=st.lists(st.sampled_from([0.0, 1e-9, 1e-4, 0.05]) | st.floats(0.0, 100.0),
                       min_size=3, max_size=3),
        rbs=st.integers(1, 6),
    )
    def test_starved_iff_nothing_delivered(self, stacked, offered, sinrs, rbs):
        cap, queues, _, _ = stacked
        n = len(queues)
        offered = offered[:n]
        queue = QueueConfig(buffer_capacity_packets=cap)
        channels = [UeChannelState(k, k, x) for k, x in enumerate(sinrs[:n])]
        state = SimState(0, queues)

        def interval(counts):
            radio = RadioConfig(total_rbs=sum(counts), monitoring_interval_s=0.1)
            return simulate_interval(offered, counts, channels, radio, queue, state)

        res = interval([rbs] * n)
        for kpm, acct, mbps in zip(res.kpm, res.accounting, offered):
            assert starved(kpm) == (acct.delivered_packets == 0 and mbps > 0)
        radio = RadioConfig(total_rbs=n * rbs, monitoring_interval_s=0.1)
        tables = slice_kpm_tables(offered, channels, radio, queue, state, rbs)
        for k, table in enumerate(tables):
            for count, hungry in enumerate(starved(table).tolist(), 1):
                acct = interval([count if j == k else 1 for j in range(n)]).accounting[k]
                assert hungry == starved(table.kpm(count)) == (
                    acct.delivered_packets == 0 and offered[k] > 0)


class TestKpmTables:
    """``slice_kpm_tables`` gives each slice's KPMs as arrays over its RB
    counts, every entry ``_slice_kpm`` of that RB count's packet books."""

    @settings(max_examples=150, deadline=None)
    @given(stacked=stacked_slices(),
           sinrs=st.lists(st.sampled_from([0.0, 1e-4, 0.05]) | st.floats(0.0, 100.0),
                          min_size=3, max_size=3),
           rbs=st.integers(1, 12))
    def test_entries_equal_slice_kpm_of_each_book(self, stacked, sinrs, rbs):
        cap, queues, offered, _ = stacked
        n = len(queues)
        queue = QueueConfig(buffer_capacity_packets=cap)
        radio = RadioConfig(total_rbs=n * rbs, monitoring_interval_s=0.1)
        channels = [UeChannelState(k, k, x) for k, x in enumerate(sinrs[:n])]
        tables = slice_kpm_tables(offered, channels, radio, queue, SimState(0, queues), rbs)
        tick_s, n_ticks, interval_s = _interval_ticks(radio, queue)
        service = np.array([channel_capacity(ue, np.arange(1, rbs + 1), radio.rb_bandwidth_hz)
                            for ue in channels])
        offered_packets, delivered, dropped, _, latency = _advance_slice_batch(
            queues, [x * 1e6 for x in offered], service, n_ticks, tick_s, queue.packet_bits, cap)
        for k, (mbps, table) in enumerate(zip(offered, tables)):
            assert table.offered_load_mbps is mbps
            books = zip(delivered[k].tolist(), dropped[k].tolist(), latency[k].tolist())
            for count, book in enumerate(books, 1):
                want = _slice_kpm(mbps, int(offered_packets[k]), *book, queue, interval_s)
                got = table.kpm(count)
                assert all(type(x) is float for x in astuple(got)[:3])
                assert [x.hex() for x in astuple(got)] == [x.hex() for x in astuple(want)]

    def test_light_load_entries_repeat(self):
        # At 2 Mbps, 3 to 5 RBs deliver at 2 ticks and 6 to 9 RBs in the
        # arrival tick: 9 RB counts, 4 packet books.
        radio, queue, channels = make_env()
        tables = slice_kpm_tables([2.0, 2.0], channels, radio, queue, SimState.fresh(2), 9)
        for table in tables:
            row = [table.kpm(count) for count in range(1, 10)]
            assert len(set(row)) == 4
            assert row[2] == row[4] and row[5] == row[8]
            assert table.drop_ratio.tolist() == [0.0] * 9


def reference_advance_slice(qs, offered_bps, service_bps, n_ticks, tick_s,
                            packet_bits, buffer_cap):
    """``_advance_slice`` as a plain per-tick loop over the whole interval,
    with every delivered packet's latency found by ``searchsorted``."""
    queued_before = len(qs.arrival_ticks)
    arrivals, offered, carry_out = _arrivals(qs, offered_bps, n_ticks, tick_s, packet_bits)
    c = service_bps * tick_s / packet_bits
    q = queued_before
    credit = qs.service_credit
    admitted = np.zeros(n_ticks, dtype=np.int64)
    served = np.zeros(n_ticks, dtype=np.int64)
    dropped = 0
    for t in range(n_ticks):
        a = int(arrivals[t])
        room = buffer_cap - q
        adm = a if a <= room else room
        dropped += a - adm
        q += adm
        credit += c
        s = int(credit)
        if s > q:
            s = q
        q -= s
        credit -= s
        if q == 0:
            credit = 0.0
        admitted[t] = adm
        served[t] = s

    new_arrivals = np.repeat(np.arange(n_ticks, dtype=np.int64), admitted)
    all_arrivals = np.concatenate([qs.arrival_ticks, new_arrivals])
    cum_served = np.cumsum(served)
    delivered = int(cum_served[-1])
    if delivered > 0:
        dep_idx = np.searchsorted(cum_served, np.arange(delivered), side="right")
        latency_ticks = dep_idx - all_arrivals[:delivered] + 1
        mean_latency_ticks = float(latency_ticks.mean())
    else:
        mean_latency_ticks = 0.0
    new_state = SliceQueueState(all_arrivals[delivered:] - n_ticks, carry_out, credit)
    acct = SliceAccounting(offered, delivered, dropped, queued_before, q)
    return new_state, acct, mean_latency_ticks


# A tick of 2**-10 s and packets of 2**13 bits turn a service rate in
# packets per tick into bits per second and back exactly.
EXACT_TICK_S, EXACT_PACKET_BITS = 2.0 ** -10, 2 ** 13


def edge_rates():
    """Service rates at the binade edges of the credit's closed form: 2**(e+1) - 1,
    the floats either side of it, and 2**(e+1) - 0.5, whose sums reach the next binade."""
    rates = []
    for e in range(0, 7):
        edge = 2.0 ** (e + 1) - 1.0
        rates += [edge, math.nextafter(edge, math.inf), math.nextafter(edge, 0.0),
                  2.0 ** (e + 1) - 0.5]
    return rates


@st.composite
def live_slices(draw):
    """``_advance_slice`` arguments whose queue drains from tick 0, from
    mid-interval or never: any carried backlog and carry, and a per-tick
    service ``c`` at, just below or just above the most packets any tick
    brings, anywhere up to twice that, at a binade edge, or below one.
    The credit is any in [0, 1), or the one an earlier interval at the
    same ``c`` left, which lies on the grid of ``c``'s closed form."""
    cap, qs = draw(carried_queues())
    offered_bps = draw(st.floats(0.0, 40.0)) * 1e6
    n_ticks = draw(st.integers(1, 300))
    tick_s, packet_bits = draw(st.sampled_from([(0.001, 12_000),
                                                (EXACT_TICK_S, EXACT_PACKET_BITS)]))
    most = int(_arrivals(qs, offered_bps, n_ticks, tick_s, packet_bits)[0].max())
    c = draw(st.one_of(
        st.sampled_from([most, math.nextafter(most, 0.0), math.nextafter(most, math.inf),
                         most - 1e-9, most + 1e-9, most - 0.5, most + 0.5]),
        st.floats(0.0, 2.0 * most + 1.0),
        st.sampled_from(edge_rates() + [0.0, 0.5, 0.3, 1.0 - 2.0 ** -52]),
    ))
    service_bps = max(c, 0.0) * packet_bits / tick_s
    if draw(st.booleans()):
        earlier = _advance_slice(SliceQueueState(arrival_carry=qs.arrival_carry,
                                                 service_credit=qs.service_credit),
                                 draw(st.floats(0.0, 40.0)) * 1e6, service_bps,
                                 draw(st.integers(1, 300)), tick_s, packet_bits, cap)[0]
        qs = SliceQueueState(qs.arrival_ticks, qs.arrival_carry, earlier.service_credit)
    return qs, offered_bps, service_bps, n_ticks, tick_s, packet_bits, cap


@st.composite
def periodic_live_slices(draw):
    """``_advance_slice`` arguments whose queue keeps emptying on periodic
    arrivals: p/P packets a tick, P <= 16 and p/P not whole, served at c in
    (p/P, ceil(p/P)], over 500 to 3,000 ticks, from a carried backlog,
    carry and credit, with a buffer that often binds."""
    period = draw(st.integers(2, 16))
    rate = draw(st.integers(1, 16 * period).filter(lambda p: p % period)) / period
    c = draw(st.floats(rate, math.ceil(rate), exclude_min=True))
    cap = draw(st.integers(1, 2 * math.ceil(rate) + 2))
    ages = draw(st.lists(st.integers(0, 400), max_size=cap))
    qs = SliceQueueState(np.array(sorted(-1 - a for a in ages), dtype=np.int64),
                         draw(st.floats(0.0, 1.0, exclude_max=True)),
                         draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)))
    per_s = EXACT_PACKET_BITS / EXACT_TICK_S
    return (qs, rate * per_s, c * per_s, draw(st.integers(500, 3000)), EXACT_TICK_S,
            EXACT_PACKET_BITS, cap)


def sequential_credit_path(x, c, k):
    """The credit and potential service of each tick, as the tick loop computes them."""
    credits, potentials = [], []
    for _ in range(k):
        x += c
        s = int(x)
        x -= s
        credits.append(x)
        potentials.append(s)
    return credits, potentials


def assert_matches_reference(args):
    got_state, got_acct, got_latency = _advance_slice(*args)
    ref_state, ref_acct, ref_latency = reference_advance_slice(*args)
    assert got_acct == ref_acct
    assert got_latency.hex() == ref_latency.hex()
    assert np.array_equal(got_state.arrival_ticks, ref_state.arrival_ticks)
    assert got_state.arrival_ticks.dtype == np.int64
    assert got_state.arrival_carry.hex() == ref_state.arrival_carry.hex()
    assert got_state.service_credit.hex() == ref_state.service_credit.hex()
    return got_acct


def stepped_ticks(args):
    """Check the live step against the reference loop; return how many
    ticks its per-tick loop took from the arrivals, counted by handing it
    arrivals whose ``tolist`` counts the items drawn from it."""
    drawn = []

    class CountedArrivals(np.ndarray):
        def tolist(self):
            for a in np.ndarray.tolist(self):
                drawn.append(a)
                yield a

    arrivals = radio._arrivals

    def counted(*rest):
        per_tick, *others = arrivals(*rest)
        return (per_tick.view(CountedArrivals), *others)

    with mock.patch.object(radio, "_arrivals", counted):
        assert_matches_reference(args)
    return len(drawn)


def exact_args(c, offered_per_tick, n_ticks, cap=256, backlog=0, credit=0.0):
    """``_advance_slice`` arguments with per-tick rates that convert exactly."""
    qs = SliceQueueState(np.full(backlog, -1, dtype=np.int64), 0.0, credit)
    per_s = EXACT_PACKET_BITS / EXACT_TICK_S
    return (qs, offered_per_tick * per_s, c * per_s, n_ticks, EXACT_TICK_S,
            EXACT_PACKET_BITS, cap)


class TestCreditPath:
    """``radio._credit_path`` against the tick loop's float operations."""

    @settings(max_examples=500, deadline=None)
    @given(
        x=st.floats(0.0, 1.0, exclude_max=True),
        c=st.one_of(st.floats(0.0, 300.0), st.sampled_from(edge_rates())),
        k=st.integers(1, 400),
        warm=st.booleans(),
    )
    def test_matches_sequential_floats(self, x, c, k, warm):
        if warm:  # a credit on c's grid, as a run at the same rate leaves it
            x = sequential_credit_path(x, c, 7)[0][-1]
        credits, potentials = _credit_path(x, c, k)
        want_credits, want_potentials = sequential_credit_path(x, c, k)
        assert [v.hex() for v in credits.tolist()] == [v.hex() for v in want_credits]
        assert potentials.tolist() == want_potentials

    @pytest.mark.parametrize("c", [1.0, 2.5, 3.0, 9.717, 15.0, 2.0 ** 40 + 0.25, 15.5])
    def test_closed_form_runs_no_float_ticks(self, c):
        # Credit 0.25 lies on every one of these rates' grids.
        with mock.patch.object(radio, "_credit_step", side_effect=AssertionError("float")):
            credits, potentials = _credit_path(0.25, c, 300)
        want_credits, want_potentials = sequential_credit_path(0.25, c, 300)
        assert [v.hex() for v in credits.tolist()] == [v.hex() for v in want_credits]
        assert potentials.tolist() == want_potentials

    @pytest.mark.parametrize("c", [0.0, 0.3, math.nextafter(15.0, math.inf)])
    def test_other_rates_repeat_the_float_ticks(self, c):
        # 0.3 and the float above 15 are off their grids: sums can round.
        steps = []
        step = radio._credit_step

        def counting(x, c):
            steps.append(x)
            return step(x, c)

        with mock.patch.object(radio, "_credit_step", counting):
            credits, potentials = _credit_path(0.1, c, 50)
        assert len(steps) == 49
        want_credits, want_potentials = sequential_credit_path(0.1, c, 50)
        assert [v.hex() for v in credits.tolist()] == [v.hex() for v in want_credits]
        assert potentials.tolist() == want_potentials

    def test_int64_chunks(self):
        # c = 2.5 is 2 plus 2**50 units of 2**-51: one chunk holds 8,190
        # ticks, so 20,000 ticks take three.
        credits, potentials = _credit_path(0.0, 2.5, 20_000)
        want_credits, want_potentials = sequential_credit_path(0.0, 2.5, 20_000)
        assert credits.tolist() == want_credits
        assert potentials.tolist() == want_potentials
        assert set(potentials.tolist()) == {2, 3}


class TestLiveQueue:
    """``_advance_slice`` against the plain per-tick loop it shortcuts."""

    @settings(max_examples=1000, deadline=None)
    @given(args=live_slices())
    def test_matches_reference_loop_bit_for_bit(self, args):
        assert_matches_reference(args)

    @pytest.mark.parametrize("c", edge_rates() + [0.0, 0.3, 9.717])
    def test_loaded_queue_at_binade_edges_and_below_one(self, c):
        # Offered 1.5 packets more than served per tick: the queue fills and stays up.
        for credit in (0.0, 0.375, 0.1):
            acct = assert_matches_reference(exact_args(c, c + 1.5, 300, cap=64,
                                                       backlog=3, credit=credit))
            assert acct.dropped_packets > 0

    def test_credit_left_by_an_earlier_interval(self):
        # 15.5's sums reach 16, so its closed form needs a credit on the
        # 2 ulp grid: the one its own earlier interval leaves.
        for c in (15.5, 9.717, 3.0):
            earlier = _advance_slice(*exact_args(c, c + 0.7, 150, backlog=5, credit=0.1))[0]
            assert earlier.service_credit not in (0.0, 0.1)
            args = exact_args(c, c + 0.3, 300, backlog=len(earlier.arrival_ticks),
                              credit=earlier.service_credit)
            with mock.patch.object(radio, "_credit_step", side_effect=AssertionError("float")):
                assert_matches_reference(args)

    def stretches(self, args):
        """Check the live step against the reference loop; return the
        ticks each of its stretch calls stepped."""
        ticks = []
        stretch = radio._stretch

        def recording(*rest):
            out = stretch(*rest)
            ticks.append(out[0])
            return out

        with mock.patch.object(radio, "_stretch", recording):
            assert_matches_reference(args)
        return ticks

    def test_queue_that_keeps_emptying(self):
        # 8.3 packets a tick against 8.4 served: the queue empties every
        # few ticks, so the first short stretch hands over to the tick loop.
        args = exact_args(8.4, 8.3, 1000)
        assert len(self.stretches(args)) == 1

    def test_one_stretch_then_the_tick_loop(self):
        # 40 Mbps on 19 RBs (41.8 Mbps) from a 10-packet backlog: the
        # backlog drains at tick 59, and the queue then empties every few
        # ticks, in the per-tick loop, however long the next run would be.
        service_bps = channel_capacity(make_env()[2][0], 19, 180_000.0)
        qs = SliceQueueState(np.full(10, -1, dtype=np.int64), 0.3, 0.5)
        assert self.stretches((qs, 40e6, service_bps, 1000, 0.001, 12_000, 256)) == [59]

    @settings(max_examples=300, deadline=None)
    @given(args=periodic_live_slices())
    def test_periodic_queue_that_keeps_emptying_matches_reference(self, args):
        assert_matches_reference(args)

    def test_queue_that_keeps_emptying_jumps_over_its_cycles(self):
        # 8.3 packets a tick repeat every 10 ticks.  Once an empty tick
        # recurs at the phase of an earlier one, every whole cycle left of
        # the 3,000 ticks is filled in at once and the last partial one
        # stepped.
        args = exact_args(8.4, 8.3, 3000)
        assert stepped_ticks(args) < 100
        # Without a period the per-tick loop takes every tick after the stretch.
        [end] = self.stretches(args)
        with mock.patch.object(radio, "_arrival_period", return_value=-1):
            assert stepped_ticks(args) == 3000 - end

    def test_arrivals_that_do_not_repeat_step_every_tick(self):
        # 3e packets a tick, a float rate: the arrivals repeat no period,
        # so after the first short stretch the per-tick loop steps every
        # tick, having looked for a period once.
        args = (SliceQueueState(), 3 * math.e * 12e6, 8.2 * 12e6, 3000, 0.001, 12_000, 256)
        [end] = self.stretches(args)
        with mock.patch.object(radio, "_arrival_period", wraps=radio._arrival_period) as look:
            assert stepped_ticks(args) == 3000 - end
        assert look.call_count == 1

    def test_queue_pinned_at_the_cap(self):
        # A full buffer that arrivals keep full: one stretch, every tick
        # dropping, none emptying.
        args = exact_args(9.717, 30.0, 1000, cap=64, backlog=64, credit=0.5)
        assert self.stretches(args) == [1000]
        acct = _advance_slice(*args)[1]
        assert acct.queued_after in (64 - 9, 64 - 10)

    def test_interval_past_one_int64_chunk(self):
        # A loaded 20,000-tick interval at c = 2.5: the credit path takes
        # three int64 chunks of 8,190 ticks.
        args = exact_args(2.5, 2.75, 20_000, cap=4096, backlog=10)
        assert self.stretches(args) == [20_000]
        assert_matches_reference(args)

    @pytest.mark.parametrize("cap", [4, 8, 16])
    def test_small_buffer_that_keeps_emptying_and_refilling(self, cap):
        # One packet more arrives per tick than the buffer holds, and half
        # a packet less is served: each tick's arrivals overflow the
        # buffer, and every other tick empties it.  After one short
        # stretch the per-tick loop runs the rest.
        args = exact_args(cap - 0.5, cap + 1.0, 300, cap=cap)
        assert len(self.stretches(args)) == 1
        acct = assert_matches_reference(args)
        assert acct.dropped_packets > 0

    def test_carried_backlog_partly_delivered(self):
        # 120 carried packets with spread arrival ticks and 0.25 packets
        # served per tick: 75 of them leave, the rest carry on ahead of the
        # interval's own arrivals.
        qs = SliceQueueState(np.arange(-239, 0, 2, dtype=np.int64))
        per_s = EXACT_PACKET_BITS / EXACT_TICK_S
        args = (qs, 0.1 * per_s, 0.25 * per_s, 300, EXACT_TICK_S, EXACT_PACKET_BITS, 256)
        carried, acct, _ = _advance_slice(*args)
        assert 0 < acct.delivered_packets < len(qs.arrival_ticks)
        # The first undelivered one, counted from the next interval's start.
        assert carried.arrival_ticks[0] == qs.arrival_ticks[acct.delivered_packets] - 300
        acct = assert_matches_reference(args)
        assert acct.queued_after > acct.queued_before - acct.delivered_packets

    def test_carried_fifo_owns_only_its_backlog(self):
        # A loaded interval leaves a backlog; the carried FIFO must not be
        # a view of the whole interval's packets.
        qs, acct, _ = _advance_slice(SliceQueueState(), 30e6, 11e6, 1000, 0.001, 12_000, 256)
        assert len(qs.arrival_ticks) == acct.queued_after > 0
        assert qs.arrival_ticks.base is None
        assert not qs.arrival_ticks.flags.writeable
        # Counted from the next interval's start: the interval's ticks are -1000..-1.
        assert -1000 <= qs.arrival_ticks[0] <= qs.arrival_ticks[-1] < 0

    @pytest.mark.parametrize("ticks", [[0], [-5, -2, 7], [95, 97, 99]])
    def test_arrival_tick_at_or_after_the_start_rejected(self, ticks):
        # Arrival ticks count from the start of the interval the state
        # carries into, so absolute ticks of an earlier clock are refused.
        with pytest.raises(InternalStateError):
            SliceQueueState(np.array(ticks, dtype=np.int64))


class TestStateEquality:
    @pytest.mark.parametrize("ticks", [[], [-1], [-3, -2, -1]])
    def test_queue_states_compare_by_identity(self, ticks):
        qs = SliceQueueState(np.array(ticks, dtype=np.int64))
        assert qs == qs
        assert qs != SliceQueueState(np.array(ticks, dtype=np.int64))

    def test_states_and_results_compare_without_raising(self):
        # A loaded interval carries a backlog of many packets into the state.
        radio_cfg, queue, channels = make_env()
        res = simulate_interval([30.0, 0.0], [5, 5], channels, radio_cfg, queue, SimState.fresh(2))
        assert len(res.state.queues[0].arrival_ticks) > 1
        same_state = SimState(res.state.tick, list(res.state.queues))
        assert res.state == same_state
        assert res.state != SimState.fresh(2)
        assert res == radio.IntervalResult(res.kpm, same_state, res.accounting)
        assert SimState.fresh(2) != SimState.fresh(2)
