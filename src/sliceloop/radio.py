"""Discrete-time air-interface simulation.

Capacity model: each slice serves one user, whose SINR is the same on
every RB, so the slice's service rate on ``n`` RBs is the Shannon
capacity ``B * (n * log2(1 + SINR))`` (``channel_capacity``).

Queue model: one FIFO per slice, packetised arrivals (fixed packet size),
finite buffer, tick-driven service at the slice's capacity.
Arrivals are deterministic (evenly spaced at the offered rate) so that
every KPM timeline is exactly reproducible; packets arriving to a full
buffer are dropped.  Latency is enqueue-to-dequeue time at tick
granularity, so an unloaded slice reports one tick of transmission delay.

``simulate_interval`` advances the live queues with the scalar per-tick
loop ``_advance_slice``, which also returns the carried FIFO.
Predictions need no new state, only KPMs: ``slice_kpm_table`` steps the
same recursion for every RB count of one slice at once
(``_advance_slice_batch``), bit-identical to the scalar loop, so the
KPMs of any candidate split are a lookup into one table per slice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .core import KpmSample, RadioConfig, SliceKpm, check_counts


@dataclass(frozen=True)
class UeChannelState:
    """The user of one slice: its linear SINR, the same on every RB."""

    ue_id: int
    slice_id: int
    sinr: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.sinr < math.inf:
            raise ValueError(f"SINR must be finite and nonnegative (linear), got {self.sinr}")


@dataclass(frozen=True)
class QueueConfig:
    packet_size_bytes: int = 1500
    buffer_capacity_packets: int = 256
    tick_duration_ms: float = 1.0

    def __post_init__(self) -> None:
        check_counts(self, "packet_size_bytes", "buffer_capacity_packets")
        if not 0 < self.tick_duration_ms < math.inf:
            raise ValueError("tick_duration_ms must be positive and finite")

    @property
    def packet_bits(self) -> int:
        return self.packet_size_bytes * 8


@dataclass(frozen=True)
class StepProfile:
    """Per-slice piecewise-constant offered load.

    ``steps[k]`` is a tuple of ``(start_interval, rate_mbps)`` pairs for
    slice ``k``, with strictly increasing start intervals.
    """

    steps: Tuple[Tuple[Tuple[int, float], ...], ...]

    def __post_init__(self) -> None:
        for slice_steps in self.steps:
            if not slice_steps:
                raise ValueError("each slice needs at least one step")
            starts = [s for s, _ in slice_steps]
            if starts != sorted(set(starts)):
                raise ValueError("step intervals must be strictly increasing")
            if not all(0 <= r < math.inf for _, r in slice_steps):
                raise ValueError("rates must be finite and nonnegative")


def generate_traffic(profile: StepProfile, interval_index: int) -> list[float]:
    """Offered rate per slice (Mbps) at the given interval: the active step."""
    rates = []
    for slice_steps in profile.steps:
        rate = slice_steps[0][1]
        for start, r in slice_steps:
            if interval_index >= start:
                rate = r
        rates.append(rate)
    return rates


def channel_capacity(
    ue: UeChannelState, assigned_rbs: int | np.ndarray, rb_bandwidth_hz: float
) -> float | np.ndarray:
    """Shannon capacity in bits per second over the user's assigned RBs.

    ``assigned_rbs`` is an RB count, giving a float, or an integer array
    of them, giving one capacity per entry with the same float operations.
    """
    if np.min(assigned_rbs) < 0:
        raise ValueError("assigned_rbs must be nonnegative")
    return rb_bandwidth_hz * (assigned_rbs * math.log2(1.0 + ue.sinr))


class InternalStateError(RuntimeError):
    """Carried queue state is inconsistent with the configuration."""


def _slice_ue(channels: Sequence[UeChannelState], slice_id: int) -> UeChannelState:
    """The one user of a slice."""
    ues = [ue for ue in channels if ue.slice_id == slice_id]
    if len(ues) != 1:
        raise InternalStateError(f"slice {slice_id} has {len(ues)} UEs, expected one")
    return ues[0]


@dataclass
class SliceQueueState:
    """FIFO backlog of one slice: absolute arrival tick per queued packet."""

    arrival_ticks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    arrival_carry: float = 0.0
    service_credit: float = 0.0


@dataclass
class SimState:
    """Carried simulation state: global tick counter plus per-slice queues."""

    tick: int
    queues: list[SliceQueueState]

    @classmethod
    def fresh(cls, n_slices: int) -> "SimState":
        return cls(tick=0, queues=[SliceQueueState() for _ in range(n_slices)])


@dataclass(frozen=True)
class SliceAccounting:
    """Exact packet-level books for one slice over one interval."""

    offered_packets: int
    delivered_packets: int
    dropped_packets: int
    queued_before: int
    queued_after: int


@dataclass(frozen=True)
class IntervalResult:
    kpm: KpmSample
    state: SimState
    accounting: Tuple[SliceAccounting, ...]


def _arrivals(
    qs: SliceQueueState, offered_bps: float, n_ticks: int, tick_s: float, packet_bits: int
) -> tuple[np.ndarray, int, float]:
    """Deterministic arrivals per tick, their total and the carry out."""
    r = offered_bps * tick_s / packet_bits  # arrival, packets per tick
    ticks = np.arange(1, n_ticks + 1, dtype=np.float64)
    cum_offered = np.floor(qs.arrival_carry + r * ticks).astype(np.int64)
    offered = int(cum_offered[-1])
    carry_out = qs.arrival_carry + r * n_ticks - offered
    return np.diff(cum_offered, prepend=np.int64(0)), offered, carry_out


def _advance_slice(
    qs: SliceQueueState,
    offered_bps: float,
    service_bps: float,
    n_ticks: int,
    tick_s: float,
    packet_bits: int,
    buffer_cap: int,
    start_tick: int,
) -> tuple[SliceQueueState, SliceAccounting, float, int]:
    """Run one slice's queue over the interval.

    Returns (new state, accounting, mean latency in ticks, delivered).
    Within a tick, arrivals join the queue first and service follows, so
    a packet served in its arrival tick experiences one tick of latency.
    """
    queued_before = len(qs.arrival_ticks)
    if queued_before > buffer_cap:
        raise InternalStateError("queued backlog exceeds buffer capacity")

    arrivals, offered, carry_out = _arrivals(qs, offered_bps, n_ticks, tick_s, packet_bits)
    c = service_bps * tick_s / packet_bits  # service, packets per tick

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

    new_arrivals = np.repeat(start_tick + np.arange(n_ticks, dtype=np.int64), admitted)
    all_arrivals = np.concatenate([qs.arrival_ticks, new_arrivals])
    cum_served = np.cumsum(served)
    delivered = int(cum_served[-1])
    if delivered > 0:
        dep_idx = np.searchsorted(cum_served, np.arange(delivered), side="right")
        latency_ticks = (start_tick + dep_idx) - all_arrivals[:delivered] + 1
        mean_latency_ticks = float(latency_ticks.mean())
    else:
        mean_latency_ticks = 0.0

    new_state = SliceQueueState(
        arrival_ticks=all_arrivals[delivered:],
        arrival_carry=carry_out,
        service_credit=credit,
    )
    acct = SliceAccounting(
        offered_packets=offered,
        delivered_packets=delivered,
        dropped_packets=dropped,
        queued_before=queued_before,
        queued_after=int(q),
    )
    return new_state, acct, mean_latency_ticks, delivered


# Ticks of admitted counts widened to int64 at a time after the loop.
_BLOCK_TICKS = 64


@dataclass(frozen=True)
class SliceBatch:
    """One slice's packet books over one interval, one entry per service rate."""

    offered_packets: int
    delivered_packets: np.ndarray
    dropped_packets: np.ndarray
    queued_after: np.ndarray
    mean_latency_ticks: np.ndarray


def _advance_slice_batch(
    qs: SliceQueueState,
    offered_bps: float,
    service_bps: np.ndarray,
    n_ticks: int,
    tick_s: float,
    packet_bits: int,
    buffer_cap: int,
    start_tick: int,
) -> SliceBatch:
    """``_advance_slice`` for every service rate at once, without the new state.

    Steps the same tick recursion with the same float operations in the
    same order, vectorised across the rates, so every count and latency
    equals the scalar loop's bit for bit.  Mean latency is the exact
    integer sum of departure minus arrival ticks over the first
    ``delivered`` packets in FIFO order, divided by ``delivered``; that
    equals the scalar mean while the sums stay below 2**53.  Besides
    length-M state, only the admitted counts per tick are kept, in the
    smallest integer type that holds one tick's arrivals.
    """
    queued_before = len(qs.arrival_ticks)
    if queued_before > buffer_cap:
        raise InternalStateError("queued backlog exceeds buffer capacity")

    arrivals, offered, _ = _arrivals(qs, offered_bps, n_ticks, tick_s, packet_bits)
    c = np.asarray(service_bps, dtype=np.float64) * tick_s / packet_bits
    m = len(c)

    # Counts are whole numbers held in float64, exact far beyond any
    # buffer, so each tick is a handful of same-dtype ufunc calls.  Rows
    # of `books` are the queue length and the service credit; rows of
    # `step` are this tick's admissions and the per-tick service rate.
    books = np.empty((2, m))
    q, credit = books
    q.fill(queued_before)
    credit.fill(qs.service_credit)
    step = np.empty((2, m))
    adm = step[0]
    step[1] = c
    served = np.empty(m)
    queue_sum = np.zeros(m)  # queue length after service, summed over ticks
    cap = np.full(m, float(buffer_cap))
    admitted = np.empty((n_ticks, m), dtype=np.min_scalar_type(int(arrivals.max())))
    for t, a in enumerate(arrivals.astype(np.float64)):
        np.subtract(cap, q, out=adm)
        np.minimum(adm, a, out=adm)
        books += step  # q += adm; credit += c
        # int(credit) capped by q, as min(credit, q) truncated: q is whole
        np.minimum(credit, q, out=served)
        np.trunc(served, out=served)
        q -= served
        credit -= served
        # credit = 0 where the queue is empty: otherwise q >= 1 > credit
        np.minimum(credit, q, out=credit)
        admitted[t] = adm
        queue_sum += q

    q = q.astype(np.int64)
    admitted_total = admitted.sum(axis=0, dtype=np.int64)
    delivered = queued_before + admitted_total - q
    # The first `delivered` packets in FIFO order are the carried backlog,
    # then the first `new_delivered` admitted ones.  Tick offsets summed
    # over departures follow from the admissions and the queue lengths,
    # as s_t = adm_t + q_{t-1} - q_t:
    # sum(t * s_t) = sum(t * adm_t) + sum(q_t) - n_ticks * q_last.
    new_delivered = np.maximum(delivered - queued_before, 0)
    carried = np.concatenate(([0], np.cumsum(qs.arrival_ticks - start_tick)))
    arrival_sum = carried[np.minimum(delivered, queued_before)]
    new_tick_sum = np.zeros(m, dtype=np.int64)
    before = np.zeros(m, dtype=np.int64)  # admitted before the block
    for lo in range(0, n_ticks, _BLOCK_TICKS):
        block = admitted[lo:lo + _BLOCK_TICKS].astype(np.int64)
        ticks = np.arange(lo, lo + len(block))
        upto = np.cumsum(block, axis=0) + before
        first = np.clip(new_delivered - upto + block, 0, block)
        new_tick_sum += ticks @ block
        arrival_sum += ticks @ first
        before = upto[-1]
    dep_tick_sum = new_tick_sum + queue_sum.astype(np.int64) - n_ticks * q
    latency_sum = dep_tick_sum - arrival_sum + delivered
    mean_latency = np.zeros(m)
    np.divide(latency_sum, delivered, out=mean_latency, where=delivered > 0)
    return SliceBatch(
        offered_packets=offered,
        delivered_packets=delivered,
        dropped_packets=offered - admitted_total,
        queued_after=q,
        mean_latency_ticks=mean_latency,
    )


def _interval_ticks(radio_cfg: RadioConfig, queue_cfg: QueueConfig) -> tuple[float, int, float]:
    """(tick length in s, ticks per monitoring interval, interval length in s).

    The interval must be a whole number of ticks, to a relative 1e-9.
    """
    tick_s = queue_cfg.tick_duration_ms / 1000.0
    n_ticks = round(radio_cfg.monitoring_interval_s / tick_s)
    if n_ticks < 1 or not math.isclose(
        n_ticks * tick_s, radio_cfg.monitoring_interval_s, rel_tol=1e-9
    ):
        raise ValueError(
            f"monitoring_interval_s ({radio_cfg.monitoring_interval_s} s) must be a "
            f"whole number of ticks of tick_duration_ms ({queue_cfg.tick_duration_ms} ms)"
        )
    return tick_s, n_ticks, n_ticks * tick_s


def _slice_kpm(
    offered_mbps: float,
    offered_packets: int,
    delivered: int,
    dropped: int,
    latency_ticks: float,
    queue_cfg: QueueConfig,
    interval_s: float,
) -> SliceKpm:
    """One slice's KPMs from its packet books over one interval."""
    delivered_mbps = delivered * queue_cfg.packet_bits / interval_s / 1e6
    # Backlog drain can push delivered bits past this interval's offered
    # bits; the KPM reports at most the offered rate and the accounting
    # keeps the exact counts.
    throughput = min(delivered_mbps, offered_mbps)
    drop_ratio = dropped / offered_packets if offered_packets else 0.0
    return SliceKpm(
        mean_latency_ms=latency_ticks * queue_cfg.tick_duration_ms,
        mean_throughput_mbps=throughput,
        drop_ratio=drop_ratio,
        offered_load_mbps=offered_mbps,
        delivered_count=delivered,
    )


def simulate_interval(
    offered_mbps: Sequence[float],
    rb_counts: Sequence[int],
    channels: Sequence[UeChannelState],
    radio_cfg: RadioConfig,
    queue_cfg: QueueConfig,
    state: SimState,
    interval_index: int = 0,
) -> IntervalResult:
    """Advance every slice's queue over one monitoring interval.

    The carried ``state`` is not mutated; a new state is returned.  The
    accounting tuple preserves exact packet conservation per slice:
    delivered + dropped + (queued_after - queued_before) == offered.
    """
    n_slices = len(rb_counts)
    if len(offered_mbps) != n_slices or len(state.queues) != n_slices:
        raise InternalStateError("slice counts disagree across inputs")
    if sum(rb_counts) != radio_cfg.total_rbs:
        raise InternalStateError("RB counts must sum to the configured pool")

    tick_s, n_ticks, interval_s = _interval_ticks(radio_cfg, queue_cfg)
    slice_kpms = []
    new_queues = []
    accounting = []
    for k in range(n_slices):
        ue = _slice_ue(channels, k)
        service_bps = channel_capacity(ue, rb_counts[k], radio_cfg.rb_bandwidth_hz)
        new_qs, acct, lat_ticks, delivered = _advance_slice(
            state.queues[k],
            offered_mbps[k] * 1e6,
            service_bps,
            n_ticks,
            tick_s,
            queue_cfg.packet_bits,
            queue_cfg.buffer_capacity_packets,
            state.tick,
        )
        slice_kpms.append(
            _slice_kpm(offered_mbps[k], acct.offered_packets, delivered,
                       acct.dropped_packets, lat_ticks, queue_cfg, interval_s)
        )
        new_queues.append(new_qs)
        accounting.append(acct)

    kpm = KpmSample(interval_index=interval_index, slices=slice_kpms)
    new_state = SimState(tick=state.tick + n_ticks, queues=new_queues)
    return IntervalResult(kpm=kpm, state=new_state, accounting=tuple(accounting))


def slice_kpm_table(
    offered_mbps: float,
    channels: Sequence[UeChannelState],
    radio_cfg: RadioConfig,
    queue_cfg: QueueConfig,
    state: SimState,
    slice_id: int,
    max_rbs: int,
) -> list[SliceKpm]:
    """One slice's KPMs over the next interval for 1..max_rbs RBs.

    Entry ``i`` equals the KPMs ``simulate_interval`` reports for this
    slice from ``state`` with ``i + 1`` RBs, whatever the other slices
    hold, since slices share nothing but the RB total.  All RB counts
    run in one batched queue recursion.
    """
    tick_s, n_ticks, interval_s = _interval_ticks(radio_cfg, queue_cfg)
    ue = _slice_ue(channels, slice_id)
    service_bps = channel_capacity(ue, np.arange(1, max_rbs + 1), radio_cfg.rb_bandwidth_hz)
    batch = _advance_slice_batch(
        state.queues[slice_id],
        offered_mbps * 1e6,
        service_bps,
        n_ticks,
        tick_s,
        queue_cfg.packet_bits,
        queue_cfg.buffer_capacity_packets,
        state.tick,
    )
    return [
        _slice_kpm(offered_mbps, batch.offered_packets, delivered, dropped, lat_ticks,
                   queue_cfg, interval_s)
        for delivered, dropped, lat_ticks in zip(
            batch.delivered_packets.tolist(),
            batch.dropped_packets.tolist(),
            batch.mean_latency_ticks.tolist(),
        )
    ]
