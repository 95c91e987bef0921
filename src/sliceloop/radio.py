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
loop ``_advance_slice``, which also returns the carried FIFO.  The tick
recursion is a discrete Lindley recursion: once the queue is empty and
no later tick brings more packets than one tick serves, every later
tick serves exactly its own arrivals, so the loop fills in the rest of
such a drained stretch at once.
Slices share nothing but the RB total, so one slice's interval depends
on its own inputs alone: with a memo that a sweep owns,
``simulate_interval`` runs the tick loop once per distinct
slice-interval, and one scenario2 sweep, which repeats most of them,
writes byte-identical outputs.
Predictions need no new state, only KPMs: ``slice_kpm_tables`` steps
the same recursion for every RB count of every slice at once, as the
columns of one stacked tick loop (``_advance_slice_batch``),
bit-identical to the scalar loop, so the KPMs of any candidate split
are a lookup into one table per slice.  Both loops take mean latency
from one formula, ``_fifo_latency``: an exact integer sum of departure
minus arrival ticks over the delivered packets, in O(ticks).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .core import RadioConfig, SliceKpm, check_counts, exact_key


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


@dataclass(frozen=True, slots=True)
class SliceAccounting:
    """Exact packet-level books for one slice over one interval."""

    offered_packets: int
    delivered_packets: int
    dropped_packets: int
    queued_before: int
    queued_after: int


@dataclass(frozen=True, slots=True)
class MemoEntry:
    """One slice's simulated interval, as a ``simulate_interval`` memo keeps it.

    ``tail`` is the carried FIFO's arrival ticks minus the interval's
    start tick, read-only.
    """

    kpm: SliceKpm
    accounting: SliceAccounting
    tail: np.ndarray
    arrival_carry: float
    service_credit: float


@dataclass(frozen=True, slots=True)
class IntervalResult:
    kpm: Tuple[SliceKpm, ...]
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

    Once the queue is empty and no later tick brings more packets than
    one tick serves, every later tick serves exactly its own arrivals:
    nothing is dropped, nothing is carried and the credit stays 0.0, so
    the rest of the interval is filled in at once.
    """
    queued_before = len(qs.arrival_ticks)
    if queued_before > buffer_cap:
        raise InternalStateError("queued backlog exceeds buffer capacity")

    arrivals, offered, carry_out = _arrivals(qs, offered_bps, n_ticks, tick_s, packet_bits)
    c = service_bps * tick_s / packet_bits  # service, packets per tick
    # The most packets any tick from the end back brings: from tick
    # `drained_from` on, no tick brings more than one tick serves.
    suffix_max = np.maximum.accumulate(arrivals[::-1])
    drained_from = int(np.count_nonzero(suffix_max > min(int(c), buffer_cap)))

    q = queued_before
    credit = qs.service_credit
    admitted = np.zeros(n_ticks, dtype=np.int64)
    queue_sum = 0  # queue length after service, summed over ticks
    for t in range(n_ticks):
        if q == 0 and t >= drained_from:
            admitted[t:] = arrivals[t:]
            credit = 0.0
            break
        a = int(arrivals[t])
        room = buffer_cap - q
        adm = a if a <= room else room
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
        queue_sum += q

    delivered, latency = _fifo_latency([qs], admitted[:, None], np.array([queue_sum]),
                                       np.array([q]), start_tick)
    delivered = int(delivered[0])
    carried = np.empty(0, dtype=np.int64)
    if q:
        # The undelivered packets: what is left of the carried backlog,
        # then the last admitted ones, copied out of the interval's.
        new_arrivals = np.repeat(start_tick + np.arange(n_ticks, dtype=np.int64), admitted)
        carried = np.concatenate([qs.arrival_ticks[delivered:],
                                  new_arrivals[max(delivered - queued_before, 0):]])
    new_state = SliceQueueState(
        arrival_ticks=carried,
        arrival_carry=carry_out,
        service_credit=credit,
    )
    acct = SliceAccounting(
        offered_packets=offered,
        delivered_packets=delivered,
        dropped_packets=offered + queued_before - delivered - q,
        queued_before=queued_before,
        queued_after=q,
    )
    return new_state, acct, float(latency[0]), delivered


# Ticks widened to all columns at a time: arrivals in the stacked tick
# loop, admitted counts to int64 for latency.  Latency takes more ticks
# at a time while a block stays within _BLOCK_CELLS tick-column cells.
_BLOCK_TICKS = 64
_BLOCK_CELLS = 1 << 13


def _fifo_latency(
    queues: Sequence[SliceQueueState],
    admitted: np.ndarray,
    queue_sum: np.ndarray,
    q: np.ndarray,
    start_tick: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Delivered packets and their mean latency in ticks, per column.

    ``admitted`` holds the admissions per tick (rows) of every column,
    slice-major blocks of equal width, one per carried queue;
    ``queue_sum`` is each column's queue length after service summed
    over the ticks and ``q`` its last.  The delivered packets are the
    first ``delivered`` in FIFO order: the carried backlog, then the
    first admitted ones.  Mean latency is the exact integer sum of
    departure minus arrival ticks, plus one, over them, divided by
    ``delivered`` (0.0 when nothing was delivered): one rounding, which
    equals the mean of the per-packet latencies while the sums stay
    below 2**53.
    """
    n_ticks, width = admitted.shape
    m = width // len(queues)
    queued_before = np.array([len(qs.arrival_ticks) for qs in queues], dtype=np.int64)
    backlog = np.repeat(queued_before, m)
    delivered = backlog + admitted.sum(axis=0, dtype=np.int64) - q
    new_delivered = np.maximum(delivered - backlog, 0)
    arrival_sum = np.empty((len(queues), m), dtype=np.int64)
    for k, qs in enumerate(queues):
        carried = np.concatenate(([0], np.cumsum(qs.arrival_ticks - start_tick)))
        arrival_sum[k] = carried[np.minimum(delivered.reshape(-1, m)[k], queued_before[k])]
    arrival_sum = arrival_sum.reshape(width)
    # Tick offsets summed over departures follow from the admissions and
    # the queue lengths, as s_t = adm_t + q_{t-1} - q_t:
    # sum(t * s_t) = sum(t * adm_t) + sum(q_t) - n_ticks * q_last.
    new_tick_sum = np.zeros(width, dtype=np.int64)
    before = np.zeros(width, dtype=np.int64)  # admitted before the block
    block_ticks = max(_BLOCK_TICKS, _BLOCK_CELLS // width)
    for lo in range(0, n_ticks, block_ticks):
        block = admitted[lo:lo + block_ticks].astype(np.int64, copy=False)
        ticks = np.arange(lo, lo + len(block))
        upto = np.cumsum(block, axis=0) + before
        first = np.clip(new_delivered - upto + block, 0, block)
        new_tick_sum += ticks @ block
        arrival_sum += ticks @ first
        before = upto[-1]
    dep_tick_sum = new_tick_sum + queue_sum - n_ticks * q
    latency_sum = dep_tick_sum - arrival_sum + delivered
    mean_latency = np.zeros(width)
    np.divide(latency_sum, delivered, out=mean_latency, where=delivered > 0)
    return delivered, mean_latency


@dataclass(frozen=True)
class SliceBatch:
    """One slice's packet books over one interval, one entry per service rate."""

    offered_packets: int
    delivered_packets: np.ndarray
    dropped_packets: np.ndarray
    queued_after: np.ndarray
    mean_latency_ticks: np.ndarray


def _advance_slice_batch(
    queues: Sequence[SliceQueueState],
    offered_bps: Sequence[float],
    service_bps: np.ndarray,
    n_ticks: int,
    tick_s: float,
    packet_bits: int,
    buffer_cap: int,
    start_tick: int,
) -> list[SliceBatch]:
    """``_advance_slice`` for every slice and service rate at once, without the new state.

    Row ``k`` of ``service_bps`` holds slice ``k``'s service rates; every
    row has the same length M.  All slices step one tick recursion whose
    columns are slice-major blocks of M, with the scalar loop's float
    operations in its order, so every count equals the scalar loop's bit
    for bit, and latency comes from the same ``_fifo_latency``.  Besides
    per-column state, only the admitted counts per tick are kept, in the
    smallest integer type that holds one tick's arrivals.  Returns one
    ``SliceBatch`` per slice.
    """
    n = len(queues)
    c = np.asarray(service_bps, dtype=np.float64) * tick_s / packet_bits
    if len(offered_bps) != n or len(c) != n:
        raise InternalStateError("slice counts disagree across inputs")
    queued_before = np.array([len(qs.arrival_ticks) for qs in queues], dtype=np.int64)
    if queued_before.max() > buffer_cap:
        raise InternalStateError("queued backlog exceeds buffer capacity")

    per_slice = [_arrivals(qs, bps, n_ticks, tick_s, packet_bits)
                 for qs, bps in zip(queues, offered_bps)]
    arrivals = np.stack([a for a, _, _ in per_slice], axis=1)  # (n_ticks, n)
    offered = np.array([o for _, o, _ in per_slice], dtype=np.int64)
    m = c.shape[1]
    width = n * m

    # Counts are whole numbers held in float64, exact far beyond any
    # buffer, so each tick is a handful of same-dtype ufunc calls.  Rows
    # of `books` are the queue length and the service credit; rows of
    # `step` are this tick's admissions and the per-tick service rate.
    backlog = np.repeat(queued_before, m)
    books = np.empty((2, width))
    q, credit = books
    q[:] = backlog
    credit[:] = np.repeat([qs.service_credit for qs in queues], m)
    step = np.empty((2, width))
    adm = step[0]
    step[1] = c.ravel()
    served = np.empty(width)
    queue_sum = np.zeros(width)  # queue length after service, summed over ticks
    cap = np.full(width, float(buffer_cap))
    admitted = np.empty((n_ticks, width), dtype=np.min_scalar_type(int(arrivals.max())))
    arrivals = arrivals.astype(np.float64)
    for lo in range(0, n_ticks, _BLOCK_TICKS):
        # This block's arrivals, each slice's widened to its M columns.
        for t, a in enumerate(np.repeat(arrivals[lo:lo + _BLOCK_TICKS], m, axis=1), lo):
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
    delivered, mean_latency = _fifo_latency(queues, admitted, queue_sum.astype(np.int64),
                                            q, start_tick)
    dropped = np.repeat(offered, m) + backlog - delivered - q
    rows = zip(*(x.reshape(n, m) for x in (delivered, dropped, q, mean_latency)))
    return [SliceBatch(int(o), *row) for o, row in zip(offered, rows)]


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
    )


def simulate_interval(
    offered_mbps: Sequence[float],
    rb_counts: Sequence[int],
    channels: Sequence[UeChannelState],
    radio_cfg: RadioConfig,
    queue_cfg: QueueConfig,
    state: SimState,
    memo: dict | None = None,
) -> IntervalResult:
    """Advance every slice's queue over one monitoring interval.

    The carried ``state`` is not mutated; a new state is returned.  The
    result holds one ``SliceKpm`` per slice and no interval index: the
    caller knows which interval it ran.  The accounting tuple preserves
    exact packet conservation per slice:
    delivered + dropped + (queued_after - queued_before) == offered.

    ``memo``, a dict that the caller owns, maps each slice-interval
    simulated with it to a ``MemoEntry``.  The key is the exact bits
    (``core.exact_key``) of every value a slice's step and KPMs are
    computed from: its offered rate, its service rate, its carried FIFO
    relative to ``state.tick``, its arrival carry and service credit, and
    the interval's tick count, tick length, packet size and buffer.  A
    slice found in the memo is not simulated again: it gets the stored
    ``SliceKpm`` and ``SliceAccounting`` objects, and a new carried FIFO,
    the stored tail rebased to ``state.tick``.  The step reads arrival
    ticks only relative to the interval's start, so the rebase is exact.
    """
    n_slices = len(rb_counts)
    if len(offered_mbps) != n_slices or len(state.queues) != n_slices:
        raise InternalStateError("slice counts disagree across inputs")
    if sum(rb_counts) != radio_cfg.total_rbs:
        raise InternalStateError("RB counts must sum to the configured pool")

    tick_s, n_ticks, interval_s = _interval_ticks(radio_cfg, queue_cfg)
    packet_bits, buffer_cap = queue_cfg.packet_bits, queue_cfg.buffer_capacity_packets
    interval_key = (n_ticks, exact_key(queue_cfg.tick_duration_ms), packet_bits, buffer_cap)
    slice_kpms = []
    new_queues = []
    accounting = []
    for k in range(n_slices):
        ue = _slice_ue(channels, k)
        service_bps = channel_capacity(ue, rb_counts[k], radio_cfg.rb_bandwidth_hz)
        qs = state.queues[k]
        key = entry = None
        if memo is not None:
            tail = qs.arrival_ticks - state.tick
            key = (exact_key(offered_mbps[k]), exact_key(service_bps), tail.dtype.str,
                   tail.tobytes(), exact_key(qs.arrival_carry), exact_key(qs.service_credit),
                   interval_key)
            entry = memo.get(key)
        if entry is None:
            new_qs, acct, lat_ticks, delivered = _advance_slice(
                qs, offered_mbps[k] * 1e6, service_bps, n_ticks, tick_s,
                packet_bits, buffer_cap, state.tick,
            )
            kpm = _slice_kpm(offered_mbps[k], acct.offered_packets, delivered,
                             acct.dropped_packets, lat_ticks, queue_cfg, interval_s)
            if key is not None:
                tail = new_qs.arrival_ticks - state.tick
                tail.flags.writeable = False
                memo[key] = MemoEntry(kpm, acct, tail, new_qs.arrival_carry,
                                      new_qs.service_credit)
        else:
            kpm, acct = entry.kpm, entry.accounting
            new_qs = SliceQueueState(entry.tail + state.tick, entry.arrival_carry,
                                     entry.service_credit)
        slice_kpms.append(kpm)
        new_queues.append(new_qs)
        accounting.append(acct)

    new_state = SimState(tick=state.tick + n_ticks, queues=new_queues)
    return IntervalResult(tuple(slice_kpms), new_state, tuple(accounting))


def slice_kpm_tables(
    offered_mbps: Sequence[float],
    channels: Sequence[UeChannelState],
    radio_cfg: RadioConfig,
    queue_cfg: QueueConfig,
    state: SimState,
    max_rbs: int,
) -> list[list[SliceKpm]]:
    """Every slice's KPMs over the next interval for 1..max_rbs RBs.

    Entry ``[k][i]`` equals the KPMs ``simulate_interval`` reports for
    slice ``k`` from ``state`` with ``i + 1`` RBs, whatever the other
    slices hold, since slices share nothing but the RB total.  All slices
    and RB counts run in one stacked queue recursion.  Raises
    ``InternalStateError`` unless there is one offered rate per carried
    queue.
    """
    tick_s, n_ticks, interval_s = _interval_ticks(radio_cfg, queue_cfg)
    rbs = np.arange(1, max_rbs + 1)
    service_bps = np.array([
        channel_capacity(_slice_ue(channels, k), rbs, radio_cfg.rb_bandwidth_hz)
        for k in range(len(state.queues))
    ])
    batches = _advance_slice_batch(
        state.queues,
        [mbps * 1e6 for mbps in offered_mbps],
        service_bps,
        n_ticks,
        tick_s,
        queue_cfg.packet_bits,
        queue_cfg.buffer_capacity_packets,
        state.tick,
    )
    return [
        [
            _slice_kpm(mbps, batch.offered_packets, delivered, dropped, lat_ticks,
                       queue_cfg, interval_s)
            for delivered, dropped, lat_ticks in zip(
                batch.delivered_packets.tolist(),
                batch.dropped_packets.tolist(),
                batch.mean_latency_ticks.tolist(),
            )
        ]
        for mbps, batch in zip(offered_mbps, batches)
    ]
