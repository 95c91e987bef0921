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

Carried state is position-free: a carried packet's arrival tick counts
from the start of the interval that the state carries into, so it is
negative, and nothing a slice-interval reads says when it runs.
``simulate_interval`` advances the live queues with ``_advance_slice``,
which also returns the carried FIFO, its ticks shifted once to the next
interval's start.  It steps an interval in one closed-form stretch,
then the per-tick loop, each bit-identical to stepping every tick, so
any split of the interval between them is exact.  While the queue stays
non-empty, the service credit follows a free path (``_credit_path``):
each tick adds the service rate c and serves the whole part.  Each sum
``credit + c`` is below c + 1, so when c and the credit are multiples of
w, the ulp of the binade that sum can reach, every sum is exact and the
credit after j ticks is exactly frac(x + j*c): in units of w, the low
bits of one uint64 pass over j, exact modulo 2**64, and a tick serves
one packet more exactly where those bits wrap.  For c >= 1 that holds
after one tick whenever c + 1 <= 2**(e+1), with 2**e <= c, where
w = ulp(c); other paths repeat the float operations in sequence.  Only
each tick's potential service and the last credit are kept.  Given the
potentials, the buffer-capped queue is a min-plus formula, one
cumulative sum and one running minimum, up to the first tick that
empties it, which resets the credit to 0.0: that is the stretch.  The
per-tick loop finishes the interval.  In it, a tick that starts with
q = 0 and credit 0.0 depends on the arrivals ahead alone: once such an
empty tick recurs at the phase t mod P of an earlier one, for an arrival
period P checked exactly, the ticks between them repeat, so every whole
cycle left is filled in at once and the last partial one stepped.  Once
the queue is empty and no later tick brings more packets than one tick
serves (a drained stretch of this discrete Lindley recursion), every
later tick serves exactly its own arrivals, so the rest is filled in at
once.
Slices share nothing but the RB total, so one slice's interval depends
on its own inputs alone: with a memo that a sweep owns,
``simulate_interval`` runs the tick loop once per distinct
slice-interval and hands back the stored, immutable result on every
repeat, and one scenario2 sweep, which repeats most of them, writes
byte-identical outputs.
Predictions need no new state, only KPMs: ``slice_kpm_tables`` steps
the same recursion for every RB count of every slice at once, as the
columns of one stacked tick loop (``_advance_slice_batch``),
bit-identical to the scalar loop, so the KPMs of any candidate split
are a lookup into one table per slice.  Each table holds arrays over the
RB counts (``SliceKpmTable``), and no per-entry object is built.  One
function, ``_kpm_fields``, turns packet books into KPMs for both loops:
the live step's one book as Python numbers and a table's as arrays,
with the same float operations entry by entry.  A column steps alike
beside any others, so with a sweep's memo, keyed as ``simulate_interval``'s,
each distinct slice input's table is built once.  The stacked loop serves
with the identity m = min(credit, q), served = trunc(m),
credit <- m - served, for the queue q after admissions: where the queue
empties m = q and the credit is 0.0; elsewhere q is whole and above the
credit, so m is the credit and the float operations are the scalar
loop's.  Both loops take mean latency
from one identity over cumulative admissions, the area between a FIFO's
arrival and departure curves (Le Boudec and Thiran, *Network Calculus*,
Springer 2001).  For a column over n ticks, let C_t be the admissions
up to tick t, A = C_{n-1}, b the carried backlog, q the end queue,
D = b + A - q the delivered packets and N = max(D - b, 0) the delivered
new ones.  In ticks from the interval's start, as the carried FIFO
counts them, the departures sum to n*A - sum_t C_t + sum_t q_t - n*q,
as tick t serves adm_t + q_{t-1} - q_t, and the N new ones arrived at
ticks summing to sum_t max(N - C_t, 0).  The difference is
n*(A - q) + sum_t q_t - sum_t max(C_t, N), where the last sum is
T*N + sum_{t>=T} C_t with T the first tick where C_t >= N.  The carried
ones delivered are the FIFO's first min(D, b).  Mean latency is
(departures - arrivals + D) / D, 0.0 when D = 0: one exact integer sum
and one rounding.  ``_column_latency`` takes one column's sum with a
``searchsorted`` for T and Python ints, and builds the carried FIFO from
tick T on.  ``_fifo_latency`` writes it as n*N + K + sum_t max(K - R_t, 0),
with K = A - N the new packets carried out and R_t the admissions from
tick t to the end: only the ticks back to the first carried packet's
arrival count, so it walks the stacked columns from the interval's end
and a column whose queue drained costs nothing.  Both divide in
float64, so they give the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Sequence, Tuple

import numpy as np

from .core import RadioConfig, SliceKpm, check_counts, check_range, exact_key


@dataclass(frozen=True)
class UeChannelState:
    """The user of one slice: its linear SINR, the same on every RB."""

    ue_id: int
    slice_id: int
    sinr: float

    def __post_init__(self) -> None:
        check_range("sinr", self.sinr, "nonnegative")


@dataclass(frozen=True)
class QueueConfig:
    packet_size_bytes: int = 1500
    buffer_capacity_packets: int = 256
    tick_duration_ms: float = 1.0

    def __post_init__(self) -> None:
        check_counts(self, "packet_size_bytes", "buffer_capacity_packets")
        check_range("tick_duration_ms", self.tick_duration_ms, "positive")

    @property
    def packet_bits(self) -> int:
        return self.packet_size_bytes * 8


@dataclass(frozen=True)
class StepProfile:
    """Per-slice piecewise-constant offered load.

    ``steps[k]`` is a tuple of ``(start_interval, rate_mbps)`` pairs for
    slice ``k``, with strictly increasing, whole start intervals.
    """

    steps: Tuple[Tuple[Tuple[int, float], ...], ...]

    def __post_init__(self) -> None:
        for slice_steps in self.steps:
            if not slice_steps:
                raise ValueError("each slice needs at least one step")
            starts = [s for s, _ in slice_steps]
            for start in starts:
                if isinstance(start, float) and not start.is_integer():
                    raise ValueError(f"step intervals must be whole numbers, got {start!r}")
            if starts != sorted(set(starts)):
                raise ValueError("step intervals must be strictly increasing")
            for _, rate in slice_steps:
                check_range("steps rates", rate, "nonnegative")


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
    if (assigned_rbs.min() if isinstance(assigned_rbs, np.ndarray) else assigned_rbs) < 0:
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


@dataclass(frozen=True, eq=False)
class SliceQueueState:
    """FIFO backlog of one slice, position-free.

    ``arrival_ticks`` holds the queued packets' arrival ticks in arrival
    order, counted from the start of the interval that the state carries
    into, so every one is negative; the array is made read-only.  A last
    tick >= 0 raises ``InternalStateError``.  States compare by identity:
    a memo hit hands back the stored state itself.
    """

    arrival_ticks: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    arrival_carry: float = 0.0
    service_credit: float = 0.0

    def __post_init__(self) -> None:
        fifo = self.arrival_ticks
        fifo.setflags(write=False)
        if fifo.size and fifo.item(-1) >= 0:
            raise InternalStateError("carried arrival ticks must precede the interval's start")


@dataclass
class SimState:
    """Carried simulation state: the interval clock, which no step reads, plus per-slice queues."""

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
class IntervalResult:
    kpm: Tuple[SliceKpm, ...]
    state: SimState
    accounting: Tuple[SliceAccounting, ...]


# Bound on an interval's offered packets, and on the int64 sums of a
# stretch: offered packets plus a buffer's worth per tick, with room to
# spare for the differences taken of them.
_INT64_SUMS = 1 << 62


def arrival_rate(offered_bps: float, n_ticks: int, tick_s: float, packet_bits: int,
                 carry: float = 1.0) -> tuple[float, float]:
    """Packets a tick at ``offered_bps``, and ``carry`` plus ``n_ticks`` of them.

    The sum is an interval's cumulative arrivals before rounding down; the
    default carry is above any that a queue carries, so it bounds every
    interval at this rate.  Raises ValueError, naming the rate, unless the
    sum is below ``_INT64_SUMS``, as the int64 arrival counts need.
    """
    r = offered_bps * tick_s / packet_bits
    total = carry + r * n_ticks
    if not total < _INT64_SUMS:
        raise ValueError(f"offered_mbps {offered_bps / 1e6:g} brings {total:.4g} packets in "
                         f"an interval of {n_ticks} ticks; it must bring fewer than 2**62")
    return r, total


def _arrivals(
    qs: SliceQueueState, offered_bps: float, n_ticks: int, tick_s: float, packet_bits: int
) -> tuple[np.ndarray, int, float]:
    """Deterministic arrivals per tick, their total and the carry out."""
    r, total = arrival_rate(offered_bps, n_ticks, tick_s, packet_bits, qs.arrival_carry)
    ticks = np.arange(1, n_ticks + 1, dtype=np.float64)
    cum_offered = np.floor(qs.arrival_carry + r * ticks).astype(np.int64)
    offered = int(cum_offered[-1])
    carry_out = total - offered
    arrivals = cum_offered.copy()
    arrivals[1:] -= cum_offered[:-1]
    return arrivals, offered, carry_out


def _credit_path(x: float, c: float, k: int) -> tuple[np.ndarray, float]:
    """Each of ``k`` ticks' potential service from credit ``x``, and the credit after the last.

    Tick j's potential service is ``sigma_j = int(x_{j-1} + c)`` and its
    credit ``x_j = x_{j-1} + c - sigma_j``, with the tick loop's float
    operations: the path of a queue that never empties.  Returns the
    potentials, an int64 array of length ``k``, and ``x_k``; ``c`` is
    below 2**62.

    Closed form: write 2**e <= c < 2**(e+1) and u = ulp(c).  Each sum
    ``x + c`` lies below c + 1, so its ulp is at most w = 2**-shift: u
    when c + 1 <= 2**(e+1), 2u when c >= 1 and c + 1 is more, and
    ulp(1.0) when c < 1, where every sum is below 2.  The first sum is at
    least c, so for c >= 1 it and the credit it leaves are multiples of
    u.  When c and that credit x_1 are multiples of w and w <= 1, every
    later sum is a multiple of w below the next power of two up, so it
    is exact, and x_{j+1} is exactly frac(x_1 + j*c): with c = N + F*w,
    the low ``shift`` bits of x_1/w + j*F, units of w that uint64
    arithmetic keeps exact modulo 2**64 however large j*F grows.  Tick
    j + 1 carries a whole packet out of those bits, and so serves N + 1,
    exactly where they fall below F.  Otherwise the float operations run
    in sequence.
    """
    first = x + c
    x = first - int(first)
    top = math.frexp(c)[1]  # c < 2**top
    shift = 52 if c < 1.0 else 53 - top - (c > 2.0 ** top - 1.0)  # w is 2**-shift
    units_c, units_x = math.ldexp(c, shift), math.ldexp(x, shift)
    if shift < 0 or not (units_c.is_integer() and units_x.is_integer()):
        path = np.fromiter(accumulate(repeat(c, k - 1), _credit_step, initial=x),
                           dtype=np.float64, count=k)
        # Truncation: int() of each nonnegative sum.
        return np.concatenate(([first], path[:-1] + c)).astype(np.int64), path.item(-1)
    n, f = divmod(int(units_c), 1 << shift)
    units = (np.arange(k, dtype=np.uint64) * f + int(units_x)) & ((1 << shift) - 1)
    sigma = np.add(units < f, n, dtype=np.int64)
    sigma[0] = int(first)
    return sigma, math.ldexp(int(units[-1]), -shift)


def _credit_step(x: float, c: float) -> float:
    """One tick's credit, ``x + c - int(x + c)`` for nonnegative x and c."""
    return (x + c) % 1.0


def _stretch(
    arrivals: np.ndarray,
    admitted: np.ndarray,
    q: int,
    credit: float,
    c: float,
    buffer_cap: int,
) -> tuple[int, int, float, int]:
    """Step the queue from the interval's start through the first tick that empties it.

    Fills ``admitted`` over those ticks and returns (ticks stepped, queue
    length, credit, queue length after service summed over the ticks).
    While the queue stays non-empty no service is capped and the credit
    follows ``_credit_path``, so with sigma the potentials the queue
    obeys q_t = min(q_{t-1} + a_t, cap) - sigma_t, which unrolls to
    q_t = S_t + min(q_0, min_{j<=t}(cap - sigma_j - S_j)) with S_t the
    sum of a_i - sigma_i over i <= t.  The first tick where that is not
    positive serves its whole queue and resets the credit to 0.0.
    """
    sigma, credit_end = _credit_path(credit, c, len(arrivals))
    s = np.cumsum(arrivals - sigma)
    bound = buffer_cap - sigma - s
    np.minimum.accumulate(bound, out=bound)
    np.minimum(bound, q, out=bound)
    queue = np.add(s, bound, out=s)
    empty = queue <= 0
    ticks = int(empty.argmax()) + 1
    if empty[ticks - 1]:
        queue[ticks - 1] = 0
        q_end, credit_end = 0, 0.0
    else:
        ticks = len(arrivals)
        q_end = int(queue[-1])
    # Each tick admits min(a_t, cap - q_{t-1}).
    room = np.empty(ticks, dtype=np.int64)
    room[0] = q
    room[1:] = queue[:ticks - 1]
    np.subtract(buffer_cap, room, out=room)
    np.minimum(arrivals[:ticks], room, out=admitted[:ticks])
    return ticks, q_end, credit_end, int(queue[:ticks].sum())


def _arrival_period(arrivals: np.ndarray, t: int, rate: float) -> int:
    """The P <= 64 whose multiple of the per-tick ``rate`` lies nearest a whole
    number, if ``arrivals`` repeat with period P from tick ``t`` on, else -1."""
    multiples = rate * np.arange(1, 65)
    p = int(np.abs(multiples - np.rint(multiples)).argmin()) + 1
    return p if np.array_equal(arrivals[t + p:], arrivals[t:-p]) else -1


def _advance_slice(
    qs: SliceQueueState,
    offered_bps: float,
    service_bps: float,
    n_ticks: int,
    tick_s: float,
    packet_bits: int,
    buffer_cap: int,
) -> tuple[SliceQueueState, SliceAccounting, float]:
    """Run one slice's queue over the interval.

    Returns (new state, accounting, mean latency in ticks).
    Within a tick, arrivals join the queue first and service follows, so
    a packet served in its arrival tick experiences one tick of latency.

    The interval is stepped in one closed-form stretch (``_stretch``),
    from the carried queue through the first tick that empties it, in a
    few numpy calls, taken when the queue starts non-empty or some tick
    brings more packets than one tick serves.  The per-tick loop
    finishes the interval.  Once the queue is empty and no later tick
    brings more packets than one tick serves, every later tick serves
    exactly its own arrivals: nothing is dropped, nothing is carried and
    the credit stays 0.0, so the rest of the interval is filled in at
    once.  A queue that keeps emptying is stepped tick by tick, and the
    whole cycles left are tiled once an empty tick repeats its phase.
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
    t = 0
    # With int(c) >= buffer_cap every tick empties the queue; the int64
    # sums of a stretch must hold every tick's arrivals and service.
    if ((q or drained_from) and c < buffer_cap
            and offered + (n_ticks + 2) * buffer_cap < _INT64_SUMS):
        t, q, credit, queue_sum = _stretch(arrivals, admitted, q, credit, c, buffer_cap)
    # The per-tick loop.  From its second empty tick on, `phases` maps t mod
    # P, for an arrival period P, to the first empty tick and queue sum at
    # that phase; `period` is 0 before the look, -1 after a failed look or a jump.
    empties, period, phases = 0, 0, {}
    while t < n_ticks:
        t0, tail = t, []  # this pass's admissions
        for t, a in enumerate(arrivals[t0:].tolist(), t0):
            if q == 0:
                if t >= drained_from:
                    admitted[t:] = arrivals[t:]
                    t, credit = n_ticks, 0.0
                    break
                if credit == 0.0 and period >= 0:
                    empties += 1
                    if empties == 2:
                        period = _arrival_period(arrivals, t, offered_bps * tick_s / packet_bits)
                    if period > 0:
                        first = phases.setdefault(t % period, (t, queue_sum))
                        if first[0] < t:
                            break
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
            tail.append(adm)
            queue_sum += q
        else:
            t = n_ticks
        admitted[t0:t0 + len(tail)] = tail
        if t < n_ticks:  # ticks first[0] .. t - 1 repeat: tile every whole cycle left
            (t1, sum1), length = first, t - first[0]
            cycles = (n_ticks - t) // length
            admitted[t:t + cycles * length].reshape(cycles, length)[:] = admitted[t1:t]
            queue_sum += cycles * (queue_sum - sum1)
            t, period = t + cycles * length, -1

    delivered, latency, carried = _column_latency(qs, admitted, queue_sum, q)
    acct = SliceAccounting(
        offered_packets=offered,
        delivered_packets=delivered,
        dropped_packets=offered + queued_before - delivered - q,
        queued_before=queued_before,
        queued_after=q,
    )
    return SliceQueueState(carried, carry_out, credit), acct, latency


# Ticks widened to all columns at a time: arrivals in the stacked tick
# loop, and the first block of a latency tail, which doubles from there.
_BLOCK_TICKS = 64


def _fifo_latency(
    queues: Sequence[SliceQueueState],
    admitted: np.ndarray,
    queue_sum: np.ndarray,
    q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Delivered packets and their mean latency in ticks, per column.

    ``admitted`` holds the admissions per tick (rows) of every column,
    slice-major blocks of equal width, one per carried queue;
    ``queue_sum`` is each column's queue length after service summed
    over the ticks and ``q`` its last.  The module docstring's identity
    in int64, with the tail sum sum_t max(K - R_t, 0) walked from the
    interval's end in blocks that double in size: a column leaves once K
    admissions lie behind it, and one that carries no new packet never
    enters.
    """
    n_ticks, width = admitted.shape
    m = width // len(queues)
    queued_before = np.array([len(qs.arrival_ticks) for qs in queues], dtype=np.int64)
    backlog = np.repeat(queued_before, m)
    total = admitted.sum(axis=0, dtype=np.int64)
    delivered = backlog + total - q
    new_delivered = np.maximum(delivered - backlog, 0)
    arrival_sum = np.empty((len(queues), m), dtype=np.int64)
    for k, qs in enumerate(queues):
        carried = np.concatenate(([0], np.cumsum(qs.arrival_ticks)))
        arrival_sum[k] = carried[np.minimum(delivered.reshape(-1, m)[k], queued_before[k])]
    arrival_sum = arrival_sum.reshape(width)
    carried_new = total - new_delivered
    tail_sum = carried_new.copy()  # K + sum_t max(K - R_t, 0)
    live = np.flatnonzero(carried_new)  # columns whose tail goes on
    short = carried_new[live]  # K - R_hi
    hi, block_ticks = n_ticks, _BLOCK_TICKS
    while live.size and hi:
        lo = max(hi - block_ticks, 0)
        # K - R_t for t from hi - 1 down to lo.
        short = short - np.cumsum(admitted[lo:hi, live][::-1], axis=0, dtype=np.int64)
        tail_sum[live] += np.maximum(short, 0, out=short).sum(axis=0)
        on = short[-1] > 0
        live, short = live[on], short[-1, on]
        hi, block_ticks = lo, 2 * block_ticks
    latency_sum = (n_ticks * (total - q - new_delivered) + queue_sum - tail_sum - arrival_sum
                   + delivered)
    mean_latency = np.zeros(width)
    np.divide(latency_sum, delivered, out=mean_latency, where=delivered > 0)
    return delivered, mean_latency


def _column_latency(qs: SliceQueueState, admitted: np.ndarray, queue_sum: int,
                    q: int) -> tuple[int, float, np.ndarray]:
    """``_fifo_latency`` of one column, as (delivered, mean latency in ticks, carried FIFO).

    The carried FIFO holds the undelivered packets' arrival ticks,
    counted from the next interval's start: what is left of the carried
    backlog, then the new packets from the cut tick T on, less the first
    N - C_{T-1} of them, which were delivered.
    """
    n_ticks, backlog = len(admitted), len(qs.arrival_ticks)
    cum = admitted.cumsum()
    total = int(cum[-1])
    delivered = backlog + total - q
    new, carried = max(delivered - backlog, 0), min(delivered, backlog)
    cut = int(cum.searchsorted(new))
    arrival_sum = int(qs.arrival_ticks[:carried].sum()) if carried else 0
    # Rounded to float64 before dividing, as numpy divides int64 arrays.
    latency_sum = (n_ticks * (total - q) + queue_sum - cut * new - int(cum[cut:].sum())
                   - arrival_sum + delivered)
    fifo = np.empty(0, dtype=np.int64)
    if q:
        ticks = np.arange(cut - n_ticks, 0, dtype=np.int64)
        new_fifo = np.repeat(ticks, admitted[cut:])[new - (int(cum[cut - 1]) if cut else 0):]
        fifo = np.concatenate([qs.arrival_ticks[delivered:] - n_ticks, new_fifo])
    return delivered, float(latency_sum) / float(delivered) if delivered else 0.0, fifo


def _advance_slice_batch(
    queues: Sequence[SliceQueueState],
    offered_bps: Sequence[float],
    service_bps: np.ndarray,
    n_ticks: int,
    tick_s: float,
    packet_bits: int,
    buffer_cap: int,
) -> tuple[np.ndarray, ...]:
    """``_advance_slice`` for every slice and service rate at once, without the new state.

    Row ``k`` of ``service_bps`` holds slice ``k``'s service rates; every
    row has the same length M.  All slices step one tick recursion whose
    columns are slice-major blocks of M, with the scalar loop's float
    operations in its order, so every count equals the scalar loop's bit
    for bit, and latency comes from the same ``_fifo_latency``.  Besides
    per-column state, only the admitted counts per tick are kept, in the
    smallest integer type that holds one tick's arrivals.  Returns the
    packet books: each slice's offered packets, shape (n,), then the
    delivered, dropped and queued-after packets and the mean latency in
    ticks, each of shape (n, M) in the order of ``service_bps``.
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
            # int(credit) capped by q is trunc(m), m = min(credit, q) as q
            # is whole, and the credit left is m - trunc(m): 0.0 where the
            # queue empties, as m = q there, and otherwise the scalar loop's.
            np.minimum(credit, q, out=credit)
            np.trunc(credit, out=served)
            q -= served
            credit -= served
            admitted[t] = adm
            queue_sum += q

    q = q.astype(np.int64)
    delivered, mean_latency = _fifo_latency(queues, admitted, queue_sum.astype(np.int64), q)
    dropped = np.repeat(offered, m) + backlog - delivered - q
    return offered, *(x.reshape(n, m) for x in (delivered, dropped, q, mean_latency))


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


def _kpm_fields(offered_mbps, offered_packets, delivered, dropped, latency_ticks,
                queue_cfg: QueueConfig, interval_s: float) -> tuple:
    """Latency (ms), throughput and drop ratio from one interval's packet books.

    Python numbers for one book, or numpy arrays for a table, entry by
    entry with the same float operations: each count meets a float
    before any other operation, so a Python int and an int64 entry
    round alike and no product wraps.  The throughput is an ``np.float64``
    for one book.
    """
    delivered_mbps = delivered * float(queue_cfg.packet_bits) / interval_s / 1e6
    # Backlog drain can push delivered bits past this interval's offered
    # bits; the KPM reports at most the offered rate, and the accounting
    # keeps the exact counts.  np.minimum gives its second argument on ties.
    throughput = np.minimum(offered_mbps, delivered_mbps)
    # Nothing is dropped where nothing is offered.
    drop_ratio = dropped * 1.0 / (offered_packets + (offered_packets == 0))
    return latency_ticks * queue_cfg.tick_duration_ms, throughput, drop_ratio


def _slice_key(offered_mbps: float, service: object, qs: SliceQueueState,
               interval: tuple) -> tuple:
    """A memo key: the exact bits (``core.exact_key``) of a slice's offered rate, its
    ``service`` (the bits of its service rate or rates), its carried queue and the
    ``_interval_key``.  Carried state is position-free, so no clock is among them."""
    fifo = qs.arrival_ticks
    return (exact_key(offered_mbps), service, fifo.dtype.str, fifo.tobytes(),
            exact_key(qs.arrival_carry), exact_key(qs.service_credit), interval)


def _interval_key(n_ticks: int, queue_cfg: QueueConfig) -> tuple:
    """The interval's tick count, tick length, packet size and buffer, as exact bits."""
    return (n_ticks, exact_key(queue_cfg.tick_duration_ms), queue_cfg.packet_bits,
            queue_cfg.buffer_capacity_packets)


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
    simulated with it to its (``SliceKpm``, ``SliceAccounting``, carried
    ``SliceQueueState``), keyed by ``_slice_key`` with the slice's
    service rate.  A slice found in the memo is not simulated again: it
    gets the stored objects themselves, whose FIFO is read-only.
    """
    n_slices = len(rb_counts)
    if len(offered_mbps) != n_slices or len(state.queues) != n_slices:
        raise InternalStateError("slice counts disagree across inputs")
    if sum(rb_counts) != radio_cfg.total_rbs:
        raise InternalStateError("RB counts must sum to the configured pool")

    tick_s, n_ticks, interval_s = _interval_ticks(radio_cfg, queue_cfg)
    packet_bits, buffer_cap = queue_cfg.packet_bits, queue_cfg.buffer_capacity_packets
    interval_key = _interval_key(n_ticks, queue_cfg)
    results = []  # (KPMs, accounting, carried queue) per slice
    for k in range(n_slices):
        ue = _slice_ue(channels, k)
        # A Python float for any integer type of RB count: the same bits and memo key.
        service_bps = float(channel_capacity(ue, rb_counts[k], radio_cfg.rb_bandwidth_hz))
        qs = state.queues[k]
        key = result = None
        if memo is not None:
            key = _slice_key(offered_mbps[k], exact_key(service_bps), qs, interval_key)
            result = memo.get(key)
        if result is None:
            new_qs, acct, lat_ticks = _advance_slice(
                qs, offered_mbps[k] * 1e6, service_bps, n_ticks, tick_s, packet_bits, buffer_cap)
            latency, throughput, drop_ratio = _kpm_fields(
                offered_mbps[k], acct.offered_packets, acct.delivered_packets,
                acct.dropped_packets, lat_ticks, queue_cfg, interval_s)
            kpm = SliceKpm(latency, float(throughput), drop_ratio, offered_mbps[k])
            result = kpm, acct, new_qs
            if key is not None:
                memo[key] = result
        results.append(result)

    kpms, accounting, queues = zip(*results)
    return IntervalResult(kpms, SimState(state.tick + n_ticks, list(queues)), accounting)


@dataclass(frozen=True)
class SliceKpmTable:
    """One slice's KPMs over one interval, one entry per RB count 1..M.

    The fields of ``core.SliceKpm``: latency (ms), throughput and drop
    ratio as read-only float64 arrays, the offered load as the one rate.
    """

    mean_latency_ms: np.ndarray
    mean_throughput_mbps: np.ndarray
    drop_ratio: np.ndarray
    offered_load_mbps: float

    def __post_init__(self) -> None:
        for values in (self.mean_latency_ms, self.mean_throughput_mbps, self.drop_ratio):
            values.setflags(write=False)

    def kpm(self, rbs: int) -> SliceKpm:
        """The ``SliceKpm`` of ``rbs`` RBs, its fields Python floats."""
        i = rbs - 1
        return SliceKpm(self.mean_latency_ms.item(i), self.mean_throughput_mbps.item(i),
                        self.drop_ratio.item(i), self.offered_load_mbps)


def slice_kpm_tables(
    offered_mbps: Sequence[float],
    channels: Sequence[UeChannelState],
    radio_cfg: RadioConfig,
    queue_cfg: QueueConfig,
    state: SimState,
    max_rbs: int,
    memo: dict | None = None,
) -> list[SliceKpmTable]:
    """Every slice's KPMs over the next interval for 1..max_rbs RBs.

    Entry ``i`` of table ``k`` equals the KPMs ``simulate_interval``
    reports for slice ``k`` from ``state`` with ``i + 1`` RBs, whatever
    the other slices hold, since slices share nothing but the RB total:
    all slices and RB counts run in one stacked queue recursion, and
    ``_kpm_fields``, the one formula that also serves the live step's
    book, turns its packet books into every field at once.
    ``memo``, a dict that the caller owns, maps ``_slice_key`` of a slice
    and its row of ``max_rbs`` service rates to its table: only slices not
    found there are stacked, and each gets the stored table itself.
    Raises ``InternalStateError`` unless there is one offered rate per
    carried queue.
    """
    if len(offered_mbps) != len(state.queues):
        raise InternalStateError("slice counts disagree across inputs")
    tick_s, n_ticks, interval_s = _interval_ticks(radio_cfg, queue_cfg)
    rbs = np.arange(1, max_rbs + 1)
    service_bps = np.array([
        channel_capacity(_slice_ue(channels, k), rbs, radio_cfg.rb_bandwidth_hz)
        for k in range(len(state.queues))
    ])
    if memo is None:  # one table per slice, shared with no other
        memo, keys = {}, range(len(state.queues))
    else:
        keys = [_slice_key(mbps, row.tobytes(), qs, _interval_key(n_ticks, queue_cfg))
                for mbps, row, qs in zip(offered_mbps, service_bps, state.queues)]
    missed = [k for k, key in enumerate(keys) if key not in memo]
    if missed:
        mbps = [offered_mbps[k] for k in missed]
        offered, delivered, dropped, _, latency_ticks = _advance_slice_batch(
            [state.queues[k] for k in missed], [x * 1e6 for x in mbps], service_bps[missed],
            n_ticks, tick_s, queue_cfg.packet_bits, queue_cfg.buffer_capacity_packets)
        fields = _kpm_fields(np.array(mbps, dtype=np.float64)[:, None], offered[:, None],
                             delivered, dropped, latency_ticks, queue_cfg, interval_s)
        for i, k in enumerate(missed):
            memo[keys[k]] = SliceKpmTable(*(x[i] for x in fields), mbps[i])
    return [memo[key] for key in keys]
