"""Shared domain types for the slice resource-control loop.

Everything here is an immutable value object; construction validates the
invariants once and the rest of the package can rely on them.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

SUM_TOLERANCE = 1e-9


class SliceKind(enum.Enum):
    LATENCY = "latency_constrained"
    THROUGHPUT = "throughput_constrained"


class InfeasibleAllocationError(ValueError):
    """The RB pool cannot give every slice its minimum of one RB."""


def check_counts(config, *names: str) -> None:
    """Raise ValueError, naming the field, unless each is an int >= 1 (not a bool)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


@dataclass(frozen=True)
class SliceSpec:
    """Identity and SLA contract of one slice.

    ``sla_target`` is milliseconds for latency-constrained slices and
    Mbps for throughput-constrained ones.  ``shape_a`` / ``shape_b``
    steer the sigmoid risk mapping; a negative ``shape_a`` makes risk
    grow as the measurement falls below the target, which is the
    required convention for throughput slices.
    """

    slice_id: int
    kind: SliceKind
    sla_target: float
    weight: float
    shape_a: float
    shape_b: float

    def __post_init__(self) -> None:
        if self.sla_target <= 0:
            raise ValueError(f"sla_target must be > 0, got {self.sla_target}")
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")
        if self.shape_a == 0:
            raise ValueError("shape_a must be nonzero (zero slope makes risk constant)")


@dataclass(frozen=True)
class RadioConfig:
    """Static radio and control-loop parameters.

    Defaults are conventional 5G numerology choices, not measured values;
    every experiment config can override them.
    """

    total_rbs: int = 106
    rb_bandwidth_hz: float = 180_000.0
    monitoring_interval_s: float = 1.0
    wait_period_s: float = 5.0
    violation_threshold: float = 0.7

    def __post_init__(self) -> None:
        check_counts(self, "total_rbs")
        if self.rb_bandwidth_hz <= 0:
            raise ValueError("rb_bandwidth_hz must be positive")
        if not 0 < self.monitoring_interval_s < math.inf:
            raise ValueError("monitoring_interval_s must be positive and finite")
        if self.wait_period_s < 0:
            raise ValueError("wait_period_s must be nonnegative")
        if not 0.0 < self.violation_threshold < 1.0:
            raise ValueError("violation_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class AllocationRatio:
    """Per-slice fractional share of the RB pool.

    Shares are validated, never silently repaired: a malformed decision
    is an error here, and any repair policy (renormalisation of slightly
    off LLM output) lives in the response parser.
    """

    shares: Tuple[float, ...]

    def __init__(self, shares: Sequence[float]) -> None:
        object.__setattr__(self, "shares", tuple(float(s) for s in shares))
        if not self.shares:
            raise ValueError("shares must be nonempty")
        for s in self.shares:
            if not 0.0 <= s <= 1.0 or math.isnan(s):
                raise ValueError(f"share {s} outside [0, 1]")
        if abs(sum(self.shares) - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"shares sum to {sum(self.shares)}, expected 1.0")

    def __len__(self) -> int:
        return len(self.shares)


@dataclass(frozen=True)
class SliceKpm:
    """One slice's measured KPMs over a monitoring interval.

    ``latency_ms`` is 0.0 when nothing was delivered; ``delivered_count``
    lets consumers tell "no data" apart from "fast".
    """

    mean_latency_ms: float
    mean_throughput_mbps: float
    drop_ratio: float
    offered_load_mbps: float
    delivered_count: int = 0

    def __post_init__(self) -> None:
        if self.mean_latency_ms < 0 or self.mean_throughput_mbps < 0:
            raise ValueError("KPM fields must be nonnegative")
        if self.offered_load_mbps < 0 or self.delivered_count < 0:
            raise ValueError("KPM fields must be nonnegative")
        if not 0.0 <= self.drop_ratio <= 1.0:
            raise ValueError(f"drop_ratio {self.drop_ratio} outside [0, 1]")
        if self.mean_throughput_mbps > self.offered_load_mbps + SUM_TOLERANCE:
            raise ValueError("cannot deliver more than offered")


@dataclass(frozen=True)
class KpmSample:
    """Measured KPMs for every slice over one monitoring interval."""

    interval_index: int
    slices: Tuple[SliceKpm, ...]

    def __init__(self, interval_index: int, slices: Sequence[SliceKpm]) -> None:
        object.__setattr__(self, "interval_index", int(interval_index))
        object.__setattr__(self, "slices", tuple(slices))
        if not self.slices:
            raise ValueError("KpmSample needs at least one slice record")


def ratio_to_rb_counts(ratio: AllocationRatio, total_rbs: int) -> list[int]:
    """Convert fractional shares to integer RB counts.

    Largest-remainder rounding over the whole pool, with equal
    remainders going to the lower slice id, so exact fractions like
    0.9 of 10 map to exactly 9 RBs.  Every slice is then floored at one
    RB (starvation would mean infinite latency) by taking from the
    best-endowed slices.  The result always sums to ``total_rbs``.
    """
    n = len(ratio)
    if total_rbs < n:
        raise InfeasibleAllocationError(
            f"{total_rbs} RBs cannot cover {n} slices at one RB each"
        )
    quotas = [s * total_rbs for s in ratio.shares]
    counts = [math.floor(q) for q in quotas]
    remainders = [q - math.floor(q) for q in quotas]
    leftover = total_rbs - sum(counts)
    # Largest remainder first; equal remainders go to the lower slice id.
    order = sorted(range(n), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    # Enforce the one-RB floor, drawing from the largest allocations.
    while min(counts) < 1:
        needy = min(range(n), key=lambda i: (counts[i], i))
        donor = max(range(n), key=lambda i: (counts[i], -i))
        counts[needy] += 1
        counts[donor] -= 1
    return counts


def rb_splits(total_rbs: int, parts: int):
    """Every split of ``total_rbs`` into ``parts`` integer counts >= 1.

    Yields tuples in lexicographic order, so slice 0's count ascends.
    """
    if parts == 1:
        yield (total_rbs,)
        return
    for i in range(1, total_rbs - parts + 2):
        for rest in rb_splits(total_rbs - i, parts - 1):
            yield (i,) + rest
