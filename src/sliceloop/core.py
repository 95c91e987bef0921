"""Shared domain types for the slice resource-control loop.

Everything here is an immutable value object; construction validates the
invariants once and the rest of the package can rely on them.  One
interval's measurement is a tuple of ``SliceKpm``, one per slice; the
interval it covers is recorded once, on ``loop.CycleReport``.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Tuple

import numpy as np

SUM_TOLERANCE = 1e-9


class SliceKind(enum.Enum):
    LATENCY = "latency_constrained"
    THROUGHPUT = "throughput_constrained"


class InfeasibleAllocationError(ValueError):
    """The RB pool cannot give every slice its minimum of one RB."""


def _shown(value) -> str:
    """``repr(value)``, or for an int too long for ``repr`` (over 4,300 digits), its size."""
    try:
        return repr(value)
    except ValueError:
        return f"an int of {value.bit_length()} bits"


def check_count(name: str, value) -> None:
    """Raise ValueError, naming the field, unless value is an int >= 1 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {_shown(value)}")


def check_pool(total_rbs: int, n_slices: int) -> None:
    """Raise InfeasibleAllocationError unless the pool holds one RB per slice."""
    if total_rbs < n_slices:
        raise InfeasibleAllocationError(
            f"total_rbs ({total_rbs}) cannot cover {n_slices} slices at one RB each"
        )


def exact_key(value) -> object:
    """A hashable stand-in for ``value`` that equals another only for the same type and bits.

    Floats give ``float.hex``, so 0.0 and -0.0, or two neighbouring
    floats, never compare equal; anything else gives its type and repr.
    """
    return value.hex() if type(value) is float else (type(value), repr(value))


def check_counts(config, *names: str) -> None:
    """``check_count`` of each named field of config."""
    for name in names:
        check_count(name, getattr(config, name))


# Each bound's closed limits and its wording.  "positive" starts at the
# least positive float, so no float or int above 0 falls below it.
_BOUNDS = {
    "finite": (-sys.float_info.max, sys.float_info.max, "finite"),
    "nonnegative": (0, sys.float_info.max, "finite and nonnegative"),
    "positive": (math.ulp(0.0), sys.float_info.max, "positive and finite"),
    "fraction": (0, 1, "in [0, 1]"),
}


def check_range(name: str, value, bound: str) -> None:
    """Raise ValueError, naming the field and value, unless value lies in ``_BOUNDS[bound]``."""
    low, high, text = _BOUNDS[bound]
    # An int compares with a float exactly, so 10**400 is out of range,
    # NaN fails every comparison, and a string does not compare at all.
    try:
        inside = low <= value <= high
    except TypeError:
        inside = False
    if not inside:
        raise ValueError(f"{name} must be {text}, got {_shown(value)}")


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
        check_range("sla_target", self.sla_target, "positive")
        check_range("weight", self.weight, "nonnegative")
        check_range("shape_a", self.shape_a, "finite")
        check_range("shape_b", self.shape_b, "finite")
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
        check_range("rb_bandwidth_hz", self.rb_bandwidth_hz, "positive")
        check_range("monitoring_interval_s", self.monitoring_interval_s, "positive")
        check_range("wait_period_s", self.wait_period_s, "nonnegative")
        if not 0.0 < self.violation_threshold < 1.0:
            raise ValueError("violation_threshold must lie in (0, 1)")


@dataclass(frozen=True, slots=True)
class AllocationRatio:
    """Per-slice fractional share of the RB pool.

    Shares are validated, never silently repaired: a malformed decision
    is an error here, and any repair policy (renormalisation of slightly
    off LLM output) lives in the response parser.
    """

    shares: Tuple[float, ...]

    def __init__(self, shares: Sequence[float]) -> None:
        for s in shares:
            check_range("shares", s, "fraction")
        object.__setattr__(self, "shares", tuple(map(float, shares)))
        if not self.shares:
            raise ValueError("shares must be nonempty")
        if abs(sum(self.shares) - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"shares sum to {sum(self.shares)}, expected 1.0")

    def __len__(self) -> int:
        return len(self.shares)


@dataclass(frozen=True, slots=True)
class SliceKpm:
    """One slice's measured KPMs over a monitoring interval.

    ``mean_latency_ms`` is 0.0 when nothing was delivered; zero throughput
    at a positive offered load tells that "no data" apart from "fast"
    (``sla.starved``).
    """

    mean_latency_ms: float
    mean_throughput_mbps: float
    drop_ratio: float
    offered_load_mbps: float

    def __post_init__(self) -> None:
        for name in ("mean_latency_ms", "mean_throughput_mbps", "offered_load_mbps"):
            check_range(name, getattr(self, name), "nonnegative")
        check_range("drop_ratio", self.drop_ratio, "fraction")
        if self.mean_throughput_mbps > self.offered_load_mbps + SUM_TOLERANCE:
            raise ValueError("cannot deliver more than offered")


def ratio_to_rb_counts(ratio: AllocationRatio, total_rbs: int) -> list[int]:
    """Convert fractional shares to integer RB counts.

    Largest-remainder rounding over the whole pool, with equal
    remainders going to the lower slice id, so exact fractions like
    0.9 of 10 map to exactly 9 RBs.  Every slice is then floored at one
    RB (starvation would mean infinite latency) by taking from the
    best-endowed slices.  The result always sums to ``total_rbs``.
    """
    n = len(ratio)
    check_pool(total_rbs, n)
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


def rb_splits(total_rbs: int, parts: int) -> np.ndarray:
    """Every split of ``total_rbs`` into ``parts`` integer counts >= 1.

    Returns the splits as the rows of an ``(S, parts)`` int array in
    lexicographic order, so slice 0's count ascends.  A split is fixed by
    its running totals, ``parts - 1`` cut points strictly between 0 and
    ``total_rbs``, and ``combinations`` yields those in the same order.
    """
    cuts = np.array(list(combinations(range(1, total_rbs), parts - 1)), dtype=np.intp)
    edges = np.pad(cuts.reshape(len(cuts), parts - 1), ((0, 0), (1, 1)),
                   constant_values=(0, total_rbs))
    return np.diff(edges, axis=1)
