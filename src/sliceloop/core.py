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


def check_count(name: str, value) -> None:
    """Raise ValueError, naming the field, unless value is an int >= 1 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


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
        for name in ("sla_target", "weight", "shape_a", "shape_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
        # An int compares with a float exactly, so 10**400 is out of range.
        for name in ("rb_bandwidth_hz", "monitoring_interval_s"):
            if not 0 < getattr(self, name) <= sys.float_info.max:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.wait_period_s <= sys.float_info.max:
            raise ValueError(f"wait_period_s must be finite and >= 0, got {self.wait_period_s}")
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
            value = getattr(self, name)
            # An int compares with a float exactly, so 10**400 is out of range.
            if not 0 <= value <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if not 0.0 <= self.drop_ratio <= 1.0:
            raise ValueError(f"drop_ratio {self.drop_ratio} outside [0, 1]")
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
