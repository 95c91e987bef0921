"""Exhaustive small-instance optimizer that bounds the adaptive loop.

The optimizer enumerates every integer RB split (each slice at least one
RB) and scores each with ``agents.Predictor``, the same one-interval
evaluator the oracle uses.  It picks the split maximizing the throughput
slices' total predicted throughput subject to the latency bounds; a
latency slice that delivers nothing of its offered load meets no bound.
If nothing is feasible it falls back to the split with the best
predicted compliance index.  Exponential in the slice count, so capped
at three slices; at desk scale exactness is the point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .agents import Predictor
from .core import AllocationRatio, RadioConfig, SliceKind, SliceSpec, rb_splits
from .radio import QueueConfig, SimState, UeChannelState
from .sla import starved


class UnsupportedScaleError(ValueError):
    """Exhaustive enumeration is only offered for two or three slices."""


@dataclass(frozen=True)
class OptimizerResult:
    allocation: AllocationRatio
    rb_counts: Tuple[int, ...]
    feasible: bool
    objective: float  # predicted total throughput of the throughput slices, Mbps
    sigma: float


@dataclass(frozen=True)
class EnumerationRow:
    rb_counts: Tuple[int, ...]
    latencies_ms: Tuple[float, ...]
    throughputs_mbps: Tuple[float, ...]
    drop_ratios: Tuple[float, ...]
    sigma: float
    objective: float
    feasible: bool


def enumerate_splits(
    offered_mbps: Sequence[float],
    channels: Sequence[UeChannelState],
    radio_cfg: RadioConfig,
    queue_cfg: QueueConfig,
    specs: Sequence[SliceSpec],
    state: Optional[SimState] = None,
) -> list[EnumerationRow]:
    """Predicted KPM table for every feasible-by-construction RB split."""
    n = len(specs)
    if n < 2 or n > 3:
        raise UnsupportedScaleError(f"{n} slices (supported: 2 or 3)")
    if not all(0 <= r < math.inf for r in offered_mbps):
        raise ValueError(
            f"offered_mbps must be finite and nonnegative, got {list(offered_mbps)}"
        )
    if state is None:
        state = SimState.fresh(n)
    predictor = Predictor(offered_mbps, channels, radio_cfg, queue_cfg, specs, state)

    rows = []
    for counts in rb_splits(radio_cfg.total_rbs, n):
        score = predictor.score(counts)
        kpm = score.kpm
        feasible = True
        for spec, s in zip(specs, kpm.slices):
            # A starved slice reports 0 ms: it delivered nothing.
            if spec.kind is SliceKind.LATENCY and (
                    starved(s.delivered_count, s.offered_load_mbps)
                    or not s.mean_latency_ms < spec.sla_target):
                feasible = False
        rows.append(
            EnumerationRow(
                rb_counts=counts,
                latencies_ms=tuple(s.mean_latency_ms for s in kpm.slices),
                throughputs_mbps=tuple(s.mean_throughput_mbps for s in kpm.slices),
                drop_ratios=tuple(s.drop_ratio for s in kpm.slices),
                sigma=score.sigma,
                objective=score.throughput_mbps,
                feasible=feasible,
            )
        )
    return rows


def _latency_rb_total(counts: Sequence[int], specs: Sequence[SliceSpec]) -> int:
    return sum(
        c for c, s in zip(counts, specs) if s.kind is SliceKind.LATENCY
    )


def brute_force_optimal(
    offered_mbps: Sequence[float],
    channels: Sequence[UeChannelState],
    radio_cfg: RadioConfig,
    queue_cfg: QueueConfig,
    specs: Sequence[SliceSpec],
    state: Optional[SimState] = None,
) -> OptimizerResult:
    """Exact per-interval optimum by enumeration.

    Ties break toward the fewest RBs on latency slices, then the lowest
    slice-0 count; the result is invariant to enumeration order.
    """
    rows = enumerate_splits(offered_mbps, channels, radio_cfg, queue_cfg, specs, state)
    feasible_rows = [r for r in rows if r.feasible]
    if feasible_rows:
        pool = feasible_rows
        key = lambda r: (
            -r.objective,
            _latency_rb_total(r.rb_counts, specs),
            r.rb_counts[0],
        )
    else:
        pool = rows
        key = lambda r: (
            -r.sigma,
            _latency_rb_total(r.rb_counts, specs),
            r.rb_counts[0],
        )
    best = min(pool, key=key)
    total = radio_cfg.total_rbs
    return OptimizerResult(
        allocation=AllocationRatio([c / total for c in best.rb_counts]),
        rb_counts=best.rb_counts,
        feasible=bool(feasible_rows),
        objective=best.objective,
        sigma=best.sigma,
    )
