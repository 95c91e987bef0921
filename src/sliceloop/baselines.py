"""Exhaustive small-instance optimizer that bounds the adaptive loop.

The optimizer enumerates every integer RB split (each slice at least one
RB) and scores each with ``agents.Predictor``, the same one-interval
evaluator the oracle uses.  It picks the split maximizing the throughput
slices' total predicted throughput subject to the latency bounds; a
latency slice that delivers nothing of its offered load meets no bound.
If nothing is feasible it falls back to the split with the best
predicted compliance index.  Exponential in the slice count, so capped
at three slices; at desk scale exactness is the point.

The table is built in one vectorised pass: the splits are the ``(S, n)``
array of ``core.rb_splits``, ``Predictor.score_splits`` scores all of
them, the same call the oracle in ``agents`` makes, and each row's
KPMs and latency feasibility are gathered from each slice's KPM arrays
over its RB counts, one float object per RB count.  The rows are
``EnumerationRow`` NamedTuples, built from those columns in one pass.
The optimum is picked in two linear passes, the best value first, then
the tie-break among the rows that reach it exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .agents import Predictor
from .core import (AllocationRatio, RadioConfig, SliceKind, SliceSpec, check_pool, check_range,
                   rb_splits)
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


class EnumerationRow(NamedTuple):
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
    for rate in offered_mbps:
        check_range("offered_mbps", rate, "nonnegative")
    if state is None:
        state = SimState.fresh(n)
    predictor = Predictor(offered_mbps, channels, radio_cfg, queue_cfg, specs, state)
    splits = rb_splits(radio_cfg.total_rbs, n)
    if not len(splits):
        # Fewer RBs than slices: no split, so nothing to predict.
        return []
    sigma, _, objective = predictor.score_splits(splits)

    feasible = np.ones(len(splits), dtype=bool)
    latencies, throughputs, drops = [], [], []
    for spec, table, i in zip(specs, predictor.kpm_tables(), splits.T - 1):
        # Gathered as objects, so the rows that give this slice the same RB
        # count share one float object per field, which the one-pass row
        # build keeps: a float per row and field costs 1.2 MB at 5,460 splits.
        latencies.append(table.mean_latency_ms.astype(object)[i].tolist())
        throughputs.append(table.mean_throughput_mbps.astype(object)[i].tolist())
        drops.append(table.drop_ratio.astype(object)[i].tolist())
        if spec.kind is SliceKind.LATENCY:
            # A starved slice reports 0 ms: it delivered nothing.
            feasible &= (~starved(table) & (table.mean_latency_ms < spec.sla_target))[i]
    return list(map(EnumerationRow._make, zip(
        zip(*splits.T.tolist()),
        zip(*latencies),
        zip(*throughputs),
        zip(*drops),
        sigma.tolist(),
        objective.tolist(),
        feasible.tolist(),
    )))


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
    slice-0 count, then the first split in ``core.rb_splits`` order.
    Raises ``InfeasibleAllocationError`` when the pool has fewer RBs than
    there are slices.
    """
    check_pool(radio_cfg.total_rbs, len(specs))
    rows = enumerate_splits(offered_mbps, channels, radio_cfg, queue_cfg, specs, state)
    feasible_rows = [r for r in rows if r.feasible]
    pool = feasible_rows or rows
    value = attrgetter("objective" if feasible_rows else "sigma")
    # The best value, then the tie-break among the rows that reach it
    # exactly.  min keeps the first of equal keys, so the winner is the
    # one min over (-value, latency RBs, slice-0 count) would pick.
    best_value = max(map(value, pool))
    best = min(
        (r for r in pool if value(r) == best_value),
        key=lambda r: (_latency_rb_total(r.rb_counts, specs), r.rb_counts[0]),
    )
    total = radio_cfg.total_rbs
    return OptimizerResult(
        allocation=AllocationRatio([c / total for c in best.rb_counts]),
        rb_counts=best.rb_counts,
        feasible=bool(feasible_rows),
        objective=best.objective,
        sigma=best.sigma,
    )
