"""SLA violation math: violation level, sigmoid risk factor, compliance index.

Conventions worth knowing:

* The violation level is ``(measured - target) / target`` for both slice
  kinds.  For throughput slices that makes a positive value the *good*
  direction, so those slices use a negative sigmoid slope (``shape_a``)
  to restore the intended risk semantics.
* For throughput slices the target is capped at the offered load: a slice
  cannot violate a throughput SLA it never asked to use.  With a large
  configured target this makes the violation level equal to minus the
  drop ratio, which is the quantity the operator actually cares about
  for best-effort traffic.
* A latency slice that delivered nothing while traffic was offered is
  total starvation and scores maximal risk rather than "no data".  Its
  KPM shows zero throughput at a positive offered load (``starved``), as
  throughput is delivered bits capped at the offered rate.

``slice_risk`` is the one per-slice formula and ``compliance_index`` the
one sigma formula: ``assess`` applies both to one interval's KPMs (the
interval index lives on ``loop.CycleReport``, not on the assessment), and
``agents.Predictor`` calls ``slice_risk`` once per slice on a table of
KPM arrays over every RB count the slice can hold, then calls
``compliance_index`` once with an array of risks per slice to score a
whole array of candidate splits.  Each takes floats or arrays, and an
array's every entry is the scalar call on that entry.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import SliceKind, SliceKpm, SliceSpec

_RHO_MAX = 1.0 - sys.float_info.epsilon
_RHO_MIN = sys.float_info.min
# math.exp overflows above ~709.78; 1 / (1 + exp(709)) is already below
# _RHO_MIN, so capping the exponent there leaves the clamped risk unchanged.
_EXP_ARG_MAX = 709.0


@dataclass(frozen=True, slots=True)
class SliceRisk:
    epsilon: float
    rho: float


@dataclass(frozen=True, slots=True)
class RiskAssessment:
    """One interval's risk picture: epsilon/rho per slice, sigma, gate verdict."""

    slices: Tuple[SliceRisk, ...]
    sigma: float
    violation_detected: bool


def violation_level(measured: float, spec: SliceSpec) -> float:
    """Normalised SLA excess: (measured - target) / target."""
    return (measured - spec.sla_target) / spec.sla_target


def risk_factor(epsilon, spec: SliceSpec):
    """Sigmoid risk 1 / (1 + exp(-a * (eps - b))), clamped strictly into (0, 1).

    ``epsilon`` is a float, giving a float, or a float64 array, giving the
    float of each entry: ``math.exp`` runs per entry, as ``np.exp`` can
    differ from it in the last bit, and numpy's min and max return the
    same floats as Python's for these arguments.
    """
    x = spec.shape_a * (epsilon - spec.shape_b)
    if isinstance(x, np.ndarray):
        exp = np.fromiter(map(math.exp, np.minimum(-x, _EXP_ARG_MAX).tolist()),
                          np.float64, x.size)
        return np.minimum(np.maximum(1.0 / (1.0 + exp), _RHO_MIN), _RHO_MAX)
    rho = 1.0 / (1.0 + math.exp(min(-x, _EXP_ARG_MAX)))
    return min(max(rho, _RHO_MIN), _RHO_MAX)


def compliance_index(rhos: Sequence, weights: Sequence[float]):
    """Negative weighted sum of squared risks; 0 only with zero risk everywhere.

    One risk per slice, each a float or an array (one entry per candidate
    split, say); the terms are added slice by slice, left to right, so an
    array's every entry is the scalar call on that entry's risks.
    """
    if len(rhos) != len(weights):
        raise ValueError(f"{len(rhos)} risks vs {len(weights)} weights")
    return -sum((w * r * r for r, w in zip(rhos, weights)), 0.0)


def starved(kpm: SliceKpm):
    """True when a slice delivered nothing while traffic was offered.

    Entry by entry, as a bool array, for a table of arrays.
    """
    return (kpm.mean_throughput_mbps == 0) & (kpm.offered_load_mbps > 0)


def slice_risk(spec: SliceSpec, kpm: SliceKpm) -> SliceRisk:
    """Violation level and risk of one slice from one interval's KPMs.

    ``kpm`` may also be a table (``radio.SliceKpmTable``) whose latency,
    throughput and drop ratio are arrays and whose offered load is one
    float.  Each field of the risk is then an array whose every entry is
    the scalar call's, or one float that every entry shares: the risk of
    a throughput slice offered nothing.
    """
    if spec.kind is SliceKind.LATENCY:
        # Starvation: worst possible violation, not missing data.
        hungry = starved(kpm)
        epsilon = _select(hungry, math.inf, violation_level(kpm.mean_latency_ms, spec))
        return SliceRisk(epsilon, _select(hungry, _RHO_MAX, risk_factor(epsilon, spec)))
    if spec.sla_target <= kpm.offered_load_mbps:
        # A declared floor below current demand binds as written.
        epsilon = violation_level(kpm.mean_throughput_mbps, spec)
    elif kpm.offered_load_mbps <= 0:
        epsilon = 0.0
    else:
        # Demand-capped target: the shortfall against demand is the drop
        # ratio, which is the metric of record for best-effort slices.
        epsilon = -kpm.drop_ratio
    return SliceRisk(epsilon, risk_factor(epsilon, spec))


def _select(condition, if_true, if_false):
    """``if_true if condition else if_false``, entry by entry for a bool array."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, if_true, if_false)
    return if_true if condition else if_false


def assess(
    kpms: Sequence[SliceKpm], specs: Sequence[SliceSpec], theta: float
) -> RiskAssessment:
    """Score one interval's KPMs, one per slice, and decide whether the gate fires."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if len(kpms) != len(specs):
        raise ValueError("KPM slice count does not match specs")
    risks = tuple(slice_risk(spec, kpm) for spec, kpm in zip(specs, kpms))
    sigma = compliance_index([r.rho for r in risks], [s.weight for s in specs])
    return RiskAssessment(risks, sigma, max(r.rho for r in risks) > theta)
