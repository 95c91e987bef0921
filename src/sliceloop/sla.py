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
``agents.Predictor`` tables ``slice_risk`` for every RB count a slice can
hold, then calls ``compliance_index`` once with an array of risks per
slice to score a whole array of candidate splits.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Tuple

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


def risk_factor(epsilon: float, spec: SliceSpec) -> float:
    """Sigmoid risk 1 / (1 + exp(-a * (eps - b))), clamped strictly into (0, 1)."""
    x = spec.shape_a * (epsilon - spec.shape_b)
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


def starved(kpm: SliceKpm) -> bool:
    """True when a slice delivered nothing while traffic was offered."""
    return kpm.mean_throughput_mbps == 0 and kpm.offered_load_mbps > 0


def slice_risk(spec: SliceSpec, kpm: SliceKpm) -> SliceRisk:
    """Violation level and risk of one slice from one interval's KPMs."""
    if spec.kind is SliceKind.LATENCY:
        if starved(kpm):
            # Starvation: worst possible violation, not missing data.
            return SliceRisk(math.inf, _RHO_MAX)
        epsilon = violation_level(kpm.mean_latency_ms, spec)
    elif spec.sla_target <= kpm.offered_load_mbps:
        # A declared floor below current demand binds as written.
        epsilon = violation_level(kpm.mean_throughput_mbps, spec)
    elif kpm.offered_load_mbps <= 0:
        epsilon = 0.0
    else:
        # Demand-capped target: the shortfall against demand is the drop
        # ratio, which is the metric of record for best-effort slices.
        epsilon = -kpm.drop_ratio
    return SliceRisk(epsilon, risk_factor(epsilon, spec))


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
