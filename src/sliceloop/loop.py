"""Closed control loop: monitor, assess, gate, retrieve, decide, apply, wait.

Each cycle covers exactly one monitoring interval.  The wait period after
a reallocation is simulated time: the next ``ceil(wait / interval)``
cycles still run the simulator and record experiences, but the gate is
held closed, mirroring a controller that sleeps while the network
settles.  On any backend failure, whether ``propose`` raises any
``Exception`` or returns an outcome without one share per slice and
nonnegative int token counts, the previous allocation stays in force
(fail-static) so failures show up in the metrics instead of being
masked by a fallback policy.  A failed write to the experience store
likewise ends up on the cycle report (``storage_error``); the record
stays in memory and the store writes its line ahead of the next one.
Each interval's index is stored once, on its ``CycleReport``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .core import AllocationRatio, RadioConfig, SliceKpm, SliceSpec, ratio_to_rb_counts
from .agents import (
    Backend,
    BackendError,
    DecisionOutcome,
    Predictor,
    build_meta_prompt,
    valid_token_counts,
)
from .radio import (
    QueueConfig,
    SimState,
    StepProfile,
    UeChannelState,
    generate_traffic,
    simulate_interval,
)
from .sla import RiskAssessment, assess
from .store import ExperienceStore, StorageError


@dataclass
class LoopState:
    current_allocation: AllocationRatio
    interval_index: int
    sim_state: SimState
    cooldown_remaining: int = 0


@dataclass(frozen=True, slots=True)
class CycleReport:
    interval_index: int
    kpm: tuple[SliceKpm, ...]
    assessment: RiskAssessment
    rb_counts: tuple[int, ...]
    gate_open: bool
    decision: Optional[DecisionOutcome]
    backend_error: Optional[str]
    accounting: tuple
    storage_error: Optional[str] = None

    @property
    def offered_mbps(self) -> tuple[float, ...]:
        return tuple(s.offered_load_mbps for s in self.kpm)

    @property
    def token_delta(self) -> int:
        d = self.decision
        return d.prompt_tokens + d.completion_tokens if d else 0

    @property
    def reallocated(self) -> bool:
        return self.decision is not None


@dataclass
class Environment:
    """Everything the loop needs besides its own mutable state."""

    radio_cfg: RadioConfig
    queue_cfg: QueueConfig
    specs: list[SliceSpec]
    channels: list[UeChannelState]
    profile: StepProfile
    retrieve_k: int = 3


def _check_outcome(outcome: DecisionOutcome, n_slices: int) -> None:
    """Raise BackendError unless outcome has n_slices shares and valid token counts."""
    shares, tokens = outcome.allocation, (outcome.prompt_tokens, outcome.completion_tokens)
    if not (isinstance(shares, AllocationRatio) and len(shares) == n_slices
            and valid_token_counts(*tokens)):
        raise BackendError(f"bad outcome for {n_slices} slices: {shares!r}, tokens {tokens!r}")


def run_cycle(
    state: LoopState,
    env: Environment,
    store: ExperienceStore,
    backend: Optional[Backend],
    gate_enabled: bool = True,
) -> tuple[LoopState, CycleReport]:
    """One monitoring interval plus the decision path it triggers.

    ``backend=None`` runs a fixed policy: KPMs and assessments are still
    produced for comparison but no reallocation ever happens.  With the
    gate disabled the backend is consulted every cycle regardless of the
    assessment (and no cooldown applies), which is the costly variant the
    token comparison measures against.
    """
    idx = state.interval_index
    offered = generate_traffic(env.profile, idx)
    rb_counts = ratio_to_rb_counts(state.current_allocation, env.radio_cfg.total_rbs)
    result = simulate_interval(
        offered,
        rb_counts,
        env.channels,
        env.radio_cfg,
        env.queue_cfg,
        state.sim_state,
    )
    assessment = assess(result.kpm, env.specs, env.radio_cfg.violation_threshold)

    in_cooldown = gate_enabled and state.cooldown_remaining > 0
    if backend is None:
        gate_open = False
    elif gate_enabled:
        gate_open = assessment.violation_detected and not in_cooldown
    else:
        gate_open = True

    decision: Optional[DecisionOutcome] = None
    backend_error: Optional[str] = None
    applied_allocation = state.current_allocation
    new_cooldown = max(0, state.cooldown_remaining - 1)
    if gate_open:
        retrieved = store.retrieve(offered, env.retrieve_k)
        prompt = build_meta_prompt(
            assessment,
            result.kpm,
            state.current_allocation,
            retrieved,
            env.specs,
            env.radio_cfg,
        )
        predictor = Predictor(
            offered, env.channels, env.radio_cfg, env.queue_cfg, env.specs, result.state
        )
        try:
            decision = backend.propose(prompt, state.current_allocation, predictor)
            _check_outcome(decision, len(env.specs))
        except Exception as exc:
            decision = None
            backend_error = (str(exc) if isinstance(exc, BackendError)
                             else f"{type(exc).__name__}: {exc}")
        else:
            applied_allocation = decision.allocation
            if gate_enabled:
                radio = env.radio_cfg
                new_cooldown = math.ceil(radio.wait_period_s / radio.monitoring_interval_s)

    storage_error: Optional[str] = None
    try:
        store.record(result.kpm, applied_allocation.shares, assessment.sigma, idx)
    except StorageError as exc:
        storage_error = str(exc)

    new_state = LoopState(
        current_allocation=applied_allocation,
        interval_index=idx + 1,
        sim_state=result.state,
        cooldown_remaining=new_cooldown,
    )
    report = CycleReport(
        interval_index=idx,
        kpm=result.kpm,
        assessment=assessment,
        rb_counts=tuple(rb_counts),
        gate_open=gate_open,
        decision=decision,
        backend_error=backend_error,
        accounting=result.accounting,
        storage_error=storage_error,
    )
    return new_state, report


# The timeline CSV schema: one row per (interval, slice).
TIMELINE_FIELDS = [
    "interval",
    "slice_id",
    "latency_ms",
    "throughput_mbps",
    "drop_ratio",
    "offered_mbps",
    "rb_count",
]


@dataclass
class ExperimentLog:
    cycles: list[CycleReport]
    final_state: LoopState

    @property
    def reallocation_count(self) -> int:
        return sum(1 for c in self.cycles if c.reallocated)

    @property
    def backend_call_count(self) -> int:
        return sum(1 for c in self.cycles if c.gate_open)

    @property
    def prompt_tokens(self) -> int:
        return sum(c.decision.prompt_tokens for c in self.cycles if c.decision)

    @property
    def completion_tokens(self) -> int:
        return sum(c.decision.completion_tokens for c in self.cycles if c.decision)

    @property
    def cumulative_tokens(self) -> list[int]:
        return list(accumulate(c.token_delta for c in self.cycles))

    def timeline_rows(self) -> list[dict]:
        """Flat per-(interval, slice) rows keyed by ``TIMELINE_FIELDS``."""
        return [
            dict(zip(TIMELINE_FIELDS, (
                c.interval_index, k, s.mean_latency_ms, s.mean_throughput_mbps,
                s.drop_ratio, s.offered_load_mbps, c.rb_counts[k],
            )))
            for c in self.cycles
            for k, s in enumerate(c.kpm)
        ]


def run_experiment(
    env: Environment,
    n_cycles: int,
    backend: Optional[Backend],
    initial_allocation: Optional[AllocationRatio] = None,
    store: Optional[ExperienceStore] = None,
    gate_enabled: bool = True,
) -> ExperimentLog:
    """Run a full deterministic timeline of cycles."""
    n_slices = len(env.specs)
    if initial_allocation is None:
        initial_allocation = AllocationRatio([1.0 / n_slices] * n_slices)
    if store is None:
        store = ExperienceStore(n_slices)
    state = LoopState(
        current_allocation=initial_allocation,
        interval_index=0,
        sim_state=SimState.fresh(n_slices),
    )
    cycles = []
    for _ in range(n_cycles):
        state, report = run_cycle(state, env, store, backend, gate_enabled)
        cycles.append(report)
    return ExperimentLog(cycles=cycles, final_state=state)
