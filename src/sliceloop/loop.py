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

A sweep of many short runs can share one ``SweepMemo`` across them: each
distinct slice-interval is then simulated once and each distinct cycle's
KPMs assessed once, with byte-identical reports.  ``harness.run_scenario2``
does so; ``run_experiment`` alone keeps no memo.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from .core import (
    AllocationRatio,
    RadioConfig,
    SliceKpm,
    SliceSpec,
    exact_key,
    ratio_to_rb_counts,
)
from .agents import (
    Backend,
    BackendError,
    DecisionOutcome,
    HeuristicOracleBackend,
    Predictor,
    build_meta_prompt,
    check_oracle_specs,
    valid_token_counts,
)
from .radio import (
    IntervalResult,
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


@dataclass
class SweepMemo:
    """What the runs of one sweep have computed, for its later runs to reuse.

    ``intervals`` is ``simulate_interval``'s memo of single-slice
    intervals.  ``cycles`` keeps one assessment, and one copy of the
    report's KPM, accounting and RB-count tuples, per distinct cycle.
    Both grow with every distinct input: the sweep that creates a memo
    drops it when it returns.
    """

    intervals: dict = field(default_factory=dict)
    cycles: dict = field(default_factory=dict)
    # id of each KPM object seen -> (the object, kept alive, and the exact bits of its fields).
    _kpm_bits: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # The last specs and threshold seen, and the exact bits of those SLA inputs.
    _sla: tuple = field(default=((), None, None), init=False, repr=False, compare=False)

    def cycle(
        self, result: IntervalResult, rb_counts: tuple[int, ...], specs: list[SliceSpec],
        theta: float,
    ) -> tuple[tuple, tuple, tuple[int, ...], RiskAssessment]:
        """(KPMs, accounting, RB counts, ``sla.assess`` of the KPMs), one copy per distinct cycle.

        Cycles are told apart by the exact bits of the KPMs and the SLA
        inputs, the accounting ints and the RB counts.  Each KPM object's
        bits are taken once: the interval memo hands out one KPM object
        per distinct slice-interval, so most cycles only look theirs up.
        The SLA part is rebuilt only when the specs or the threshold are
        other objects than on the last cycle, as on a new run.
        """
        kpm_bits = self._kpm_bits
        bits = []
        for k in result.kpm:
            seen = kpm_bits.get(id(k))
            if seen is None:
                seen = kpm_bits[id(k)] = (k, tuple(map(exact_key, (
                    k.mean_latency_ms, k.mean_throughput_mbps, k.drop_ratio,
                    k.offered_load_mbps))))
            bits.append(seen[1])
        last_specs, last_theta, sla = self._sla
        if theta is not last_theta or list(map(id, specs)) != list(map(id, last_specs)):
            sla = (exact_key(theta), tuple(
                (s.slice_id, s.kind, *map(exact_key, (s.sla_target, s.weight, s.shape_a,
                                                      s.shape_b)))
                for s in specs))
            self._sla = (tuple(specs), theta, sla)
        key = (tuple(bits), result.accounting, rb_counts, sla)
        hit = self.cycles.get(key)
        if hit is None:
            hit = self.cycles[key] = (result.kpm, result.accounting, rb_counts,
                                      assess(result.kpm, specs, theta))
        return hit


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
    memo: Optional[SweepMemo] = None,
) -> tuple[LoopState, CycleReport]:
    """One monitoring interval plus the decision path it triggers.

    ``backend=None`` runs a fixed policy: KPMs and assessments are still
    produced for comparison but no reallocation ever happens.  With the
    gate disabled the backend is consulted every cycle regardless of the
    assessment (and no cooldown applies), which is the costly variant the
    token comparison measures against.  With a ``memo`` the interval and
    its assessment are taken from it when they were computed before.
    """
    idx = state.interval_index
    offered = generate_traffic(env.profile, idx)
    rb_counts = tuple(ratio_to_rb_counts(state.current_allocation, env.radio_cfg.total_rbs))
    result = simulate_interval(
        offered,
        rb_counts,
        env.channels,
        env.radio_cfg,
        env.queue_cfg,
        state.sim_state,
        memo=None if memo is None else memo.intervals,
    )
    theta = env.radio_cfg.violation_threshold
    if memo is None:
        kpm, accounting = result.kpm, result.accounting
        assessment = assess(kpm, env.specs, theta)
    else:
        kpm, accounting, rb_counts, assessment = memo.cycle(result, rb_counts, env.specs, theta)

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
            kpm,
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
        store.record(kpm, applied_allocation.shares, assessment.sigma, idx)
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
        kpm=kpm,
        assessment=assessment,
        rb_counts=rb_counts,
        gate_open=gate_open,
        decision=decision,
        backend_error=backend_error,
        accounting=accounting,
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
    memo: Optional[SweepMemo] = None,
) -> ExperimentLog:
    """Run a full deterministic timeline of cycles, sharing ``memo`` if given.

    Raises ValueError, before the first cycle, when ``backend`` is the
    heuristic oracle and it cannot decide for ``env.specs``.
    """
    if isinstance(backend, HeuristicOracleBackend):
        check_oracle_specs(env.specs)
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
        state, report = run_cycle(state, env, store, backend, gate_enabled, memo)
        cycles.append(report)
    return ExperimentLog(cycles=cycles, final_state=state)
