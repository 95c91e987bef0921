"""Experiment harness: default configuration, both scenarios, token study.

The bundled defaults are engineering choices sized so that a 50-50 split
comfortably carries 80 Mbps per slice but not 120 Mbps, which reproduces
the qualitative step-traffic behaviour the experiments need.  Scenario 1
timelines are configuration, not code, because the source traffic rates
are only approximate.  ``HarnessConfig`` checks a config whole when it is
built, naming the key at fault, and builds the radio, queue, slice and
channel objects that every run of it shares.  One scenario2 sweep shares
a ``loop.SweepMemo`` across its trials and policies, so it simulates each
distinct slice-interval once; its outputs are byte-identical to
simulating every interval.
"""
from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .core import (AllocationRatio, RadioConfig, SliceKind, SliceSpec, check_count, check_counts,
                   check_pool, check_range)
from .agents import HeuristicOracleBackend, RemoteBackend, ScriptedBackend
from .loop import TIMELINE_FIELDS, Environment, ExperimentLog, SweepMemo, run_experiment
from .radio import QueueConfig, StepProfile, UeChannelState, _interval_ticks, arrival_rate
from .stats import compute_distribution_stats, write_csv

# Uniform SINR giving each RB exactly 2.2 Mbps at 180 kHz, so the default
# 106-RB pool carries 233.2 Mbps total and a 53-RB half carries 116.6 Mbps.
DEFAULT_UE_SINR = 2.0 ** (2_200_000 / 180_000) - 1.0

FIXED_BASELINES = {
    "fixed_50_50": (0.5, 0.5),
    "fixed_60_40": (0.6, 0.4),
    "fixed_70_30": (0.7, 0.3),
}


# Each slice's kind, and the config keys that set its SliceSpec's
# sla_target, weight, shape_a and shape_b; slice 0 first.
_SLICE_KEYS = ((SliceKind.LATENCY, ("s1_sla_ms", "s1_weight", "s1_shape_a", "s1_shape_b")),
               (SliceKind.THROUGHPUT, ("s2_target_mbps", "s2_weight", "s2_shape_a", "s2_shape_b")))


@contextmanager
def _naming(key):
    """Re-raise a TypeError or ValueError of the block as a ValueError naming config ``key``.

    ``key`` may instead map a type's fields to the keys that set them: the
    type's checks start their message with the field they reject.
    """
    try:
        yield
    except (TypeError, ValueError) as exc:
        if isinstance(key, dict):
            key = key[str(exc).split()[0]]
        raise ValueError(f"{key}: {exc}") from None


@dataclass
class HarnessConfig:
    """Fully resolved experiment configuration; JSON round-trippable.

    Construction checks the config, naming the key at fault, stores rates
    and shares as tuples of floats, and builds the simulator's objects
    once: ``radio_cfg``, ``queue_cfg``, ``specs``, ``channels``,
    ``scenario1_profile`` and ``initial_allocation``.  These are plain
    attributes, not fields, so ``to_dict`` and ``config.json`` hold the
    keys alone.  Nothing assigns to a config after construction, so they
    cannot go stale; build a new config to change one.

    ``interval_duration_s`` is only written to ``config.json``; nothing
    reads it.  The simulator's interval is ``monitoring_interval_s``.
    """

    total_rbs: int = RadioConfig.total_rbs
    rb_bandwidth_hz: float = RadioConfig.rb_bandwidth_hz
    interval_duration_s: float = 1.0
    monitoring_interval_s: float = RadioConfig.monitoring_interval_s
    wait_period_s: float = RadioConfig.wait_period_s
    violation_threshold: float = RadioConfig.violation_threshold

    packet_size_bytes: int = QueueConfig.packet_size_bytes
    buffer_capacity_packets: int = QueueConfig.buffer_capacity_packets
    tick_duration_ms: float = QueueConfig.tick_duration_ms
    ue_sinr: float = DEFAULT_UE_SINR

    s1_sla_ms: float = 10.0
    s1_weight: float = 2.0
    s1_shape_a: float = 10.0
    s1_shape_b: float = 0.2
    s2_target_mbps: float = 1000.0
    s2_weight: float = 1.0
    s2_shape_a: float = -30.0
    s2_shape_b: float = -0.02

    retrieve_k: int = 3
    initial_shares: Tuple[float, float] = (0.5, 0.5)

    scenario1_cycles: int = 50
    scenario1_steps: Tuple[Tuple[Tuple[int, float], ...], ...] = (
        ((0, 80.0), (10, 120.0), (20, 80.0), (40, 120.0)),
        ((0, 80.0), (20, 110.0), (30, 125.0), (40, 80.0)),
    )

    scenario2_grid: Tuple[float, ...] = tuple(float(v) for v in range(80, 130, 5))
    scenario2_cycles: int = 10

    remote_endpoint: str = ""
    remote_model: str = ""
    scripted_path: str = ""

    def __post_init__(self) -> None:
        check_counts(self, "scenario1_cycles", "scenario2_cycles", "retrieve_k")
        self.radio_cfg, self.queue_cfg = (
            cls(**{f.name: getattr(self, f.name) for f in dataclasses.fields(cls)})
            for cls in (RadioConfig, QueueConfig))
        tick_s, n_ticks, _ = _interval_ticks(self.radio_cfg, self.queue_cfg)  # whole ticks
        n_slices = len(_SLICE_KEYS)
        self.specs = []
        for slice_id, (kind, keys) in enumerate(_SLICE_KEYS):
            with _naming(dict(zip(("sla_target", "weight", "shape_a", "shape_b"), keys))):
                self.specs.append(SliceSpec(slice_id, kind, *(getattr(self, k) for k in keys)))
        with _naming("ue_sinr"):
            self.channels = [UeChannelState(ue_id=k, slice_id=k, sinr=self.ue_sinr)
                             for k in range(n_slices)]
        check_pool(self.total_rbs, n_slices)
        if not self.scenario2_grid:
            raise ValueError("scenario2_grid must hold at least one rate")
        # arrival_rate refuses a rate that offers too many packets an interval.
        packet_bits = self.queue_cfg.packet_bits
        with _naming("scenario2_grid"):
            for rate in self.scenario2_grid:
                check_range("rate", rate, "nonnegative")
                arrival_rate(float(rate) * 1e6, n_ticks, tick_s, packet_bits)
            self.scenario2_grid = tuple(map(float, self.scenario2_grid))
        with _naming("scenario1_steps"):
            StepProfile(self.scenario1_steps)  # checks each rate before float() could take it
            self.scenario1_steps = tuple(tuple((int(s), float(r)) for s, r in steps)
                                         for steps in self.scenario1_steps)
            self.scenario1_profile = StepProfile(self.scenario1_steps)
            for steps in self.scenario1_steps:
                for _, rate in steps:
                    arrival_rate(rate * 1e6, n_ticks, tick_s, packet_bits)
        with _naming("initial_shares"):
            self.initial_allocation = AllocationRatio(self.initial_shares)
        self.initial_shares = self.initial_allocation.shares
        for name in ("initial_shares", "scenario1_steps"):
            count = len(getattr(self, name))
            if count != n_slices:
                raise ValueError(
                    f"{name} must have one entry per slice ({n_slices}), got {count}"
                )

    def env(self, profile: StepProfile) -> Environment:
        return Environment(self.radio_cfg, self.queue_cfg, self.specs, self.channels, profile,
                           self.retrieve_k)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "HarnessConfig":
        """The config a JSON object's keys set; every key it leaves out keeps its default."""
        if not isinstance(data, dict):
            raise ValueError(f"config is not a JSON object: got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        return cls(**data)


def make_backend(name: str, config: HarnessConfig):
    if name == "oracle":
        return HeuristicOracleBackend()
    if name == "scripted":
        if not config.scripted_path:
            raise ValueError("scripted backend needs scripted_path in the config")
        return ScriptedBackend.from_file(config.scripted_path)
    if name == "remote":
        if not config.remote_endpoint or not config.remote_model:
            raise ValueError("remote backend needs remote_endpoint and remote_model")
        return RemoteBackend(config.remote_endpoint, config.remote_model)
    raise ValueError(f"unknown backend {name!r}")


def _phase_starts(config: HarnessConfig) -> list[int]:
    """Cycles at which any slice's rate steps; steps past the run are dropped."""
    starts = {0}
    for slice_steps in config.scenario1_steps:
        starts.update(s for s, _ in slice_steps if s < config.scenario1_cycles)
    return sorted(starts)


def run_scenario1(
    config: HarnessConfig,
    backend_name: str = "oracle",
    seed: int = 42,
    gate_enabled: bool = True,
) -> tuple[ExperimentLog, dict]:
    """Single continuous run over the bundled step timeline."""
    backend = make_backend(backend_name, config)
    log = run_experiment(
        config.env(config.scenario1_profile),
        config.scenario1_cycles,
        backend,
        initial_allocation=config.initial_allocation,
        gate_enabled=gate_enabled,
    )

    starts = _phase_starts(config)
    bounds = starts + [config.scenario1_cycles]
    phases = []
    for p in range(len(starts)):
        lo, hi = bounds[p], bounds[p + 1]
        cycles = [c for c in log.cycles if lo <= c.interval_index < hi]
        settled = cycles[-3:] if len(cycles) >= 3 else cycles
        phases.append(
            {
                "start": lo,
                "end": hi,
                "offered_mbps": list(cycles[0].offered_mbps),
                "reallocations": sum(1 for c in cycles if c.reallocated),
                "settled_s1_latency_ms": float(
                    np.mean([c.kpm[0].mean_latency_ms for c in settled])
                ),
                "settled_s2_drop_ratio": float(
                    np.mean([c.kpm[1].drop_ratio for c in settled])
                ),
            }
        )
    summary = {
        "seed": seed,
        "backend": backend_name,
        "gate_enabled": gate_enabled,
        "cycles": config.scenario1_cycles,
        "reallocation_count": log.reallocation_count,
        "reallocation_intervals": [
            c.interval_index for c in log.cycles if c.reallocated
        ],
        "backend_call_count": log.backend_call_count,
        "total_prompt_tokens": log.prompt_tokens,
        "total_completion_tokens": log.completion_tokens,
        "phases": phases,
    }
    return log, summary


def scenario2_draws(config: HarnessConfig, trials: int, seed: int) -> list[tuple[float, float]]:
    """Per-trial (S1, S2) offered rates, deterministic in (seed, trial)."""
    draws = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        idx = rng.integers(0, len(config.scenario2_grid), size=2)
        draws.append(
            (config.scenario2_grid[idx[0]], config.scenario2_grid[idx[1]])
        )
    return draws


def run_scenario2(
    config: HarnessConfig,
    trials: int = 70,
    backend_name: str = "oracle",
    seed: int = 42,
) -> dict:
    """Paired comparison: adaptive vs fixed policies on identical traffic.

    Every policy in a trial sees the same constant drawn rates; samples
    are per interval, pooled across trials.  ``stats`` holds each
    policy's ``compute_distribution_stats`` of both sample lists, which
    the summary and the figure CSVs share.  Every run shares one
    ``SweepMemo``, which lives as long as this call: trials that draw the
    same rates, and policies that hold the same split, replay the same
    slice-intervals, which then run the tick loop once.
    """
    check_count("trials", trials)
    draws = scenario2_draws(config, trials, seed)
    memo = SweepMemo()
    policies = ["adaptive"] + list(FIXED_BASELINES)
    results = {
        name: {"s1_latency_ms": [], "s2_drop_ratio": [], "trial_max_s2_drop": []}
        for name in policies
    }
    for trial, (r1, r2) in enumerate(draws):
        profile = StepProfile(steps=(((0, r1),), ((0, r2),)))
        env = config.env(profile)
        for name in policies:
            if name == "adaptive":
                backend = make_backend(backend_name, config)
                initial = config.initial_allocation
            else:
                backend = None
                initial = AllocationRatio(FIXED_BASELINES[name])
            log = run_experiment(
                env, config.scenario2_cycles, backend, initial_allocation=initial, memo=memo
            )
            lat = [c.kpm[0].mean_latency_ms for c in log.cycles]
            drop = [c.kpm[1].drop_ratio for c in log.cycles]
            results[name]["s1_latency_ms"].extend(lat)
            results[name]["s2_drop_ratio"].extend(drop)
            results[name]["trial_max_s2_drop"].append(max(drop))
    stats = {
        name: {m: compute_distribution_stats(data[m]) for m in ("s1_latency_ms", "s2_drop_ratio")}
        for name, data in results.items()
    }
    return {"draws": draws, "policies": results, "stats": stats, "trials": trials, "seed": seed}


def run_token_comparison(
    config: HarnessConfig, backend_name: str = "oracle", seed: int = 42
) -> dict:
    """Scenario 1 twice on the same seed: gated vs decision-every-cycle."""
    gated_log, gated_summary = run_scenario1(config, backend_name, seed, gate_enabled=True)
    ungated_log, ungated_summary = run_scenario1(
        config, backend_name, seed, gate_enabled=False
    )
    return {
        "gated": {"log": gated_log, "summary": gated_summary},
        "ungated": {"log": ungated_log, "summary": ungated_summary},
        "gated_cumulative": gated_log.cumulative_tokens,
        "ungated_cumulative": ungated_log.cumulative_tokens,
    }


def write_run_dir(
    out_dir: Path,
    config: HarnessConfig,
    log: Optional[ExperimentLog] = None,
    summary: Optional[dict] = None,
    extra_csvs: Optional[dict] = None,
) -> None:
    """One directory per run: resolved config, timeline, summary, figures."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=2)
    if log is not None:
        write_csv(out_dir / "timeline.csv", TIMELINE_FIELDS, log.timeline_rows())
    if summary is not None:
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
    for name, (fields, rows) in (extra_csvs or {}).items():
        write_csv(out_dir / name, fields, rows)


def scenario2_figure_csvs(results: dict) -> dict:
    """CSV payloads named after the figures they underlie."""
    csvs = {}
    for metric, fig in (("s1_latency_ms", "fig3a_latency_cdf"), ("s2_drop_ratio", "fig3b_drop_cdf")):
        rows = []
        for policy, by_metric in results["stats"].items():
            for x, f in by_metric[metric]["cdf"]:
                rows.append({"policy": policy, "value": x, "cdf": f})
        csvs[f"{fig}.csv"] = (["policy", "value", "cdf"], rows)
    for metric, fig in (("s1_latency_ms", "fig4a_latency_box"), ("s2_drop_ratio", "fig4b_drop_box")):
        rows = []
        for policy, by_metric in results["stats"].items():
            stats = by_metric[metric]
            rows.append(
                {
                    "policy": policy,
                    "min": stats["min"],
                    "q1": stats["q1"],
                    "median": stats["median"],
                    "q3": stats["q3"],
                    "max": stats["max"],
                    "p95": stats["p95"],
                }
            )
        csvs[f"{fig}.csv"] = (["policy", "min", "q1", "median", "q3", "max", "p95"], rows)
    return csvs


def token_figure_csv(comparison: dict) -> tuple[list[str], list[dict]]:
    rows = [
        {"cycle": i, "gated_cumulative": g, "ungated_cumulative": u}
        for i, (g, u) in enumerate(
            zip(comparison["gated_cumulative"], comparison["ungated_cumulative"])
        )
    ]
    return ["cycle", "gated_cumulative", "ungated_cumulative"], rows
