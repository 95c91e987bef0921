"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible with ``pytest -s`` or in the captured-output section of a
failure).  Tolerances are stated inline next to each check.
"""
import math

import numpy as np
import pytest

from sliceloop.agents import HeuristicOracleBackend, Predictor, heuristic_oracle_decide
from sliceloop.core import (
    AllocationRatio,
    RadioConfig,
    SliceKind,
    SliceKpm,
    SliceSpec,
    ratio_to_rb_counts,
)
from sliceloop.baselines import brute_force_optimal, enumerate_splits
from sliceloop.harness import (
    FIXED_BASELINES,
    DEFAULT_UE_SINR,
    HarnessConfig,
    TIMELINE_FIELDS,
    run_scenario1,
    run_scenario2,
    run_token_comparison,
)
from sliceloop.radio import (
    QueueConfig,
    SimState,
    UeChannelState,
    simulate_interval,
)
from sliceloop.sla import compliance_index, risk_factor, violation_level
from sliceloop.stats import write_csv
from sliceloop.store import ExperienceStore


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


SPECS = [
    SliceSpec(0, SliceKind.LATENCY, 10.0, 2.0, 10.0, 0.2),
    SliceSpec(1, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02),
]


def test_criterion_1_sla_math_exact():
    """Sigmoid midpoint, zero-risk index, and a worked value, all to 1e-12."""
    lat = SliceSpec(0, SliceKind.LATENCY, 10.0, 1.0, 10.0, 0.2)
    ok = abs(risk_factor(lat.shape_b, lat) - 0.5) <= 1e-12
    ok = ok and compliance_index([0.0, 0.0], [1.0, 1.0]) == 0.0
    eps = violation_level(20.0, lat)  # doubled latency against a 10 ms SLA
    worked = 1.0 / (1.0 + math.exp(-8.0))  # independent evaluation
    ok = ok and abs(risk_factor(eps, lat) - worked) <= 1e-12
    _report(1, "SLA math exact to 1e-12", ok)


def test_criterion_2_scenario1_settles_below_sla():
    """Default step timeline: every post-reallocation phase settles < 10 ms,
    and the reallocation schedule is frozen as a regression constant."""
    log, summary = run_scenario1(HarnessConfig(), backend_name="oracle", seed=42)
    triggering = [p for p in summary["phases"] if p["reallocations"] > 0]
    ok = len(triggering) > 0
    ok = ok and all(p["settled_s1_latency_ms"] < 10.0 for p in triggering)
    # frozen on the first verified run of the default timeline
    ok = ok and summary["reallocation_count"] == 4
    ok = ok and summary["reallocation_intervals"] == [10, 20, 30, 40]
    _report(2, "scenario 1 settles below the 10 ms SLA after each "
               "triggering step (4 reallocations at [10, 20, 30, 40])", ok)


def test_criterion_3_scenario2_directional_contrast():
    """70 paired trials: adaptive keeps S2 drops near zero and S1 fast,
    while the 70-30 fixed split exceeds 10% drop on S2-heavy trials."""
    res = run_scenario2(HarnessConfig(), trials=70, backend_name="oracle", seed=42)
    pol = res["policies"]
    adaptive_mean_drop = float(np.mean(pol["adaptive"]["s2_drop_ratio"]))
    adaptive_p95_lat = float(np.percentile(pol["adaptive"]["s1_latency_ms"], 95))
    fixed7030_bad_trials = sum(
        1 for d in pol["fixed_70_30"]["trial_max_s2_drop"] if d > 0.10
    )
    ok = adaptive_mean_drop <= 0.01
    ok = ok and fixed7030_bad_trials >= 1
    ok = ok and adaptive_p95_lat < 10.0
    _report(3, f"scenario 2 contrast (adaptive mean drop "
               f"{adaptive_mean_drop:.4f} <= 1%, 70-30 exceeds 10% on "
               f"{fixed7030_bad_trials} trials, adaptive S1 p95 "
               f"{adaptive_p95_lat:.2f} ms < 10 ms)", ok)


def test_criterion_4_token_gating():
    """Gated cumulative tokens strictly below ungated from the first
    non-violation cycle on; gated calls equal violation cycles exactly."""
    comparison = run_token_comparison(HarnessConfig(), backend_name="oracle", seed=42)
    gated_log = comparison["gated"]["log"]
    g, u = comparison["gated_cumulative"], comparison["ungated_cumulative"]
    violations = [c.assessment.violation_detected for c in gated_log.cycles]
    first_quiet = violations.index(False)
    ok = all(g[i] < u[i] for i in range(first_quiet, len(g)))
    ok = ok and gated_log.backend_call_count == sum(violations)
    _report(4, f"token gating (gated {g[-1]} < ungated {u[-1]} at every "
               f"cycle >= {first_quiet}; {gated_log.backend_call_count} "
               f"calls == {sum(violations)} violation cycles)", ok)


def _brute_force_retrieve(rates, sigmas, query, k, multiplier=3):
    """Full-scan reference for the documented two-stage retrieval rule over
    the recorded rates and sigmas, record ``i`` at index ``i``; returns ids."""
    def dist(i):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(rates[i], query)))

    shortlist = sorted(range(len(rates)), key=lambda i: (dist(i), i))[: multiplier * k]
    ranked = sorted(shortlist, key=lambda i: (-sigmas[i], dist(i), i))
    return ranked[:k]


def test_criterion_5_retrieval_equivalence():
    """200 randomized stores (sizes 0 to 10^4): retrieve == full scan."""
    rng = np.random.default_rng(2024)
    ok = True
    for trial in range(200):
        # mostly small stores, with a few at the upper size bound
        if trial < 3:
            n = 10_000
        elif trial < 10:
            n = int(rng.integers(1_000, 5_000))
        else:
            n = int(rng.integers(0, 200))
        store = ExperienceStore(2)
        rates = rng.uniform(50.0, 150.0, size=(n, 2))
        sigmas = -rng.uniform(0.0, 2.0, size=n)
        for i in range(n):
            kpm = tuple(SliceKpm(1.0, r, 0.0, r) for r in rates[i].tolist())
            store.record(kpm, (0.5, 0.5), float(sigmas[i]), i)
        query = list(rng.uniform(40.0, 160.0, size=2))
        k = int(rng.integers(1, 6))
        got = [r.record_id for r in store.retrieve(query, k)]
        want = _brute_force_retrieve(rates.tolist(), sigmas.tolist(), query, k)
        if got != want:
            ok = False
            break
    _report(5, "retrieval equals the brute-force scan on 200 randomized "
               "stores", ok)


def _predicted_objective(offered, counts, channels, radio, queue, specs):
    """(objective, feasible) for one split; the optimizer maximizes the
    objective over feasible splits only, so dominance is claimed only
    against splits that satisfy the constraints themselves."""
    kpm = simulate_interval(
        offered, counts, channels, radio, queue, SimState.fresh(2)
    ).kpm
    objective = sum(
        kpm[i].mean_throughput_mbps
        for i, s in enumerate(specs)
        if s.kind is SliceKind.THROUGHPUT
    )
    feasible = all(
        kpm[i].mean_latency_ms < s.sla_target
        for i, s in enumerate(specs)
        if s.kind is SliceKind.LATENCY
    )
    return objective, feasible


def test_criterion_6_optimizer_oracle():
    """Exhaustive optimizer vs an independent table at 10 RBs, and
    objective dominance over agent and fixed baselines on 50 instances."""
    radio = RadioConfig(total_rbs=10)
    queue = QueueConfig()
    channels = [UeChannelState(0, 0, DEFAULT_UE_SINR), UeChannelState(1, 1, DEFAULT_UE_SINR)]

    # independent enumeration of all 9 splits for the tabulated instance
    offered = [120.0, 80.0]
    table = []
    from sliceloop.sla import assess

    for i in range(1, 10):
        kpm = simulate_interval(
            offered, [i, 10 - i], channels, radio, queue, SimState.fresh(2)
        ).kpm
        a = assess(kpm, SPECS, radio.violation_threshold)
        feasible = kpm[0].mean_latency_ms < SPECS[0].sla_target
        table.append(
            {
                "counts": (i, 10 - i),
                "objective": kpm[1].mean_throughput_mbps,
                "sigma": a.sigma,
                "feasible": feasible,
            }
        )
    feas = [r for r in table if r["feasible"]]
    if feas:
        want = min(feas, key=lambda r: (-r["objective"], r["counts"][0]))
    else:
        want = min(table, key=lambda r: (-r["sigma"], r["counts"][0]))
    got = brute_force_optimal(offered, channels, radio, queue, SPECS)
    ok = got.rb_counts == want["counts"] and got.feasible == bool(feas)

    # dominance over the agent and the fixed baselines
    rng = np.random.default_rng(99)
    backend = HeuristicOracleBackend()
    for _ in range(50):
        inst = [float(rng.uniform(1.0, 20.0)), float(rng.uniform(1.0, 20.0))]
        brute = brute_force_optimal(inst, channels, radio, queue, SPECS)
        if not brute.feasible:
            continue
        predictor = Predictor(inst, channels, radio, queue, SPECS, SimState.fresh(2))
        agent = heuristic_oracle_decide(
            AllocationRatio([0.5, 0.5]), predictor
        )
        agent_counts = ratio_to_rb_counts(agent, radio.total_rbs)
        agent_obj, agent_feasible = _predicted_objective(
            inst, agent_counts, channels, radio, queue, SPECS
        )
        if agent_feasible and brute.objective < agent_obj - 1e-9:
            ok = False
            break
        for shares in FIXED_BASELINES.values():
            counts = ratio_to_rb_counts(AllocationRatio(shares), radio.total_rbs)
            base_obj, base_feasible = _predicted_objective(
                inst, counts, channels, radio, queue, SPECS
            )
            if base_feasible and brute.objective < base_obj - 1e-9:
                ok = False
    _report(6, "optimizer matches the independent 10-RB table and "
               "dominates agent and fixed baselines on feasible instances", ok)


def test_criterion_7_conservation():
    """1000 random intervals: exact packet conservation, and zero drops
    whenever offered load fits within capacity from an empty queue."""
    radio = RadioConfig(total_rbs=10)
    queue = QueueConfig()
    channels = [UeChannelState(0, 0, DEFAULT_UE_SINR), UeChannelState(1, 1, DEFAULT_UE_SINR)]
    rng = np.random.default_rng(7)
    ok = True
    state = SimState.fresh(2)
    for trial in range(1000):
        carried = trial % 4 != 0  # mix carried-over and fresh states
        if not carried:
            state = SimState.fresh(2)
        rates = [float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 30.0))]
        rb0 = int(rng.integers(1, 10))
        counts = [rb0, 10 - rb0]
        empty_before = all(len(q.arrival_ticks) == 0 for q in state.queues)
        res = simulate_interval(rates, counts, channels, radio, queue, state)
        for k, acct in enumerate(res.accounting):
            if (acct.delivered_packets + acct.dropped_packets
                    + acct.queued_after - acct.queued_before
                    != acct.offered_packets):
                ok = False
            capacity_mbps = counts[k] * 2.2
            if (empty_before and rates[k] <= capacity_mbps
                    and res.kpm[k].drop_ratio != 0.0):
                ok = False
        state = res.state
    _report(7, "exact conservation on 1000 random intervals; no drops "
               "within capacity from empty queues", ok)


def test_criterion_8_determinism(tmp_path):
    """The same seed and config produce a byte-identical timeline.csv."""
    paths = []
    for name in ("a", "b"):
        log, _ = run_scenario1(HarnessConfig(), backend_name="oracle", seed=42)
        path = tmp_path / f"timeline_{name}.csv"
        write_csv(path, TIMELINE_FIELDS, log.timeline_rows())
        paths.append(path)
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    _report(8, "repeated runs are byte-identical", ok)
