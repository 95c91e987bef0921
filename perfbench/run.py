"""sliceloop benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload ungated_step --seed 7 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``sliceloop`` from
``src/`` there and exits with code 2 when that is missing.

A run generates the workload's inputs from ``--seed``, then repeats the
workload's fixed unit of work (see ``workloads.py``) until ``--seconds``
have passed, at least twice.  Every loop is closed: a control cycle
starts only when the previous one has finished.  Times are host times.

Statistics.  Host speed on the calibration machine swings by up to 2x
for tens of seconds at a time, so every host time is scaled to reference
speed by a kernel sampled every 50 ms throughout the run (see
``speed.py``); the notes printed before the result give raw times too.
Every repeat makes the same cycles and decisions, so each cycle's and
each decision's time is its median over the repeats: ``wall_s`` is the
sum of those cycle times plus the median rest of the unit (argument
parsing, harness, output files), ``ops_per_s`` is the unit's operations
(control cycles, or splits scored) over ``wall_s``, and the decision
latencies' median and tail are taken over those per-decision times.
A decision is a cycle that consulted the backend, or on
``split_table_3slice`` the whole optimizer call.  ``setup_s`` is the median
import time in fresh interpreters plus the median time to build the
workload's objects over the repeats.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run, whose
units alternate with untraced ones so that ``trace.overhead_ratio`` is
measured in the same run.  Spans of traced units are written to
``.perfbench-out/`` in the checkout when the run ends.

Outputs are checked on every run: all repeats must produce the same
sha256 digests, packet books must balance, and at ``GOLDEN_SEED`` the
digests must equal ``golden.json``.  A unit that fails any check counts
all its operations as failed.
"""
from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy is imported, here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import SpeedMeter  # noqa: E402
from tracing import ROLLOUT_PARENTS, Tracer  # noqa: E402
from workloads import WORKLOADS, UnitResult  # noqa: E402

GOLDEN_SEED = 1
GOLDEN_PATH = HERE / "golden.json"
IMPORT_SAMPLES = 5
BURST = 3  # reference-kernel samples taken around each timed stretch
MIN_REPEATS = 2
IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import sliceloop\n"
    "print(time.perf_counter() - t)\n"
)


class CycleObserver:
    """Times ``sliceloop.loop.run_cycle`` with one perf_counter pair.

    ``run_experiment`` looks the name up at call time, so rebinding it
    sees every cycle of every run the workload makes.  Time the speed
    meter spent sampling inside a cycle is taken off that cycle.
    """

    def __init__(self, meter: SpeedMeter) -> None:
        self.meter = meter
        self.cycles: list[tuple] = []  # (start, seconds, CycleReport)

    def install(self) -> None:
        import sliceloop.loop as loop

        self.loop, self.original = loop, loop.run_cycle
        original, cycles, meter = self.original, self.cycles, self.meter

        def run_cycle(*args, **kwargs):
            busy = meter.busy
            t0 = time.perf_counter()
            state, report = original(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            cycles.append((t0, elapsed - (meter.busy - busy), report))
            return state, report

        loop.run_cycle = run_cycle

    def uninstall(self) -> None:
        self.loop.run_cycle = self.original

    def take(self) -> list[tuple]:
        out, self.cycles[:] = list(self.cycles), []
        return out


def balanced(accounting) -> bool:
    return all(
        a.delivered_packets + a.dropped_packets + a.queued_after - a.queued_before
        == a.offered_packets
        for a in accounting
    )


def time_import(root: Path, meter: SpeedMeter) -> float:
    """Reference seconds to import sliceloop in a fresh interpreter."""
    meter.sample(BURST)
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(root / "src")],
        capture_output=True, text=True, check=True, timeout=120, cwd=root,
    )
    t1 = time.perf_counter()
    meter.sample(BURST)
    return float(out.stdout.strip().splitlines()[-1]) * meter.scale(t0, t1)


def run_units(workload, seconds: float, trace: bool, tmp: Path, meter: SpeedMeter) -> list[dict]:
    """Repeat the unit until ``seconds`` have passed; odd repeats traced."""
    observer = CycleObserver(meter)
    units: list[dict] = []
    start = time.perf_counter()
    while len(units) < MIN_REPEATS or time.perf_counter() - start < seconds:
        traced = trace and len(units) % 2 == 1
        workload.reset()
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        meter.sample(BURST)
        b0 = time.perf_counter()
        workload.build()
        b1 = time.perf_counter()
        out_dir = tmp / f"unit{len(units)}"
        out_dir.mkdir()
        observer.install()
        meter.sample(BURST)
        error = None
        busy = meter.busy
        with meter.sampling():
            t0 = time.perf_counter()
            try:
                result = workload.run_unit(out_dir)
            except Exception:  # a failed unit is counted, not fatal
                error = traceback.format_exc()
                result = UnitResult(ops=0, failed=1)
            t1 = time.perf_counter()
        sampled = meter.busy - busy
        meter.sample(BURST)
        observer.uninstall()
        if tracer:
            tracer.uninstall()
        if error:
            print(error, file=sys.stderr)
        shutil.rmtree(out_dir)
        cycles = observer.take()
        raw_wall_s = t1 - t0 - sampled
        units.append({
            "traced": traced, "tracer": tracer, "result": result,
            "raw_wall_s": raw_wall_s, "wall_s": raw_wall_s * meter.scale(t0, t1),
            "build_s": (b1 - b0) * meter.scale(b0, b1),
            "cycles": [(t, dt * meter.scale(t, t + dt), report) for t, dt, report in cycles],
            "rest_s": (raw_wall_s - sum(dt for _, dt, _ in cycles)) * meter.scale(t0, t1),
        })
    return units


def check_units(units: list[dict], workload_name: str, seed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all units; see the module docstring."""
    golden = None
    if seed == GOLDEN_SEED and GOLDEN_PATH.exists():
        golden = json.loads(GOLDEN_PATH.read_text())["workloads"].get(workload_name)
    problems: list[str] = []
    reference = golden
    per_unit_ops = max(u["result"].ops or len(u["cycles"]) for u in units) or 1
    attempted = failed = 0
    for i, u in enumerate(units):
        res = u["result"]
        ops = res.ops or len(u["cycles"]) or per_unit_ops
        bad = res.failed > 0
        if bad:
            problems.append(f"unit {i}: raised or exited nonzero")
        if not all(balanced(report.accounting) for _, _, report in u["cycles"]):
            bad = True
            problems.append(f"unit {i}: packet books do not balance")
        if u["tracer"] is not None and u["tracer"].unbalanced:
            bad = True
            problems.append(f"unit {i}: {u['tracer'].unbalanced} unbalanced rollouts")
        if not bad:
            if reference is None:
                reference = res.digests
            elif res.digests != reference:
                bad = True
                which = "golden" if reference is golden else "unit 0"
                problems.append(f"unit {i}: digests differ from {which}")
        errors = sum(1 for _, _, report in u["cycles"] if report.backend_error is not None)
        if errors:
            problems.append(f"unit {i}: {errors} backend errors")
        attempted += ops
        failed += ops if bad else errors
    return attempted, failed, problems


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than twenty samples that percentile would lie below the
    median, and the maximum is returned instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, units, import_s, attempted, failed) -> tuple[dict, list[str]]:
    ops = units[0]["result"].ops or len(units[0]["cycles"])
    cycle_times = [[dt for _, dt, _ in u["cycles"]] for u in units]
    if len({len(ts) for ts in cycle_times}) != 1:
        raise RuntimeError("repeats ran different numbers of control cycles")
    median = statistics.median
    wall_s = sum(median(ts) for ts in zip(*cycle_times)) + median(u["rest_s"] for u in units)
    if workload.decision == "unit":
        per_decision = [[u["wall_s"]] for u in units]
        what = "brute_force_optimal calls"
    else:
        per_decision = [[dt for _, dt, r in u["cycles"] if r.gate_open] for u in units]
        what = "backend-consulting cycles"
    decisions = [median(ts) * 1000.0 for ts in zip(*per_decision)]
    tail_ms, tail_pct = tail(decisions)
    metrics = {
        "setup_s": (median(import_s) + median(u["build_s"] for u in units), "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (ops / wall_s, "1/s"),
        "decision_ms_p50": (median(decisions), "ms"),
        "decision_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = [
        f"unit: {ops} x {workload.op_name}; repeats: {len(units)}; "
        f"raw walls_s: {[round(u['raw_wall_s'], 3) for u in units]}; "
        f"scaled: {[round(u['wall_s'], 3) for u in units]}",
        f"decisions: {len(decisions)} {what}, each the median of {len(units)} repeats; "
        f"decision_ms_tail is p{tail_pct:.1f}",
    ]
    return metrics, notes


def per_layer(units) -> tuple[dict, list[str]]:
    plain = statistics.median(u["wall_s"] for u in units if not u["traced"])
    traced = sorted((u for u in units if u["traced"]), key=lambda u: u["wall_s"])
    unit = traced[(len(traced) - 1) // 2]
    tracer: Tracer = unit["tracer"]
    s = tracer.summary()
    # Span times are scaled to reference speed like the unit's wall time.
    scale = unit["wall_s"] / unit["raw_wall_s"]

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0) * scale

    def total_s(name):
        return s.get(name, {}).get("total_s", 0.0) * scale

    def per(value, count, factor=1.0):
        return value * factor / count if count else 0.0

    propose = [n for n in s if n.endswith(".propose")]
    propose_calls = sum(calls(n) for n in propose)
    sim = "radio.simulate_interval"
    slice_runs = tracer.slice_runs
    cycles = [r for _, _, r in unit["cycles"]]
    backend_calls = sum(1 for r in cycles if r.gate_open)
    rollouts = sum(tracer.calls_by_parent[p] for p in ROLLOUT_PARENTS)
    in_cycle = {k: v * scale for k, v in tracer.module_self_under("loop.run_cycle").items()}
    cycle_total = total_s("loop.run_cycle")
    m = {
        "radio.simulate_interval.calls": (calls(sim), "count"),
        "radio.simulate_interval.self_s": (self_s(sim), "s"),
        "radio.slice_interval_us": (per(self_s(sim), slice_runs, 1e6), "us"),
        "radio.live_calls": (tracer.calls_by_parent["loop.run_cycle"], "count"),
        "radio.rollout_calls": (rollouts, "count"),
        "radio.distinct_slice_runs_ratio": (per(tracer.distinct_slice_runs(), slice_runs), "ratio"),
        "sla.assess.calls": (calls("sla.assess"), "count"),
        "sla.assess.self_s": (self_s("sla.assess"), "s"),
        "sla.assess_us": (per(self_s("sla.assess"), calls("sla.assess"), 1e6), "us"),
        "store.load_s": (per(total_s("store.ExperienceStore.load"), calls("store.ExperienceStore.load")), "s"),
        "store.retrieve.calls": (calls("store.ExperienceStore.retrieve"), "count"),
        "store.retrieve_us": (per(total_s("store.ExperienceStore.retrieve"), calls("store.ExperienceStore.retrieve"), 1e6), "us"),
        "store.record.calls": (calls("store.ExperienceStore.record"), "count"),
        "store.record_us": (per(total_s("store.ExperienceStore.record"), calls("store.ExperienceStore.record"), 1e6), "us"),
        "store.size": (tracer.store_size, "records"),
        "agents.build_meta_prompt.calls": (calls("agents.build_meta_prompt"), "count"),
        "agents.build_meta_prompt_us": (per(total_s("agents.build_meta_prompt"), calls("agents.build_meta_prompt"), 1e6), "us"),
        "agents.propose.calls": (propose_calls, "count"),
        "agents.propose.self_s": (sum(self_s(n) for n in propose), "s"),
        "agents.candidates_per_decision": (per(calls("agents.Predictor.score"), propose_calls), "count"),
        "agents.prompt_tokens": (tracer.tokens["prompt"], "tokens"),
        "agents.completion_tokens": (tracer.tokens["completion"], "tokens"),
        "agents.tokens_per_decision": (per(sum(r.token_delta for r in cycles), backend_calls), "tokens"),
        "agents.backend_errors": (sum(1 for r in cycles if r.backend_error is not None), "count"),
        "loop.run_cycle.calls": (calls("loop.run_cycle"), "count"),
        "loop.run_cycle.self_s": (self_s("loop.run_cycle"), "s"),
        "loop.gate_open_ratio": (per(backend_calls, len(cycles)), "ratio"),
        "loop.reallocations": (sum(1 for r in cycles if r.reallocated), "count"),
        "baselines.enumerate_splits.calls": (calls("baselines.enumerate_splits"), "count"),
        "baselines.enumerate_splits.self_s": (self_s("baselines.enumerate_splits"), "s"),
        "baselines.splits_scored": (tracer.splits_scored, "count"),
        "baselines.split_us": (per(total_s("baselines.enumerate_splits"), tracer.splits_scored, 1e6), "us"),
        "harness.write_run_dir_s": (total_s("harness.write_run_dir"), "s"),
        "stats.compute_distribution_stats.self_s": (self_s("stats.compute_distribution_stats"), "s"),
        "trace.overhead_ratio": (unit["wall_s"] / plain, "ratio"),
    }
    for module in ("radio", "sla", "store", "agents", "loop"):
        m[f"loop.run_cycle.{module}_share"] = (per(in_cycle.get(module, 0.0), cycle_total), "ratio")
    shares = ", ".join(f"{k} {v / cycle_total:.3f}" for k, v in sorted(in_cycle.items(), key=lambda kv: -kv[1])) if cycle_total else "no cycles"
    notes = [
        f"median traced unit: {unit['wall_s']:.4f} s against {plain:.4f} s untraced; "
        f"{len(tracer.spans)} spans",
        f"self time inside loop.run_cycle by module: {shares}",
    ]
    return m, notes


def write_spans(root: Path, units, workload_name: str, seed: int) -> Path:
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload_name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, u in enumerate(units):
            if u["tracer"] is None:
                continue
            for sid, parent, name, start, end in u["tracer"].spans:
                fh.write(json.dumps({"unit": i, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help=f"store this run's digests as the goldens (needs --seed {GOLDEN_SEED})")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    src = root / "src"
    if not (src / "sliceloop" / "__init__.py").is_file():
        print(f"error: no sliceloop sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.record_golden and args.seed != GOLDEN_SEED:
        parser.error(f"--record-golden needs --seed {GOLDEN_SEED}")

    sys.path.insert(0, str(src))
    import sliceloop

    if Path(sliceloop.__file__).resolve().parent != (src / "sliceloop").resolve():
        print(f"error: imported sliceloop from {sliceloop.__file__}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
    try:
        workload.prepare(args.seed, tmp)
        meter = SpeedMeter()
        import_s = [time_import(root, meter) for _ in range(IMPORT_SAMPLES)]
        units = run_units(workload, args.seconds, bool(args.trace), tmp, meter)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, problems = check_units(units, args.workload, args.seed)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    # Units that raised have no complete timings; wrong outputs still do.
    units = [u for u in units if not u["result"].failed]
    if not units or (args.trace and not any(u["traced"] for u in units)):
        print("error: no unit ran to completion; nothing to report", file=sys.stderr)
        return 1
    if args.record_golden:
        digests = units[0]["result"].digests
        data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {"seed": GOLDEN_SEED, "workloads": {}}
        data["workloads"][args.workload] = digests
        GOLDEN_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    if args.trace:
        metrics, notes = per_layer(units)
        notes.append(f"spans: {write_spans(root, units, args.workload, args.seed)}")
    else:
        metrics, notes = end_to_end(workload, units, import_s, attempted, failed)
    print(f"workload {args.workload} seed {args.seed}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
