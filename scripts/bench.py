"""Write BENCH_<pr>.json: the benchmark's numbers for one source tree, in one file.

    python3 scripts/bench.py --pr 30            # about 6 minutes on 2 cores
    python3 scripts/bench.py --pr 30 --runs 3

Run it from anywhere; it measures the checkout it lives in and writes
``BENCH_<pr>.json`` at that checkout's root.  It records:

* ``workloads``: every workload of ``perfbench/run.py`` at seeds 1 and 2,
  ``--runs`` untraced runs of 5 s each; per end-to-end metric the
  median, the quartiles and every value, and the ``correct`` flag of
  every run.  stderr goes to /dev/null on every run, because
  ``peak_rss_mb`` moves with where it goes.
* ``cli_s``: wall time of five commands, interpreter start included,
  the minimum over the rounds, and ``cli_s_values``, every time.
  Each of the ``--runs`` rounds runs every workload at both seeds and
  then each command once, so that a slow spell of the host lands on
  every workload and command alike.
* ``traced``: one ``--trace 1`` run per workload at seed 1, with
  its per-layer metrics and ``correct`` flag.
* ``tests`` (the Tier-1 suite's counts), ``source_lines`` (``src/sliceloop``
  in total and without blank, comment and docstring lines), the
  commit, ``source_sha256`` (a digest of the files under ``src/`` and
  ``perfbench/`` as measured, committed or not), Python, numpy and CPU
  count.
* ``mismeasured``: the per-layer metrics known to measure something else
  than their name says, with the reason.

The seeds and the run length are fixed, so that any two files compare:
a speed claim compares the parent's and the change's, beside its
alternating A/B pairs.  Nothing here is imported by the
package or by ``perfbench``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from source_lines import source_lines  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLI_COMMANDS = {
    "scenario1": ["scenario1"],
    "scenario1_no_gate": ["scenario1", "--no-gate"],
    "scenario2_70_trials": ["scenario2", "--trials", "70"],
    "tokens": ["tokens"],
    "oracle_table_2slice": ["oracle-table", "--rates", "120", "80"],
}
SEEDS = (1, 2)
RUN_SECONDS = 5.0

MISMEASURED = {
    "agents.candidates_per_decision":
        "counts Predictor.score spans per propose; the oracle scores every split in one "
        "score_splits call, so it reads 0 (CHANGES.md, the FOUND line on this metric)",
    "agents.propose.self_s":
        "holds the oracle's split scoring, which no traced span separates from propose",
    "radio.distinct_slice_runs_ratio":
        "keys slice inputs by the absolute state.tick within one run_cycle span, so it "
        "misses the reuse across cycles and runs that the sweep memo takes",
    "radio.slice_interval_us":
        "averages sweep-memo hits with tick-loop runs",
    "trace.overhead_ratio":
        "has read below 1 (a traced unit faster than an untraced one), which tracing "
        "cannot make true",
}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _perfbench(workload: str, seed: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its last stdout line, parsed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {out.returncode}, no result line"}


def _cli_seconds(argv: list[str], out: str) -> float:
    """Wall time of one ``sliceloop`` command, interpreter start included."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "sliceloop", *argv, "--out", out],
                   env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def _rounds(runs: int) -> tuple[dict, dict]:
    """The ``workloads`` summary and every command's times, over interleaved rounds."""
    results = {w: {str(s): [] for s in SEEDS} for w in WORKLOADS}
    cli = {name: [] for name in CLI_COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(runs):
            for seed in SEEDS:
                for workload in WORKLOADS:
                    results[workload][str(seed)].append(_perfbench(workload, seed, 0))
            for name, argv in CLI_COMMANDS.items():
                cli[name].append(_cli_seconds(argv, os.path.join(tmp, f"{name}-{i}")))
    summary = {}
    for workload, by_seed in results.items():
        summary[workload] = {}
        for seed, rows in by_seed.items():
            names = next((list(r["metrics"]) for r in rows if "metrics" in r), [])
            summary[workload][seed] = {
                "correct": [bool(r.get("correct")) for r in rows],
                "metrics": {
                    name: {"unit": next(r["metrics"][name]["unit"] for r in rows
                                        if "metrics" in r),
                           **_quartiles([r["metrics"][name]["value"] for r in rows
                                         if "metrics" in r])}
                    for name in names
                },
            }
    return summary, cli


def _traced() -> dict:
    traced = {}
    for workload in WORKLOADS:
        row = _perfbench(workload, SEEDS[0], 1)
        traced[workload] = {"seed": SEEDS[0], "correct": bool(row.get("correct")),
                            "metrics": {k: v["value"] for k, v in row.get("metrics", {}).items()}}
    return traced


def _tests() -> dict:
    """The Tier-1 suite's summary counts."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        check=False)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (\w+)", last)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0), "summary": last}


def _source_sha256() -> str:
    """SHA-256 over the relative path and bytes of every ``.py`` and ``.json``
    file under ``src/`` and ``perfbench/``, in sorted order: it names the
    measured tree whether or not it is committed."""
    digest = hashlib.sha256()
    paths = [p for d in ("src", "perfbench") for ext in ("py", "json")
             for p in (ROOT / d).rglob(f"*.{ext}")]
    for path in sorted(paths):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _git(*args: str) -> str | None:
    out = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names BENCH_<pr>.json")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload and seed")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    import numpy

    status = _git("status", "--porcelain", "--", "src", "perfbench")
    workloads, cli = _rounds(args.runs)
    report = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "settings": {"runs": args.runs, "seconds": RUN_SECONDS, "seeds": list(SEEDS)},
        "workloads": workloads,
        "traced": _traced(),
        "cli_s": {name: min(times) for name, times in cli.items()},
        "cli_s_values": cli,
        "tests": _tests(),
        "source_lines": source_lines(),
        "mismeasured": MISMEASURED,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
