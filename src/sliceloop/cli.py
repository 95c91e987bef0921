"""Command-line entry point.

Subcommands: scenario1, scenario2, tokens, oracle-table.  All outputs go
to a run directory as CSV/JSON; plotting is downstream.  Failures exit
nonzero with a machine-readable JSON error on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baselines import enumerate_splits
from .harness import (
    HarnessConfig,
    run_scenario1,
    run_scenario2,
    run_token_comparison,
    scenario2_figure_csvs,
    token_figure_csv,
    write_run_dir,
)
from .stats import write_csv


def _add_common(p: argparse.ArgumentParser, runs_loop: bool = True) -> None:
    p.add_argument("--config", type=Path, help="JSON config overriding the defaults")
    if runs_loop:
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--backend", choices=["oracle", "scripted", "remote"], default="oracle")
    p.add_argument("--out", type=Path, default=Path("run_out"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliceloop", description="SLA-gated slice resource-control experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("scenario1", help="step-traffic closed-loop run")
    _add_common(p1)
    p1.add_argument("--no-gate", action="store_true", help="decide every cycle")

    p2 = sub.add_parser("scenario2", help="paired policy comparison over random draws")
    _add_common(p2)
    p2.add_argument("--trials", type=int, default=70)

    p3 = sub.add_parser("tokens", help="token usage with and without the gate")
    _add_common(p3)

    p4 = sub.add_parser("oracle-table", help="exhaustive split enumeration as CSV")
    _add_common(p4, runs_loop=False)
    p4.add_argument("--rates", type=float, nargs=2, default=[120.0, 80.0],
                    metavar=("S1_MBPS", "S2_MBPS"))
    return parser


def _load_config(path: Path | None) -> HarnessConfig:
    if path is None:
        return HarnessConfig()
    with open(path) as fh:
        return HarnessConfig.from_dict(json.load(fh))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "scenario1":
            log, summary = run_scenario1(
                config, args.backend, args.seed, gate_enabled=not args.no_gate
            )
            write_run_dir(args.out, config, log=log, summary=summary)
        elif args.command == "scenario2":
            results = run_scenario2(config, args.trials, args.backend, args.seed)
            summary = {
                "seed": args.seed,
                "trials": args.trials,
                "backend": args.backend,
                "draws": [list(d) for d in results["draws"]],
                "policies": {
                    name: {
                        "s1_latency": dict(by_metric["s1_latency_ms"]),
                        "s2_drop": dict(by_metric["s2_drop_ratio"]),
                    }
                    for name, by_metric in results["stats"].items()
                },
            }
            for policy in summary["policies"].values():
                for stats in policy.values():
                    stats.pop("cdf")
            write_run_dir(
                args.out, config, summary=summary,
                extra_csvs=scenario2_figure_csvs(results),
            )
        elif args.command == "tokens":
            comparison = run_token_comparison(config, args.backend, args.seed)
            fields, rows = token_figure_csv(comparison)
            write_run_dir(
                args.out,
                config,
                log=comparison["gated"]["log"],
                summary={
                    "gated": comparison["gated"]["summary"],
                    "ungated": comparison["ungated"]["summary"],
                },
                extra_csvs={"fig5_tokens.csv": (fields, rows)},
            )
        elif args.command == "oracle-table":
            rows = enumerate_splits(list(args.rates), config.channels, config.radio_cfg,
                                    config.queue_cfg, config.specs)
            out_rows = [
                {
                    "rb_counts": "-".join(str(c) for c in r.rb_counts),
                    "s1_latency_ms": r.latencies_ms[0],
                    "s1_throughput_mbps": r.throughputs_mbps[0],
                    "s2_throughput_mbps": r.throughputs_mbps[1],
                    "s1_drop_ratio": r.drop_ratios[0],
                    "s2_drop_ratio": r.drop_ratios[1],
                    "sigma": r.sigma,
                    "objective": r.objective,
                    "feasible": r.feasible,
                }
                for r in rows
            ]
            args.out.mkdir(parents=True, exist_ok=True)
            write_csv(args.out / "oracle_table.csv", list(out_rows[0].keys()), out_rows)
        return 0
    except Exception as exc:  # surfaced as machine-readable error JSON
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
