"""Count the lines of ``src/sliceloop``: all, and net of blank, comment and docstring lines.

    python3 scripts/source_lines.py

A docstring line is one of a string that starts a statement, found by
``tokenize``.  Net source lines are a tracked design metric: CI prints
them with this script before it installs any dependency, so it uses the
standard library alone, and ``scripts/bench.py`` imports
``source_lines`` to write them to ``BENCH_<pr>.json``.
"""
from __future__ import annotations

import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def source_lines() -> dict:
    """``{"total": all lines, "net": lines without blank, comment and docstring lines}``."""
    ends = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
    skip = ends | {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING, tokenize.ENDMARKER}
    total = net = 0
    for path in sorted((ROOT / "src" / "sliceloop").glob("*.py")):
        lines, starts = set(), True
        with open(path, "rb") as fh:
            total += len(fh.readlines())
            fh.seek(0)
            for tok in tokenize.tokenize(fh.readline):
                if tok.type not in skip and not (starts and tok.type == tokenize.STRING):
                    lines.update(range(tok.start[0], tok.end[0] + 1))
                if tok.type not in skip - ends:
                    starts = tok.type in ends
        net += len(lines)
    return {"total": total, "net": net}


if __name__ == "__main__":
    counts = source_lines()
    print(f"{counts['total']} total")
    print(f"{counts['net']} net (no blank, comment or docstring lines)")
