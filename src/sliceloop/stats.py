"""Distribution summaries and round-trip-safe CSV output.

Floats are written with Python's shortest round-trip repr, so reloading
a CSV reproduces the in-memory values bit for bit.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np


def compute_distribution_stats(samples: Sequence[float]) -> dict:
    """Empirical CDF plus inclusive-method quartiles and percentiles."""
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(xs)
    cdf = [(float(x), (i + 1) / n) for i, x in enumerate(xs)]
    q = np.percentile(xs, [25, 50, 75, 95], method="linear")
    return {
        "cdf": cdf,
        "min": float(xs[0]),
        "q1": float(q[0]),
        "median": float(q[1]),
        "p50": float(q[1]),
        "q3": float(q[2]),
        "p95": float(q[3]),
        "max": float(xs[-1]),
    }


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, fieldnames: Sequence[str], rows: Sequence[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_cell(row[f]) for f in fieldnames])

