"""Reload CSVs written by ``sliceloop.stats.write_csv`` in the tests."""
from __future__ import annotations

import csv
from pathlib import Path


def read_csv(path: Path) -> list[dict]:
    """Reload a CSV written by write_csv, restoring numeric types."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed = {}
            for key, raw in row.items():
                try:
                    parsed[key] = int(raw)
                except ValueError:
                    try:
                        parsed[key] = float(raw)
                    except ValueError:
                        parsed[key] = raw
            out.append(parsed)
    return out
