"""Persistent experience store with distance-then-performance retrieval.

Records are append-only JSON lines (one object per line, flushed per
write) so the history is human-inspectable and survives crashes.  A
line holds the record's id, which is its 0-based position in the file,
its arrival rates, allocation shares, sigma, per-slice KPM summary and
interval, all built here from one interval's ``SliceKpm`` tuple.  A
write that fails is cut back off the file, and its lines are written
ahead of the next record's line, so each id stays its line's position.
In memory the store keeps only the columns that retrieval and the
prompt read: one row of arrival rates and one of shares per slice and
one array of sigmas, record ``i`` in column ``i``.  The KPM summary
and the interval are written but not kept.  ``load`` streams a history
into the columns and ``record`` appends to spare ones; the arrays
double when full, so an append costs amortised O(1).

Retrieval is exact.  Shortlist the ``3 * k`` records nearest to the
query traffic vector by Euclidean distance, ties to the lower record id,
then keep the ``k`` with the best (least negative) historical sigma.
Final ordering is descending sigma, then ascending distance, then
ascending record id.

The squared differences are summed one slice at a time, in slice order,
which is bit for bit what ``np.sum`` over a row of up to 7 slices
gives.  A store of 8 or more slices keeps the slice-ordered sum, where
numpy would switch to pairwise summation and could differ in the last
bit.  The shortlist selects the ``m``-th smallest distance with
``np.partition`` and ranks only the ``m`` records it keeps, so no
retrieve sorts the whole store.  Rates must be finite: a NaN distance
would fall outside both the shortlist's ``<`` and ``==`` tests.

A first query scans every record, in O(n).  The store remembers the last
shortlist, and a retrieve with the same query bytes and ``k`` (the loop
asks again whenever traffic has not changed) scans only the records
appended since, in O(new records + 3k): it picks from the old shortlist
plus those records.  That is exact because records are only appended: a
record left out of a shortlist of ``3 * k`` has that many records ahead
of it by (distance, id), and keeps them.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import SliceKpm

log = logging.getLogger(__name__)

SHORTLIST_MULTIPLIER = 3


class StorageError(RuntimeError):
    """Durable write failed; the in-memory copy is still intact."""


@dataclass(frozen=True)
class ExperienceRecord:
    """One historical decision and the performance it produced."""

    record_id: int
    arrival_rates_mbps: Tuple[float, ...]
    allocation_shares: Tuple[float, ...]
    resulting_sigma: float


def _grown(column: np.ndarray, n: int, capacity: int) -> np.ndarray:
    """``column`` with its first ``n`` entries on the last axis kept and room for ``capacity``."""
    out = np.empty(column.shape[:-1] + (capacity,))
    out[..., :n] = column[..., :n]
    return out


class ExperienceStore:
    """Single-writer store of experience records over one slice topology."""

    def __init__(self, n_slices: int, path: Optional[Path] = None) -> None:
        self.n_slices = n_slices
        self.path = Path(path) if path is not None else None
        self._n = 0
        # Columns past len(self) are spare capacity for `record`.
        self._rates = np.empty((n_slices, 0))
        self._shares = np.empty((n_slices, 0))
        self._sigmas = np.empty(0)
        # Lines of records whose durable write failed, oldest first.
        self._pending: list[str] = []
        # The last retrieve: ((query bytes, k), store size, shortlist ids
        # ascending, their distances).
        self._last: Optional[tuple] = None

    def __len__(self) -> int:
        return self._n

    @classmethod
    def load(cls, path: Path, n_slices: int) -> "ExperienceStore":
        """Read a JSONL history; later records are appended to the same file.

        A last line without its newline is a write that a crash cut short:
        it is dropped, with its record if it still parsed, and the file is
        truncated to the last complete line.  Any other bad line is a
        ``ValueError`` naming the file and the line.
        """
        store = cls(n_slices, path=path)
        line = "\n"
        with open(path) as fh:
            try:
                for lineno, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                        if obj["id"] != store._n:
                            raise ValueError(f"id must be the record position {store._n}, got {obj['id']!r}")
                        store._append(obj["rates"], obj["shares"], obj["sigma"], len(obj["kpm"]))
                    except KeyError as exc:
                        raise ValueError(f"{path}, line {lineno}: no {exc} field") from None
                    except (ValueError, TypeError) as exc:
                        # A truncated line is a JSONDecodeError, a ValueError.
                        raise ValueError(f"{path}, line {lineno}: {exc}") from None
            except ValueError:
                if line.endswith("\n"):
                    raise
            else:
                if not line.endswith("\n") and line.strip():
                    store._n -= 1  # the torn line parsed; its column is spare again
            torn = 0 if line.endswith("\n") else len(line.encode(fh.encoding))
        if torn:
            # Only the last line can lack its newline.
            with open(path, "rb+") as fh:
                fh.truncate(fh.seek(0, 2) - torn)
            log.warning("%s: dropped torn last line %d (%d bytes)", path, lineno, torn)
        return store

    def record(
        self,
        kpm: Sequence[SliceKpm],
        allocation_shares: Sequence[float],
        resulting_sigma: float,
        interval: int,
    ) -> int:
        """Append one interval's record, assign the next sequential id, persist it.

        ``kpm`` holds the interval's KPMs, one per slice; the record's
        arrival rates are their offered loads.  If the write fails, the
        file is truncated back to its size before the write, the record
        stays in memory, its line waits to be written ahead of the next
        one, and ``StorageError`` is raised.
        """
        obj = {
            "id": self._n,
            "rates": [float(s.offered_load_mbps) for s in kpm],
            "shares": [float(s) for s in allocation_shares],
            "sigma": float(resulting_sigma),
            "kpm": [{"latency_ms": s.mean_latency_ms, "throughput_mbps": s.mean_throughput_mbps,
                     "drop_ratio": s.drop_ratio} for s in kpm],
            "interval": int(interval),
        }
        self._append(obj["rates"], obj["shares"], obj["sigma"], len(obj["kpm"]))
        if self.path is not None:
            self._pending.append(json.dumps(obj) + "\n")
            try:
                self._write_pending()
            except OSError as exc:
                # Keep the record and its pending line so the loop can continue.
                log.warning("experience store write failed: %s", exc)
                raise StorageError(str(exc)) from exc
            self._pending.clear()
        return obj["id"]

    def _write_pending(self) -> None:
        """Append the pending lines, unbuffered; on failure, cut off what was written."""
        data = memoryview("".join(self._pending).encode())
        with open(self.path, "ab", buffering=0) as fh:
            size = fh.tell()
            try:
                while data:
                    data = data[fh.write(data):]
            except OSError:
                # A partial line would sit ahead of the pending lines.
                fh.truncate(size)
                raise

    def _append(self, rates: Sequence[float], shares: Sequence[float], sigma: float, n_kpm: int) -> None:
        """Check one record against the slice count and add it as the next column."""
        n_slices = self.n_slices
        if len(rates) != n_slices:
            raise ValueError(f"every rate vector must have {n_slices} entries, got {len(rates)}")
        if not all(map(math.isfinite, rates)):
            raise ValueError(f"arrival rates must be finite, got {list(rates)}")
        if len(shares) != n_slices or not all(map(math.isfinite, shares)):
            raise ValueError(f"allocation_shares must be {n_slices} finite values, got {list(shares)}")
        if not -math.inf < sigma <= 0:
            raise ValueError(f"resulting_sigma must be finite and <= 0, got {sigma}")
        if n_kpm != n_slices:
            raise ValueError("arrival rates and KPM summary disagree on slice count")
        n = self._n
        if n == len(self._sigmas):
            capacity = max(2 * n, 16)
            self._rates = _grown(self._rates, n, capacity)
            self._shares = _grown(self._shares, n, capacity)
            self._sigmas = _grown(self._sigmas, n, capacity)
        self._rates[:, n] = rates
        self._shares[:, n] = shares
        self._sigmas[n] = sigma
        self._n = n + 1

    def retrieve(self, query_rates: Sequence[float], k: int) -> list[ExperienceRecord]:
        """Two-stage nearest/best lookup, deterministic for any store state."""
        if len(query_rates) != self.n_slices:
            raise ValueError("query vector length must equal slice count")
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query_rates, dtype=np.float64)
        if not np.isfinite(q).all():
            raise ValueError(f"query rates must be finite, got {list(query_rates)}")
        n = self._n
        if n == 0:
            return []
        key = (q.tobytes(), k)
        last = self._last
        if last is not None and last[0] == key:
            _, seen, old_ids, old_dist = last
            cand = np.concatenate((old_ids, np.arange(seen, n)))
            dist = np.concatenate((old_dist, self._distances(q, seen)))
        else:
            cand, dist = None, self._distances(q)
        # Shortlist: m nearest by distance, ties to the lower record id.
        # Everything below the m-th smallest distance is in; the lowest
        # ids at exactly that distance fill the rest.  Candidates are in
        # ascending id order, so their positions order them by id.
        m = min(SHORTLIST_MULTIPLIER * k, n)
        kth = np.partition(dist, m - 1)[m - 1]
        inside = dist < kth
        inside[np.flatnonzero(dist == kth)[: m - np.count_nonzero(inside)]] = True
        keep = np.flatnonzero(inside)
        shortlist = keep if cand is None else cand[keep]
        dist = dist[keep]
        self._last = (key, n, shortlist, dist)
        # Rank: best sigma first, then nearest, then lowest id.
        order = np.lexsort((shortlist, dist, -self._sigmas[shortlist]))[:k]
        return [
            ExperienceRecord(
                int(i),
                tuple(self._rates[:, i].tolist()),
                tuple(self._shares[:, i].tolist()),
                float(self._sigmas[i]),
            )
            for i in shortlist[order]
        ]

    def _distances(self, q: np.ndarray, start: int = 0) -> np.ndarray:
        """Euclidean distance from ``q`` to records ``start`` onward, summed in slice order."""
        n = self._n
        dist = np.zeros(n - start)
        d = np.empty(n - start)
        for row, q_k in zip(self._rates, q):
            np.subtract(row[start:n], q_k, out=d)
            d *= d
            dist += d
        return np.sqrt(dist, out=dist)
