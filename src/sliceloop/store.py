"""Persistent experience store with distance-then-performance retrieval.

Records are append-only JSON lines (one object per line, flushed per
write) so the history is human-inspectable and survives crashes.
Retrieval is an exact linear-time scan over a slice-major index: one row
of arrival rates per slice and one array of sigmas, record ``i`` in
column ``i``, built by ``load`` and extended by ``record`` into spare
columns (the arrays double when full, so an append costs amortised
O(1)).  Shortlist the ``3 * k`` records nearest to the query traffic
vector by Euclidean distance, ties to the lower record id, then keep the
``k`` with the best (least negative) historical sigma.  Final ordering
is descending sigma, then ascending distance, then ascending record id.

The squared differences are summed one slice at a time, in slice order,
which is bit for bit what ``np.sum`` over a row of up to 7 slices
gives.  A store of 8 or more slices keeps the slice-ordered sum, where
numpy would switch to pairwise summation and could differ in the last
bit.  The shortlist selects the ``m``-th smallest distance with
``np.partition`` and ranks only the ``m`` records it keeps, so no
retrieve sorts the whole store.  Rates must be finite: a NaN distance
would fall outside both the shortlist's ``<`` and ``==`` tests.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

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
    kpm_summary: Tuple[dict, ...]  # per slice: latency_ms, throughput_mbps, drop_ratio
    created_at_interval: int

    def __post_init__(self) -> None:
        if not -math.inf < self.resulting_sigma <= 0:
            raise ValueError(f"resulting_sigma must be finite and <= 0, got {self.resulting_sigma}")
        if len(self.arrival_rates_mbps) != len(self.kpm_summary):
            raise ValueError("arrival rates and KPM summary disagree on slice count")

    def to_json_obj(self) -> dict:
        return {
            "id": self.record_id,
            "rates": list(self.arrival_rates_mbps),
            "shares": list(self.allocation_shares),
            "sigma": self.resulting_sigma,
            "kpm": list(self.kpm_summary),
            "interval": self.created_at_interval,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperienceRecord":
        return cls(
            record_id=obj["id"],
            arrival_rates_mbps=tuple(obj["rates"]),
            allocation_shares=tuple(obj["shares"]),
            resulting_sigma=obj["sigma"],
            kpm_summary=tuple(obj["kpm"]),
            created_at_interval=obj["interval"],
        )


class ExperienceStore:
    """Single-writer store of ExperienceRecords over one slice topology."""

    def __init__(self, n_slices: int, path: Optional[Path] = None) -> None:
        self.n_slices = n_slices
        self.path = Path(path) if path is not None else None
        self._records: list[ExperienceRecord] = []
        # Column i < len(self) holds record i's arrival rates, one row per
        # slice, and _sigmas[i] its sigma: the retrieval index.  Columns
        # past that are spare capacity for `record`.
        self._rates = np.empty((n_slices, 0), dtype=np.float64)
        self._sigmas = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[ExperienceRecord]:
        return list(self._records)

    @classmethod
    def load(cls, path: Path, n_slices: int) -> "ExperienceStore":
        """Read a JSONL history; later records are appended to the same file."""
        with open(path) as fh:
            records = [
                ExperienceRecord.from_json_obj(json.loads(line))
                for line in fh
                if line.strip()
            ]
        if any(len(r.arrival_rates_mbps) != n_slices for r in records):
            raise ValueError(f"{path}: every rate vector must have {n_slices} entries")
        rates = np.array(
            [r.arrival_rates_mbps for r in records], dtype=np.float64
        ).reshape(len(records), n_slices)
        if not np.isfinite(rates).all():
            raise ValueError(f"{path}: every arrival rate must be finite")
        store = cls(n_slices, path=path)
        store._records = records
        store._rates = np.ascontiguousarray(rates.T)
        store._sigmas = np.array([r.resulting_sigma for r in records], dtype=np.float64)
        return store

    def record(
        self,
        arrival_rates_mbps: Sequence[float],
        allocation_shares: Sequence[float],
        resulting_sigma: float,
        kpm_summary: Sequence[dict],
        created_at_interval: int,
    ) -> int:
        """Append a record, assign the next sequential id, persist it."""
        if len(arrival_rates_mbps) != self.n_slices:
            raise ValueError("arrival rate vector length must equal slice count")
        rec = ExperienceRecord(
            record_id=len(self._records),
            arrival_rates_mbps=tuple(float(r) for r in arrival_rates_mbps),
            allocation_shares=tuple(float(s) for s in allocation_shares),
            resulting_sigma=float(resulting_sigma),
            kpm_summary=tuple(dict(k) for k in kpm_summary),
            created_at_interval=int(created_at_interval),
        )
        if not all(math.isfinite(r) for r in rec.arrival_rates_mbps):
            raise ValueError(f"arrival rates must be finite, got {rec.arrival_rates_mbps}")
        n = len(self._records)
        if n == len(self._sigmas):
            capacity = max(2 * n, 16)
            rates = np.empty((self.n_slices, capacity), dtype=np.float64)
            rates[:, :n] = self._rates
            sigmas = np.empty(capacity, dtype=np.float64)
            sigmas[:n] = self._sigmas
            self._rates, self._sigmas = rates, sigmas
        self._rates[:, n] = rec.arrival_rates_mbps
        self._sigmas[n] = rec.resulting_sigma
        self._records.append(rec)
        if self.path is not None:
            try:
                with open(self.path, "a") as fh:
                    fh.write(json.dumps(rec.to_json_obj()) + "\n")
                    fh.flush()
            except OSError as exc:
                # Keep the in-memory copy so the loop can continue.
                log.warning("experience store write failed: %s", exc)
                raise StorageError(str(exc)) from exc
        return rec.record_id

    def retrieve(self, query_rates: Sequence[float], k: int) -> list[ExperienceRecord]:
        """Two-stage nearest/best lookup, deterministic for any store state."""
        if len(query_rates) != self.n_slices:
            raise ValueError("query vector length must equal slice count")
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query_rates, dtype=np.float64)
        if not np.isfinite(q).all():
            raise ValueError(f"query rates must be finite, got {list(query_rates)}")
        n = len(self._records)
        if n == 0:
            return []
        dist = self._distances(q)
        # Shortlist: m nearest by distance, ties to the lower record id.
        # Everything below the m-th smallest distance is in; the lowest
        # ids at exactly that distance fill the rest.
        m = min(SHORTLIST_MULTIPLIER * k, n)
        kth = np.partition(dist, m - 1)[m - 1]
        below = np.flatnonzero(dist < kth)
        at_kth = np.flatnonzero(dist == kth)[: m - len(below)]
        shortlist = np.concatenate((below, at_kth))
        # Rank: best sigma first, then nearest, then lowest id.  The ids
        # are unique, so the shortlist's own order does not matter.
        order = np.lexsort((shortlist, dist[shortlist], -self._sigmas[shortlist]))[:k]
        return [self._records[shortlist[i]] for i in order]

    def _distances(self, q: np.ndarray) -> np.ndarray:
        """Euclidean distance from ``q`` to every record, summed in slice order."""
        n = len(self._records)
        dist = np.zeros(n)
        d = np.empty(n)
        for row, q_k in zip(self._rates, q):
            np.subtract(row[:n], q_k, out=d)
            d *= d
            dist += d
        return np.sqrt(dist, out=dist)
