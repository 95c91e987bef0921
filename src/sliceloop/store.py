"""Persistent experience store with distance-then-performance retrieval.

Records are append-only JSON lines (one object per line, flushed per
write) so the history is human-inspectable and survives crashes.
Retrieval is an exact linear scan over one rates array, built by
``load`` and extended by ``record`` into spare rows (the array doubles
when full, so an append costs amortised O(1)): shortlist the ``3 * k``
records nearest to the query traffic vector by Euclidean distance, then
keep the ``k`` with the best (least negative) historical sigma.  Final
ordering is descending sigma, then ascending distance, then ascending
record id.
"""
from __future__ import annotations

import json
import logging
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
        if self.resulting_sigma > 0:
            raise ValueError("resulting_sigma must be nonpositive")
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
        # Row i < len(self) holds record i's arrival rates: the retrieval
        # index.  Rows past that are spare capacity for `record`.
        self._rates = np.empty((0, n_slices), dtype=np.float64)

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
        store = cls(n_slices, path=path)
        store._records = records
        store._rates = np.array(
            [r.arrival_rates_mbps for r in records], dtype=np.float64
        ).reshape(len(records), n_slices)
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
        n = len(self._records)
        if n == len(self._rates):
            grown = np.empty((max(2 * n, 16), self.n_slices), dtype=np.float64)
            grown[:n] = self._rates
            self._rates = grown
        self._rates[n] = rec.arrival_rates_mbps
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
        n = len(self._records)
        if n == 0:
            return []
        q = np.asarray(query_rates, dtype=np.float64)
        dist = np.sqrt(((self._rates[:n] - q) ** 2).sum(axis=1))
        # Shortlist: m nearest by distance, ties to the lower record id.
        m = min(SHORTLIST_MULTIPLIER * k, n)
        shortlist = np.argsort(dist, kind="stable")[:m]
        sigmas = np.array([self._records[i].resulting_sigma for i in shortlist])
        # Rank: best sigma first, then nearest, then lowest id.
        order = np.lexsort((shortlist, dist[shortlist], -sigmas))[:k]
        return [self._records[shortlist[i]] for i in order]
