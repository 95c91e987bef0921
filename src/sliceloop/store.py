"""Persistent experience store with distance-then-performance retrieval.

Records are append-only JSON lines (one object per line, flushed per
write) so the history is human-inspectable and survives crashes.
Retrieval is an exact linear scan: shortlist the ``m = multiplier * k``
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

    def __init__(
        self,
        n_slices: int,
        path: Optional[Path] = None,
        shortlist_multiplier: int = 3,
    ) -> None:
        if shortlist_multiplier < 1:
            raise ValueError("shortlist_multiplier must be >= 1")
        self.n_slices = n_slices
        self.path = Path(path) if path is not None else None
        self.shortlist_multiplier = shortlist_multiplier
        self._records: list[ExperienceRecord] = []
        self._rates_cache: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[ExperienceRecord]:
        return list(self._records)

    @classmethod
    def load(
        cls, path: Path, n_slices: int, shortlist_multiplier: int = 3
    ) -> "ExperienceStore":
        store = cls(n_slices, path=None, shortlist_multiplier=shortlist_multiplier)
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    store._append(ExperienceRecord.from_json_obj(json.loads(line)))
        store.path = Path(path)
        return store

    def _append(self, rec: ExperienceRecord) -> None:
        self._records.append(rec)
        self._rates_cache = None

    def _rates(self) -> np.ndarray:
        if self._rates_cache is None or len(self._rates_cache) != len(self._records):
            self._rates_cache = np.array(
                [r.arrival_rates_mbps for r in self._records], dtype=np.float64
            ).reshape(len(self._records), self.n_slices)
        return self._rates_cache

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
        self._append(rec)
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
        dist = np.sqrt(((self._rates() - q) ** 2).sum(axis=1))
        ids = np.arange(n)
        # Shortlist: m nearest by distance, ties to the lower record id.
        m = min(self.shortlist_multiplier * k, n)
        shortlist = np.lexsort((ids, dist))[:m]
        sigmas = np.array([self._records[i].resulting_sigma for i in shortlist])
        # Rank: best sigma first, then nearest, then lowest id.
        order = np.lexsort((shortlist, dist[shortlist], -sigmas))[:k]
        return [self._records[shortlist[i]] for i in order]
