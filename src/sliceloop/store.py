"""Persistent experience store with distance-then-performance retrieval.

Records are append-only JSON lines (one object per line, flushed per
write) so the history is human-inspectable and survives crashes.  A
line holds the record's id, which is its 0-based position in the file,
its arrival rates, allocation shares, sigma, per-slice KPM summary and
interval, all built here from one interval's ``SliceKpm`` tuple.  The
store notes the file's durable size, at load and after each write, and
cuts the file back to it before every write and after one that fails.
A failed write's lines are written ahead of the next record's line, so
each id stays its line's position, and a partial line that a failed
cut left behind is cut off by the next write, not buried mid-file.
The pending lines are thus bounded by the records themselves: one line
per record whose write failed since the last write that succeeded,
which clears them all.  While the file refuses every write, each
record keeps its line in memory beside its columns.
In memory the store keeps only the columns that retrieval and the
prompt read: one row of arrival rates and one of shares per slice and
one array of sigmas, record ``i`` in column ``i``.  The KPM summary
and the interval are written but not kept.  ``load`` streams a history
into the columns and ``record`` appends to spare ones; the arrays
double when full, so an append costs amortised O(1).

``load`` reads the file as bytes, a block of whole lines at a time,
and a newline alone ends a line, as in JSON Lines.  It takes the lines
that ``record`` wrote without ``json``: one regular-expression match
per block checks that every line has ``record``'s exact layout for the
store's slice count and captures the id, rates, shares and sigma, which
``float`` reads as ``json`` does.  The pattern takes only what ``json``
reads to the same values: digits ``[0-9]`` only, rates, shares and
sigma with a fraction or an exponent (``json`` reads ``-0`` as an int,
whose float is 0.0, not -0.0), and ints of at most 16 digits, below any
limit ``json`` puts on an int's digits.  A block whose lines all match,
whose ids run on from the records before it and whose values pass the
checks of a single append is added in one step; any other block is read
line by line, each line decoded as UTF-8 and read by ``json``, with the
same records, errors and line numbers, so the block path changes how
fast a history loads, never what it loads.

Retrieval is exact.  Shortlist the ``m = 3 * k`` records nearest to the
query traffic vector by Euclidean distance, ties to the lower record id,
then keep the ``k`` with the best (least negative) historical sigma.
Final ordering is descending sigma, then ascending distance, then
ascending record id.

The squared differences are summed one slice at a time, in slice order,
which is bit for bit what ``np.sum`` over a row of up to 7 slices
gives.  A store of 8 or more slices keeps the slice-ordered sum, where
numpy would switch to pairwise summation and could differ in the last
bit.  Rates must be finite: a NaN distance would fall outside every
comparison the shortlist makes.

Retrieval is fast because a history holds few distinct traffic vectors:
offered rates come from step profiles and grids, so many records share
each vector.  The store groups records by the exact bits of their rate
vector and computes a query's distance once per group, from the same
floats, so each record's distance is bit for bit what a scan of every
record gives.  Each group keeps its first record and each record the
next one of its group, so a group's lowest ids are reached one link at
a time.  The ``m`` nearest records lie in the first ``m`` records of
the ``m`` groups that come first by (distance, first id): a group
behind ``m`` others has ``m`` records ahead of its first one.  Those
groups are walked in that order until ``m`` records are in hand and the
next group is farther.  For ``G`` groups a retrieve costs
O(G + m log m) plus at most m * m link steps, whatever the store's
size; only groups tied at the ``m``-th nearest distance add a sort of
the tied ones.  A history of all-distinct vectors has one group per record and
costs one O(n) scan per retrieve.  ``load`` groups the records in one
vectorised sort after parsing.  ``record`` only appends: the next
retrieve links each record appended since to the end of its group, in
amortised O(1) a record, through a map from rate bytes to each group's
last record.  A store that is never asked groups nothing, and a loaded
store holds no Python object per group until its first retrieve builds
that map.
"""
from __future__ import annotations

import functools
import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .core import SliceKpm

log = logging.getLogger(__name__)

SHORTLIST_MULTIPLIER = 3

# ``load`` reads this many bytes of whole lines at a time.  A
# larger block saves no time and raises peak RSS: perfbench long_history
# (a 10^5-record history) peaked at 52.9 MB with 1 MiB blocks and 49.0 MB
# with 256 KiB, against 47.2-47.3 MB with 64 KiB, as when json read each
# line, and set-up took 0.36-0.39 s with each.
_BLOCK_BYTES = 64 * 1024

# JSON number tokens: a float as ``json.dumps`` writes one, with a
# fraction or an exponent (``json`` reads a token without either as an
# int), and an int of at most 16 digits, far below the fewest digits
# (640) that ``sys.get_int_max_str_digits`` may let ``json`` read.
_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_INT = r"-?(?:0|[1-9][0-9]{0,15})"


@functools.cache
def _line_pattern(n_slices: int) -> re.Pattern:
    """The whole line's bytes, newline included, that ``record`` writes for ``n_slices`` slices.

    It captures the id, each rate, each share and sigma, in that order;
    the KPM numbers and the interval are only checked to be JSON numbers.
    """
    floats = ", ".join([f"({_FLOAT})"] * n_slices)
    number = f"(?:{_FLOAT}|{_INT})"
    kpm = f'\\{{"latency_ms": {number}, "throughput_mbps": {number}, "drop_ratio": {number}\\}}'
    line = (
        f'^\\{{"id": (0|[1-9][0-9]*), "rates": \\[{floats}\\], "shares": \\[{floats}\\], '
        f'"sigma": ({_FLOAT}), "kpm": \\[{", ".join([kpm] * n_slices)}\\], "interval": {_INT}\\}}\n'
    )
    return re.compile(line.encode(), re.MULTILINE)


class StorageError(RuntimeError):
    """Durable write failed; the in-memory copy is still intact."""


@dataclass(frozen=True)
class ExperienceRecord:
    """One historical decision and the performance it produced."""

    record_id: int
    arrival_rates_mbps: Tuple[float, ...]
    allocation_shares: Tuple[float, ...]
    resulting_sigma: float


def _float(name: str, value) -> float:
    """``float(value)``, where an integer beyond float range is a ValueError naming ``name``."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond float range") from None


def _grown(column: np.ndarray, n: int, capacity: int) -> np.ndarray:
    """``column`` with its first ``n`` entries on the last axis kept and room for ``capacity``."""
    out = np.empty(column.shape[:-1] + (capacity,), dtype=column.dtype)
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
        # Rate-vector groups of the first `_grouped` records: each group's
        # first record, in order of first appearance, and per record the
        # next record of its group, -1 after the group's last.
        self._grouped = 0
        self._groups = 0
        self._heads = np.empty(0, dtype=np.int64)
        self._next = np.empty(0, dtype=np.int64)
        # Rate bytes -> the group's last record; built by the first
        # retrieve that has records to group.
        self._tails: Optional[dict[bytes, int]] = None
        # Lines of records whose durable write failed, oldest first.
        self._pending: list[str] = []
        # The history file's size up to its last complete line; None
        # until a load or the first write notes it.
        self._size: Optional[int] = None

    def __len__(self) -> int:
        return self._n

    @classmethod
    def load(cls, path: Path, n_slices: int) -> "ExperienceStore":
        """Read a JSONL history; later records are appended to the same file.

        The file is read as bytes, and a newline alone ends a line, as in
        JSON Lines.  A last line without its newline is a write that a
        crash cut short: it is dropped unparsed, and the file is truncated
        to the last complete line.  Any other bad line, bytes that are not
        UTF-8 included, is a ``ValueError`` naming the file and the line.

        The file is read ``_BLOCK_BYTES`` of whole lines at a time.  A
        block whose lines are all as ``record`` writes them, for this
        slice count and with ids that run on from the records before it,
        is read by one ``findall`` of ``_line_pattern``.  Its rates,
        shares and sigmas are the captured tokens through ``float``, the
        conversion ``json`` makes; the pattern takes only ``[0-9]``
        digits, a fraction or exponent in each of those tokens, and ints
        of at most 16 digits, so each token it takes ``json`` reads to
        the same value.  The block is added whole if every record passes
        ``_append``'s checks, and otherwise not at all.  Any other block,
        a block ending in a torn line included, is read line by line
        through ``json``, so what a load gives or raises does not depend
        on the block path.
        """
        store = cls(n_slices, path=path)
        pattern = _line_pattern(n_slices)
        start = 0  # lines in the blocks before this one
        torn = None
        with open(path, "rb") as fh:
            while lines := fh.readlines(_BLOCK_BYTES):
                if not store._append_matched(pattern.findall(b"".join(lines)), len(lines)):
                    torn = store._load_lines(enumerate(lines, start + 1), path)
                start += len(lines)
        if torn:
            lineno, size = torn
            with open(path, "rb+") as fh:
                fh.truncate(fh.seek(0, 2) - size)
            log.warning("%s: dropped torn last line %d (%d bytes)", path, lineno, size)
        store._size = store.path.stat().st_size
        store._group_loaded()
        return store

    def _load_lines(self, numbered: Iterable[tuple[int, bytes]], path: Path) -> Optional[tuple[int, int]]:
        """Add the records of numbered lines one at a time, decoded as UTF-8, through ``json``.

        Returns the number and byte length of a last line without its
        newline, which is left unread, or None.
        """
        for lineno, line in numbered:
            if not line.endswith(b"\n"):  # only the last line can lack it
                return lineno, len(line)
            try:
                text = line.decode()
                if not text.strip():
                    continue
                obj = json.loads(text)
                if obj["id"] != self._n:
                    raise ValueError(f"id must be the record position {self._n}, got {obj['id']!r}")
                self._append(obj["rates"], obj["shares"], obj["sigma"], len(obj["kpm"]))
            except KeyError as exc:
                raise ValueError(f"{path}, line {lineno}: no {exc} field") from None
            except (ValueError, TypeError, OverflowError) as exc:
                # Bytes not UTF-8 are a ValueError, an int beyond float range an OverflowError.
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
        return None

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
        file is truncated back to its durable size, the record stays in
        memory, its line waits to be written ahead of the next one, and
        ``StorageError`` is raised.
        """
        obj = {
            "id": self._n,
            "rates": [float(s.offered_load_mbps) for s in kpm],
            "shares": [_float("allocation_shares", s) for s in allocation_shares],
            "sigma": _float("resulting_sigma", resulting_sigma),
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
        """Append the pending lines after the durable size, unbuffered; on failure, cut off what was written."""
        data = "".join(self._pending).encode()
        with open(self.path, "ab", buffering=0) as fh:
            if self._size is None:
                self._size = fh.tell()
            # Whatever lies past the durable size is a partial line that an
            # earlier failed write could not cut off.
            fh.truncate(self._size)
            rest = memoryview(data)
            try:
                while rest:
                    rest = rest[fh.write(rest):]
            except OSError:
                # A partial line would sit ahead of the pending lines.
                fh.truncate(self._size)
                raise
        self._size += len(data)

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
        self._extend(np.array(rates, dtype=np.float64)[:, None],
                     np.array(shares, dtype=np.float64)[:, None], [sigma])

    def _append_matched(self, matches: list[tuple[bytes, ...]], n_lines: int) -> bool:
        """Add the records that ``_line_pattern`` captured from a block of ``n_lines`` lines, or return False.

        They are added only when every line matched, the ids run on from
        ``len(self)`` and every record passes ``_append``'s checks;
        otherwise nothing is added.
        """
        n, k = self._n, len(matches)
        if k != n_lines:
            return False
        ids, *tokens = zip(*matches)
        if ids != tuple(b"%d" % i for i in range(n, n + k)):
            return False
        values = np.array([list(map(float, column)) for column in tokens])
        n_slices = self.n_slices
        sigmas = values[2 * n_slices]
        if not (np.isfinite(values[:2 * n_slices]).all() and ((-np.inf < sigmas) & (sigmas <= 0)).all()):
            return False
        self._extend(values[:n_slices], values[n_slices:2 * n_slices], sigmas)
        return True

    def _extend(self, rates, shares, sigmas) -> None:
        """Write ``k`` records' rate and share columns (``n_slices x k``) and sigmas after the last record.

        A full store doubles its capacity, from 16, until they fit.
        """
        n = self._n
        end = n + len(sigmas)
        capacity = len(self._sigmas)
        if end > capacity:
            while capacity < end:
                capacity = max(2 * capacity, 16)
            self._rates = _grown(self._rates, n, capacity)
            self._shares = _grown(self._shares, n, capacity)
            self._sigmas = _grown(self._sigmas, n, capacity)
            self._next = _grown(self._next, n, capacity)
        self._rates[:, n:end] = rates
        self._shares[:, n:end] = shares
        self._sigmas[n:end] = sigmas
        self._n = end

    def _group_loaded(self) -> None:
        """Group the loaded records by the bits of their rate vectors, in one sort."""
        n = self._n
        if n == 0:
            return
        bits = self._rates[:, :n].view(np.int64)
        order = np.lexsort(bits)  # stable: each group's ids stay ascending
        # same[p]: the record at order[p + 1] has the vector of the one at
        # order[p].  The links' own room holds each sorted row meanwhile.
        same = np.ones(n - 1, dtype=bool)
        row = self._next[:n]
        for bits_k in bits:
            np.take(bits_k, order, out=row)
            same &= row[1:] == row[:-1]
        cut = np.flatnonzero(~same) + 1  # where each group but the first starts
        self._next[order[:-1]] = order[1:]
        self._next[order[cut - 1]] = -1
        self._next[order[-1]] = -1
        self._heads = np.sort(np.append(order[0], order[cut]))
        self._groups = len(self._heads)
        self._grouped = n

    def _group_appended(self) -> None:
        """Link each record appended since the last retrieve to the end of its group, or start one."""
        start, n = self._grouped, self._n
        links = self._next
        if self._tails is None:
            last = np.flatnonzero(links[:start] < 0)
            rows = np.ascontiguousarray(self._rates[:, last].T)
            self._tails = dict(zip(map(bytes, rows), last.tolist()))
        tails = self._tails
        links[start:n] = -1
        rows = np.ascontiguousarray(self._rates[:, start:n].T)
        for i, key in enumerate(map(bytes, rows), start):
            tail = tails.get(key)
            if tail is None:
                g = self._groups
                if g == len(self._heads):
                    self._heads = _grown(self._heads, g, max(2 * g, 16))
                self._heads[g] = i
                self._groups = g + 1
            else:
                links[tail] = i
            tails[key] = i
        self._grouped = n

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
        m = min(SHORTLIST_MULTIPLIER * k, n)
        dist = self._distances(q)
        # The m nearest records lie in the m groups first by (distance,
        # first id), all of them no farther than the m-th nearest group.
        # Those groups are walked in that order, each in id order, until m
        # records are in hand and the next group is farther.
        j = min(m, len(dist)) - 1
        near = np.flatnonzero(dist <= np.partition(dist, j)[j])
        dist, heads = dist[near], self._heads[near]
        first = np.lexsort((heads, dist))[:m]
        links = self._next
        found: list[tuple[float, int]] = []
        for d, i in zip(dist[first].tolist(), heads[first].tolist()):
            if len(found) >= m and d > found[-1][0]:
                break
            for _ in range(m):
                found.append((d, i))
                i = links.item(i)
                if i < 0:
                    break
        # Shortlist the m nearest, ties to the lower id; rank best sigma
        # first, then nearest, then lowest id.
        sigmas = self._sigmas
        ranked = sorted((-sigmas.item(i), d, i) for d, i in sorted(found)[:m])[:k]
        return [
            ExperienceRecord(
                i,
                tuple(self._rates[:, i].tolist()),
                tuple(self._shares[:, i].tolist()),
                -neg_sigma,
            )
            for neg_sigma, _, i in ranked
        ]

    def _distances(self, q: np.ndarray) -> np.ndarray:
        """Euclidean distance from ``q`` to each group's rate vector, summed in slice order.

        Records appended since the last call join their groups first.
        """
        if self._grouped < self._n:
            self._group_appended()
        squares = self._rates[:, self._heads[:self._groups]]
        squares -= q[:, None]
        squares *= squares
        dist = squares[0]
        for row in squares[1:]:
            dist += row
        return np.sqrt(dist, out=dist)
