import errno
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliceloop import store as store_module
from sliceloop.core import SliceKpm
from sliceloop.store import ExperienceRecord, ExperienceStore, StorageError

NON_FINITE = [math.nan, math.inf, -math.inf]


def make_record_args(rates, sigma, shares=None):
    """``record`` arguments for an interval that delivered all its offered ``rates``."""
    return {
        "kpm": tuple(SliceKpm(1.0, r, 0.0, r) for r in rates),
        "allocation_shares": [1.0 / len(rates)] * len(rates) if shares is None else shares,
        "resulting_sigma": sigma,
        "interval": 0,
    }


def brute_force_retrieve(history, query, k, multiplier=3):
    """Independent full-scan implementation of the documented two-stage rule.

    ``history`` holds the recorded ``(rates, sigma)`` pairs in record
    order, so record ``i`` is ``history[i]``; returns record ids.
    """
    def dist(i):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(history[i][0], query)))

    by_distance = sorted(range(len(history)), key=lambda i: (dist(i), i))
    shortlist = by_distance[: multiplier * k]
    ranked = sorted(shortlist, key=lambda i: (-history[i][1], dist(i), i))
    return ranked[:k]


def argsort_retrieve_ids(history, query, k):
    """The full stable-argsort retrieval that the partition shortlist replaced,
    over the recorded ``(rates, sigma)`` pairs in record order."""
    n = len(history)
    if n == 0:
        return []
    rates = np.array([r for r, _ in history], dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    dist = np.sqrt(((rates - q) ** 2).sum(axis=1))
    m = min(3 * k, n)
    shortlist = np.argsort(dist, kind="stable")[:m]
    sigmas = np.array([history[i][1] for i in shortlist], dtype=np.float64)
    order = np.lexsort((shortlist, dist[shortlist], -sigmas))[:k]
    return [int(shortlist[i]) for i in order]


def every_record(store):
    """All of a store's records, by id, as ``retrieve`` builds them."""
    hits = store.retrieve([0.0] * store.n_slices, max(len(store), 1))
    return sorted(hits, key=lambda r: r.record_id)


class FailingDisk:
    """``open`` for the store whose appends take at most ``chunk`` bytes a
    call and fail with ENOSPC once ``budget`` bytes are written; with
    ``cut_fails``, a truncate after that failure fails with EIO too."""

    def __init__(self, budget, chunk, cut_fails=False):
        self.budget, self.chunk, self.written = budget, chunk, 0
        self.cut_fails = cut_fails

    def open(self, path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "a" not in mode:
            return fh
        disk = self

        class File:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def tell(self):
                return fh.tell()

            def truncate(self, size):
                if disk.cut_fails and disk.written == disk.budget:
                    raise OSError(errno.EIO, "Input/output error")
                return fh.truncate(size)

            def write(self, data):
                n = min(len(data), disk.chunk)
                if disk.budget is not None and disk.written + n > disk.budget:
                    fh.write(data[:disk.budget - disk.written])
                    disk.written = disk.budget
                    raise OSError(errno.ENOSPC, "No space left on device")
                disk.written += n
                return fh.write(data[:n])

        return File()


def count_distances(store):
    """A list that gets the number of distances each later retrieve computes."""
    computed = []
    distances = store._distances

    def spy(q):
        out = distances(q)
        computed.append(len(out))
        return out

    store._distances = spy
    return computed


def write_lines(path, objs):
    with open(path, "a") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def line_obj(record_id, rates=(80.0, 95.0), shares=(0.5, 0.5), sigma=-0.25, kpm=({}, {})):
    return {"id": record_id, "rates": list(rates), "shares": list(shares),
            "sigma": sigma, "kpm": list(kpm), "interval": record_id}


def recorded_history(path, n_records, n_slices):
    """Write a history through ``record``: float and int KPM values, rates
    in plain and exponent notation, repeated traffic vectors and -0.0."""
    rng = np.random.default_rng(n_slices)
    store = ExperienceStore(n_slices, path=path)
    for i in range(n_records):
        rates = rng.choice([80.0, 95.0, 1e-05, 2.5e16, 0.1], size=n_slices).tolist()
        kpm = tuple(SliceKpm(int(rng.integers(0, 50)) if i % 3 else float(rng.uniform(0.0, 50.0)),
                             r / 2, 0.0 if i % 2 else 0.25, r) for r in rates)
        shares = rng.dirichlet(np.ones(n_slices)).tolist()
        sigma = -0.0 if i % 7 == 0 else -float(rng.uniform(0.0, 2.0))
        store.record(kpm, shares, sigma, i)


def loaded_state(store):
    """A loaded store's columns, groups and column capacity."""
    n, g = len(store), store._groups
    return (store._rates[:, :n].tobytes(), store._shares[:, :n].tobytes(),
            store._sigmas[:n].tobytes(), store._heads[:g].tolist(), store._next[:n].tolist(),
            len(store._sigmas))


def load_outcome(path, n_slices):
    """What loading ``path`` gives: the loaded state, or the ValueError's text."""
    try:
        return loaded_state(ExperienceStore.load(path, n_slices))
    except ValueError as exc:
        return str(exc).replace(str(path), "<path>")


def json_only_outcome(path, n_slices):
    """``load_outcome`` with every block read line by line through ``json``."""
    with mock.patch.object(ExperienceStore, "_append_matched", return_value=False):
        return load_outcome(path, n_slices)


def blocks_taken(monkeypatch):
    """A list that gets, per block that ``load`` reads, whether the block path took it."""
    taken = []
    append_matched = ExperienceStore._append_matched

    def spy(self, matches, n_lines):
        taken.append(append_matched(self, matches, n_lines))
        return taken[-1]

    monkeypatch.setattr(ExperienceStore, "_append_matched", spy)
    return taken


def with_obj(change):
    """A line perturbation that edits the line's parsed object and writes it back as ``record`` does."""
    def perturb(line):
        obj = json.loads(line)
        change(obj)
        return json.dumps(obj) + "\n"
    return perturb


def with_token(field, token):
    """A line perturbation that writes ``token`` in place of the first number after ``field``."""
    def perturb(line):
        return re.sub(rf'("{field}": \[?)[^,\]}}]+', lambda m: m.group(1) + token, line, count=1) + "\n"
    return perturb


# Each turns one line written by ``record`` (without its newline) into
# the text that replaces it.
PERTURBATIONS = {
    "unchanged": lambda line: line + "\n",
    "other spacing": lambda line: json.dumps(json.loads(line), separators=(",", ":")) + "\n",
    "int rate": with_token("rates", "80"),
    # json reads -0 as the int 0, which gives sigma 0.0, not -0.0.
    "int sigma -0": with_token("sigma", "-0"),
    "17-digit KPM int": with_token("latency_ms", "1" + "0" * 16),
    "5,000-digit KPM int": with_token("drop_ratio", "1" + "0" * 4999),
    "17-digit interval": with_token("interval", "1" + "0" * 16),
    # float reads it as 180.0.
    "Unicode digit": with_token("rates", "1\u0668\u0660.0"),
    "NaN rate": with_token("rates", "NaN"),
    "rate beyond float range": with_token("rates", "1e400"),
    "positive sigma": with_token("sigma", "0.5"),
    "share beyond float range": with_token("shares", "-1e400"),
    "id gap": with_obj(lambda obj: obj.update(id=obj["id"] + 1)),
    "blank line": lambda line: "\n" + line + "\n",
    "CRLF": lambda line: line + "\r\n",
    # JSON whitespace inside the line; only a newline ends one.
    "lone CR": lambda line: line.replace(", ", ",\r", 1) + "\n",
}


GRID_RATES = st.sampled_from([80.0, 85.0, 90.0, 95.0, 100.0])
ANY_RATES = GRID_RATES | st.floats(0.0, 500.0)
SIGMAS = st.sampled_from([0.0, -0.25, -0.5, -1.0]) | st.floats(-2.0, 0.0)


@st.composite
def retrieval_cases(draw):
    """A slice count, records before and after a reload, and (query, k) pairs.

    Half the stores hold only grid rates, so equal distances are common;
    up to 90 records cross the 16, 32 and 64 capacity doublings.
    """
    n_slices = draw(st.integers(1, 7))
    rates = draw(st.sampled_from([GRID_RATES, ANY_RATES]))
    vector = st.lists(rates, min_size=n_slices, max_size=n_slices)
    recorded = draw(st.lists(st.tuples(vector, SIGMAS), max_size=70))
    after_load = draw(st.lists(st.tuples(vector, SIGMAS), max_size=20))
    queries = draw(st.lists(st.tuples(vector, st.integers(1, 32)), min_size=1, max_size=3))
    return n_slices, recorded, after_load, queries


@st.composite
def repeated_query_cases(draw):
    """A slice count and interleaved record, load and retrieve steps.

    Retrieves draw from at most three (query, k) pairs over at most two
    query vectors, so most of them repeat the last one after appends,
    and some change only ``k``.
    """
    n_slices = draw(st.integers(1, 7))
    rates = draw(st.sampled_from([GRID_RATES, ANY_RATES]))
    vector = st.lists(rates, min_size=n_slices, max_size=n_slices)
    queries = draw(st.lists(vector, min_size=1, max_size=2))
    asks = draw(st.lists(st.tuples(st.sampled_from(queries), st.integers(1, 4)),
                         min_size=1, max_size=3))
    steps = []
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(["record"] * 3 + ["retrieve"] * 2 + ["load"]))
        if kind == "record":
            steps.append((kind, draw(st.tuples(vector, SIGMAS))))
        elif kind == "retrieve":
            steps.append((kind, draw(st.sampled_from(asks))))
        else:
            steps.append((kind, None))
    return n_slices, steps


# Vectors over this grid hold many records each; (3, 4), (4, 3), (0, 5) and
# (5, 0) tie at distance 5 from the origin, and so does (3 + 1 ulp, 4),
# whose squared distance is 25 + 1 ulp; 0.0 and -0.0 are different bits.
TIE_GRID = st.sampled_from([0.0, -0.0, 3.0, 4.0, 5.0, 3.0000000000000004])


@st.composite
def grouped_history_cases(draw):
    """A slice count and interleaved record, load and retrieve steps over ``TIE_GRID``."""
    n_slices = draw(st.integers(1, 3))
    vector = st.lists(TIE_GRID, min_size=n_slices, max_size=n_slices)
    queries = draw(st.lists(st.tuples(vector, st.integers(1, 5)), min_size=1, max_size=3))
    steps = []
    for _ in range(draw(st.integers(0, 80))):
        kind = draw(st.sampled_from(["record"] * 4 + ["retrieve"] * 2 + ["load"]))
        if kind == "record":
            steps.append((kind, draw(st.tuples(vector, SIGMAS))))
        elif kind == "retrieve":
            steps.append((kind, draw(st.sampled_from(queries))))
        else:
            steps.append((kind, None))
    return n_slices, steps


def hex_rates(rates):
    return tuple(float(x).hex() for x in rates)


def record_step(rates, sigma):
    return ("record", (rates, sigma))


class TestRecord:
    def test_sequential_ids(self):
        store = ExperienceStore(2)
        assert store.record(**make_record_args([80.0, 80.0], -0.1)) == 0
        assert store.record(**make_record_args([90.0, 80.0], -0.2)) == 1

    def test_positive_sigma_rejected(self):
        store = ExperienceStore(2)
        with pytest.raises(ValueError, match="resulting_sigma"):
            store.record(**make_record_args([80.0, 80.0], 0.5))
        assert len(store) == 0

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -10 ** 400])
    def test_non_finite_sigma_rejected(self, tmp_path, bad):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=path)
        store.record(**make_record_args([80.0, 95.0], -0.25))
        with pytest.raises(ValueError, match="resulting_sigma"):
            store.record(**make_record_args([80.0, 95.0], bad))
        assert len(store) == 1
        assert len(path.read_text().splitlines()) == 1

    def test_load_rejects_nan_sigma(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ExperienceStore(2, path=path).record(**make_record_args([80.0, 95.0], -0.25))
        line = path.read_text().replace('"sigma": -0.25', '"sigma": NaN')
        assert "NaN" in line
        path.write_text(line)
        with pytest.raises(ValueError, match="resulting_sigma"):
            ExperienceStore.load(path, 2)

    def test_dimension_mismatch(self):
        store = ExperienceStore(2)
        with pytest.raises(ValueError):
            store.record(**make_record_args([80.0, 80.0, 80.0], -0.1))

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=path)
        store.record(**make_record_args([80.0, 95.0], -0.25))
        store.record(**make_record_args([120.0, 85.0], -0.75, shares=(0.6, 0.4)))
        reloaded = ExperienceStore.load(path, 2)
        assert len(reloaded) == len(store) == 2
        assert every_record(reloaded) == every_record(store) == [
            ExperienceRecord(0, (80.0, 95.0), (0.5, 0.5), -0.25),
            ExperienceRecord(1, (120.0, 85.0), (0.6, 0.4), -0.75),
        ]

    def test_load_rejects_rates_of_another_slice_count(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(3, path=path)
        store.record(**make_record_args([80.0, 95.0, 70.0], -0.25))
        with pytest.raises(ValueError, match="2 entries"):
            ExperienceStore.load(path, 2)

    @pytest.mark.parametrize("bad", NON_FINITE + [10 ** 400])
    def test_non_finite_rates_rejected(self, tmp_path, bad):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=path)
        store.record(**make_record_args([80.0, 95.0], -0.25))
        # A SliceKpm refuses a negative offered load, -inf included, itself.
        with pytest.raises(ValueError, match="nonnegative" if bad < 0 else "finite"):
            store.record(**make_record_args([bad, 1.0], -0.25))
        assert len(store) == 1
        assert len(path.read_text().splitlines()) == 1
        assert [r.record_id for r in store.retrieve([80.0, 95.0], 2)] == [0]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_load_rejects_non_finite_rates_naming_the_file(self, tmp_path, bad):
        path = tmp_path / "store.jsonl"
        ExperienceStore(2, path=path).record(**make_record_args([80.0, 95.0], -0.25))
        write_lines(path, [line_obj(1, rates=(bad, 1.0))])
        with pytest.raises(ValueError, match="finite") as exc:
            ExperienceStore.load(path, 2)
        assert str(path) in str(exc.value)

    def test_jsonl_bytes_are_stable(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=path)
        store.record((SliceKpm(1.0, 80, 0.0, 80), SliceKpm(1.0, 95, 0.0, 95)),
                     (0.5, 0.5), -0.25, 0)
        store.record((SliceKpm(2.5, 110.125, 0.01, 120.5), SliceKpm(7.0, 85.0, 0.0, 85.25)),
                     (0.6, 0.4), -0.75, 3)
        assert path.read_bytes() == (
            b'{"id": 0, "rates": [80.0, 95.0], "shares": [0.5, 0.5], "sigma": -0.25, '
            b'"kpm": [{"latency_ms": 1.0, "throughput_mbps": 80, "drop_ratio": 0.0}, '
            b'{"latency_ms": 1.0, "throughput_mbps": 95, "drop_ratio": 0.0}], "interval": 0}\n'
            b'{"id": 1, "rates": [120.5, 85.25], "shares": [0.6, 0.4], "sigma": -0.75, '
            b'"kpm": [{"latency_ms": 2.5, "throughput_mbps": 110.125, "drop_ratio": 0.01}, '
            b'{"latency_ms": 7.0, "throughput_mbps": 85.0, "drop_ratio": 0.0}], "interval": 3}\n'
        )

    @pytest.mark.parametrize("ids, bad_line", [([0, 0], 2), ([0, 2, 1], 2), ([7, 7, 3], 1)])
    def test_load_rejects_ids_that_are_not_positions(self, tmp_path, ids, bad_line):
        path = tmp_path / "store.jsonl"
        write_lines(path, [line_obj(i) for i in ids])
        with pytest.raises(ValueError, match=f"line {bad_line}: id") as exc:
            ExperienceStore.load(path, 2)
        assert str(path) in str(exc.value)

    def test_load_counts_blank_lines_in_the_line_number(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_lines(path, [line_obj(0)])
        with open(path, "a") as fh:
            fh.write("\n")
        write_lines(path, [line_obj(1), line_obj(1)])
        with pytest.raises(ValueError, match="line 4: id"):
            ExperienceStore.load(path, 2)

    @pytest.mark.parametrize("shares", [(0.5, 0.5), (1.0,), (0.25, 0.25, 0.25, 0.25),
                                        (0.5, math.nan, 0.5), (0.5, math.inf, 0.5),
                                        (0.5, 10 ** 400, 0.5)])
    def test_record_rejects_shares_that_do_not_fit_the_slices(self, tmp_path, shares):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(3, path=path)
        with pytest.raises(ValueError, match="allocation_shares"):
            store.record(**make_record_args([80.0, 95.0, 70.0], -0.25, shares=shares))
        assert len(store) == 0
        assert not path.exists()

    @pytest.mark.parametrize("shares", [(1.0,), (0.5, 0.25, 0.25), (0.5, math.nan)])
    def test_load_rejects_shares_that_do_not_fit_the_slices(self, tmp_path, shares):
        path = tmp_path / "store.jsonl"
        write_lines(path, [line_obj(0), line_obj(1, shares=shares)])
        with pytest.raises(ValueError, match="line 2: allocation_shares"):
            ExperienceStore.load(path, 2)

    def test_load_rejects_a_kpm_summary_of_another_slice_count(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_lines(path, [line_obj(0, kpm=({},))])
        with pytest.raises(ValueError, match="KPM summary"):
            ExperienceStore.load(path, 2)

    def test_load_drops_a_torn_last_line(self, tmp_path, caplog):
        # A crash mid-write leaves the last line cut short, without its newline.
        path = tmp_path / "store.jsonl"
        writer = ExperienceStore(2, path=path)
        for sigma in (-0.1, -0.2, -0.3):
            writer.record(**make_record_args([80.0, 95.0], sigma))
        whole = path.read_bytes()
        complete = whole[:whole.index(b"\n", whole.index(b"\n") + 1) + 1]
        path.write_bytes(whole[:-20])
        with caplog.at_level("WARNING", logger="sliceloop.store"):
            store = ExperienceStore.load(path, 2)
        assert len(store) == 2
        assert path.read_bytes() == complete
        assert f"torn last line 3 ({len(whole) - 20 - len(complete)} bytes)" in caplog.text
        # The next record takes the dropped one's id, and the file reloads whole.
        assert store.record(**make_record_args([90.0, 90.0], -0.4)) == 2
        reloaded = ExperienceStore.load(path, 2)
        assert [r.resulting_sigma for r in reloaded.retrieve([80.0, 95.0], 3)] == [-0.1, -0.2, -0.4]

    def test_a_dropped_torn_record_enters_no_group(self, tmp_path):
        path = tmp_path / "store.jsonl"
        writer = ExperienceStore(2, path=path)
        for rates in ([80.0, 95.0], [80.0, 95.0], [90.0, 90.0]):
            writer.record(**make_record_args(rates, -0.5))
        path.write_bytes(path.read_bytes()[:-1])  # the [90, 90] line loses its newline
        store = ExperienceStore.load(path, 2)
        computed = count_distances(store)
        assert [r.record_id for r in store.retrieve([90.0, 90.0], 3)] == [0, 1]
        store.record(**make_record_args([85.0, 95.0], -0.1))
        assert [r.arrival_rates_mbps for r in store.retrieve([90.0, 90.0], 1)] == [(85.0, 95.0)]
        assert computed == [1, 2]

    def test_load_drops_a_last_line_cut_only_before_its_newline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_lines(path, [line_obj(0)])
        with open(path, "a") as fh:
            fh.write(json.dumps(line_obj(1)))
        assert len(ExperienceStore.load(path, 2)) == 1
        assert path.read_text() == json.dumps(line_obj(0)) + "\n"

    def test_load_names_a_truncated_line_that_has_its_newline(self, tmp_path):
        # Only a last line without a newline is torn; a cut-short line
        # followed by a newline is a corrupt history.
        path = tmp_path / "store.jsonl"
        write_lines(path, [line_obj(0)])
        with open(path, "a") as fh:
            fh.write(json.dumps(line_obj(1))[:30] + "\n")
        before = path.read_bytes()
        with pytest.raises(ValueError, match="line 2: Expecting") as exc:
            ExperienceStore.load(path, 2)
        assert str(path) in str(exc.value)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("field", ["rates", "shares", "sigma"])
    def test_load_names_an_integer_beyond_float_range(self, tmp_path, field):
        path = tmp_path / "store.jsonl"
        huge = -10 ** 400 if field == "sigma" else 10 ** 400
        bad = line_obj(1)
        bad[field] = huge if field == "sigma" else [huge, 1.0]
        write_lines(path, [line_obj(0), bad, line_obj(2)])
        with pytest.raises(ValueError, match="line 2: int too large") as exc:
            ExperienceStore.load(path, 2)
        assert str(path) in str(exc.value)

    def test_load_names_a_line_without_a_field(self, tmp_path):
        path = tmp_path / "store.jsonl"
        incomplete = line_obj(1)
        del incomplete["shares"]
        write_lines(path, [line_obj(0), incomplete])
        with pytest.raises(ValueError, match="line 2: no 'shares' field") as exc:
            ExperienceStore.load(path, 2)
        assert str(path) in str(exc.value)

    def test_load_names_a_line_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "store.jsonl"
        write_lines(path, [line_obj(0), [1, 2]])
        with pytest.raises(ValueError, match="line 2: ") as exc:
            ExperienceStore.load(path, 2)
        assert str(path) in str(exc.value)

    def test_loaded_history_retains_only_its_columns(self, tmp_path):
        path = tmp_path / "store.jsonl"
        rng = np.random.default_rng(3)
        writer = ExperienceStore(2, path=path)
        for i in range(10_000):
            writer.record(**make_record_args(list(rng.uniform(50.0, 150.0, size=2)),
                                             -float(rng.uniform(0.0, 2.0))))
        del writer
        tracemalloc.start()
        try:
            store = ExperienceStore.load(path, 2)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == 10_000
        assert retained < 2_000_000

    @pytest.mark.parametrize("failures", [1, 2])
    def test_failed_writes_are_written_ahead_of_the_next_line(self, tmp_path, failures):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=path)
        store.record(**make_record_args([80.0, 95.0], -0.25))
        store.path = tmp_path  # a directory cannot be opened for appending
        for i in range(failures):
            with pytest.raises(StorageError):
                store.record(**make_record_args([90.0 + i, 85.0], -0.5))
        store.path = path
        assert len(store) == 1 + failures
        assert len(path.read_text().splitlines()) == 1
        store.record(**make_record_args([100.0, 70.0], -0.75, shares=(0.6, 0.4)))
        reloaded = ExperienceStore.load(path, 2)
        assert [r.record_id for r in every_record(reloaded)] == list(range(failures + 2))
        assert every_record(reloaded) == every_record(store)

    def test_failed_writes_encode_each_pending_line_once(self, tmp_path):
        # A record whose file cannot be opened adds its own line to the
        # pending bytes and builds nothing from the lines already there: the
        # memory it takes does not grow with them.
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=tmp_path)  # a directory cannot be opened for appending
        for i in range(1_500):
            with pytest.raises(StorageError):
                store.record(**make_record_args([80.0 + i, 95.0], -0.25))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            with pytest.raises(StorageError):
                store.record(**make_record_args([70.0, 95.0], -0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        store.path = path
        store.record(**make_record_args([60.0, 95.0], -0.75))
        pending = path.stat().st_size  # every line, written at last
        assert pending > 300_000
        assert peak - before < pending // 4
        reloaded = ExperienceStore.load(path, 2)
        assert [r.record_id for r in every_record(reloaded)] == list(range(1_502))
        assert every_record(reloaded) == every_record(store)

    @settings(max_examples=150, deadline=None)
    @given(records=st.lists(st.tuples(
               st.lists(st.floats(0.0, 200.0), min_size=2, max_size=2),
               st.floats(-10.0, 0.0),
               st.none() | st.integers(0, 700)),  # bytes written before a failure
               min_size=1, max_size=8),
           chunk=st.integers(1, 300),
           cut_fails=st.lists(st.booleans(), min_size=8, max_size=8))
    def test_load_reads_the_records_written_in_full(self, records, chunk, cut_fails):
        """Writes that fail partway leave the file as it was, or, when the
        cut back fails too, the durable lines and a part of the pending
        ones; a later write cuts that part off and puts every pending line
        after the last complete one."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.jsonl"
            copy = Path(tmp) / "copy.jsonl"
            store = ExperienceStore(2, path=path)
            durable = []  # (rates, sigma) of the records written in full
            durable_bytes = b""
            for (rates, sigma, budget), cut_fails_now in zip(records, cut_fails):
                disk = FailingDisk(budget, chunk, cut_fails_now)
                with mock.patch("sliceloop.store.open", disk.open, create=True):
                    try:
                        store.record(**make_record_args(rates, sigma))
                    except StorageError:
                        assert budget is not None and disk.written == budget
                    else:
                        durable = [(r.arrival_rates_mbps, r.resulting_sigma)
                                   for r in every_record(store)]
                data = path.read_bytes() if path.exists() else b""
                if len(durable) == len(store):
                    durable_bytes = data
                    assert data.endswith(b"\n") or not data
                else:
                    assert data.startswith(durable_bytes)
                    assert data == durable_bytes or cut_fails_now
                # Load a copy: a load cuts a torn line off the file it reads.
                copy.write_bytes(data)
                loaded = every_record(ExperienceStore.load(copy, 2)) if data else []
                assert [r.record_id for r in loaded] == list(range(len(loaded)))
                # Pending lines left whole by a failed cut are the store's next records.
                kept = [(r.arrival_rates_mbps, r.resulting_sigma) for r in every_record(store)]
                assert [(r.arrival_rates_mbps, r.resulting_sigma) for r in loaded] == kept[:len(loaded)]
                assert len(loaded) == len(durable) or cut_fails_now and len(loaded) > len(durable)

    def test_jsonl_field_names_are_stable(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=path)
        store.record(**make_record_args([80.0, 95.0], -0.25))
        obj = json.loads(path.read_text().splitlines()[0])
        assert set(obj) == {"id", "rates", "shares", "sigma", "kpm", "interval"}


class TestBlockLoad:
    """``load``'s block path against reading every line through ``json``."""

    @pytest.mark.parametrize("n_slices", [1, 3])
    @pytest.mark.parametrize("case", sorted(PERTURBATIONS))
    def test_a_perturbed_line_loads_as_json_reads_it(self, tmp_path, monkeypatch, case, n_slices):
        monkeypatch.setattr(store_module, "_BLOCK_BYTES", 1500)
        source = tmp_path / "source.jsonl"
        recorded_history(source, 120, n_slices)
        lines = source.read_text().splitlines()
        lines[60] = PERTURBATIONS[case](lines[60])
        text = "".join(line if line.endswith("\n") else line + "\n" for line in lines)
        path = tmp_path / "store.jsonl"
        path.write_bytes(text.encode())
        want = json_only_outcome(path, n_slices)
        taken = blocks_taken(monkeypatch)
        assert load_outcome(path, n_slices) == want
        if case in ("CRLF", "lone CR"):
            # Only a newline ends a line, and a carriage return is JSON whitespace.
            assert want == load_outcome(source, n_slices)
        if case == "unchanged":
            assert all(taken) and len(taken) > 10
            assert want[-1] == 128
            return
        # Only the block of the perturbed line, in the middle, goes through json.
        assert taken.count(False) == 1 and 3 < taken.index(False)
        if isinstance(want, str):
            assert want.startswith("<path>, line 61: ")
            assert taken[-1] is False
        else:
            assert len(taken) > 10 and taken[-1] is True

    @pytest.mark.parametrize("cut", [1, 40, -1])
    def test_a_torn_line_at_a_block_boundary_is_dropped(self, tmp_path, monkeypatch, caplog, cut):
        monkeypatch.setattr(store_module, "_BLOCK_BYTES", 1500)
        path = tmp_path / "store.jsonl"
        recorded_history(path, 60, 2)
        with open(path) as fh:
            blocks = list(iter(lambda: fh.readlines(store_module._BLOCK_BYTES), []))
        # The torn line is the first line of a block of its own.
        complete = "".join(line for block in blocks[:3] for line in block)
        path.write_text(complete + blocks[3][0][:cut])
        reference = tmp_path / "reference.jsonl"
        reference.write_text(complete)
        taken = blocks_taken(monkeypatch)
        with caplog.at_level("WARNING", logger="sliceloop.store"):
            store = ExperienceStore.load(path, 2)
        assert taken == [True] * 3 + [False]
        assert path.read_text() == complete
        n_lines = complete.count("\n")
        assert f"torn last line {n_lines + 1} " in caplog.text
        assert loaded_state(store) == json_only_outcome(reference, 2)
        assert len(store) == n_lines

    @pytest.mark.parametrize("bad_line, undecodable_line", [(11, 100), (100, 11)])
    def test_undecodable_bytes_raise_what_reading_line_by_line_meets_first(
            self, tmp_path, bad_line, undecodable_line):
        # A block decodes up to 64 KiB ahead, a line at most about 8 KiB;
        # the two lines lie about 25 KB apart.
        path = tmp_path / "store.jsonl"
        recorded_history(path, 200, 2)
        lines = path.read_bytes().split(b"\n")
        lines[bad_line - 1] = lines[bad_line - 1][:30]
        lines[undecodable_line - 1] = b"\xff" + lines[undecodable_line - 1]
        path.write_bytes(b"\n".join(lines))
        if bad_line < undecodable_line:
            with pytest.raises(ValueError, match=f"line {bad_line}: Expecting"):
                ExperienceStore.load(path, 2)
        else:
            with pytest.raises(ValueError, match=f"line {undecodable_line}: .* codec can't") \
                    as load_error:
                ExperienceStore.load(path, 2)
            assert str(path) in str(load_error.value)

    @pytest.mark.parametrize("undecodable_line", [1, 100, 2000])
    def test_undecodable_bytes_name_the_file_and_the_line(self, tmp_path, undecodable_line):
        # Lines 1 and 100 lie in the first 64 KiB block, line 2000 in the
        # ninth.
        path = tmp_path / "store.jsonl"
        recorded_history(path, max(200, undecodable_line), 2)
        lines = path.read_bytes().split(b"\n")
        lines[undecodable_line - 1] = b"\xff" + lines[undecodable_line - 1]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as exc:
            ExperienceStore.load(path, 2)
        message = str(exc.value)
        assert message.startswith(f"{path}, line {undecodable_line}: ")
        assert "codec can't decode byte 0xff in position 0" in message

    def test_blocks_after_a_json_read_block_take_the_block_path(self, tmp_path, monkeypatch):
        # Ids in the block path run on from records that json read.
        monkeypatch.setattr(store_module, "_BLOCK_BYTES", 1500)
        path = tmp_path / "store.jsonl"
        recorded_history(path, 60, 2)
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = json.dumps(json.loads(lines[0]), separators=(", ", ":")) + "\n"
        path.write_text("".join(lines))
        taken = blocks_taken(monkeypatch)
        store = ExperienceStore.load(path, 2)
        assert taken[0] is False and all(taken[1:]) and len(taken) > 2
        assert loaded_state(store) == json_only_outcome(path, 2)


class TestRetrieve:
    def test_unique_nearest(self):
        store = ExperienceStore(2)
        for rates in ([80.0, 80.0], [120.0, 80.0], [80.0, 120.0]):
            store.record(**make_record_args(rates, -0.1))
        (hit,) = store.retrieve([118.0, 82.0], k=1)
        assert hit.arrival_rates_mbps == (120.0, 80.0)

    def test_empty_store(self):
        assert ExperienceStore(2).retrieve([100.0, 100.0], k=3) == []

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ExperienceStore(2).retrieve([1.0, 2.0, 3.0], k=1)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_query_rejected(self, bad):
        store = ExperienceStore(2)
        store.record(**make_record_args([80.0, 80.0], -0.1))
        with pytest.raises(ValueError, match="finite"):
            store.retrieve([bad, 1.0], k=1)

    def test_fewer_than_k(self):
        store = ExperienceStore(2)
        store.record(**make_record_args([80.0, 80.0], -0.1))
        assert len(store.retrieve([80.0, 80.0], k=5)) == 1

    def test_sigma_outranks_distance_within_shortlist(self):
        store = ExperienceStore(2)
        store.record(**make_record_args([100.0, 100.0], -0.9))  # nearest, worst
        store.record(**make_record_args([101.0, 100.0], -0.1))  # close, best
        store.record(**make_record_args([102.0, 100.0], -0.5))
        got = store.retrieve([100.0, 100.0], k=1)
        assert got[0].record_id == 1

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            store = ExperienceStore(2)
            history = []
            n = int(rng.integers(0, 60))
            for _ in range(n):
                rates = list(rng.choice(np.arange(80.0, 130.0, 5.0), size=2))
                sigma = -float(rng.uniform(0, 2))
                store.record(**make_record_args(rates, sigma))
                history.append((rates, sigma))
            query = rng.uniform(70, 140, size=2)
            k = int(rng.integers(1, 6))
            got = store.retrieve(list(query), k)
            want = brute_force_retrieve(history, list(query), k)
            assert [r.record_id for r in got] == want

    def test_retrieve_after_reload_identical(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=path)
        rng = np.random.default_rng(5)
        for _ in range(40):
            rates = rng.uniform(60, 140, size=2)
            store.record(**make_record_args(list(rates), -float(rng.uniform(0, 1))))
        reloaded = ExperienceStore.load(path, 2)
        q = [100.0, 90.0]
        assert [r.record_id for r in store.retrieve(q, 3)] == [
            r.record_id for r in reloaded.retrieve(q, 3)
        ]

    def test_interleaved_load_record_retrieve_match_a_rebuilt_store(self, tmp_path):
        # Appends fill spare columns, which grow by doubling from wherever
        # load left them; every retrieve must see exactly the records so far.
        path = tmp_path / "store.jsonl"
        rng = np.random.default_rng(17)
        grid = np.arange(80.0, 130.0, 5.0)
        store = ExperienceStore(2, path=path)
        history = []
        for _ in range(6):
            for _ in range(int(rng.integers(1, 40))):
                args = make_record_args(list(rng.choice(grid, size=2)),
                                        -float(rng.uniform(0, 2)))
                store.record(**args)
                history.append(args)
                rebuilt = ExperienceStore(2)
                for a in history:
                    rebuilt.record(**a)
                for _ in range(3):
                    query = list(rng.uniform(70, 140, size=2))
                    k = int(rng.integers(1, 6))
                    assert [r.record_id for r in store.retrieve(query, k)] == [
                        r.record_id for r in rebuilt.retrieve(query, k)
                    ]
            store = ExperienceStore.load(path, 2)
            assert every_record(store) == every_record(rebuilt)

    @settings(max_examples=150, deadline=None)
    @given(case=retrieval_cases())
    # Squared distances 25 and 25 + 1 ulp share the root 5.0, so the two
    # records tie on distance and record 0 must win.
    @example(case=(2, [([3.0000000000000004, 4.0], -0.5), ([3.0, 4.0], -0.5)], [],
                   [([0.0, 0.0], 1)]))
    def test_matches_stable_argsort_reference(self, case):
        n_slices, recorded, after_load, queries = case

        history = []

        def check(store):
            for query, k in queries:
                got = [r.record_id for r in store.retrieve(query, k)]
                assert got == argsort_retrieve_ids(history, query, k)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.jsonl"
            path.touch()
            store = ExperienceStore(n_slices, path=path)
            check(store)
            for rates, sigma in recorded:
                store.record(**make_record_args(rates, sigma))
                history.append((rates, sigma))
                check(store)
            store = ExperienceStore.load(path, n_slices)
            check(store)
            for rates, sigma in after_load:
                store.record(**make_record_args(rates, sigma))
                history.append((rates, sigma))
                check(store)

    @settings(max_examples=150, deadline=None)
    @given(case=repeated_query_cases())
    # Squared distances 25 and 25 + 1 ulp share the root 5.0, so the old
    # record 0 and the new record 1 tie on distance and record 0 must win.
    @example(case=(2, [record_step([3.0000000000000004, 4.0], -0.5),
                       ("retrieve", ([0.0, 0.0], 1)),
                       record_step([3.0, 4.0], -0.5),
                       ("retrieve", ([0.0, 0.0], 1))]))
    # Ties at the k-th distance across old and new records: four records
    # at distance 5 leave record 3 out of the 3-record shortlist; two new
    # ones at 5 with better sigmas stay out too; a nearer one pushes
    # record 2, the best of the old shortlist, out.
    @example(case=(2, [record_step([3.0, 4.0], -0.5), record_step([4.0, 3.0], -0.3),
                       record_step([0.0, 5.0], -0.1), record_step([5.0, 0.0], -0.05),
                       ("retrieve", ([0.0, 0.0], 1)),
                       record_step([0.0, 5.0], -0.01), record_step([3.0, 4.0], 0.0),
                       ("retrieve", ([0.0, 0.0], 1)),
                       record_step([0.0, 1.0], -0.2),
                       ("retrieve", ([0.0, 0.0], 1)),
                       record_step([1.0, 0.0], -0.9), record_step([4.0, 3.0], 0.0),
                       ("retrieve", ([0.0, 0.0], 1))]))
    def test_repeated_queries_match_a_full_scan(self, case):
        n_slices, steps = case
        history = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.jsonl"
            path.touch()
            store = ExperienceStore(n_slices, path=path)
            for kind, arg in steps:
                if kind == "record":
                    store.record(**make_record_args(*arg))
                    history.append(arg)
                elif kind == "load":
                    store = ExperienceStore.load(path, n_slices)
                else:
                    query, k = arg
                    got = store.retrieve(query, k)
                    assert [r.record_id for r in got] == argsort_retrieve_ids(history, query, k)
                    rebuilt = ExperienceStore(n_slices)
                    for rates, sigma in history:
                        rebuilt.record(**make_record_args(rates, sigma))
                    assert got == rebuilt.retrieve(query, k)

    def test_a_retrieve_computes_one_distance_per_distinct_vector(self, tmp_path):
        path = tmp_path / "store.jsonl"
        rng = np.random.default_rng(23)
        grid = [[80.0, 95.0], [85.0, 95.0], [95.0, 80.0], [0.0, 90.0], [-0.0, 90.0]]
        history = []

        def record(store, vectors):
            for rates in vectors:
                args = make_record_args(rates, -float(rng.uniform(0, 2)))
                store.record(**args)
                history.append(args)

        store = ExperienceStore(2, path=path)
        computed = count_distances(store)
        q = [84.0, 93.0]
        # (vectors appended first, distances a retrieve computes); 0.0 and
        # -0.0 are different vectors.
        plan = [([grid[0]] * 20 + [grid[1]] * 10, 2), ([grid[1], grid[0]] * 3, 2),
                ([grid[2]], 3), ([grid[3]] * 4, 4), ([grid[4]], 5), (grid * 6, 5)]
        for vectors, want in plan:
            record(store, vectors)
            for k in (1, 3):
                computed.clear()
                got = store.retrieve(q, k)
                assert computed == [want]
                rebuilt = ExperienceStore(2)
                for args in history:
                    rebuilt.record(**args)
                assert got == rebuilt.retrieve(q, k)
        store = ExperienceStore.load(path, 2)
        computed = count_distances(store)
        assert [r.record_id for r in store.retrieve(q, 3)] == [
            r.record_id for r in rebuilt.retrieve(q, 3)]
        record(store, grid[::-1])
        store.retrieve(q, 3)
        assert computed == [5, 5]

    @settings(max_examples=200, deadline=None)
    @given(case=grouped_history_cases())
    @example(case=(2, [record_step([3.0000000000000004, 4.0], -0.5),
                       record_step([3.0, 4.0], -0.5), record_step([-0.0, 5.0], -0.5),
                       record_step([0.0, 5.0], -0.5), ("retrieve", ([0.0, -0.0], 1)),
                       ("load", None), ("retrieve", ([0.0, -0.0], 1))]))
    def test_grouped_histories_match_stable_argsort_reference(self, case):
        """Few vectors with many records each, ties between vectors, and
        signed zeros: ids against the argsort reference, rates as written."""
        n_slices, steps = case
        history = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.jsonl"
            path.touch()
            store = ExperienceStore(n_slices, path=path)
            for kind, arg in steps:
                if kind == "record":
                    store.record(**make_record_args(*arg))
                    history.append(arg)
                elif kind == "load":
                    store = ExperienceStore.load(path, n_slices)
                else:
                    query, k = arg
                    got = store.retrieve(query, k)
                    assert [r.record_id for r in got] == argsort_retrieve_ids(history, query, k)
                    assert [hex_rates(r.arrival_rates_mbps) for r in got] == [
                        hex_rates(history[r.record_id][0]) for r in got]
                    assert [r.resulting_sigma for r in got] == [
                        history[r.record_id][1] for r in got]

    @pytest.mark.parametrize("n_slices", range(1, 8))
    def test_slice_ordered_distance_equals_row_sums_bit_for_bit(self, n_slices):
        rng = np.random.default_rng(n_slices)
        scale = 10.0 ** rng.integers(-3, 4, size=(5000, n_slices))
        rates = rng.uniform(0.0, 200.0, size=(5000, n_slices)) * scale
        store = ExperienceStore(n_slices)
        for row in rates:
            store.record(**make_record_args(list(row), -0.1))
        q = rng.uniform(0.0, 200.0, size=n_slices)
        want = np.sqrt(((rates - q) ** 2).sum(axis=1))
        assert store._distances(q).tobytes() == want.tobytes()
