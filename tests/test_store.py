import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sliceloop.store import ExperienceRecord, ExperienceStore

NON_FINITE = [math.nan, math.inf, -math.inf]


def make_record_args(rates, sigma, shares=(0.5, 0.5)):
    return {
        "arrival_rates_mbps": rates,
        "allocation_shares": shares,
        "resulting_sigma": sigma,
        "kpm_summary": [
            {"latency_ms": 1.0, "throughput_mbps": r, "drop_ratio": 0.0} for r in rates
        ],
        "created_at_interval": 0,
    }


def brute_force_retrieve(records, query, k, multiplier=3):
    """Independent full-scan implementation of the documented two-stage rule."""
    def dist(rec):
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(rec.arrival_rates_mbps, query)))

    by_distance = sorted(records, key=lambda r: (dist(r), r.record_id))
    shortlist = by_distance[: multiplier * k]
    ranked = sorted(shortlist, key=lambda r: (-r.resulting_sigma, dist(r), r.record_id))
    return ranked[:k]


def argsort_retrieve_ids(store, query, k):
    """The full stable-argsort retrieval that the partition shortlist replaced."""
    records = store.records
    n = len(records)
    if n == 0:
        return []
    rates = np.array([r.arrival_rates_mbps for r in records], dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    dist = np.sqrt(((rates - q) ** 2).sum(axis=1))
    m = min(3 * k, n)
    shortlist = np.argsort(dist, kind="stable")[:m]
    sigmas = np.array([records[i].resulting_sigma for i in shortlist])
    order = np.lexsort((shortlist, dist[shortlist], -sigmas))[:k]
    return [int(shortlist[i]) for i in order]


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


class TestRecord:
    def test_sequential_ids(self):
        store = ExperienceStore(2)
        assert store.record(**make_record_args([80.0, 80.0], -0.1)) == 0
        assert store.record(**make_record_args([90.0, 80.0], -0.2)) == 1

    def test_positive_sigma_rejected(self):
        with pytest.raises(ValueError):
            ExperienceRecord(0, (80.0, 80.0), (0.5, 0.5), 0.5, ({}, {}), 0)

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
        assert reloaded.records == store.records

    def test_load_rejects_rates_of_another_slice_count(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(3, path=path)
        store.record(**make_record_args([80.0, 95.0, 70.0], -0.25))
        with pytest.raises(ValueError, match="2 entries"):
            ExperienceStore.load(path, 2)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rates_rejected(self, tmp_path, bad):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=path)
        store.record(**make_record_args([80.0, 95.0], -0.25))
        with pytest.raises(ValueError, match="finite"):
            store.record(**make_record_args([bad, 1.0], -0.25))
        assert len(store) == 1
        assert len(path.read_text().splitlines()) == 1
        assert [r.record_id for r in store.retrieve([80.0, 95.0], 2)] == [0]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_load_rejects_non_finite_rates_naming_the_file(self, tmp_path, bad):
        path = tmp_path / "store.jsonl"
        ExperienceStore(2, path=path).record(**make_record_args([80.0, 95.0], -0.25))
        obj = ExperienceRecord(1, (bad, 1.0), (0.5, 0.5), -0.25, ({}, {}), 0).to_json_obj()
        with open(path, "a") as fh:
            fh.write(json.dumps(obj) + "\n")
        with pytest.raises(ValueError, match="finite") as exc:
            ExperienceStore.load(path, 2)
        assert str(path) in str(exc.value)

    def test_jsonl_field_names_are_stable(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ExperienceStore(2, path=path)
        store.record(**make_record_args([80.0, 95.0], -0.25))
        obj = json.loads(path.read_text().splitlines()[0])
        assert set(obj) == {"id", "rates", "shares", "sigma", "kpm", "interval"}


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
            n = int(rng.integers(0, 60))
            for _ in range(n):
                rates = rng.choice(np.arange(80.0, 130.0, 5.0), size=2)
                store.record(**make_record_args(list(rates), -float(rng.uniform(0, 2))))
            query = rng.uniform(70, 140, size=2)
            k = int(rng.integers(1, 6))
            got = store.retrieve(list(query), k)
            want = brute_force_retrieve(store.records, list(query), k)
            assert [r.record_id for r in got] == [r.record_id for r in want]

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
        # Appends fill spare rows of the rates index, which grows by
        # doubling and restarts at the exact size on load; every retrieve
        # must see exactly the records so far.
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
            assert store.records == rebuilt.records

    @settings(max_examples=150, deadline=None)
    @given(case=retrieval_cases())
    # Squared distances 25 and 25 + 1 ulp share the root 5.0, so the two
    # records tie on distance and record 0 must win.
    @example(case=(2, [([3.0000000000000004, 4.0], -0.5), ([3.0, 4.0], -0.5)], [],
                   [([0.0, 0.0], 1)]))
    def test_matches_stable_argsort_reference(self, case):
        n_slices, recorded, after_load, queries = case

        def check(store):
            for query, k in queries:
                got = [r.record_id for r in store.retrieve(query, k)]
                assert got == argsort_retrieve_ids(store, query, k)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.jsonl"
            path.touch()
            store = ExperienceStore(n_slices, path=path)
            check(store)
            for rates, sigma in recorded:
                store.record(**make_record_args(rates, sigma))
                check(store)
            store = ExperienceStore.load(path, n_slices)
            check(store)
            for rates, sigma in after_load:
                store.record(**make_record_args(rates, sigma))
                check(store)

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
