import json
import math

import numpy as np
import pytest

from sliceloop.store import ExperienceRecord, ExperienceStore


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
