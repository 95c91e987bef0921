"""Experience store: record decisions, retrieve the best nearby ones.

Retrieval is two-stage: shortlist the nearest records by Euclidean
distance over the traffic-rate vector, then rank the shortlist by the
compliance index achieved, so the agent sees the *best* decisions made
under *similar* traffic — not merely the closest ones.

The history is a JSONL file: reloading it gives a store that retrieves
the same records.  The store groups records by their exact traffic
vector and computes one distance per distinct vector, so a retrieve
costs the same however many records share a vector; the answer after
more appends is exactly that of a store rebuilt from the same records.

Run: python3 demos/03_experience_retrieval.py
"""
import tempfile
from pathlib import Path

from sliceloop import ExperienceStore, SliceKpm

history = [
    # Other traffic, with the best outcomes in the store.
    ([80.0, 80.0], (0.50, 0.50), -0.01),
    ([60.0, 60.0], (0.50, 0.50), -0.005),
    ([80.0, 125.0], (0.35, 0.65), -0.02),
    ([160.0, 40.0], (0.80, 0.20), -0.015),
    # Traffic like the query's: these fill the 3 * k = 9 shortlist.
    ([120.0, 80.0], (0.50, 0.50), -1.90),   # stayed at 50-50: bad outcome
    ([120.0, 80.0], (0.62, 0.38), -0.03),   # shifted to the latency slice
    ([118.0, 85.0], (0.60, 0.40), -0.05),
    ([124.0, 78.0], (0.64, 0.36), -0.04),
    ([115.0, 84.0], (0.55, 0.45), -0.60),
    ([122.0, 86.0], (0.50, 0.50), -1.40),
    ([126.0, 80.0], (0.66, 0.34), -0.06),
    ([119.0, 79.0], (0.58, 0.42), -0.20),
    ([123.0, 83.0], (0.60, 0.40), -0.08),
]
later = [
    ([121.0, 82.0], (0.63, 0.37), -0.01),   # the query's own traffic, best yet
    ([80.0, 80.0], (0.50, 0.50), -0.001),   # other traffic: stays out
]
FAR = {0, 1, 2, 3}
query = [121.0, 82.0]


def record(store, experiences):
    for rates, shares, sigma in experiences:
        # The interval's KPMs, one per slice (latency, throughput, drop
        # ratio, offered load); the store takes its rates from the offered
        # loads.
        kpm = tuple(SliceKpm(5.0, rate, 0.0, rate) for rate in rates)
        store.record(kpm, shares, sigma, len(store))


with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "history.jsonl"
    store = ExperienceStore(n_slices=2, path=path)
    record(store, history)
    hits = store.retrieve(query, k=3)
    reloaded = ExperienceStore.load(path, n_slices=2)
    reloaded_ids = [rec.record_id for rec in reloaded.retrieve(query, k=3)]
    record(store, later)
    again = store.retrieve(query, k=3)  # one distance per distinct vector
    rebuilt = ExperienceStore(n_slices=2)
    record(rebuilt, history + later)
    again_rebuilt = rebuilt.retrieve(query, k=3)
    again_reloaded = ExperienceStore.load(path, n_slices=2).retrieve(query, k=3)

print(f"Query traffic: {query} Mbps")
print()
print("Top 3 retrieved experiences (best sigma among the nearest):")
for rec in hits:
    print(f"  record {rec.record_id}: rates {list(rec.arrival_rates_mbps)} "
          f"shares {list(rec.allocation_shares)} sigma {rec.resulting_sigma:+.2f}")
print()
ids = [rec.record_id for rec in hits]
assert not FAR & set(ids), ids
print(f"Records {sorted(FAR)} have the best sigmas in the store but other traffic,")
print("so the shortlist leaves them out; record 4 (same traffic, bad sigma)")
print("ranks below record 5: distance shortlists, sigma decides.")
assert reloaded_ids == ids, (reloaded_ids, ids)
print(f"Reloaded from {path.name} ({len(reloaded)} records): "
      f"retrieves the same ids {reloaded_ids}.")
print()
again_ids = [rec.record_id for rec in again]
assert again == again_rebuilt == again_reloaded, (again, again_rebuilt, again_reloaded)
assert again_ids[0] == len(history) and len(history) + 1 not in again_ids, again_ids
print(f"After {len(later)} more records the same query retrieves {again_ids}, as a")
print(f"rebuilt and a reloaded store do: record {len(history)} (same traffic, sigma "
      f"{later[0][2]:+.2f}) now ranks first;")
print(f"record {len(history) + 1} (other traffic) stays out.")
