"""The exact per-interval optimum over every RB split of three slices.

The exhaustive optimizer is the yardstick for the reallocation agent:
it scores every way to split the 106-RB pool among one latency slice
and two throughput slices, 5,460 splits, with the one-interval
predictor the oracle uses.  It keeps the split that gives the
throughput slices the most predicted throughput while the latency slice
meets its bound.  All splits are scored in one vectorised pass.

Run: python3 demos/07_exact_optimizer.py
"""
from sliceloop import (
    QueueConfig,
    RadioConfig,
    SliceKind,
    SliceSpec,
    UeChannelState,
    brute_force_optimal,
    enumerate_splits,
)

SINR = 2.0 ** (2_200_000 / 180_000) - 1.0  # 2.2 Mbps per RB

args = (
    [80.0, 110.0, 90.0],  # offered Mbps per slice: more than the pool carries
    [UeChannelState(k, k, SINR) for k in range(3)],
    RadioConfig(),
    QueueConfig(),
    [
        SliceSpec(0, SliceKind.LATENCY, 10.0, 2.0, 10.0, 0.2),
        SliceSpec(1, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02),
        SliceSpec(2, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02),
    ],
)
rows = enumerate_splits(*args)
best = brute_force_optimal(*args)
feasible = [r for r in rows if r.feasible]
row = next(r for r in rows if r.rb_counts == best.rb_counts)

print(f"Splits scored: {len(rows)} ({len(feasible)} meet the latency bound)")
print(f"Optimum RB counts: {list(best.rb_counts)}")
print(f"  slice 0 latency {row.latencies_ms[0]:.2f} ms "
      f"(bound {args[4][0].sla_target:.0f} ms)")
print(f"  throughput slices deliver {best.objective:.2f} Mbps "
      f"of {sum(args[0][1:]):.0f} offered; sigma {best.sigma:.4f}")

assert best.feasible and row.feasible
assert best.objective == max(r.objective for r in feasible)
