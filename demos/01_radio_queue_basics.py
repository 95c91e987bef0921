"""Radio capacity math and the per-slice packet queue.

Each slice serves one user whose SINR is the same on every RB, so a
slice's capacity is one formula: RBs x 180 kHz x log2(1 + SINR).  The
demo prints it for a few RB counts, then pushes three load levels
through the queueing simulator to show how latency and drops emerge once
demand crosses capacity.

Run: python3 demos/01_radio_queue_basics.py
"""
from sliceloop import (
    QueueConfig,
    RadioConfig,
    SimState,
    UeChannelState,
    channel_capacity,
    simulate_interval,
)

# An SINR chosen so each 180 kHz resource block carries exactly 2.2 Mbps.
SINR = 2.0 ** (2_200_000 / 180_000) - 1.0

radio = RadioConfig(total_rbs=10)
queue = QueueConfig()
channels = [UeChannelState(0, 0, SINR), UeChannelState(1, 1, SINR)]

ue = channels[0]
print("=== Slice capacity ===")
for rbs in (1, 5, 10):
    cap = channel_capacity(ue, rbs, radio.rb_bandwidth_hz)
    print(f"{rbs:2d} RB -> {cap / 1e6:6.1f} Mbps")

print()
print("=== One slice, 5 RBs (11 Mbps), three load levels ===")
for offered in (5.0, 11.0, 22.0):
    res = simulate_interval(
        [offered, 0.0], [5, 5], channels, radio, queue, SimState.fresh(2)
    )
    s = res.kpm[0]
    print(
        f"offered {offered:5.1f} Mbps -> latency {s.mean_latency_ms:7.1f} ms, "
        f"throughput {s.mean_throughput_mbps:5.1f} Mbps, "
        f"drop ratio {s.drop_ratio:.2f}"
    )

print()
print("Accounting is exact: delivered + dropped + queued delta == offered.")
res = simulate_interval([22.0, 0.0], [5, 5], channels, radio, queue, SimState.fresh(2))
acct = res.accounting[0]
print(
    f"offered {acct.offered_packets} pkts = delivered {acct.delivered_packets}"
    f" + dropped {acct.dropped_packets} + queued {acct.queued_after}"
)
