"""The closed control loop reacting to a traffic step.

A latency slice jumps from comfortable to overloaded at interval 3.
The loop detects the SLA violation, consults the grid-search decision
backend once, applies the new split, and holds the gate closed for the
wait period while the network settles.

Run: python3 demos/04_closed_loop_step.py
"""
from sliceloop import (
    Environment,
    HeuristicOracleBackend,
    QueueConfig,
    RadioConfig,
    SliceKind,
    SliceSpec,
    StepProfile,
    UeChannelState,
    run_experiment,
)

SINR = 2.0 ** (2_200_000 / 180_000) - 1.0

env = Environment(
    radio_cfg=RadioConfig(total_rbs=10, wait_period_s=5.0),
    queue_cfg=QueueConfig(),
    specs=[
        SliceSpec(0, SliceKind.LATENCY, 10.0, 2.0, 10.0, 0.2),
        SliceSpec(1, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02),
    ],
    channels=[UeChannelState(0, 0, SINR), UeChannelState(1, 1, SINR)],
    profile=StepProfile(steps=(((0, 5.0), (3, 16.0)), ((0, 4.0),))),
)

log = run_experiment(env, n_cycles=12, backend=HeuristicOracleBackend())

print(f"{'t':>2} {'offered':>12} {'RBs':>7} {'S1 lat ms':>9} "
      f"{'violation':>9} {'gate':>5} {'new shares':>12}")
for c in log.cycles:
    decision = (f"{c.decision.allocation.shares}" if c.decision else "-")
    print(f"{c.interval_index:>2} {str(list(c.offered_mbps)):>12} "
          f"{str(list(c.rb_counts)):>7} {c.kpm[0].mean_latency_ms:>9.1f} "
          f"{str(c.assessment.violation_detected):>9} {str(c.gate_open):>5} "
          f"{decision:>12}")

print()
print(f"Backend consulted {log.backend_call_count} time(s); "
      f"{log.prompt_tokens + log.completion_tokens} "
      f"tokens total.  The wait period keeps the gate closed while the "
      f"backlog drains.")
