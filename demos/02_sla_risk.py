"""SLA violation math: violation level, sigmoid risk, compliance index.

Shows how a measured KPM becomes a normalised violation level, how the
sigmoid turns that into a bounded risk factor, and how per-slice risks
aggregate into the compliance index sigma that gates the decision agent.

Run: python3 demos/02_sla_risk.py
"""
from sliceloop import (
    SliceKind,
    SliceKpm,
    SliceSpec,
    assess,
    compliance_index,
    risk_factor,
    violation_level,
)

lat_slice = SliceSpec(0, SliceKind.LATENCY, 10.0, 2.0, 10.0, 0.2)
thr_slice = SliceSpec(1, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02)

print("=== Latency slice: risk vs measured latency (SLA 10 ms) ===")
for latency_ms in (2.0, 8.0, 10.0, 12.0, 20.0, 40.0):
    eps = violation_level(latency_ms, lat_slice)
    rho = risk_factor(eps, lat_slice)
    print(f"latency {latency_ms:5.1f} ms -> eps {eps:+6.2f} -> risk {rho:.4f}")

print()
print("=== Aggregation into sigma ===")
rhos = [0.9, 0.1]
weights = [lat_slice.weight, thr_slice.weight]
print(f"risks {rhos}, weights {weights} -> sigma "
      f"{compliance_index(rhos, weights):.4f}")

print()
print("=== Gate decision on one interval's KPMs, one per slice (theta = 0.7) ===")
for label, latency in (("healthy", 2.0), ("violating", 25.0)):
    kpms = (
        SliceKpm(latency, 80.0, 0.0, 80.0),
        SliceKpm(1.0, 80.0, 0.0, 80.0),
    )
    a = assess(kpms, [lat_slice, thr_slice], theta=0.7)
    print(f"{label:>9}: max risk {max(s.rho for s in a.slices):.4f}, "
          f"sigma {a.sigma:+.4f}, gate fires: {a.violation_detected}")
