import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sliceloop
from sliceloop.core import SliceKind, SliceKpm, SliceSpec
from sliceloop.sla import (
    assess,
    compliance_index,
    risk_factor,
    slice_risk,
    starved,
    violation_level,
)

LAT = SliceSpec(0, SliceKind.LATENCY, 10.0, 2.0, 10.0, 0.2)
THR = SliceSpec(1, SliceKind.THROUGHPUT, 100.0, 1.0, -10.0, -0.2)

# exp(x) overflows above the first; exp(-x) underflows to 0 below minus the second.
EXP_EDGES = (709.782712893384, 745.1332191019412)


def sigmoid_args():
    """Finite and infinite sigmoid arguments, weighted toward exp's edges."""
    edges = [sign * edge for edge in EXP_EDGES for sign in (1.0, -1.0)]
    return st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from(edges).flatmap(lambda e: st.floats(e - 1.0, e + 1.0)),
        st.sampled_from(edges + [math.inf, -math.inf]),
    )


@pytest.fixture(scope="module")
def expit():
    return pytest.importorskip("scipy.special").expit


def sample(lat_ms, lat_thr, lat_off, thr_ms, thr_thr, thr_off):
    return (
        SliceKpm(lat_ms, lat_thr, 0.0, lat_off),
        SliceKpm(thr_ms, thr_thr, 0.0, thr_off),
    )


class TestViolationLevel:
    def test_latency_boundary(self):
        assert violation_level(10.0, LAT) == 0.0

    def test_latency_excess(self):
        assert violation_level(15.0, LAT) == pytest.approx(0.5, abs=1e-12)

    def test_throughput_shortfall(self):
        assert violation_level(80.0, THR) == pytest.approx(-0.2, abs=1e-12)


class TestRiskFactor:
    def test_midpoint(self):
        assert risk_factor(LAT.shape_b, LAT) == pytest.approx(0.5, abs=1e-12)

    def test_limit_toward_one(self):
        spec = SliceSpec(0, SliceKind.LATENCY, 10.0, 1.0, 10.0, 0.0)
        assert risk_factor(50.0, spec) > 0.999999
        assert risk_factor(1e6, spec) < 1.0  # clamped strictly inside (0, 1)
        assert risk_factor(-1e6, spec) > 0.0

    def test_shifted_midpoint(self):
        assert risk_factor(0.2, LAT) == pytest.approx(0.5, abs=1e-12)

    def test_doubled_latency_worked_value(self):
        eps = violation_level(20.0, LAT)
        expected = 1.0 / (1.0 + math.exp(-8.0))  # independent evaluation
        assert risk_factor(eps, LAT) == pytest.approx(expected, abs=1e-12)

    @given(e1=st.floats(-10, 10), e2=st.floats(-10, 10))
    def test_monotone_with_slope_sign(self, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        assert risk_factor(lo, LAT) <= risk_factor(hi, LAT)
        assert risk_factor(lo, THR) >= risk_factor(hi, THR)

    @settings(max_examples=2000, deadline=None)
    @given(
        x=sigmoid_args(),
        shape_a=st.sampled_from([1.0, -1.0, 2.0, 0.5, -30.0, 1e-3]),
        shape_b=st.sampled_from([0.0, 0.2, -0.02]),
    )
    def test_bit_identical_to_clamped_expit(self, expit, x, shape_a, shape_b):
        spec = SliceSpec(0, SliceKind.LATENCY, 10.0, 1.0, shape_a, shape_b)
        # With shape_a = 1 and shape_b = 0 the sigmoid argument is x itself.
        arg = shape_a * (x - shape_b)
        rho = float(expit(arg))
        expected = min(max(rho, sys.float_info.min), 1.0 - sys.float_info.epsilon)
        assert risk_factor(x, spec).hex() == expected.hex()


def test_import_does_not_load_scipy():
    src = Path(sliceloop.__file__).resolve().parents[1]
    probe = "import sys, sliceloop; print(sorted(m for m in sys.modules if 'scipy' in m))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"


class TestComplianceIndex:
    def test_zero_risk(self):
        assert compliance_index([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_half_half(self):
        assert compliance_index([0.5, 0.5], [1.0, 1.0]) == pytest.approx(-0.5, abs=1e-12)

    def test_weighted(self):
        assert compliance_index([1.0, 0.0], [2.0, 1.0]) == pytest.approx(-2.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compliance_index([0.5], [1.0, 1.0])

    @given(
        pairs=st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 5)), min_size=1, max_size=6
        )
    )
    def test_permutation_invariant_and_nonpositive(self, pairs):
        rhos = [p[0] for p in pairs]
        weights = [p[1] for p in pairs]
        sigma = compliance_index(rhos, weights)
        assert sigma <= 0.0
        rev = compliance_index(rhos[::-1], weights[::-1])
        assert sigma == pytest.approx(rev, abs=1e-12)

    @given(
        slices=st.integers(1, 6).flatmap(lambda splits: st.lists(
            st.tuples(st.lists(st.floats(0, 1), min_size=splits, max_size=splits),
                      st.floats(0, 5)),
            min_size=1, max_size=5,
        ))
    )
    def test_arrays_equal_the_scalar_call_per_entry(self, slices):
        rhos = [r for r, _ in slices]
        weights = [w for _, w in slices]
        got = compliance_index([np.array(r) for r in rhos], weights)
        want = [compliance_index(column, weights) for column in zip(*rhos)]
        assert [float.hex(x) for x in got.tolist()] == [float.hex(x) for x in want]

    @given(
        rhos=st.lists(st.floats(0, 1), min_size=1, max_size=5),
        c=st.floats(0.1, 10),
    )
    def test_weight_scaling(self, rhos, c):
        weights = [1.0] * len(rhos)
        assert compliance_index(rhos, [c * w for w in weights]) == pytest.approx(
            c * compliance_index(rhos, weights), rel=1e-12, abs=1e-12
        )


class TestAssess:
    def test_comfortable_no_violation(self):
        kpm = sample(2.0, 90.0, 90.0, 0.0, 90.0, 90.0)
        a = assess(kpm, [LAT, THR], 0.7)
        assert not a.violation_detected

    def test_doubled_latency_detects(self):
        kpm = sample(20.0, 100.0, 120.0, 0.0, 80.0, 80.0)
        a = assess(kpm, [LAT, THR], 0.7)
        assert a.slices[0].rho == pytest.approx(1.0 / (1.0 + math.exp(-8.0)), abs=1e-12)
        assert a.violation_detected

    def test_starved_latency_slice_is_maximal_risk(self):
        # Zero throughput at a positive offered load: nothing was delivered.
        kpm = (SliceKpm(0.0, 0.0, 1.0, 50.0), SliceKpm(1.0, 50.0, 0.0, 50.0))
        a = assess(kpm, [LAT, THR], 0.7)
        assert a.slices[0].epsilon == math.inf
        assert a.slices[0].rho > 0.999
        assert a.slices[0].rho < 1.0
        assert a.violation_detected

    def test_idle_latency_slice_is_low_risk(self):
        kpm = (SliceKpm(0.0, 0.0, 0.0, 0.0), SliceKpm(1.0, 50.0, 0.0, 50.0))
        a = assess(kpm, [LAT, THR], 0.7)
        assert not a.violation_detected

    def test_served_latency_slice_under_target_is_not_starved(self):
        # Built by hand with the four KPM fields: it delivered 50 Mbps at
        # 3 ms, under the 10 ms target, so it is scored by its latency.
        kpm = SliceKpm(3.0, 50.0, 0.0, 50.0)
        risk = slice_risk(LAT, kpm)
        assert not starved(kpm)
        assert risk.epsilon == violation_level(3.0, LAT)
        assert math.isfinite(risk.epsilon)
        assert risk.rho < 0.7

    def test_throughput_target_capped_by_demand(self):
        # delivering everything offered is not a violation, however large
        # the configured target
        big = SliceSpec(1, SliceKind.THROUGHPUT, 1000.0, 1.0, -10.0, -0.2)
        kpm = sample(2.0, 50.0, 50.0, 0.0, 50.0, 50.0)
        a = assess(kpm, [LAT, big], 0.7)
        assert a.slices[1].epsilon == pytest.approx(0.0)
        assert not a.violation_detected

    def test_theta_monotone(self):
        kpm = sample(14.0, 100.0, 120.0, 0.0, 80.0, 80.0)
        detected = [
            assess(kpm, [LAT, THR], th).violation_detected
            for th in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        # once it flips to False it stays False as theta rises
        assert detected == sorted(detected, reverse=True)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_theta_outside_open_unit_interval_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            assess(sample(2.0, 90.0, 90.0, 0.0, 90.0, 90.0), [LAT, THR], theta)

    @pytest.mark.parametrize("specs", [[LAT], [LAT, THR, THR]])
    def test_slice_count_mismatch_rejected(self, specs):
        with pytest.raises(ValueError, match="slice count"):
            assess(sample(2.0, 90.0, 90.0, 0.0, 90.0, 90.0), specs, 0.7)
