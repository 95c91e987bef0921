import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceloop.core import (
    AllocationRatio,
    InfeasibleAllocationError,
    RadioConfig,
    SliceKind,
    SliceKpm,
    SliceSpec,
    check_count,
    ratio_to_rb_counts,
    rb_splits,
)
from split_reference import reference_splits


class TestSliceSpec:
    def test_rejects_zero_slope(self):
        with pytest.raises(ValueError):
            SliceSpec(0, SliceKind.LATENCY, 10.0, 1.0, 0.0, 0.2)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            SliceSpec(0, SliceKind.LATENCY, 0.0, 1.0, 10.0, 0.2)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            SliceSpec(0, SliceKind.LATENCY, 10.0, -1.0, 10.0, 0.2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10 ** 400, id="int-beyond-float"),
                                       pytest.param(-10 ** 400, id="negative-int-beyond-float"),
                                       pytest.param(10 ** 5000, id="int-beyond-repr")])
    @pytest.mark.parametrize("field", ["sla_target", "weight", "shape_a", "shape_b"])
    def test_rejects_non_finite_field(self, field, value):
        fields = dict(sla_target=10.0, weight=1.0, shape_a=10.0, shape_b=0.2)
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            SliceSpec(0, SliceKind.LATENCY, **fields)


class TestRadioConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            RadioConfig(violation_threshold=1.0)
        with pytest.raises(ValueError):
            RadioConfig(violation_threshold=0.0)

    def test_defaults_valid(self):
        cfg = RadioConfig()
        assert cfg.total_rbs == 106

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       pytest.param(10 ** 400, id="int-beyond-float")])
    @pytest.mark.parametrize("field", ["rb_bandwidth_hz", "wait_period_s", "monitoring_interval_s"])
    def test_rejects_non_finite_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            RadioConfig(**{field: value})


class TestCheckCount:
    def test_counts_up_to_the_largest_float(self):
        for value in (1, 106, int(sys.float_info.max)):
            check_count("total_rbs", value)

    @pytest.mark.parametrize("value", [pytest.param(int(sys.float_info.max) + 1, id="above-float"),
                                       pytest.param(10 ** 400, id="int-beyond-float")])
    def test_rejects_ints_beyond_float_range(self, value):
        with pytest.raises(ValueError, match="^total_rbs must be an integer from 1 to the largest float"):
            check_count("total_rbs", value)


def test_rb_splits_rows_are_the_recursive_enumeration_in_order():
    for total, n in ((2, 2), (10, 2), (3, 3), (12, 3), (2, 3), (7, 4), (5, 1)):
        got = rb_splits(total, n)
        assert got.shape == (len(list(reference_splits(total, n))), n)
        assert [tuple(row) for row in got.tolist()] == list(reference_splits(total, n))


def test_rb_splits_is_built_once_per_pool_and_read_only():
    splits = rb_splits(20, 3)
    assert rb_splits(20, 3) is splits
    assert not splits.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        splits[0, 0] = 5


class TestAllocationRatio:
    def test_sum_tolerance(self):
        AllocationRatio([0.5, 0.5 + 5e-10])
        with pytest.raises(ValueError):
            AllocationRatio([0.5, 0.6])

    def test_range(self):
        with pytest.raises(ValueError):
            AllocationRatio([1.2, -0.2])

    def test_empty(self):
        with pytest.raises(ValueError):
            AllocationRatio([])

    @pytest.mark.parametrize("share", [1.2, -0.2, math.nan, math.inf, "0.5",
                                       pytest.param(10 ** 400, id="int-beyond-float"),
                                       pytest.param(10 ** 5000, id="int-beyond-repr")])
    def test_share_outside_unit_interval_named(self, share):
        with pytest.raises(ValueError, match="shares"):
            AllocationRatio([share, 0.5])


class TestSliceKpm:
    def test_cannot_deliver_more_than_offered(self):
        with pytest.raises(ValueError):
            SliceKpm(1.0, 90.0, 0.0, 80.0)

    def test_drop_ratio_range(self):
        with pytest.raises(ValueError):
            SliceKpm(1.0, 10.0, 1.5, 80.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 10 ** 400])
    @pytest.mark.parametrize("field", ["mean_latency_ms", "mean_throughput_mbps",
                                       "offered_load_mbps"])
    def test_out_of_range_field_named(self, field, value):
        fields = {"mean_latency_ms": 1.0, "mean_throughput_mbps": 1.0, "drop_ratio": 0.0,
                  "offered_load_mbps": 1.0, field: value}
        with pytest.raises(ValueError, match=field):
            SliceKpm(**fields)


class TestRatioToRbCounts:
    def test_symmetric_split(self):
        assert ratio_to_rb_counts(AllocationRatio([0.5, 0.5]), 106) == [53, 53]

    def test_exact_fractions(self):
        assert ratio_to_rb_counts(AllocationRatio([0.7, 0.3]), 10) == [7, 3]

    def test_equal_remainders_lower_id_wins(self):
        thirds = AllocationRatio([1 / 3, 1 / 3, 1 / 3])
        assert ratio_to_rb_counts(thirds, 10) == [4, 3, 3]

    def test_infeasible_pool(self):
        with pytest.raises(InfeasibleAllocationError):
            ratio_to_rb_counts(AllocationRatio([0.5, 0.5]), 1)


def shares_lists(n_min=2, n_max=5):
    return (
        st.integers(n_min, n_max)
        .flatmap(lambda n: st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        .map(lambda raw: [v / sum(raw) for v in raw])
        .map(lambda s: s[:-1] + [1.0 - sum(s[:-1])])
    )


@given(shares=shares_lists(), extra=st.integers(0, 300))
def test_counts_sum_and_minimum(shares, extra):
    ratio = AllocationRatio(shares)
    total = len(shares) + extra
    counts = ratio_to_rb_counts(ratio, total)
    assert sum(counts) == total
    assert min(counts) >= 1


@given(shares=shares_lists(), extra=st.integers(0, 300))
def test_counts_deterministic(shares, extra):
    ratio = AllocationRatio(shares)
    total = len(shares) + extra
    assert ratio_to_rb_counts(ratio, total) == ratio_to_rb_counts(ratio, total)


@settings(max_examples=300)
@given(
    shares=shares_lists(),
    extra=st.integers(0, 200),
    idx=st.integers(0, 4),
    bump=st.floats(0.01, 0.5),
)
def test_share_increase_never_loses_rbs(shares, extra, idx, bump):
    """Growing one share (renormalizing the rest) never shrinks its count."""
    idx = idx % len(shares)
    ratio = AllocationRatio(shares)
    total = len(shares) + extra
    before = ratio_to_rb_counts(ratio, total)[idx]

    grown = shares[idx] + bump
    scale = (1.0 - grown) / (1.0 - shares[idx])
    new = [s * scale for s in shares]
    new[idx] = grown
    new[-1] = 1.0 - sum(new[:-1])
    if new[idx] > 1.0 or any(v < 0 for v in new):
        return
    if idx == len(shares) - 1 and abs(new[idx] - grown) > 1e-6:
        return
    after = ratio_to_rb_counts(AllocationRatio(new), total)[idx]
    assert after >= before
