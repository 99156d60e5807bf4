"""Merge laws for the two histogram kinds in the codebase.

* :func:`repro.sim.recorder.merge_histograms` — bits-weighted delay
  histograms merged when sessions are aggregated;
* :meth:`repro.obs.registry.MetricsRegistry.merge_snapshot` — telemetry
  folded across worker processes by the batch runner.

Both merges must be associative and conserve mass: any grouping of the
worker snapshots yields the same aggregate, and nothing is dropped or
double-counted.  The strategies use integer bit masses (exact in
float64) so the laws hold with ``==`` rather than a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import Histogram, MetricsRegistry, bucket_percentile
from repro.sim.recorder import (
    histogram_max_delay,
    histogram_quantile,
    merge_histograms,
)
from tests.strategies import integer_histograms

_SETTINGS = settings(max_examples=50, deadline=None)


class TestDelayHistogramMerge:
    @_SETTINGS
    @given(a=integer_histograms(), b=integer_histograms(), c=integer_histograms())
    def test_associative(self, a, b, c):
        left = merge_histograms([merge_histograms([a, b]), c])
        right = merge_histograms([a, merge_histograms([b, c])])
        assert left == right
        # ...and both equal the flat three-way merge.
        assert left == merge_histograms([a, b, c])

    @_SETTINGS
    @given(a=integer_histograms(), b=integer_histograms())
    def test_commutative(self, a, b):
        assert merge_histograms([a, b]) == merge_histograms([b, a])

    @_SETTINGS
    @given(a=integer_histograms(), b=integer_histograms())
    def test_mass_conserved(self, a, b):
        merged = merge_histograms([a, b])
        assert sum(merged.values()) == sum(a.values()) + sum(b.values())
        assert set(merged) == set(a) | set(b)

    @_SETTINGS
    @given(h=integer_histograms())
    def test_identity_and_copy(self, h):
        assert merge_histograms([]) == {}
        merged = merge_histograms([h])
        assert merged == h
        # The merge returns a fresh dict, never an alias of its input.
        merged[99] = 1.0
        assert 99 not in h

    @_SETTINGS
    @given(a=integer_histograms(), b=integer_histograms())
    def test_max_delay_is_max_of_parts(self, a, b):
        merged = merge_histograms([a, b])
        assert histogram_max_delay(merged) == max(
            histogram_max_delay(a), histogram_max_delay(b)
        )

    @_SETTINGS
    @given(h=integer_histograms())
    def test_quantile_bounds(self, h):
        if not h:
            return
        q0 = histogram_quantile(h, 0.01)
        q1 = histogram_quantile(h, 1.0)
        assert min(h) <= q0 <= q1 <= max(h)
        assert q1 == histogram_max_delay(h)


def _registry_from(observations: dict[str, list[float]]) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, values in observations.items():
        for value in values:
            registry.histogram(name).observe(value)
        registry.counter(name + ".count").inc(len(values))
    return registry


class TestSnapshotMerge:
    """MetricsRegistry.merge_snapshot grouping-independence."""

    @_SETTINGS
    @given(a=integer_histograms(), b=integer_histograms(), c=integer_histograms())
    def test_any_grouping_same_aggregate(self, a, b, c):
        snaps = [
            _registry_from({"queue": [float(k) for k in part]}).snapshot()
            for part in (a, b, c)
        ]

        sequential = MetricsRegistry()
        for snap in snaps:
            sequential.merge_snapshot(snap)

        paired = MetricsRegistry()
        intermediate = MetricsRegistry()
        intermediate.merge_snapshot(snaps[0])
        intermediate.merge_snapshot(snaps[1])
        paired.merge_snapshot(intermediate.snapshot())
        paired.merge_snapshot(snaps[2])

        assert sequential.snapshot() == paired.snapshot()

    @_SETTINGS
    @given(a=integer_histograms(), b=integer_histograms())
    def test_counts_conserved(self, a, b):
        merged = MetricsRegistry()
        merged.merge_snapshot(_registry_from({"q": list(map(float, a))}).snapshot())
        merged.merge_snapshot(_registry_from({"q": list(map(float, b))}).snapshot())
        snap = merged.snapshot()
        if not a and not b:
            assert snap["histograms"] == {}
            return
        histogram = snap["histograms"]["q"]
        assert histogram["count"] == len(a) + len(b)
        assert histogram["total"] == float(sum(a) + sum(b))
        assert sum(histogram["buckets"].values()) == len(a) + len(b)
        assert snap["counters"]["q.count"] == len(a) + len(b)

    def test_malformed_sections_skipped(self):
        registry = MetricsRegistry()
        registry.merge_snapshot({"counters": {"x": "not-a-number"}})
        registry.merge_snapshot({"histograms": {"h": "nope"}})
        registry.merge_snapshot("garbage")
        snap = registry.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}


#: Observations that sit exactly on power-of-two bucket boundaries (plus
#: 0, the underflow bucket), where the bucket percentile is *exact*.
boundary_values = st.lists(
    st.sampled_from([0.0] + [2.0**e for e in range(-6, 12)]),
    min_size=1,
    max_size=60,
)


class TestHistogramPercentile:
    """``Histogram.percentile`` vs exact numpy quantiles.

    On bucket boundaries the nearest-rank bucket percentile must equal
    ``np.quantile(values, q, method="inverted_cdf")`` — same rank rule,
    and boundary observations file under their own value as the bucket
    upper bound.  Off-boundary it may only over-estimate, bounded by one
    bucket (a factor of 2).
    """

    @_SETTINGS
    @given(
        values=boundary_values,
        q=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    )
    def test_exact_on_bucket_boundaries(self, values, q):
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        expected = float(np.quantile(values, q, method="inverted_cdf"))
        assert histogram.percentile(q) == expected

    @_SETTINGS
    @given(
        values=st.lists(
            st.floats(
                min_value=0.0,
                max_value=4096.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=60,
        ),
        q=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    )
    def test_overestimates_by_at_most_one_bucket(self, values, q):
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        exact = float(np.quantile(values, q, method="inverted_cdf"))
        estimate = histogram.percentile(q)
        assert estimate >= exact or estimate == pytest.approx(exact)
        assert estimate <= max(2.0 * exact, max(values), 0.0)

    @_SETTINGS
    @given(values=boundary_values)
    def test_monotone_in_q(self, values):
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        quantiles = [histogram.percentile(q / 10) for q in range(11)]
        assert quantiles == sorted(quantiles)
        assert quantiles[-1] == max(values)

    def test_empty_histogram_is_zero(self):
        assert Histogram("h").percentile(0.5) == 0.0
        assert bucket_percentile({}, 0, 0.5) == 0.0

    def test_q_out_of_range_rejected(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)
        with pytest.raises(ValueError):
            histogram.percentile(-0.1)

    def test_snapshot_buckets_work_with_string_bounds(self):
        # as_dict() stringifies bucket bounds; bucket_percentile must
        # sort them numerically, not lexically ("16" < "2" lexically).
        histogram = Histogram("h")
        for value in [1.0, 2.0, 16.0, 16.0]:
            histogram.observe(value)
        raw = histogram.as_dict()
        assert bucket_percentile(
            raw["buckets"], raw["count"], 1.0, maximum=raw["max"]
        ) == 16.0
        assert bucket_percentile(raw["buckets"], raw["count"], 0.25) == 1.0

    def test_percentile_clamped_to_observed_max(self):
        # 5.0 files under bucket 8, but the observed max is 5.0.
        histogram = Histogram("h")
        histogram.observe(5.0)
        assert histogram.percentile(1.0) == 5.0


class TestObserveArray:
    """``observe_array`` is the per-value ``observe`` loop, bit for bit."""

    @_SETTINGS
    @given(
        runs=st.lists(
            st.tuples(
                st.one_of(
                    st.floats(-1e6, 1e6, allow_nan=False),
                    st.integers(-(2**20), 2**20).map(float),
                    st.integers(-30, 30).map(lambda e: 2.0**e),
                ),
                st.integers(1, 40),
            ),
            max_size=30,
        ),
        prior=st.lists(st.floats(0.0, 1e3, allow_nan=False), max_size=3),
    )
    def test_matches_per_value_fold(self, runs, prior):
        values = np.repeat(
            [value for value, _ in runs], [length for _, length in runs]
        )
        one_by_one, bulk = Histogram("a"), Histogram("b")
        for value in prior:
            one_by_one.observe(value)
            bulk.observe(value)
        for value in values:
            one_by_one.observe(float(value))
        bulk.observe_array(values)
        assert bulk.as_dict() == one_by_one.as_dict()
        assert bulk.buckets == one_by_one.buckets
