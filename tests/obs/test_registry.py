"""Tests for the metrics registry instruments."""

import math

import numpy as np
import pytest

from repro.obs.registry import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    bucket_percentile,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")

    def test_counter_value_lookup(self):
        registry = MetricsRegistry()
        assert registry.counter_value("missing") == 0.0
        registry.counter("hit").inc(4)
        assert registry.counter_value("hit") == 4.0


class TestGauge:
    def test_tracks_range(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(5.0)
        gauge.set(-1.0)
        gauge.set(2.0)
        assert gauge.value == 2.0
        assert gauge.min == -1.0
        assert gauge.max == 5.0
        assert gauge.updates == 3


class TestHistogram:
    def test_power_of_two_buckets(self):
        histogram = Histogram("h")
        for value in (0.0, 0.5, 1.0, 3.0, 4.0, 100.0):
            histogram.observe(value)
        # 0 -> 0; 0.5 -> 0.5; 1 -> 1; 3 -> 4; 4 -> 4; 100 -> 128.
        assert histogram.buckets == {0.0: 1, 0.5: 1, 1.0: 1, 4.0: 2, 128.0: 1}
        assert histogram.count == 6
        assert histogram.max == 100.0
        assert histogram.mean == sum((0.0, 0.5, 1.0, 3.0, 4.0, 100.0)) / 6

    def test_empty_histogram_dict(self):
        data = Histogram("h").as_dict()
        assert data["count"] == 0
        assert data["min"] == 0.0 and data["max"] == 0.0
        assert data["buckets"] == {}

    def test_as_dict_buckets_sorted_and_stringified(self):
        histogram = Histogram("h")
        histogram.observe(100.0)
        histogram.observe(0.5)
        assert list(histogram.as_dict()["buckets"]) == ["0.5", "128"]

    def test_snapshot_round_trip_keeps_exact_bounds(self):
        """Bucket keys parse back to their bounds: a merged snapshot
        re-creates 2**21 (not 2097150.0) and sub-2**-14 bounds exactly."""
        source = MetricsRegistry()
        histogram = source.histogram("h")
        for value in (2.0**21, 2.0**21, 3.0 * 2**40, 2.0**-20, 100.0, 0.0):
            histogram.observe(value)
        target = MetricsRegistry()
        target.merge_snapshot(source.snapshot())
        assert target.histogram("h").buckets == histogram.buckets
        # A second merge adds into the same buckets instead of creating
        # near-duplicates that render under one key and lose a count.
        target.merge_snapshot(source.snapshot())
        assert target.histogram("h").buckets == {
            bound: 2 * hits for bound, hits in histogram.buckets.items()
        }
        assert sum(target.histogram("h").as_dict()["buckets"].values()) == 12

    def test_values_just_above_a_power_of_two_bucket_above_it(self):
        """The bucket is the smallest power of two that is *at least* v,
        also a few ulps above 2**k, where a rounded log2 lands on 2**k."""
        for k in range(-30, 60):
            power = 2.0**k
            above = np.nextafter(power, np.inf)
            for value in (
                above,
                np.nextafter(above, np.inf),
                power * (1 + 1e-15),
            ):
                histogram = Histogram("h")
                histogram.observe(float(value))
                assert histogram.buckets == {2.0 * power: 1}, (k, value)
            exact = Histogram("h")
            exact.observe(power)
            assert exact.buckets == {power: 1}

    @pytest.mark.parametrize("prior", [(), (0.1,), (3.0, 0.5), (2.0**60,)])
    @pytest.mark.parametrize(
        "family",
        ["uniform", "integers", "dyadic-runs", "dyadic-wide", "near-2**53", "signed"],
    )
    def test_observe_array_matches_per_value_fold(self, family, prior):
        """Bulk observe equals the per-value loop bit for bit, on both the
        exact run-length sum and the sequential-accumulate fallback."""
        rng = np.random.default_rng(3)
        values = {
            "uniform": np.concatenate((
                rng.uniform(0.0, 50.0, 500),
                [0.0, 2.0**-1074, 2.0**-1022, np.nextafter(4.0, 8.0), 1e300],
            )),
            "integers": rng.poisson(4, 700).astype(float),
            "dyadic-runs": np.repeat(
                2.0 ** rng.integers(-4, 20, 12), rng.integers(1, 400, 12)
            ),
            "dyadic-wide": np.repeat(
                2.0 ** rng.integers(-40, 40, 12), rng.integers(1, 400, 12)
            ),
            "near-2**53": np.repeat([2.0**52, 3.0, 2.0**51 + 1.0], 5),
            "signed": np.repeat(rng.normal(0.0, 4.0, 30).round(1), 20),
        }[family]
        one_by_one, bulk = Histogram("a"), Histogram("b")
        for value in prior:  # a prior total the fold must extend
            one_by_one.observe(value)
            bulk.observe(value)
        for value in values:
            one_by_one.observe(float(value))
        bulk.observe_array(values)
        assert bulk.as_dict() == one_by_one.as_dict()
        assert bulk.buckets == one_by_one.buckets
        assert bulk.total == one_by_one.total
        bulk.observe_array(np.array([]))
        assert bulk.count == one_by_one.count


class TestSnapshot:
    def test_snapshot_sorted_and_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(8.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["gauges"]["g"]["max"] == 1.0
        json.dumps(snap)  # must serialize cleanly

    def test_untouched_gauge_snapshot_is_finite(self):
        registry = MetricsRegistry()
        registry.gauge("g")
        snap = registry.snapshot()["gauges"]["g"]
        assert math.isfinite(snap["min"]) and math.isfinite(snap["max"])


class TestNullRegistry:
    def test_disabled_flag(self):
        assert NullRegistry().enabled is False
        assert MetricsRegistry().enabled is True

    def test_instruments_are_shared_no_ops(self):
        registry = NullRegistry()
        counter = registry.counter("anything")
        assert counter is registry.counter("something-else")
        counter.inc(1000)
        assert counter.value == 0.0
        registry.gauge("g").set(5.0)
        registry.histogram("h").observe(5.0)
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert registry.counter_value("anything") == 0.0

    def test_module_singleton(self):
        assert NULL_REGISTRY.counter("x") is NullRegistry().counter("y")


class TestPercentileEdges:
    """Nearest-rank quantiles on degenerate histograms, pinned to numpy.

    ``bucket_percentile`` claims equivalence with numpy's
    ``inverted_cdf`` quantile whenever every observation sits on a bucket
    boundary; the empty and single-observation histograms are the edge
    cases of that claim (rank clamps to 1, clamp-to-max kicks in).
    """

    def test_empty_histogram_every_quantile_is_zero(self):
        histogram = Histogram("h")
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.percentile(q) == 0.0
        assert bucket_percentile({}, 0, 0.5) == 0.0

    def test_single_observation_every_quantile_is_it(self):
        import numpy as np

        for value in (0.0, 0.75, 1.0, 3.0, 1024.0):
            histogram = Histogram("h")
            histogram.observe(value)
            for q in (0.0, 0.01, 0.5, 0.99, 1.0):
                expected = float(
                    np.quantile([value], q, method="inverted_cdf")
                )
                # The bucket bound over-estimates by up to 2x, but the
                # clamp to the observed max makes a single observation
                # exact at every rank — matching inverted_cdf.
                assert histogram.percentile(q) == expected == value

    def test_boundary_observations_match_inverted_cdf(self):
        import numpy as np

        data = [1.0, 2.0, 4.0, 8.0, 16.0, 16.0, 32.0]
        histogram = Histogram("h")
        for value in data:
            histogram.observe(value)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            expected = float(np.quantile(data, q, method="inverted_cdf"))
            assert histogram.percentile(q) == expected

    def test_q_validated(self):
        import pytest

        with pytest.raises(ValueError):
            bucket_percentile({2.0: 1}, 1, 1.5)
