"""Tests for counters, time series, and histograms."""

import numpy as np
import pytest

from repro.common import SimulationError
from repro.sim import Counter, Histogram, StatsRegistry, TimeSeries


class TestCounter:
    def test_accumulates(self):
        c = Counter("c")
        c.add(5)
        c.add(3)
        assert c.total == 8
        assert c.events == 2

    def test_default_increment(self):
        c = Counter("c")
        c.add()
        assert c.total == 1.0


class TestTimeSeries:
    def test_bucketing(self):
        ts = TimeSeries("t", bucket=1.0)
        ts.add(0.5, 10)
        ts.add(0.9, 5)
        ts.add(2.1, 7)
        starts, sums = ts.buckets()
        assert list(starts) == [0.0, 1.0, 2.0]
        assert list(sums) == [15.0, 0.0, 7.0]

    def test_rates(self):
        ts = TimeSeries("t", bucket=0.5)
        ts.add(0.1, 100)
        _, rates = ts.rates()
        assert rates[0] == pytest.approx(200.0)

    def test_cumulative(self):
        ts = TimeSeries("t", bucket=1.0)
        ts.add(0.5, 1)
        ts.add(1.5, 2)
        ends, cum = ts.cumulative()
        assert list(cum) == [1.0, 3.0]
        assert list(ends) == [1.0, 2.0]

    def test_total_and_events(self):
        ts = TimeSeries("t", bucket=1.0)
        ts.add(0.0, 3)
        ts.add(5.0, 4)
        assert ts.total == 7
        assert ts.events == 2
        assert ts.last_time == 5.0

    def test_add_spread_splits_across_buckets(self):
        ts = TimeSeries("t", bucket=1.0)
        ts.add_spread(0.5, 2.5, 20)
        starts, sums = ts.buckets()
        assert sums.sum() == pytest.approx(20)
        # middle bucket gets the largest share (full width)
        assert sums[1] == pytest.approx(10.0)

    def test_add_spread_point_interval(self):
        ts = TimeSeries("t", bucket=1.0)
        ts.add_spread(1.0, 1.0, 5)
        assert ts.total == 5

    def test_add_spread_rejects_reversed(self):
        ts = TimeSeries("t", bucket=1.0)
        with pytest.raises(SimulationError):
            ts.add_spread(2.0, 1.0, 5)

    def test_rejects_negative_time(self):
        ts = TimeSeries("t", bucket=1.0)
        with pytest.raises(SimulationError):
            ts.add(-0.1, 1)

    def test_rejects_bad_bucket(self):
        with pytest.raises(SimulationError):
            TimeSeries("t", bucket=0.0)

    def test_empty(self):
        ts = TimeSeries("t", bucket=1.0)
        starts, sums = ts.buckets()
        assert starts.size == 0 and sums.size == 0


class TestHistogram:
    def test_mean_min_max(self):
        h = Histogram("h", lo=1e-6, hi=10.0)
        h.add(1.0)
        h.add(2.0)
        h.add(3.0)
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0 and h.max == 3.0

    def test_percentile_monotone(self):
        h = Histogram("h", lo=1e-3, hi=1e3)
        for v in np.geomspace(0.01, 100, 500):
            h.add(float(v))
        p50 = h.percentile(50)
        p95 = h.percentile(95)
        assert p50 <= p95

    def test_percentile_bounds(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_percentile_empty(self):
        assert Histogram("h").percentile(50) == 0.0

    def test_overflow_underflow_counted(self):
        h = Histogram("h", lo=1.0, hi=10.0, bins=4)
        h.add(0.01)   # below lo
        h.add(100.0)  # above hi
        assert h.total == 2


class TestStatsRegistry:
    def test_counter_identity(self):
        s = StatsRegistry()
        assert s.counter("x") is s.counter("x")

    def test_timeseries_identity(self):
        s = StatsRegistry(bucket=0.5)
        assert s.timeseries("x") is s.timeseries("x")
        assert s.timeseries("x").bucket == 0.5

    def test_histogram_identity(self):
        s = StatsRegistry()
        assert s.histogram("h") is s.histogram("h")

    def test_snapshot(self):
        s = StatsRegistry()
        s.counter("a").add(2)
        s.timeseries("b").add(0.0, 3)
        snap = s.totals()
        assert snap == {"a": 2.0, "a.events": 1.0, "b": 3.0}

    def test_snapshot_counter_events_distinguish_granularity(self):
        # One 4 MB flush vs a thousand 4 KB ones: same total, different
        # event counts — totals() must preserve the distinction.
        coarse = StatsRegistry()
        coarse.counter("bytes").add(4_194_304)
        fine = StatsRegistry()
        for _ in range(1024):
            fine.counter("bytes").add(4096)
        assert coarse.totals()["bytes"] == fine.totals()["bytes"]
        assert coarse.totals()["bytes.events"] == 1.0
        assert fine.totals()["bytes.events"] == 1024.0
