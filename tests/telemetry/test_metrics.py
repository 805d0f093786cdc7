"""Counter/gauge/histogram math, the registry snapshot/render API and the
timed blocks that record into histograms."""

import pytest

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry, Telemetry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_accepts_float_increments(self):
        c = Counter()
        c.inc(0.5)
        c.inc(0.25)
        assert c.value == pytest.approx(0.75)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge()
        g.set(3.0)
        g.set(-1.5)
        assert g.value == -1.5


class TestHistogram:
    def test_summary_stats(self):
        h = Histogram()
        for v in (2.0, 8.0, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(15.0)
        assert h.min == 2.0
        assert h.max == 8.0
        assert h.mean == pytest.approx(5.0)

    def test_empty_summary_is_json_safe(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["min"] is None and summary["max"] is None

    def test_single_observation(self):
        h = Histogram()
        h.observe(1.5)
        assert h.min == h.max == h.mean == 1.5


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc(7)
        reg.gauge("factor").set(2.5)
        reg.histogram("dt").observe(0.1)
        snap = reg.snapshot()
        assert snap["counters"] == {"runs": 7}
        assert snap["gauges"] == {"factor": 2.5}
        assert snap["histograms"]["dt"]["count"] == 1

    def test_render_lists_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc()
        reg.gauge("factor").set(1.0)
        reg.histogram("dt").observe(0.5)
        text = reg.render()
        for fragment in ("counters:", "gauges:", "histograms:", "runs", "factor"):
            assert fragment in text

    def test_empty_registry_renders_placeholder(self):
        assert "no metrics" in MetricsRegistry().render()


class TestTimedBlocks:
    def test_raising_block_still_records_its_histogram(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with telemetry.span("boom_s"):
                raise ValueError("x")
        timing = telemetry.metrics.histogram("boom_s")
        assert timing.count == 1
        assert timing.min >= 0.0
