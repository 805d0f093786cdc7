"""Merging worker telemetry snapshots into a parent handle."""

from __future__ import annotations

from repro.telemetry import (
    InjectionEvent,
    MemorySink,
    MetricsRegistry,
    Telemetry,
    event_to_dict,
)


class TestMetricsMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(3)
        b.counter("x").inc(4)
        b.counter("y").inc(1)
        a.merge(b.snapshot())
        assert a.counter("x").value == 7
        assert a.counter("y").value == 1

    def test_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(5.0)
        a.merge(b.snapshot())
        assert a.gauge("g").value == 5.0

    def test_histograms_combine_like_one_stream(self):
        a, b, whole = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for value in (0.1, 0.5):
            a.histogram("h").observe(value)
            whole.histogram("h").observe(value)
        for value in (0.05, 0.9, 0.2):
            b.histogram("h").observe(value)
            whole.histogram("h").observe(value)
        a.merge(b.snapshot())
        assert a.histogram("h").summary() == whole.histogram("h").summary()

    def test_empty_histogram_snapshot_is_noop(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("h")  # created but never observed
        a.merge(b.snapshot())
        assert a.histogram("h").count == 0


class TestTelemetryAbsorb:
    def test_absorb_reemits_events_and_merges_metrics(self):
        worker = Telemetry(sink=MemorySink())
        worker.count("injections.total", 3)
        worker.observe("injection_s", 0.25)
        worker.emit(
            InjectionEvent(
                1.0, thread=0, dyn_index=0, bit=0, model="value",
                outcome="masked", fast_path=True, duration_s=0.25,
            )
        )
        snapshot = {
            "events": [event_to_dict(e) for e in worker.sink.events],
            "metrics": worker.metrics.snapshot(),
        }
        parent = Telemetry(sink=MemorySink())
        parent.count("injections.total", 2)
        parent.absorb(snapshot)
        assert parent.metrics.counter("injections.total").value == 5
        assert parent.metrics.histogram("injection_s").count == 1
        events = parent.sink.events
        assert len(events) == 1
        assert isinstance(events[0], InjectionEvent)
        assert events[0].outcome == "masked"

    def test_absorb_empty_snapshot(self):
        parent = Telemetry(sink=MemorySink())
        parent.absorb({})
        assert parent.sink.events == []

    def test_absorb_stamps_worker_onto_events(self):
        worker = Telemetry(sink=MemorySink())
        worker.emit(
            InjectionEvent(
                1.0, thread=0, dyn_index=0, bit=0, model="value",
                outcome="masked", fast_path=True, duration_s=0.25,
            )
        )
        parent = Telemetry(sink=MemorySink())
        parent.absorb({
            "events": [event_to_dict(e) for e in worker.sink.events],
            "worker": "PoolWorker-7",
        })
        assert parent.sink.events[0].worker == "PoolWorker-7"

    def test_store_gauges_sum_per_worker(self):
        """Regression: checkpoint store gauges from different workers must
        sum into the headline gauge instead of last-write-winning."""
        parent = Telemetry(sink=MemorySink())
        for name, nbytes in (("w1", 1000.0), ("w2", 300.0)):
            snapshot = {
                "metrics": {
                    "counters": {"checkpoint.thread_hits": 2},
                    "gauges": {"checkpoint.bytes": nbytes},
                    "histograms": {},
                },
                "worker": name,
            }
            parent.absorb(snapshot)
        gauges = parent.metrics.snapshot()["gauges"]
        assert gauges["checkpoint.bytes"] == 1300.0
        assert gauges["checkpoint.bytes[w1]"] == 1000.0
        assert gauges["checkpoint.bytes[w2]"] == 300.0
        # Counters keep plain summing.
        assert parent.metrics.counter("checkpoint.thread_hits").value == 4

    def test_resent_worker_gauge_updates_not_double_counts(self):
        parent = Telemetry(sink=MemorySink())
        for nbytes in (500.0, 800.0):  # same worker reporting twice
            parent.absorb({
                "metrics": {
                    "counters": {},
                    "gauges": {"checkpoint.bytes": nbytes},
                    "histograms": {},
                },
                "worker": "w1",
            })
        gauges = parent.metrics.snapshot()["gauges"]
        assert gauges["checkpoint.bytes"] == 800.0

    def test_workerless_gauges_keep_last_write_semantics(self):
        parent = Telemetry(sink=MemorySink())
        parent.absorb({
            "metrics": {
                "counters": {},
                "gauges": {"checkpoint.bytes": 123.0},
                "histograms": {},
            },
        })
        assert parent.metrics.snapshot()["gauges"]["checkpoint.bytes"] == 123.0
