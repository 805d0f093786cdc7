"""Process-local counters, gauges and summary histograms.

Deliberately tiny: a campaign's hot loop is interpreted GPU code at
~1 µs/instruction, so metric updates must be a dict lookup plus an add —
no locks, no label sets, no export protocol.  :meth:`MetricsRegistry.snapshot`
returns plain dicts for manifests; :meth:`MetricsRegistry.render` prints
the aligned table the ``repro metrics`` CLI command shows.

Histograms are also the timing type: every wall-clock duration the stack
aggregates is a ``*_s`` histogram (``Telemetry.span`` observes into one).
The metric names in use, with their meaning, are tabled in
``docs/observability.md`` ("Metric names").
"""

from __future__ import annotations

import math

#: Gauges that describe *per-process* resource levels (checkpoint-store
#: occupancy).  A naive last-write-wins merge of worker snapshots would
#: report one arbitrary worker's store instead of the fleet total, so
#: :meth:`MetricsRegistry.merge` sums these across workers — keeping a
#: ``name[worker]`` gauge per contributor and the plain ``name`` as the sum.
SUMMED_GAUGES = frozenset({
    "checkpoint.bytes",
    "checkpoint.entries",
    "checkpoint.evicted",
    "checkpoint.capture_s",
})

#: Histograms whose per-worker shape matters for diagnosing pool health.
#: :meth:`MetricsRegistry.merge` keeps a scoped ``name[worker]`` copy per
#: contributor *in addition to* the combined ``name`` histogram, so
#: reports can show queue-wait skew across workers instead of one merged
#: distribution that hides a straggler.
SCOPED_HISTOGRAMS = frozenset({
    "parallel.queue_wait_s",
})


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary stats (count/total/min/max/mean) of observations."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": None, "max": None, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named metrics, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    def counter_value(self, name: str) -> int | float:
        """Current value of a counter, 0 if it was never incremented.

        Unlike :meth:`counter` this never *creates* the metric, so hot
        paths can poll deltas without polluting snapshots with
        zero-valued entries.
        """
        metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def merge(self, snapshot: dict, worker: str | None = None) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Used when parallel campaign workers ship their metrics back to
        the parent process: counters add, gauges take the incoming value
        (last-write-wins, same as a local ``set``), histograms combine
        count/total/min/max — exactly the stats a single registry would
        hold had it seen every observation itself.

        When ``worker`` is given, gauges in :data:`SUMMED_GAUGES` are
        tracked per contributor (``name[worker]``) and the plain ``name``
        gauge is maintained as the sum over contributors — e.g.
        ``checkpoint.bytes`` becomes fleet-total snapshot memory rather
        than whichever worker's chunk happened to merge last.  Histograms
        in :data:`SCOPED_HISTOGRAMS` additionally keep a per-contributor
        ``name[worker]`` copy alongside the combined stats.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            if worker is not None and name in SUMMED_GAUGES:
                self.gauge(f"{name}[{worker}]").set(value)
                prefix = f"{name}["
                self.gauge(name).set(
                    sum(
                        g.value
                        for n, g in self._gauges.items()
                        if n.startswith(prefix)
                    )
                )
            else:
                self.gauge(name).set(value)
        for name, summary in snapshot.get("histograms", {}).items():
            if not summary.get("count"):
                continue
            self._fold_histogram(name, summary)
            if worker is not None and name in SCOPED_HISTOGRAMS:
                self._fold_histogram(f"{name}[{worker}]", summary)

    def _fold_histogram(self, name: str, summary: dict) -> None:
        metric = self.histogram(name)
        metric.count += summary["count"]
        metric.total += summary["total"]
        if summary["min"] < metric.min:
            metric.min = summary["min"]
        if summary["max"] > metric.max:
            metric.max = summary["max"]

    def snapshot(self) -> dict:
        """Plain-dict view for manifests and JSON export."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """Aligned text table of every metric."""
        lines: list[str] = []
        if self._counters:
            lines.append("counters:")
            width = max(len(n) for n in self._counters)
            for name in sorted(self._counters):
                lines.append(f"  {name:{width}s} {self._counters[name].value:>14,}")
        if self._gauges:
            lines.append("gauges:")
            width = max(len(n) for n in self._gauges)
            for name in sorted(self._gauges):
                lines.append(f"  {name:{width}s} {self._gauges[name].value:>14,.3f}")
        if self._histograms:
            lines.append("histograms:")
            width = max(len(n) for n in self._histograms)
            for name in sorted(self._histograms):
                h = self._histograms[name]
                if h.count:
                    lines.append(
                        f"  {name:{width}s} n={h.count:<8d} "
                        f"mean={h.mean:.6f} min={h.min:.6f} max={h.max:.6f}"
                    )
                else:
                    lines.append(f"  {name:{width}s} n=0")
        return "\n".join(lines) if lines else "(no metrics recorded)"
