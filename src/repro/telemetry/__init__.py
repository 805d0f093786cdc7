"""Structured instrumentation for the injection/pruning stack.

The :class:`Telemetry` facade bundles the two recorders every layer
shares — an event sink (:mod:`~repro.telemetry.events`) and a metrics
registry (:mod:`~repro.telemetry.metrics`) — behind one object that the
simulator, injector, campaign drivers and pruner all accept as
``telemetry=``.  A timed block (:meth:`Telemetry.span`) lands in the
registry as one observation of a ``*_s`` histogram, so the registry's
:class:`Histogram` is the only aggregate type.

``NULL_TELEMETRY`` is the default everywhere: its ``enabled`` flag is
False and every method is a no-op, so uninstrumented campaigns pay one
attribute check per injection and nothing per simulated instruction.
Hot call sites follow the pattern::

    if telemetry.enabled:
        telemetry.emit(InjectionEvent(...))   # events built only when live

Run manifests (:mod:`~repro.telemetry.manifest`) ride alongside; the
live plane (:mod:`repro.observe.live`) folds the same events by
attaching a listener.  See ``docs/observability.md`` for schemas and
conventions.
"""

from __future__ import annotations

import dataclasses
import time

from .events import (
    EVENT_TYPES,
    EVENTS_SCHEMA_VERSION,
    NULL_SINK,
    PHASE_NAMES,
    CampaignEvent,
    EventSink,
    HeartbeatEvent,
    InjectionEvent,
    JsonlSink,
    MemorySink,
    NullSink,
    SimRunEvent,
    StageEvent,
    TelemetryEvent,
    event_from_dict,
    event_to_dict,
    read_events,
)
from .manifest import (
    MANIFEST_VERSION,
    RunManifest,
    git_revision,
    library_versions,
    load_manifest,
    profile_to_dict,
)
from .metrics import (
    SCOPED_HISTOGRAMS,
    SUMMED_GAUGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class _NullSpan:
    """Reusable no-op context manager for the disabled timer path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Timer:
    """Times one block and hands ``(name, seconds)`` to ``record``, also
    when the block raises."""

    __slots__ = ("_record", "_name", "_t0")

    def __init__(self, record, name: str) -> None:
        self._record = record
        self._name = name

    def __enter__(self) -> None:
        self._t0 = time.perf_counter()
        return None

    def __exit__(self, *exc) -> bool:
        self._record(self._name, time.perf_counter() - self._t0)
        return False


class Telemetry:
    """Event sink + metrics registry, as one handle."""

    enabled = True

    def __init__(
        self,
        sink: EventSink | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Per-injection phase accumulator (phase name -> seconds).  The
        #: injector opens a fresh dict around each injection; while it is
        #: None (outside any injection) ``phase()`` blocks are no-ops.
        self.phases: dict[str, float] | None = None
        #: ``listener(event)`` sees every emitted event after the sink,
        #: absorbed worker events included; the live plane attaches here.
        self.listener = None

    def emit(self, event: TelemetryEvent) -> None:
        self.sink.emit(event)
        if self.listener is not None:
            self.listener(event)

    def span(self, name: str):
        """Context manager timing its block into histogram ``name``."""
        return _Timer(self.observe, name)

    def count(self, name: str, n: int | float = 1) -> None:
        self.metrics.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the current injection's phase dict.

        No-op outside an injection (``self.phases is None``); negative
        deltas are allowed so a layer can move time *between* phases
        (the simulator reclassifies in-launch checkpoint-restore time out
        of ``suffix_exec``).
        """
        phases = self.phases
        if phases is not None:
            phases[name] = phases.get(name, 0.0) + seconds

    def phase(self, name: str):
        """Context manager timing one phase of the current injection."""
        if self.phases is None:
            return _NULL_SPAN
        return _Timer(self.add_phase, name)

    def absorb(self, snapshot: dict) -> None:
        """Merge a worker-shipped telemetry snapshot into this handle.

        ``snapshot`` is the wire form parallel campaign workers produce:
        ``{"events": [event dicts], "metrics": MetricsRegistry.snapshot(),
        "worker": name}``.  Events are re-emitted into this sink —
        stamped with the worker's name when they carry a ``worker`` field
        left None; counters add, gauges last-write-win except
        :data:`SUMMED_GAUGES` which sum across workers, histogram stats
        combine (see :meth:`MetricsRegistry.merge`).
        """
        worker = snapshot.get("worker")
        for payload in snapshot.get("events", ()):
            event = event_from_dict(payload)
            if worker is not None and getattr(event, "worker", "") is None:
                event = dataclasses.replace(event, worker=worker)
            self.emit(event)
        self.metrics.merge(snapshot.get("metrics", {}), worker=worker)

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullTelemetry(Telemetry):
    """The zero-overhead default: every operation is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(sink=NULL_SINK)

    def emit(self, event: TelemetryEvent) -> None:
        pass

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, n: int | float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def add_phase(self, name: str, seconds: float) -> None:
        pass

    def phase(self, name: str):
        return _NULL_SPAN

    def absorb(self, snapshot: dict) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()


__all__ = [
    "EVENTS_SCHEMA_VERSION",
    "EVENT_TYPES",
    "MANIFEST_VERSION",
    "NULL_SINK",
    "NULL_TELEMETRY",
    "PHASE_NAMES",
    "SCOPED_HISTOGRAMS",
    "SUMMED_GAUGES",
    "CampaignEvent",
    "Counter",
    "EventSink",
    "Gauge",
    "HeartbeatEvent",
    "Histogram",
    "InjectionEvent",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "NullTelemetry",
    "RunManifest",
    "SimRunEvent",
    "StageEvent",
    "Telemetry",
    "TelemetryEvent",
    "event_from_dict",
    "event_to_dict",
    "git_revision",
    "library_versions",
    "load_manifest",
    "profile_to_dict",
    "read_events",
]
