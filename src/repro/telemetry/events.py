"""Typed, timestamped telemetry events and the sinks that record them.

Every observable moment of a campaign maps to one event type:

* :class:`SimRunEvent`       — one kernel launch (golden, CTA-sliced or
  full faulty re-execution) with instruction/barrier counts;
* :class:`InjectionEvent`    — one classified injection (site, model,
  outcome, weight, fast-path vs fallback, duration);
* :class:`StageEvent`        — one pruning stage (sites before/after);
* :class:`CampaignEvent`     — campaign start/end with the aggregated
  profile.

Events are plain frozen dataclasses; :func:`event_to_dict` /
:func:`event_from_dict` give a lossless JSON mapping, and
:class:`JsonlSink` streams them one JSON object per line so a crashed
campaign still leaves a readable prefix.  :class:`NullSink` is the
zero-overhead default — emitters check ``sink.enabled`` (or use
``NULL_TELEMETRY``) before constructing events at all.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from ..errors import ReproError

#: Version of the on-disk JSONL event schema.  Bumped whenever a record
#: gains fields readers must understand; :class:`JsonlSink` stamps it on
#: the header line and :func:`read_events` rejects files written by a
#: *newer* schema (older files stay readable — new fields have defaults).
#: v3 added the ``propagation`` payload and ``group`` tag on
#: :class:`InjectionEvent` (fault-propagation provenance tracing).
#: v4 added ``effective_instructions``/``spliced_instructions`` on
#: :class:`InjectionEvent` and the ``resync_scan``/``suffix_splice``
#: phases (convergence-bounded injection with golden-suffix splicing).
#: v5 added :class:`HeartbeatEvent` — worker liveness records the live
#: streaming plane (``repro.observe.live``) once emitted.
#: v6 added ``weight`` on :class:`InjectionEvent` and the static masked
#: weight on ``start`` records, and dropped ``spliced_instructions``.
EVENTS_SCHEMA_VERSION = 6

#: Per-injection phase names, in pipeline order.  ``InjectionEvent.phases``
#: maps a subset of these to seconds spent (phases that did not occur —
#: e.g. ``checkpoint_restore`` with checkpointing disabled — are absent).
#: v4/v5 logs may carry the removed ``resync_scan``/``suffix_splice``.
PHASE_NAMES = (
    "queue_wait",
    "checkpoint_restore",
    "prefix_replay",
    "suffix_exec",
    "heap_repair",
    "classify",
    "propagation_trace",
)


@dataclass(frozen=True)
class TelemetryEvent:
    """Base record: ``ts`` is a Unix timestamp (``time.time()``)."""

    ts: float


@dataclass(frozen=True)
class SimRunEvent(TelemetryEvent):
    """One kernel launch over the functional simulator."""

    kind: str  # "golden" | "sliced" | "thread-sliced" | "full"
    n_ctas: int
    instructions: int
    barrier_rounds: int
    hang: bool
    memory_fault: bool
    duration_s: float
    backend: str = "interpreter"  # the backend that ran; never "auto"
    checkpoint_interval: int = 0  # 0 = checkpointing disabled
    skipped_instructions: int = 0  # golden prefix skipped via checkpoints
    worker: str | None = None  # pool worker name; None when serial


@dataclass(frozen=True)
class InjectionEvent(TelemetryEvent):
    """One classified fault injection."""

    thread: int
    dyn_index: int
    bit: int
    model: str  # FaultModel value: "iov" | "ioa" | "rf"
    outcome: str  # Outcome value: "masked" | "sdc" | "crash" | "hang"
    fast_path: bool  # classified on a thread or CTA slice (no full re-run)
    duration_s: float
    weight: float = 1.0  # exhaustive sites it stands for; 1.0 when sampled
    backend: str = "interpreter"  # the backend that ran; never "auto"
    checkpoint_interval: int = 0  # 0 = checkpointing disabled
    suffix_instructions: int = 0  # instructions actually executed (suffix only)
    #: Effective dynamic instruction count the injection *accounts for*:
    #: executed suffix + checkpoint-skipped prefix.  Logs written before
    #: golden-resync splicing was removed also count its spliced suffix.
    effective_instructions: int = 0
    phases: dict | None = None  # phase name -> seconds (see PHASE_NAMES)
    worker: str | None = None  # pool worker name; None when serial
    #: Propagation-trace payload (PropagationRecord.to_dict()); None when
    #: the injector ran without provenance tracing.
    propagation: dict | None = None
    #: Pruning-group tag stamped by the coherence audit; None otherwise.
    group: str | None = None


@dataclass(frozen=True)
class StageEvent(TelemetryEvent):
    """One progressive-pruning stage."""

    stage: str  # "thread-wise" | "instruction-wise" | "loop-wise" | "bit-wise"
    sites_before: int
    sites_after: int
    duration_s: float


@dataclass(frozen=True)
class HeartbeatEvent(TelemetryEvent):
    """Worker liveness beacon from the live streaming plane (schema v5).

    Read, no longer written: the live plane now folds
    :class:`InjectionEvent` records directly.  Schema-v5 logs carrying
    heartbeats (one per worker beat: the worker's completed-injection
    count plus the campaign-wide rolling rate and effective-instruction
    total) still load.
    """

    worker: str | None = None  # pool worker name; None/"serial" when serial
    state: str = "beat"  # "online" | "beat" | "crash"
    done: int = 0  # injections this worker has completed
    rate: float = 0.0  # campaign-wide rolling injections/sec
    effective_instructions: int = 0  # campaign-wide effective insn total


@dataclass(frozen=True)
class CampaignEvent(TelemetryEvent):
    """Campaign boundary: ``phase`` is "start" or "end"."""

    phase: str
    campaign: str  # "explicit" | "random" | "exhaustive" | "pruned-estimate"
    n_sites: int  # planned (start) or completed (end); -1 when unknown
    #: category -> weight: the profile on "end"; on "start" the static
    #: masked weight counted without injecting (None when there is none).
    profile: dict | None


#: JSONL record name -> event class (the ``"event"`` key of each line).
EVENT_TYPES: dict[str, type[TelemetryEvent]] = {
    "sim_run": SimRunEvent,
    "injection": InjectionEvent,
    "stage": StageEvent,
    "campaign": CampaignEvent,
    "heartbeat": HeartbeatEvent,
}

_NAME_OF = {cls: name for name, cls in EVENT_TYPES.items()}


def event_to_dict(event: TelemetryEvent) -> dict:
    """Lossless JSON-ready mapping, tagged with its record name."""
    name = _NAME_OF.get(type(event))
    if name is None:
        raise ReproError(f"unregistered event type {type(event).__name__}")
    record = {"event": name}
    record.update(dataclasses.asdict(event))
    return record


def event_from_dict(data: dict) -> TelemetryEvent:
    """Inverse of :func:`event_to_dict`."""
    try:
        cls = EVENT_TYPES[data["event"]]
    except KeyError:
        raise ReproError(f"unknown event record {data.get('event')!r}") from None
    fields = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in fields})


def read_events(path: str | Path) -> list[TelemetryEvent]:
    """Replay a JSONL event log back into typed events.

    The optional header line (``{"schema": N, ...}``, no ``"event"`` key)
    is validated and skipped: files written by a *newer* schema than this
    library understands raise :class:`ReproError` rather than silently
    dropping fields.  Headerless (schema 1) files remain readable.

    A malformed *final* line is tolerated with a warning: a worker killed
    mid-write (OOM, SIGKILL, crashed campaign) leaves a truncated trailing
    record behind, and every completed event before it is still worth a
    report.  Malformed lines anywhere else indicate real corruption and
    raise :class:`ReproError`.
    """
    events = []
    with open(path) as handle:
        lines = handle.readlines()
    for lineno, raw in enumerate(lines):
        line = raw.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            if any(rest.strip() for rest in lines[lineno + 1 :]):
                raise ReproError(
                    f"event log {path} is corrupt at line {lineno + 1}: "
                    "not valid JSON"
                ) from None
            warnings.warn(
                f"event log {path}: ignoring truncated trailing line "
                f"{lineno + 1} (writer likely crashed mid-record)",
                stacklevel=2,
            )
            break
        if "event" not in data and "schema" in data:
            schema = data["schema"]
            if not isinstance(schema, int) or schema > EVENTS_SCHEMA_VERSION:
                raise ReproError(
                    f"event log {path} uses schema {schema!r}; this build "
                    f"understands up to {EVENTS_SCHEMA_VERSION} — upgrade "
                    "repro to read it"
                )
            continue
        events.append(event_from_dict(data))
    return events


# ------------------------------------------------------------------ sinks


class EventSink:
    """Where emitted events go.  Subclasses implement :meth:`emit`."""

    enabled = True

    def emit(self, event: TelemetryEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(EventSink):
    """Discards everything; ``enabled`` is False so emitters can skip
    event construction entirely."""

    enabled = False

    def emit(self, event: TelemetryEvent) -> None:
        pass


class MemorySink(EventSink):
    """Keeps events in a list — the test/inspection sink."""

    def __init__(self) -> None:
        self.events: list[TelemetryEvent] = []

    def emit(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def of_type(self, cls: type) -> list[TelemetryEvent]:
        return [e for e in self.events if isinstance(e, cls)]


class JsonlSink(EventSink):
    """Appends one JSON object per event to ``path``.

    ``flush_each=True`` trades a little throughput for crash-resilient
    logs (every completed injection survives a SIGKILL).
    """

    def __init__(self, path: str | Path, flush_each: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w")
        self._flush_each = flush_each
        self.n_emitted = 0
        # Header line: schema version first so readers can bail before
        # parsing any event.  Not counted in n_emitted.
        self._handle.write(
            json.dumps(
                {"schema": EVENTS_SCHEMA_VERSION, "writer": "repro.telemetry"}
            )
            + "\n"
        )

    def emit(self, event: TelemetryEvent) -> None:
        self._handle.write(json.dumps(event_to_dict(event)) + "\n")
        self.n_emitted += 1
        if self._flush_each:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


NULL_SINK = NullSink()
