"""Streaming telemetry plane for in-flight campaigns.

Finished campaigns are well served by the event log + ``repro report``
pipeline; an *in-flight* paper-scale campaign (hours at ~14 inj/s) is
not.  This module is the live side:

* a :class:`LiveAggregator` folds the campaign's
  :class:`~repro.telemetry.InjectionEvent` records into rolling state:
  weighted outcome shares (with Wilson CIs and a sequential convergence
  signal — max CI half-width vs an ``until_ci`` target — while
  unweighted), injections/sec and
  effective-instruction throughput, a work-projected ETA, per-worker
  liveness and stall detection, and depth-tertile latency.  It attaches
  to the campaign's :class:`~repro.telemetry.Telemetry` as a listener,
  so it sees serial events as the injector emits them and pooled events
  as the parent absorbs each chunk's snapshot — workers and executors
  never know it exists;
* :func:`render_live` turns one :meth:`LiveAggregator.snapshot` into the
  in-terminal dashboard both ``repro watch`` and the ``--live-port``
  HTML page display, and :func:`render_progress_line` into the
  one-line ``--progress`` view;
* a :class:`FlightRecorder` persists a post-mortem dump (recent-event
  rings + crash context + manifest snapshot) when a campaign dies, so a
  dead 6-hour run is diagnosable without rerunning.

The plane is strictly advisory: it reads events the campaign records
anyway, and a campaign with the plane attached produces a byte-identical
profile to one without (``tests/observe/test_live.py`` pins this on all
three backends).
"""

from __future__ import annotations

import json
import threading
import time
import traceback as traceback_module
from collections import deque
from pathlib import Path

from ..errors import ReproError
from ..stats.intervals import wilson_ci
from ..telemetry.events import CampaignEvent, InjectionEvent, event_to_dict

#: Version stamped on ``/status`` JSON snapshots and flight-recorder
#: dumps so downstream consumers (the future ``repro.serve`` layer, CI
#: pollers) can detect incompatible shapes.
LIVE_STATUS_VERSION = 1

#: Canonical outcome order for shares/convergence (matches reports).
OUTCOME_ORDER = ("masked", "sdc", "crash", "hang")

#: Ring-buffer length for the flight recorder: enough recent injections
#: to see what a dead campaign was doing, small enough for one dump.
DEFAULT_RING_SIZE = 64

#: Floor on the seconds a worker may stay silent before it is flagged
#: stalled.
DEFAULT_STALL_AFTER_S = 10.0

#: A worker is stalled once silent for this many times its own longest
#: gap between arrivals (pool workers report once per chunk, and one
#: chunk of paper-scale full-grid fallbacks can outlast the floor).
STALL_GAP_FACTOR = 3.0

#: Rolling-rate window (seconds of recent samples kept).
RATE_WINDOW_S = 30.0

#: Bounded sample of (dyn_index, duration) pairs for live depth tertiles.
_RESERVOIR_CAP = 4096

_TERTILE_LABELS = ("shallow", "middle", "deep")


def max_half_width(
    counts: dict[str, int], n: int, confidence: float = 0.95
) -> float | None:
    """Widest Wilson CI half-width across the four outcome proportions."""
    if n <= 0:
        return None
    return max(
        wilson_ci(counts.get(outcome, 0), n, confidence).half_width
        for outcome in OUTCOME_ORDER
    )


def outcome_rows(
    weights: dict[str, float],
    counts: dict[str, int] | None,
    weighted: bool,
    confidence: float = 0.95,
) -> list[dict]:
    """The outcome table of every view: per outcome the injection
    ``count``, folded ``weight`` and weight ``share``, plus a Wilson CI
    unless ``weighted`` (a weighted extrapolation is not a binomial
    sample).  ``counts=None`` (a recorded profile) keys rows by weight."""
    names = list(OUTCOME_ORDER) if counts is not None else list(weights)
    names += sorted((set(weights) | set(counts or ())) - set(names))
    n = sum(counts.values()) if counts is not None else 0
    total = sum(weights.values())
    rows = []
    for name in names:
        count = counts.get(name, 0) if counts is not None else None
        ci = wilson_ci(count, n, confidence) if n and not weighted else None
        rows.append({
            "outcome": name,
            "count": count,
            "weight": weights.get(name, 0.0),
            "share": weights.get(name, 0.0) / total if total else 0.0,
            "ci_low": ci.low if ci else None,
            "ci_high": ci.high if ci else None,
            "half_width": ci.half_width if ci else None,
        })
    return rows


def weighted_rows(rows) -> bool:
    """Does some outcome row weigh other than its count?"""
    return any(row.get("weight", row["count"]) != row["count"] for row in rows)


def check_convergence(
    counts: dict[str, int], n: int, until_ci: float, confidence: float = 0.95
) -> bool:
    """True once every outcome share is pinned to ``±until_ci``.

    This is the sequential convergence signal: the campaign's profile has
    stabilised when the *widest* Wilson interval half-width over the four
    outcome proportions drops to the target.  Computed from plain counts
    so the early-stop decision in :func:`~repro.faults.campaign.run_campaign`
    depends only on the in-order outcome stream — deterministic for a
    fixed seed regardless of worker count or backend.
    """
    width = max_half_width(counts, n, confidence)
    return width is not None and width <= until_ci


class LiveAggregator:
    """Rolling campaign state folded from the campaign's InjectionEvents.

    :func:`~repro.faults.campaign.run_campaign` attaches it to the
    injector's :class:`~repro.telemetry.Telemetry` at :meth:`begin` and
    detaches it at :meth:`finish` or :meth:`abort`; :meth:`fold` is the
    listener.  Thread-safe: the campaign loop and the HTTP/status-file
    snapshotters all go through one lock.  ``clock`` (wall) and
    ``monotonic`` are injectable for tests.
    """

    _HIT_COUNTERS = ("checkpoint.thread_hits", "checkpoint.cta_hits")

    def __init__(
        self,
        total: int | None = None,
        kernel: str = "",
        label: str = "",
        until_ci: float | None = None,
        confidence: float = 0.95,
        stall_after_s: float = DEFAULT_STALL_AFTER_S,
        ring_size: int = DEFAULT_RING_SIZE,
        clock=time.time,
        monotonic=time.monotonic,
    ) -> None:
        self.total = total
        self.kernel = kernel
        self.label = label
        self.until_ci = until_ci
        self.confidence = confidence
        self.stall_after_s = stall_after_s
        self.ring_size = ring_size
        self.flight_recorder: FlightRecorder | None = None
        self._clock = clock
        self._monotonic = monotonic
        self._lock = threading.Lock()
        #: The Telemetry this aggregator listens to while a campaign runs.
        self._telemetry = None
        #: Checkpoint-hit counter total at attach time.
        self._hits_at_begin = 0
        #: Hits of campaigns already detached from.
        self._hits_before = 0
        self.state = "pending"  # running | converged | done | crashed
        self.done = 0
        self.outcome_counts: dict[str, int] = {}
        #: Event weights plus the ``start`` records' static masked weight.
        self.outcome_weights: dict[str, float] = {}
        self.weighted = False  # any folded weight other than 1.0
        self.duration_total_s = 0.0
        self.effective_instructions = 0
        self.started_at: float | None = None
        self._started_mono: float | None = None
        self.converged = False
        self.stopped_early = False
        #: (monotonic, done, effective) samples for rolling rates, one per
        #: arrival instant (a pool chunk's events arrive together).
        self._window: deque[tuple[float, int, int]] = deque()
        #: worker name -> {"done", "last_seen" (monotonic), "max_gap_s",
        #: "busy_s", "crashed"}
        self.workers: dict[str, dict] = {}
        #: Recent InjectionEvents, all workers interleaved.
        self.ring: deque = deque(maxlen=max(ring_size, 1))
        #: Crash records: the failing injection's crash context.
        self.crashes: list[dict] = []
        #: Bounded (dyn_index, duration_s) sample for live depth tertiles.
        self._reservoir: list[tuple[int, float]] = []
        self._seen = 0

    # --------------------------------------------------------- lifecycle

    def begin(
        self,
        total: int | None = None,
        kernel: str | None = None,
        label: str | None = None,
        telemetry=None,
    ) -> None:
        """Start (or resume) the view; listen to ``telemetry`` if given."""
        with self._lock:
            if total is not None:
                self.total = total
            if kernel:
                self.kernel = kernel
            if label:
                self.label = label
            if self.started_at is None:
                self.started_at = self._clock()
                self._started_mono = self._monotonic()
            self.state = "running"
            if telemetry is not None:
                self._telemetry = telemetry
                self._hits_at_begin = self._hit_counter()
                telemetry.listener = self.fold

    def _hit_counter(self) -> int:
        value = self._telemetry.metrics.counter_value
        return int(sum(value(name) for name in self._HIT_COUNTERS))

    @property
    def checkpoint_hits(self) -> int:
        """Checkpoint hits of the attached campaigns, counted from begin."""
        if self._telemetry is None:
            return self._hits_before
        return self._hits_before + self._hit_counter() - self._hits_at_begin

    def _detach(self) -> None:
        telemetry = self._telemetry
        if telemetry is None:
            return
        self._hits_before = self.checkpoint_hits
        if telemetry.listener == self.fold:
            telemetry.listener = None
        self._telemetry = None

    def finish(self, converged: bool = False, stopped_early: bool = False) -> None:
        with self._lock:
            self._detach()
            self.converged = self.converged or converged
            self.stopped_early = self.stopped_early or stopped_early
            if self.state != "crashed":
                self.state = "converged" if self.converged else "done"

    def note_converged(self) -> None:
        with self._lock:
            self.converged = True

    def abort(self, exc: BaseException | None = None) -> Path | None:
        """Campaign died: record its crash context, flush the flight dump.

        The context is what :func:`repro.parallel._inject` left on the
        exception: worker, site, traceback and the worker's ring of
        recent injections (``None`` on the serial path, where this
        aggregator's own ring is that ring).
        """
        with self._lock:
            self._detach()
            self.state = "crashed"
            context = getattr(exc, "crash_context", None)
            if context is not None:
                ring = context.get("ring")
                if ring is None:
                    ring = [event_to_dict(event) for event in self.ring]
                crash = dict(
                    context,
                    kind="crash",
                    ts=self._clock(),
                    error=repr(exc),
                    ring=ring[-self.ring_size:],
                )
                worker = self._worker_state(crash["worker"], self._monotonic())
                worker["crashed"] = True
                self.crashes.append(crash)
        if self.flight_recorder is None:
            return None
        return self.flight_recorder.dump(self, error=exc)

    # ------------------------------------------------------------ events

    def _worker_state(self, name: str, now: float) -> dict:
        state = self.workers.get(name)
        if state is None:
            # A worker's first gap runs from the campaign's start.
            start = self._started_mono
            state = self.workers[name] = {
                "done": 0,
                "last_seen": start if start is not None else now,
                "max_gap_s": 0.0,
                "busy_s": 0.0,
                "crashed": False,
            }
        return state

    def fold(self, event) -> None:
        """Fold one telemetry event in: an InjectionEvent, or the static
        masked weight a ``start`` record carries."""
        if isinstance(event, CampaignEvent) and event.phase == "start":
            with self._lock:
                for outcome, weight in (event.profile or {}).items():
                    self._weigh(outcome, weight, weighted=True)
            return
        if not isinstance(event, InjectionEvent):
            return
        with self._lock:
            now = self._monotonic()
            if self.started_at is None:
                self.started_at = self._clock()
                self._started_mono = now
                self.state = "running"
            self.done += 1
            outcome = event.outcome
            self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1
            self._weigh(outcome, event.weight, weighted=event.weight != 1.0)
            duration = event.duration_s
            self.duration_total_s += duration
            self.effective_instructions += event.effective_instructions
            worker = self._worker_state(event.worker or "serial", now)
            worker["max_gap_s"] = max(worker["max_gap_s"], now - worker["last_seen"])
            worker["last_seen"] = now
            worker["done"] += 1
            worker["busy_s"] += duration
            point = (now, self.done, self.effective_instructions)
            window = self._window
            if window and window[-1][0] == now:
                window[-1] = point
            else:
                window.append(point)
                while len(window) > 2 and now - window[0][0] > RATE_WINDOW_S:
                    window.popleft()
            self.ring.append(event)
            # Deterministic bounded reservoir for the tertile split: fill,
            # then overwrite via a multiplicative-hash slot (no RNG so
            # replayed streams behave identically).
            sample = (event.dyn_index, duration)
            self._seen += 1
            if len(self._reservoir) < _RESERVOIR_CAP:
                self._reservoir.append(sample)
            else:
                self._reservoir[(self._seen * 2654435761) % _RESERVOIR_CAP] = sample

    def _weigh(self, outcome: str, weight: float, weighted: bool) -> None:
        self.outcome_weights[outcome] = self.outcome_weights.get(outcome, 0.0) + weight
        self.weighted = self.weighted or weighted

    # ------------------------------------------------------------- state

    @property
    def elapsed_s(self) -> float:
        if self._started_mono is None:
            return 0.0
        return self._monotonic() - self._started_mono

    @property
    def rolling_rate(self) -> float:
        """Injections/second over the recent window."""
        if len(self._window) >= 2:
            (t0, d0, _), (t1, d1, _) = self._window[0], self._window[-1]
            if t1 > t0:
                return (d1 - d0) / (t1 - t0)
        elapsed = self.elapsed_s
        return self.done / elapsed if elapsed > 0 else 0.0

    @property
    def rolling_effective_rate(self) -> float:
        """Effective instructions/second over the recent window."""
        if len(self._window) >= 2:
            (t0, _, w0), (t1, _, w1) = self._window[0], self._window[-1]
            if t1 > t0:
                return (w1 - w0) / (t1 - t0)
        elapsed = self.elapsed_s
        return self.effective_instructions / elapsed if elapsed > 0 else 0.0

    @property
    def eta_s(self) -> float | None:
        """Seconds remaining, or None without a total or a rate.

        Injections are not uniform work units (fault depth and
        checkpoint skipping make per-injection cost drift), so the
        estimate projects remaining *work*: the remaining injections at
        the observed effective instructions per injection, divided by
        the rolling effective-instruction rate.  Without effective
        instructions it falls back to the rolling injection rate.
        """
        total, done = self.total, self.done
        if total is None:
            return None
        effective = self.effective_instructions
        if 0 < done < total and effective > 0:
            work_rate = self.rolling_effective_rate
            if work_rate > 0:
                return effective * (total - done) / done / work_rate
        rate = self.rolling_rate
        if rate <= 0:
            return None
        return max(total - done, 0) / rate

    def _tertile_rows(self) -> list[dict]:
        if not self._reservoir:
            return []
        depths = sorted(depth for depth, _ in self._reservoir)
        n = len(depths)
        cut1 = depths[(n - 1) // 3]
        cut2 = depths[(2 * (n - 1)) // 3]
        buckets: dict[str, list[float]] = {label: [] for label in _TERTILE_LABELS}
        for depth, duration in self._reservoir:
            if depth <= cut1:
                buckets["shallow"].append(duration)
            elif depth <= cut2:
                buckets["middle"].append(duration)
            else:
                buckets["deep"].append(duration)
        rows = []
        for label in _TERTILE_LABELS:
            durations = buckets[label]
            if not durations:
                continue
            rows.append({
                "tertile": label,
                "n": len(durations),
                "mean_s": sum(durations) / len(durations),
                "max_s": max(durations),
            })
        return rows

    def snapshot(self) -> dict:
        """One JSON-ready view of the rolling state (the ``/status`` body)."""
        with self._lock:
            now_mono = self._monotonic()
            n = self.done
            width = None if self.weighted else max_half_width(
                self.outcome_counts, n, self.confidence
            )
            converged = self.converged or (
                self.until_ci is not None
                and width is not None
                and width <= self.until_ci
            )
            worker_rows = []
            for name in sorted(self.workers):
                state = self.workers[name]
                idle = now_mono - state["last_seen"]
                patience = max(
                    self.stall_after_s, STALL_GAP_FACTOR * state["max_gap_s"]
                )
                worker_rows.append({
                    "worker": name,
                    "done": state["done"],
                    "busy_s": state["busy_s"],
                    "last_seen_s": idle,
                    "crashed": state["crashed"],
                    "stalled": (
                        not state["crashed"]
                        and self.state == "running"
                        and idle > patience
                    ),
                })
            return {
                "version": LIVE_STATUS_VERSION,
                "ts": self._clock(),
                "state": self.state,
                "kernel": self.kernel,
                "label": self.label,
                "done": n,
                "total": self.total,
                "pct": (100.0 * n / self.total) if self.total else None,
                "elapsed_s": self.elapsed_s,
                "eta_s": self.eta_s,
                "outcomes": outcome_rows(
                    self.outcome_weights, self.outcome_counts, self.weighted,
                    self.confidence,
                ),
                "convergence": {
                    "target": self.until_ci,
                    "confidence": self.confidence,
                    "max_half_width": width,
                    "converged": converged,
                    "stopped_early": self.stopped_early,
                },
                "throughput": {
                    "injections_per_s": self.rolling_rate,
                    "effective_instructions_per_s": self.rolling_effective_rate,
                    "effective_instructions": self.effective_instructions,
                    "checkpoint_hits": self.checkpoint_hits,
                },
                "workers": worker_rows,
                "tertiles": self._tertile_rows(),
                "crashes": [
                    {
                        "worker": crash.get("worker"),
                        "site": crash.get("site"),
                        "error": crash.get("error"),
                    }
                    for crash in self.crashes
                ],
            }

    def render(self, width: int = 78) -> str:
        return render_live(self.snapshot(), width=width)


def render_live(snapshot: dict, width: int = 78) -> str:
    """The in-terminal dashboard for one status snapshot.

    Shared by ``repro watch``, the aggregator's own ``render`` and the
    ``--live-port`` HTML page — one layout everywhere.
    """
    lines: list[str] = []
    kernel = snapshot.get("kernel") or "(campaign)"
    label = snapshot.get("label") or ""
    head = f"repro live — {kernel}" + (f" [{label}]" if label else "")
    state = snapshot.get("state", "?")
    lines.append(f"{head:<{max(width - 16, 0)}s} state: {state}")
    done = snapshot.get("done", 0)
    total = snapshot.get("total")
    progress = f"  {done:,}"
    if total:
        progress += f"/{total:,} ({snapshot.get('pct') or 0.0:5.1f}%)"
    progress += f"  elapsed {_format_duration(snapshot.get('elapsed_s') or 0.0)}"
    eta = snapshot.get("eta_s")
    if eta is not None and state == "running":
        progress += f"  eta {_format_duration(eta)}"
    lines.append(progress)
    throughput = snapshot.get("throughput") or {}
    rate = throughput.get("injections_per_s") or 0.0
    line = f"  rate {rate:.1f} inj/s"
    effective_rate = throughput.get("effective_instructions_per_s") or 0.0
    if effective_rate:
        line += f"  {effective_rate / 1e6:.2f} Minsn/s effective"
    lines.append(line)

    convergence = snapshot.get("convergence") or {}
    target = convergence.get("target")
    confidence = convergence.get("confidence", 0.95)
    rows = snapshot.get("outcomes", ())
    lines.append("")
    if weighted_rows(rows):
        lines.append("outcomes (weighted):")
    else:
        suffix = f", target ±{100 * target:.1f}pp" if target is not None else ""
        lines.append(f"outcomes (Wilson {100 * confidence:.0f}% CI{suffix}):")
    for row in rows:
        ci = ""
        if row.get("ci_low") is not None:
            ci = (
                f"  [{100 * row['ci_low']:5.1f}%, {100 * row['ci_high']:5.1f}%]"
                f"  ±{100 * row['half_width']:.1f}pp"
            )
        lines.append(
            f"  {row['outcome']:<7s} {row['count']:>8,d}"
            f"  {100 * row['share']:5.1f}%{ci}"
        )
    width_now = convergence.get("max_half_width")
    if width_now is not None:
        verdict = ""
        if target is not None:
            verdict = (
                "  -> converged"
                if convergence.get("converged")
                else f"  -> want ±{100 * target:.1f}pp"
            )
        lines.append(
            f"  convergence: max half-width ±{100 * width_now:.2f}pp{verdict}"
        )

    workers = snapshot.get("workers") or ()
    if workers:
        lines.append("")
        lines.append("workers:")
        for row in workers:
            if row.get("crashed"):
                liveness = "CRASHED"
            elif row.get("stalled"):
                liveness = f"STALLED ({row['last_seen_s']:.0f}s silent)"
            else:
                liveness = f"alive ({row['last_seen_s']:.1f}s ago)"
            lines.append(
                f"  {row['worker']:<18s} done={row['done']:<8,d}"
                f" busy={row['busy_s']:.1f}s  {liveness}"
            )

    tertiles = snapshot.get("tertiles") or ()
    if tertiles:
        parts = [
            f"{row['tertile']} {1e3 * row['mean_s']:.2f}ms (n={row['n']})"
            for row in tertiles
        ]
        lines.append("")
        lines.append("latency by depth tertile: " + " · ".join(parts))

    crashes = snapshot.get("crashes") or ()
    for crash in crashes:
        lines.append("")
        lines.append(
            f"worker crash: {crash.get('worker')} at {crash.get('site')}: "
            f"{crash.get('error')}"
        )
    return "\n".join(lines) + "\n"


def render_progress_line(snapshot: dict) -> str:
    """The one-line ``--progress`` view of one status snapshot."""
    head = snapshot.get("kernel") or ""
    if snapshot.get("label"):
        head = f"{head} [{snapshot['label']}]".lstrip()
    line = f"{head}: " if head else ""
    done = snapshot.get("done", 0)
    total = snapshot.get("total")
    line += f"{done:,}"
    if total:
        line += f"/{total:,} ({snapshot.get('pct') or 0.0:5.1f}%)"
    throughput = snapshot.get("throughput") or {}
    line += f" {throughput.get('injections_per_s') or 0.0:.1f} inj/s"
    effective_rate = throughput.get("effective_instructions_per_s")
    if effective_rate:
        line += f" {effective_rate / 1e6:.2f} Minsn/s"
    state = snapshot.get("state")
    eta = snapshot.get("eta_s")
    if state == "running":
        if eta is not None:
            line += f" eta {_format_duration(eta)}"
    elif state:
        line += f" {state}"
    return line


def _format_duration(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


class FlightRecorder:
    """Post-mortem dump writer for dead campaigns.

    Attached to a :class:`LiveAggregator` (``live.flight_recorder = ...``);
    :meth:`~LiveAggregator.abort` calls :meth:`dump` when the campaign
    raises.  The dump carries the parent's interleaved recent-injection
    ring, the crashing worker's own ring + site + traceback, the final
    status snapshot, and the run-manifest snapshot when one was being
    written — everything needed to diagnose the death without rerunning.
    """

    def __init__(self, path: str | Path, manifest=None) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self.written: Path | None = None

    def dump(self, aggregator: LiveAggregator, error=None, reason: str = "") -> Path:
        crashes = [dict(crash) for crash in aggregator.crashes]
        manifest_snapshot = None
        if self.manifest is not None:
            try:
                manifest_snapshot = self.manifest.to_dict()
            except Exception:
                manifest_snapshot = None
        payload = {
            "version": LIVE_STATUS_VERSION,
            "kind": "flight-recorder",
            "reason": reason or "campaign aborted",
            "error": repr(error) if error is not None else None,
            "traceback": (
                "".join(
                    traceback_module.format_exception(
                        type(error), error, error.__traceback__
                    )
                )
                if isinstance(error, BaseException)
                else None
            ),
            "status": aggregator.snapshot(),
            "ring": [event_to_dict(event) for event in aggregator.ring],
            "crashes": crashes,
            "manifest": manifest_snapshot,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        tmp.replace(self.path)
        self.written = self.path
        return self.path


def load_flight_dump(path: str | Path) -> dict:
    """Read + sanity-check a flight-recorder dump."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read flight dump {path}: {exc}") from None
    if payload.get("kind") != "flight-recorder":
        raise ReproError(f"{path} is not a flight-recorder dump")
    if payload.get("version", 0) > LIVE_STATUS_VERSION:
        raise ReproError(
            f"flight dump {path} uses version {payload.get('version')!r}; "
            f"this build understands up to {LIVE_STATUS_VERSION}"
        )
    return payload
