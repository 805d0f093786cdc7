"""Streaming telemetry plane for in-flight campaigns.

Finished campaigns are well served by the event log + ``repro report``
pipeline; an *in-flight* paper-scale campaign (hours at ~14 inj/s) is
not.  This module is the live side:

* workers (or the serial executor) push compact per-injection delta
  records through a :class:`LiveChannel` — outcome, duration, effective
  instruction and checkpoint hit deltas — plus periodic heartbeats, so
  the parent sees progress *as it happens* instead of at chunk/exit
  merges;
* a :class:`LiveAggregator` folds those records into rolling campaign
  state: outcome shares with Wilson CIs, a sequential convergence signal
  (max CI half-width vs an ``until_ci`` target), injections/sec and
  effective-instruction throughput, per-worker liveness and stall
  detection, and depth-tertile latency;
* :func:`render_live` turns one :meth:`LiveAggregator.snapshot` into the
  in-terminal dashboard both ``repro watch`` and the ``--live-port``
  HTML page display;
* a :class:`FlightRecorder` persists a post-mortem dump (recent-event
  ring buffers + crash context + manifest snapshot) when a campaign
  dies, so a dead 6-hour run is diagnosable without rerunning.

The plane is strictly advisory: records travel outside the in-order
outcome path, pushes never raise into the injection loop, and a campaign
with the plane enabled produces a byte-identical profile to one without
(``tests/observe/test_live.py`` pins this on all three backends).
"""

from __future__ import annotations

import json
import threading
import time
import traceback as traceback_module
from collections import deque
from pathlib import Path
from queue import Empty

from ..errors import ReproError
from ..stats.intervals import wilson_ci
from ..telemetry.progress import _format_duration

#: Version stamped on ``/status`` JSON snapshots and flight-recorder
#: dumps so downstream consumers (the future ``repro.serve`` layer, CI
#: pollers) can detect incompatible shapes.
LIVE_STATUS_VERSION = 1

#: Canonical outcome order for shares/convergence (matches reports).
OUTCOME_ORDER = ("masked", "sdc", "crash", "hang")

#: Per-process ring-buffer length for the flight recorder: enough recent
#: injections to see what a dead worker was doing, small enough to ship
#: in one crash record.
DEFAULT_RING_SIZE = 64

#: Seconds without any record from a worker before it is flagged stalled.
DEFAULT_STALL_AFTER_S = 10.0

#: Minimum seconds between heartbeat records from one worker.
HEARTBEAT_INTERVAL_S = 1.0

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


class LiveChannel:
    """Per-process producer side of the live stream.

    Builds the compact delta records the aggregator consumes and hands
    them to ``push`` — a multiprocessing-queue put in pool workers,
    :meth:`LiveAggregator.record` directly on the serial path.  Keeps the
    flight-recorder ring of this process's recent records, per-injection
    counter deltas (effective instructions, checkpoint hits) read from
    the process-local metrics registry, and the heartbeat cadence.
    Every push is wrapped: a broken queue degrades the live view, never
    the campaign.
    """

    _COUNTER_NAMES = (
        "work.effective_instructions",
        "checkpoint.thread_hits",
        "checkpoint.cta_hits",
    )

    def __init__(
        self,
        push,
        worker: str,
        metrics=None,
        ring_size: int = DEFAULT_RING_SIZE,
        heartbeat_s: float = HEARTBEAT_INTERVAL_S,
    ) -> None:
        self._push_fn = push
        self.worker = worker
        self.metrics = metrics
        self.ring: deque = deque(maxlen=max(ring_size, 1))
        self.heartbeat_s = heartbeat_s
        self.done = 0
        self._last_beat = -float("inf")
        self._last_values = self._counter_values()

    def _counter_values(self) -> tuple:
        if self.metrics is None:
            return (0, 0, 0)
        value = self.metrics.counter_value
        return tuple(value(name) for name in self._COUNTER_NAMES)

    def reanchor_counters(self) -> None:
        """Re-anchor the delta baseline after a registry reset (workers
        reset their metrics after shipping each chunk snapshot)."""
        self._last_values = self._counter_values()

    def _push(self, record: dict) -> None:
        try:
            self._push_fn(record)
        except Exception:
            pass  # advisory plane: never let a dead queue kill a campaign

    def online(self) -> None:
        self._push({
            "kind": "heartbeat",
            "worker": self.worker,
            "ts": time.time(),
            "done": 0,
            "state": "online",
        })
        self._last_beat = time.monotonic()

    def note(self, site, outcome, duration_s: float) -> None:
        """One classified injection: ship its delta, maybe a heartbeat."""
        values = self._counter_values()
        last = self._last_values
        self._last_values = values
        effective, thread_hits, cta_hits = (
            values[i] - last[i] for i in range(3)
        )
        self.done += 1
        record = {
            "kind": "injection",
            "worker": self.worker,
            "ts": time.time(),
            "outcome": outcome.value,
            "thread": site.thread,
            "dyn_index": site.dyn_index,
            "duration_s": duration_s,
            "effective_instructions": int(effective),
            "checkpoint_hits": int(thread_hits + cta_hits),
        }
        self.ring.append(record)
        self._push(record)
        now = time.monotonic()
        if now - self._last_beat >= self.heartbeat_s:
            self._push({
                "kind": "heartbeat",
                "worker": self.worker,
                "ts": time.time(),
                "done": self.done,
                "state": "beat",
            })
            self._last_beat = now

    def crash(self, site, exc: BaseException) -> None:
        """Ship this process's ring + crash context before re-raising."""
        self._push({
            "kind": "crash",
            "worker": self.worker,
            "ts": time.time(),
            "site": str(site) if site is not None else None,
            "error": repr(exc),
            "traceback": traceback_module.format_exc(),
            "ring": list(self.ring),
        })


class LiveAggregator:
    """Rolling campaign state built from streamed delta records.

    Thread-safe: the parent's queue-drain thread, the serial injection
    loop and HTTP/status-file snapshotters all go through one lock.
    ``clock`` (wall) and ``monotonic`` are injectable for tests.
    """

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
        self._telemetry = None
        self.state = "pending"  # running | converged | done | crashed
        self.done = 0
        self.outcome_counts: dict[str, int] = {}
        self.duration_total_s = 0.0
        self.effective_instructions = 0
        self.checkpoint_hits = 0
        self.started_at: float | None = None
        self._started_mono: float | None = None
        self.converged = False
        self.stopped_early = False
        #: (monotonic, done, effective) samples for rolling rates.
        self._window: deque[tuple[float, int, int]] = deque()
        #: worker name -> {"done", "last_seen" (monotonic), "busy_s",
        #: "crashed"}
        self.workers: dict[str, dict] = {}
        #: Parent-side ring of recent records (all workers interleaved).
        self.ring: deque = deque(maxlen=max(ring_size, 1))
        #: Crash records, ring buffers included, as shipped by workers.
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
        with self._lock:
            if total is not None:
                self.total = total
            if kernel:
                self.kernel = kernel
            if label:
                self.label = label
            if telemetry is not None and getattr(telemetry, "enabled", False):
                self._telemetry = telemetry
            if self.started_at is None:
                self.started_at = self._clock()
                self._started_mono = self._monotonic()
            self.state = "running"

    def finish(self, converged: bool = False, stopped_early: bool = False) -> None:
        with self._lock:
            self.converged = self.converged or converged
            self.stopped_early = self.stopped_early or stopped_early
            if self.state != "crashed":
                self.state = "converged" if self.converged else "done"

    def note_converged(self) -> None:
        with self._lock:
            self.converged = True

    def abort(self, exc: BaseException | None = None) -> Path | None:
        """Campaign died: flip state and flush the flight dump, if any."""
        with self._lock:
            self.state = "crashed"
        if self.flight_recorder is None:
            return None
        return self.flight_recorder.dump(self, error=exc)

    # ----------------------------------------------------------- records

    def record(self, record: dict) -> None:
        """Fold one delta record in (the queue-drain/serial entry point)."""
        kind = record.get("kind")
        if kind == "injection":
            self._record_injection(record)
        elif kind == "heartbeat":
            self._record_heartbeat(record)
        elif kind == "crash":
            self._record_crash(record)

    def _worker_state(self, name: str) -> dict:
        state = self.workers.get(name)
        if state is None:
            state = self.workers[name] = {
                "done": 0,
                "last_seen": self._monotonic(),
                "busy_s": 0.0,
                "crashed": False,
            }
        return state

    def _record_injection(self, record: dict) -> None:
        with self._lock:
            if self.started_at is None:
                self.started_at = self._clock()
                self._started_mono = self._monotonic()
                self.state = "running"
            now = self._monotonic()
            self.done += 1
            outcome = record.get("outcome", "")
            self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1
            duration = float(record.get("duration_s", 0.0))
            self.duration_total_s += duration
            self.effective_instructions += int(
                record.get("effective_instructions", 0)
            )
            self.checkpoint_hits += int(record.get("checkpoint_hits", 0))
            worker = self._worker_state(record.get("worker") or "serial")
            worker["done"] += 1
            worker["last_seen"] = now
            worker["busy_s"] += duration
            self._window.append((now, self.done, self.effective_instructions))
            while (
                len(self._window) > 2
                and now - self._window[0][0] > RATE_WINDOW_S
            ):
                self._window.popleft()
            self.ring.append(record)
            # Deterministic bounded reservoir for the tertile split: fill,
            # then overwrite via a multiplicative-hash slot (no RNG so
            # resumed/replayed streams behave identically).
            sample = (int(record.get("dyn_index", 0)), duration)
            self._seen += 1
            if len(self._reservoir) < _RESERVOIR_CAP:
                self._reservoir.append(sample)
            else:
                self._reservoir[(self._seen * 2654435761) % _RESERVOIR_CAP] = sample

    def _record_heartbeat(self, record: dict) -> None:
        with self._lock:
            worker = self._worker_state(record.get("worker") or "serial")
            worker["last_seen"] = self._monotonic()
            worker["done"] = max(worker["done"], int(record.get("done", 0)))
            telemetry = self._telemetry
            effective = self.effective_instructions
        if telemetry is not None:
            from ..telemetry.events import HeartbeatEvent

            telemetry.emit(
                HeartbeatEvent(
                    record.get("ts", self._clock()),
                    worker=record.get("worker"),
                    state=record.get("state", "beat"),
                    done=int(record.get("done", 0)),
                    rate=self.rolling_rate,
                    effective_instructions=effective,
                )
            )

    def _record_crash(self, record: dict) -> None:
        with self._lock:
            worker = self._worker_state(record.get("worker") or "serial")
            worker["crashed"] = True
            self.crashes.append(record)

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

    def is_converged(self) -> bool:
        if self.until_ci is None:
            return False
        return check_convergence(
            self.outcome_counts, self.done, self.until_ci, self.confidence
        )

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
            outcome_rows = []
            for outcome in OUTCOME_ORDER:
                count = self.outcome_counts.get(outcome, 0)
                ci = wilson_ci(count, n, self.confidence) if n else None
                outcome_rows.append({
                    "outcome": outcome,
                    "count": count,
                    "share": count / n if n else 0.0,
                    "ci_low": ci.low if ci else None,
                    "ci_high": ci.high if ci else None,
                    "half_width": ci.half_width if ci else None,
                })
            width = max_half_width(self.outcome_counts, n, self.confidence)
            converged = self.converged or (
                self.until_ci is not None
                and width is not None
                and width <= self.until_ci
            )
            rate = self.rolling_rate
            remaining = (
                max(self.total - n, 0) if self.total is not None else None
            )
            eta = (
                remaining / rate
                if remaining is not None and rate > 0
                else None
            )
            worker_rows = []
            for name in sorted(self.workers):
                state = self.workers[name]
                idle = now_mono - state["last_seen"]
                worker_rows.append({
                    "worker": name,
                    "done": state["done"],
                    "busy_s": state["busy_s"],
                    "last_seen_s": idle,
                    "crashed": state["crashed"],
                    "stalled": (
                        not state["crashed"]
                        and self.state == "running"
                        and idle > self.stall_after_s
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
                "eta_s": eta,
                "outcomes": outcome_rows,
                "convergence": {
                    "target": self.until_ci,
                    "confidence": self.confidence,
                    "max_half_width": width,
                    "converged": converged,
                    "stopped_early": self.stopped_early,
                },
                "throughput": {
                    "injections_per_s": rate,
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
    lines.append("")
    suffix = f", target ±{100 * target:.1f}pp" if target is not None else ""
    lines.append(f"outcomes (Wilson {100 * confidence:.0f}% CI{suffix}):")
    for row in snapshot.get("outcomes", ()):
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


class QueueDrain:
    """Parent-side daemon thread pumping the live queue into an aggregator.

    The campaign parent blocks in ``handle.get()`` between chunk drains,
    so records must be consumed off-thread for ``/status`` to stay fresh.
    ``stop`` drains whatever the queue feeder already shipped (bounded by
    ``settle_s``) — crash records pushed just before a worker exception
    re-raised in the parent still make it into the flight dump.
    """

    def __init__(self, queue, aggregator: LiveAggregator, poll_s: float = 0.2):
        self.queue = queue
        self.aggregator = aggregator
        self.poll_s = poll_s
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="repro-live-drain", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                record = self.queue.get(timeout=self.poll_s)
            except Empty:
                continue
            except (OSError, EOFError, ValueError):  # queue torn down
                return
            self.aggregator.record(record)

    def stop(self, settle_s: float = 1.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=settle_s + 2.0)
            self._thread = None
        deadline = time.monotonic() + settle_s
        while time.monotonic() < deadline:
            try:
                record = self.queue.get(timeout=0.05)
            except Empty:
                break
            except (OSError, EOFError, ValueError):
                break
            self.aggregator.record(record)


class FlightRecorder:
    """Post-mortem dump writer for dead campaigns.

    Attached to a :class:`LiveAggregator` (``live.flight_recorder = ...``);
    :meth:`~LiveAggregator.abort` calls :meth:`dump` when the campaign
    raises.  The dump carries the parent's interleaved recent-record
    ring, every crashing worker's own ring + site + traceback, the final
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
            "ring": list(aggregator.ring),
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
