"""Process-pool campaign execution.

Fault injections are embarrassingly parallel: each one is an independent
sliced re-execution against immutable golden state.  This module fans a
campaign's sites out over a pool of worker processes, each of which
builds its own :class:`~repro.faults.FaultInjector` **once** (in the pool
initializer, amortising the golden run over the worker's lifetime) and
then classifies chunks of sites.

Determinism guarantee: outcomes stream back to the caller in exact site
order regardless of which worker finished first, the parent applies the
site weights itself, and every worker classifies with the same injector
the serial path would use — so for a fixed seed the resulting
:class:`~repro.faults.ResilienceProfile` is byte-identical to a serial
run, and worker ``fallback_count`` deltas sum to the serial total.

Telemetry: when the parent campaign is instrumented, each worker records
into a private in-memory :class:`~repro.telemetry.Telemetry`; the deltas
(events, counters, histograms, spans) ship back with each chunk and are
absorbed into the parent handle (counters add, gauges last-write-win,
histogram/span stats combine).

Degradation: ``workers <= 1``, an unpicklable kernel instance, or a
platform without usable process pools all fall back to the serial
in-process path — same results, no pool.

Live streaming: when the campaign runs with a
:class:`~repro.observe.live.LiveAggregator`, each worker additionally
pushes compact per-injection delta records (outcome, duration,
effective instructions, checkpoint hits) plus periodic heartbeats over
a multiprocessing queue as injections complete — the
parent's drain thread folds them into rolling state *while* chunks are
still in flight.  The stream is advisory and rides outside the in-order
outcome path, so live-on campaigns stay byte-identical to live-off.

See ``docs/performance.md`` for measured scaling and chunk-size guidance.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

from .telemetry import NULL_TELEMETRY, MemorySink, NullSink, Telemetry, event_to_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> parallel)
    from .faults.injector import FaultInjector
    from .faults.outcome import Outcome
    from .faults.site import FaultSite

#: Default number of sites per worker task: large enough that IPC and
#: chunk bookkeeping are noise next to ~ms-scale injections, small enough
#: that a pool stays busy near a campaign's tail.
DEFAULT_CHUNK_SIZE = 32

#: Default serial ordering-batch size when the injector checkpoints: sites
#: are buffered in windows of this many, *executed* sorted by
#: ``(thread, dyn_index)`` so consecutive injections share warm snapshots,
#: and *emitted* in original order so profiles stay byte-identical.
DEFAULT_ORDER_BATCH = 64


def _inject_noted(injector, site, note=None, crash=None):
    """One injection, optionally reporting to a live channel.

    ``note(site, outcome, duration_s)`` fires after classification;
    ``crash(site, exc)`` fires (then re-raises) when the injection dies,
    so the live plane's flight recorder sees the failing site + this
    process's recent-event ring before the exception crosses back to the
    parent.
    """
    if note is None and crash is None:
        return injector.inject(site)
    t0 = time.perf_counter()
    try:
        outcome = injector.inject(site)
    except BaseException as exc:
        if crash is not None:
            crash(site, exc)
        raise
    if note is not None:
        note(site, outcome, time.perf_counter() - t0)
    return outcome


def _ordered_outcomes(
    injector: "FaultInjector",
    sites: list["FaultSite"],
    note=None,
    crash=None,
) -> list["Outcome"]:
    """Classify ``sites`` sorted by ``(thread, dyn_index)``; return them
    in original order.

    Sorting maximises checkpoint locality (each deeper site of a thread
    resumes from snapshots its shallower predecessors just stored), and is
    outcome-safe: injections share no mutable state beyond the checkpoint
    store, which holds only golden snapshots, so per-site outcomes are
    independent of execution order.  Live ``note`` callbacks fire in
    *execution* (sorted) order — the live plane is advisory, while the
    returned list preserves input order for the deterministic drain.
    """
    order = sorted(
        range(len(sites)), key=lambda i: (sites[i].thread, sites[i].dyn_index)
    )
    outcomes: list = [None] * len(sites)
    for i in order:
        outcomes[i] = _inject_noted(injector, sites[i], note, crash)
    return outcomes


class SerialExecutor:
    """The in-process reference executor: inject sites one by one.

    ``order_batch`` controls the checkpoint-locality ordering stage:
    ``None`` (the default) auto-enables :data:`DEFAULT_ORDER_BATCH`-site
    windows when the injector has a checkpoint store and stays fully
    streaming otherwise; ``0`` disables ordering; any positive value sets
    the window size explicitly.  Outcomes always stream back in exact
    input order.
    """

    workers = 1

    def __init__(self, order_batch: int | None = None) -> None:
        if order_batch is not None and order_batch < 0:
            raise ValueError("order_batch must be >= 0")
        self.order_batch = order_batch

    def imap(
        self,
        injector: "FaultInjector",
        pairs: Iterable[tuple["FaultSite", float]],
        telemetry: Telemetry | None = None,
        live=None,
    ) -> Iterator[tuple["FaultSite", float, "Outcome"]]:
        note = crash = None
        if live is not None:
            from .observe.live import LiveChannel

            injector_telemetry = injector.telemetry
            channel = LiveChannel(
                live.record,
                "serial",
                metrics=(
                    injector_telemetry.metrics
                    if injector_telemetry.enabled
                    else None
                ),
                ring_size=live.ring_size,
            )
            channel.online()
            note, crash = channel.note, channel.crash
        batch = self.order_batch
        if batch is None:
            batch = (
                DEFAULT_ORDER_BATCH
                if getattr(injector, "checkpoints", None) is not None
                else 0
            )
        if batch <= 1:
            for site, weight in pairs:
                yield site, weight, _inject_noted(injector, site, note, crash)
            return
        window: list[tuple] = []
        for pair in pairs:
            window.append(pair)
            if len(window) >= batch:
                yield from self._drain(injector, window, note, crash)
                window = []
        if window:
            yield from self._drain(injector, window, note, crash)

    @staticmethod
    def _drain(injector, window, note=None, crash=None):
        outcomes = _ordered_outcomes(
            injector, [site for site, _w in window], note, crash
        )
        for (site, weight), outcome in zip(window, outcomes):
            yield site, weight, outcome


# ----------------------------------------------------------- worker side
#
# Pool workers hold one injector for their whole lifetime.  Module-level
# globals are the standard multiprocessing idiom: the initializer runs
# once per worker process, and every task reads the same globals.

_WORKER_INJECTOR: "FaultInjector | None" = None
_WORKER_TELEMETRY: Telemetry = NULL_TELEMETRY
#: LiveChannel pushing this worker's per-injection deltas; None when the
#: campaign runs without the live plane.
_WORKER_LIVE = None
#: Whether chunk results carry full telemetry snapshots back to the
#: parent.  True only for *instrumented* campaigns (MemorySink); a
#: live-only worker keeps an enabled NullSink telemetry — counters exist
#: for delta reads but there are no events to ship.
_WORKER_SHIP_SNAPSHOTS = False


def _build_payload(injector: "FaultInjector") -> dict | None:
    """A picklable recipe for rebuilding ``injector`` in a worker.

    Registered kernels travel as their registry key (workers rebuild the
    deterministic instance themselves — cheap and always picklable);
    ad-hoc instances travel pickled.  ``None`` means the injector cannot
    cross a process boundary and the campaign must run serially.
    """
    payload: dict = {
        "hang_factor": injector.hang_factor,
        "thread_slicing": injector.thread_slicing,
        "instrumented": injector.telemetry.enabled,
        # Ship the *resolved* interval: "auto" was already collapsed to a
        # concrete int in the parent, so every worker uses the same plan.
        "checkpoint_interval": injector.checkpoint_interval,
        "checkpoint_budget_mb": injector.checkpoint_budget_mb,
        "backend": injector.backend,
        # Provenance tracing travels with the campaign: records stream
        # back inside each worker's InjectionEvents (snapshot absorb).
        "propagation": injector.propagation,
    }
    try:
        # Golden handoff: workers rebuild the final heap from these logs
        # instead of each re-running a traced-and-logged golden launch.
        payload["golden"] = pickle.dumps(injector.golden_state())
    except Exception:  # pragma: no cover - exotic unpicklable golden data
        pass  # workers fall back to running their own golden capture
    spec = injector.instance.spec
    if spec is not None:
        from .kernels.registry import get_kernel

        try:
            if get_kernel(spec.key) is spec:
                payload["kernel"] = spec.key
                return payload
        except Exception:  # pragma: no cover - unregistered ad-hoc spec
            pass
    try:
        payload["instance"] = pickle.dumps(injector.instance)
    except Exception:
        return None
    return payload


def _init_worker(payload: dict, live_queue=None) -> None:
    """Pool initializer: build this worker's injector once.

    ``live_queue`` (a context-matched ``multiprocessing.Queue``) arrives
    via ``initargs`` — queues may cross process boundaries during pool
    setup, just not inside task arguments — and turns on this worker's
    live delta stream.
    """
    global _WORKER_INJECTOR, _WORKER_TELEMETRY, _WORKER_LIVE, _WORKER_SHIP_SNAPSHOTS
    from .faults.injector import FaultInjector

    if "kernel" in payload:
        from .kernels.registry import load_instance

        instance = load_instance(payload["kernel"])
    else:
        instance = pickle.loads(payload["instance"])
    if payload["instrumented"]:
        telemetry = Telemetry(sink=MemorySink())
    elif payload.get("live"):
        # Enabled-but-discarding: per-injection counters (effective
        # instructions, checkpoint hits) accumulate for the live
        # channel's delta reads, events are never built up.
        telemetry = Telemetry(sink=NullSink())
    else:
        telemetry = NULL_TELEMETRY
    golden = pickle.loads(payload["golden"]) if "golden" in payload else None
    _WORKER_INJECTOR = FaultInjector(
        instance,
        hang_factor=payload["hang_factor"],
        verify_golden=False,  # the parent already verified this instance
        telemetry=telemetry,
        thread_slicing=payload["thread_slicing"],
        checkpoint_interval=payload["checkpoint_interval"],
        checkpoint_budget_mb=payload["checkpoint_budget_mb"],
        backend=payload["backend"],
        golden=golden,
        propagation=payload["propagation"],
    )
    _WORKER_TELEMETRY = telemetry
    _WORKER_SHIP_SNAPSHOTS = bool(payload["instrumented"])
    if live_queue is not None:
        from .observe.live import DEFAULT_RING_SIZE, LiveChannel

        channel = LiveChannel(
            live_queue.put,
            multiprocessing.current_process().name,
            metrics=telemetry.metrics if telemetry.enabled else None,
            ring_size=payload.get("ring", DEFAULT_RING_SIZE),
        )
        # Injector construction may have bumped counters (golden rebuild);
        # re-anchor so the first injection's delta is its own.
        channel.reanchor_counters()
        channel.online()
        _WORKER_LIVE = channel
    else:
        _WORKER_LIVE = None


def _run_chunk(
    sites: list["FaultSite"], submitted_at: float | None = None
) -> tuple[list[str], int, dict | None]:
    """Classify one chunk; ship outcome values + telemetry/fallback deltas."""
    injector = _WORKER_INJECTOR
    assert injector is not None, "worker initializer did not run"
    telemetry = _WORKER_TELEMETRY
    live = _WORKER_LIVE
    note = live.note if live is not None else None
    crash = live.crash if live is not None else None
    if telemetry.enabled and submitted_at is not None:
        # Wall-clock spent queued between parent submit and worker pickup:
        # the chunk-granularity face of the ``queue_wait`` phase.
        telemetry.observe(
            "parallel.queue_wait_s", max(0.0, time.time() - submitted_at)
        )
    busy_t0 = time.perf_counter()
    fallbacks_before = injector.fallback_count
    if injector.checkpoints is not None:
        # Execute the chunk in (thread, dyn_index) order for checkpoint
        # locality; the returned outcome list stays in input order, so the
        # parent's in-order drain (and therefore the profile) is unchanged.
        outcomes = [o.value for o in _ordered_outcomes(injector, sites, note, crash)]
    else:
        outcomes = [
            _inject_noted(injector, site, note, crash).value for site in sites
        ]
    fallback_delta = injector.fallback_count - fallbacks_before
    snapshot = None
    if telemetry.enabled:
        name = multiprocessing.current_process().name
        telemetry.count(f"parallel.worker.{name}.busy_s",
                        time.perf_counter() - busy_t0)
        telemetry.count(f"parallel.worker.{name}.chunks")
        telemetry.count(f"parallel.worker.{name}.injections", len(sites))
        if _WORKER_SHIP_SNAPSHOTS:
            sink = telemetry.sink
            snapshot = {
                "events": [event_to_dict(e) for e in sink.events],
                "metrics": telemetry.metrics.snapshot(),
                "spans": telemetry.spans.snapshot(),
                "worker": name,
            }
            # Reset so the next chunk ships deltas, not cumulative state.
            sink.events.clear()
            telemetry.metrics.__init__()
            telemetry.spans.__init__()
            if live is not None:
                live.reanchor_counters()
    return outcomes, fallback_delta, snapshot


# ----------------------------------------------------------- parent side


class ParallelCampaignRunner:
    """Fan campaign sites over a process pool, stream outcomes in order.

    Args:
        workers: pool size; ``<= 1`` degrades to the serial path.
        chunk_size: sites per worker task.
        start_method: multiprocessing start method (``"fork"``/``"spawn"``/
            ``"forkserver"``); default prefers ``fork`` where available
            (cheap worker start) and falls back to the platform default.
        max_pending: in-flight task bound; defaults to ``4 * workers`` so
            site iterables stream instead of materialising.
    """

    def __init__(
        self,
        workers: int,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        start_method: str | None = None,
        max_pending: int | None = None,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.workers = workers
        self.chunk_size = chunk_size
        self.start_method = start_method
        self.max_pending = max_pending if max_pending is not None else 4 * max(workers, 1)

    def _context(self):
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    def imap(
        self,
        injector: "FaultInjector",
        pairs: Iterable[tuple["FaultSite", float]],
        telemetry: Telemetry | None = None,
        live=None,
    ) -> Iterator[tuple["FaultSite", float, "Outcome"]]:
        """Yield ``(site, weight, outcome)`` in exact input order.

        ``live`` (a :class:`~repro.observe.live.LiveAggregator`) turns on
        the worker delta stream: a context-matched queue rides into each
        worker via the pool initializer and a parent-side drain thread
        folds records into the aggregator while chunks are in flight.
        """
        telemetry = telemetry if telemetry is not None else injector.telemetry
        if self.workers <= 1:
            yield from SerialExecutor().imap(injector, pairs, telemetry, live=live)
            return
        payload = _build_payload(injector)
        if payload is None:
            if telemetry.enabled:
                telemetry.count("parallel.serial_fallback")
            yield from SerialExecutor().imap(injector, pairs, telemetry, live=live)
            return
        ctx = self._context()
        live_queue = None
        if live is not None:
            payload["live"] = True
            payload["ring"] = live.ring_size
            live_queue = ctx.Queue()
        initargs = (payload,) if live_queue is None else (payload, live_queue)
        try:
            pool = ctx.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=initargs,
            )
        except (OSError, ValueError):  # pragma: no cover - pool-less platforms
            if telemetry.enabled:
                telemetry.count("parallel.serial_fallback")
            yield from SerialExecutor().imap(injector, pairs, telemetry, live=live)
            return
        drain = None
        if live is not None:
            from .observe.live import QueueDrain

            drain = QueueDrain(live_queue, live)
            drain.start()
        if telemetry.enabled:
            telemetry.set_gauge("parallel.workers", self.workers)
        try:
            yield from self._drive(pool, injector, pairs, telemetry)
        finally:
            # Drain before terminate: records the feeder already shipped
            # (including crash rings pushed just before a worker exception
            # re-raised here) must land in the aggregator, and terminating
            # the pool can tear the queue down mid-get.
            if drain is not None:
                drain.stop()
            pool.terminate()
            pool.join()

    def _drive(self, pool, injector, pairs, telemetry):
        """Submit chunks up to ``max_pending``; drain strictly in order."""
        from .faults.outcome import Outcome

        pending: deque = deque()

        def drain_one():
            chunk, handle = pending.popleft()
            # .get() re-raises any worker exception in the parent, so a
            # crash inside a worker surfaces exactly like a serial one.
            outcomes, fallback_delta, snapshot = handle.get()
            injector.fallback_count += fallback_delta
            if telemetry.enabled:
                telemetry.count("parallel.chunks")
                if snapshot is not None:
                    telemetry.absorb(snapshot)
            for (site, weight), value in zip(chunk, outcomes, strict=True):
                yield site, weight, Outcome(value)

        instrumented = telemetry.enabled
        for chunk in self._chunked(pairs):
            sites = [site for site, _weight in chunk]
            submitted_at = time.time() if instrumented else None
            pending.append(
                (chunk, pool.apply_async(_run_chunk, (sites, submitted_at)))
            )
            if len(pending) >= self.max_pending:
                yield from drain_one()
        while pending:
            yield from drain_one()

    def _chunked(self, pairs):
        chunk: list = []
        for pair in pairs:
            chunk.append(pair)
            if len(chunk) >= self.chunk_size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk


def resolve_executor(
    workers: int | None,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    start_method: str | None = None,
) -> ParallelCampaignRunner | None:
    """``--workers N`` semantics: ``None``/``<=1`` means plain serial."""
    if workers is None or workers <= 1:
        return None
    return ParallelCampaignRunner(
        workers, chunk_size=chunk_size, start_method=start_method
    )
