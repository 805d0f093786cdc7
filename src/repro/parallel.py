"""Process-pool campaign execution.

Fault injections are embarrassingly parallel: each one is an independent
sliced re-execution against immutable golden state.  This module fans a
campaign's sites out over a pool of worker processes, each of which
builds its own :class:`~repro.faults.FaultInjector` **once** (in the pool
initializer, from the parent's golden state) and then classifies chunks
of sites.

Determinism guarantee: every executor runs sites in the order they
arrive and outcomes stream back to the caller in exact site order
regardless of which worker finished first, the parent applies the site
weights itself, and every worker classifies with the same injector the
serial path would use — so for a fixed seed the resulting
:class:`~repro.faults.ResilienceProfile` is byte-identical to a serial
run, and worker ``fallback_count`` deltas sum to the serial total.

Telemetry: the chunk result is the only channel from worker to parent.
When the parent campaign is instrumented, each worker records into a
private in-memory :class:`~repro.telemetry.Telemetry`; the deltas
(events, counters, gauges, histograms) ship back with each chunk and
are absorbed into the parent handle (counters add, gauges
last-write-win, histogram stats combine): a chunk's metrics on
arrival, each injection's events just before its outcome is yielded, so
an early stop records only what it classified.  A live
:class:`~repro.observe.live.LiveAggregator` listens to the parent's
handle, so it folds the ``InjectionEvent`` records in order.  When an
injection raises, :func:`_inject` leaves the crash context (worker,
site, traceback, the chunk's unshipped events) on the exception, which
rides the same result path back.

Degradation: ``workers <= 1``, an unpicklable kernel instance or golden
state, or a platform without usable process pools all fall back to the
serial in-process path — same results, no pool.

See ``docs/performance.md`` for measured scaling and chunk-size guidance.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

from .telemetry import (
    NULL_TELEMETRY,
    InjectionEvent,
    MemorySink,
    Telemetry,
    event_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> parallel)
    from .faults.injector import FaultInjector
    from .faults.outcome import Outcome
    from .faults.site import FaultSite

#: Default number of sites per worker task: large enough that IPC and
#: chunk bookkeeping are noise next to ~ms-scale injections, small enough
#: that a pool stays busy near a campaign's tail.
DEFAULT_CHUNK_SIZE = 32


def _inject(injector, site, weight: float, worker: str = "serial"):
    """One injection; a failure carries its crash context to the parent.

    Sets ``exc.crash_context = {worker, site, traceback, ring}`` before
    re-raising.  ``ring`` is a pool worker's unshipped ``InjectionEvent``
    dicts (its chunk so far); ``None`` on the serial path, whose recent
    injections the live aggregator already holds.  Attributes pickle with
    the exception, so the context survives ``Pool.apply_async``.
    """
    try:
        return injector.inject(site, weight)
    except BaseException as exc:
        ring = None
        if worker != "serial":
            ring = [
                event_to_dict(event)
                for event in getattr(injector.telemetry.sink, "events", ())
                if isinstance(event, InjectionEvent)
            ]
        exc.crash_context = {
            "worker": worker,
            "site": str(site),
            "traceback": traceback.format_exc(),
            "ring": ring,
        }
        raise


class SerialExecutor:
    """The in-process reference executor: inject each site as it arrives
    and yield its outcome at once."""

    workers = 1

    def imap(
        self,
        injector: "FaultInjector",
        pairs: Iterable[tuple["FaultSite", float]],
    ) -> Iterator[tuple["FaultSite", float, "Outcome"]]:
        for site, weight in pairs:
            yield site, weight, _inject(injector, site, weight)


# ----------------------------------------------------------- worker side
#
# Pool workers hold one injector for their whole lifetime.  Module-level
# globals are the standard multiprocessing idiom: the initializer runs
# once per worker process, and every task reads the same globals.

_WORKER_INJECTOR: "FaultInjector | None" = None


def _build_payload(injector: "FaultInjector") -> dict | None:
    """A picklable recipe for rebuilding ``injector`` in a worker.

    Registered kernels travel as their registry key (workers rebuild the
    deterministic instance themselves — cheap and always picklable);
    ad-hoc instances travel pickled, and so does the golden state, so
    workers never launch golden themselves.  ``None`` means the injector
    cannot cross a process boundary and the campaign must run serially.
    """
    payload: dict = {
        "thread_slicing": injector.thread_slicing,
        "instrumented": injector.telemetry.enabled,
        # Ship the *resolved* interval: "auto" was already collapsed to a
        # concrete int in the parent, so every worker uses the same plan.
        "checkpoint_interval": injector.checkpoint_interval,
        "backend": injector.backend,
        # Provenance tracing travels with the campaign: records stream
        # back inside each worker's InjectionEvents (snapshot absorb).
        "propagation": injector.propagation,
    }
    try:
        # Golden handoff: workers rebuild the final heap from these logs
        # instead of each re-running a traced-and-logged golden launch.
        payload["golden"] = pickle.dumps(injector.golden_state())
    except Exception:
        return None
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


def _init_worker(payload: dict) -> None:
    """Pool initializer: build this worker's injector once.

    The worker records into a private in-memory telemetry exactly when
    the parent's is enabled; each chunk ships and resets it.
    """
    global _WORKER_INJECTOR
    from .faults.injector import FaultInjector

    if "kernel" in payload:
        from .kernels.registry import load_instance

        instance = load_instance(payload["kernel"])
    else:
        instance = pickle.loads(payload["instance"])
    _WORKER_INJECTOR = FaultInjector(
        instance,
        telemetry=(
            Telemetry(sink=MemorySink()) if payload["instrumented"] else NULL_TELEMETRY
        ),
        thread_slicing=payload["thread_slicing"],
        checkpoint_interval=payload["checkpoint_interval"],
        backend=payload["backend"],
        golden=pickle.loads(payload["golden"]),
        propagation=payload["propagation"],
    )


def _run_chunk(
    pairs: list[tuple["FaultSite", float]], submitted_at: float | None = None
) -> tuple[list[str], int, dict | None]:
    """Classify one chunk; ship outcome values + telemetry/fallback deltas."""
    injector = _WORKER_INJECTOR
    assert injector is not None, "worker initializer did not run"
    telemetry = injector.telemetry
    name = multiprocessing.current_process().name
    if telemetry.enabled and submitted_at is not None:
        # Wall-clock spent queued between parent submit and worker pickup:
        # the chunk-granularity face of the ``queue_wait`` phase.
        telemetry.observe(
            "parallel.queue_wait_s", max(0.0, time.time() - submitted_at)
        )
    busy_t0 = time.perf_counter()
    fallbacks_before = injector.fallback_count
    outcomes = [_inject(injector, site, weight, name).value for site, weight in pairs]
    fallback_delta = injector.fallback_count - fallbacks_before
    snapshot = None
    if telemetry.enabled:
        telemetry.count(f"parallel.worker.{name}.busy_s",
                        time.perf_counter() - busy_t0)
        telemetry.count(f"parallel.worker.{name}.chunks")
        telemetry.count(f"parallel.worker.{name}.injections", len(pairs))
        sink = telemetry.sink
        snapshot = {
            "events": [event_to_dict(e) for e in sink.events],
            "metrics": telemetry.metrics.snapshot(),
            "worker": name,
        }
        # Reset so the next chunk ships deltas, not cumulative state.
        sink.events.clear()
        telemetry.metrics.__init__()
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

    At most ``4 * workers`` chunks are in flight, so site iterables stream
    instead of materialising.
    """

    def __init__(
        self,
        workers: int,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        start_method: str | None = None,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.workers = workers
        self.chunk_size = chunk_size
        self.start_method = start_method

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
    ) -> Iterator[tuple["FaultSite", float, "Outcome"]]:
        """Yield ``(site, weight, outcome)`` in exact input order.

        Worker events and counters are absorbed into the injector's own
        telemetry — the handle its serial fallback records into.
        """
        telemetry = injector.telemetry
        if self.workers <= 1:
            yield from SerialExecutor().imap(injector, pairs)
            return
        payload = _build_payload(injector)
        if payload is None:
            if telemetry.enabled:
                telemetry.count("parallel.serial_fallback")
            yield from SerialExecutor().imap(injector, pairs)
            return
        try:
            pool = self._context().Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(payload,),
            )
        except (OSError, ValueError):  # pragma: no cover - pool-less platforms
            if telemetry.enabled:
                telemetry.count("parallel.serial_fallback")
            yield from SerialExecutor().imap(injector, pairs)
            return
        if telemetry.enabled:
            telemetry.set_gauge("parallel.workers", self.workers)
        try:
            yield from self._drive(pool, injector, pairs, telemetry)
        finally:
            pool.terminate()
            pool.join()

    def _drive(self, pool, injector, pairs, telemetry):
        """Keep ``4 * workers`` chunks in flight; drain strictly in order."""
        from .faults.outcome import Outcome

        pending: deque = deque()

        def drain_one():
            chunk, handle = pending.popleft()
            # .get() re-raises any worker exception in the parent, so a
            # crash inside a worker surfaces exactly like a serial one.
            outcomes, fallback_delta, snapshot = handle.get()
            injector.fallback_count += fallback_delta
            records = [()] * len(chunk)
            if telemetry.enabled:
                telemetry.count("parallel.chunks")
                if snapshot is not None:
                    worker, events = snapshot["worker"], snapshot["events"]
                    telemetry.absorb({"metrics": snapshot["metrics"], "worker": worker})
                    # Per injection: its sim_run records, then its own.
                    ends = [
                        i + 1 for i, e in enumerate(events) if e["event"] == "injection"
                    ]
                    records = [events[a:b] for a, b in zip([0, *ends], ends)]
            for (site, weight), value, group in zip(
                chunk, outcomes, records, strict=True
            ):
                if group:
                    telemetry.absorb({"events": group, "worker": worker})
                yield site, weight, Outcome(value)

        instrumented = telemetry.enabled
        for chunk in self._chunked(pairs):
            submitted_at = time.time() if instrumented else None
            pending.append(
                (chunk, pool.apply_async(_run_chunk, (chunk, submitted_at)))
            )
            if len(pending) >= 4 * self.workers:
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
