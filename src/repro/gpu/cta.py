"""CTA-granularity scheduling.

Threads within a CTA are interleaved at barrier granularity: each thread
runs until it reaches a ``bar.sync``, exits, or hangs; once every live
thread has blocked, the barrier releases.  For data-race-free kernels (all
the workloads here synchronise shared-memory phases with barriers) this
run-to-barrier schedule is observationally equivalent to any hardware
interleaving.

A thread that exits without reaching a barrier other threads are waiting at
does not deadlock the CTA — the barrier releases over the remaining live
threads, mirroring how hardware barrier counts drop when warps retire.
Fault-induced infinite loops are caught by the per-thread hang budget
instead.
"""

from __future__ import annotations

from .thread import ThreadContext, ThreadState


def run_cta(
    threads: list[ThreadContext],
    thread_write_logs: list[list[tuple[int, bytes]]] | None = None,
    barrier_hook=None,
    barrier_rounds_start: int = 0,
    read_counts: list[list[int]] | None = None,
) -> int:
    """Drive every thread of one CTA to completion.

    Returns the number of barrier-release rounds (a telemetry counter for
    how often the CTA synchronised).  Raises whatever the threads raise
    (``MemoryFault``, ``HangDetected``); callers decide whether that is a
    crash under injection or a kernel bug.

    When ``thread_write_logs`` (one list per thread) is given, global
    writes are additionally attributed to the thread that issued them by
    swapping the heap's write log around each run-to-barrier segment; the
    CTA-level log keeps its schedule order.

    When ``read_counts`` is given, each round that logged loads appends
    one row of per-slot load counts, read off the growth of the heap's
    read log around each thread's segment.  Within a round the log is
    slot-major, so the rows attribute every load to the thread that
    issued it.

    ``barrier_hook(barrier_rounds, threads)`` fires right after each
    barrier release — the only points where thread states are mutually
    consistent and the schedule is resumable, which is what CTA-level
    checkpointing captures.  ``barrier_rounds_start`` seeds the round
    counter when the CTA resumes from such a checkpoint, so round indices
    (and therefore checkpoint keys) match an un-resumed run.
    """
    barrier_rounds = barrier_rounds_start
    heap = threads[0].global_mem if threads else None
    while True:
        progressed = False
        row = [0] * len(threads) if read_counts is not None else None
        for slot, thread in enumerate(threads):
            if thread.state is ThreadState.RUNNING:
                loaded = len(heap.read_log) if row is not None else 0
                if thread_write_logs is None or heap.write_log is None:
                    thread.run_until_block()
                else:
                    cta_log = heap.write_log
                    segment: list[tuple[int, bytes]] = []
                    heap.write_log = segment
                    try:
                        thread.run_until_block()
                    finally:
                        heap.write_log = cta_log
                        cta_log.extend(segment)
                        thread_write_logs[slot].extend(segment)
                if row is not None:
                    row[slot] = len(heap.read_log) - loaded
                progressed = True
        if row is not None and any(row):
            read_counts.append(row)
        waiting = [t for t in threads if t.state is ThreadState.AT_BARRIER]
        if waiting:
            barrier_rounds += 1
            for thread in waiting:
                thread.state = ThreadState.RUNNING
            if barrier_hook is not None:
                barrier_hook(barrier_rounds, threads)
            continue
        if all(t.state is ThreadState.EXITED for t in threads):
            return barrier_rounds
        if not progressed:  # pragma: no cover - defensive; unreachable by design
            raise AssertionError("CTA scheduler made no progress")
