"""Checkpoint/restore for sliced faulty re-execution.

Every injection's execution *before* the flip fires is, by construction,
identical to the golden run: the fault model alters state only at the
instant it strikes.  Re-interpreting that golden prefix per injection is
the dominant cost for deep fault sites, so the injector snapshots
architectural state along the prefix and later resumes from the nearest
snapshot at or below the fault's dynamic index, executing only the suffix.

Two snapshot granularities match the injector's two slicing rungs:

* :class:`ThreadCheckpoint` — one thread's register file, program counter
  and dynamic-instruction cursor, captured every ``interval`` dynamic
  instructions during a thread-sliced run (sliceable threads only).
* :class:`CTACheckpoint` — every thread of a CTA plus the shared-memory
  scratchpad, captured at barrier-release boundaries during a CTA-sliced
  run (the only points where a run-to-barrier schedule is resumable) on
  the classic backends; vectorized CTAs run without.

Neither snapshot copies the heap.  Instead it records how many entries of
the run's global **write log** had been issued at capture time; the golden
write logs recorded at construction replay that prefix onto the scratch
heap in O(bytes written), and the same prefix is prepended to the faulty
run's log so interference/escape/classification checks see byte-identical
input to an un-checkpointed run.

:class:`CheckpointStore` bounds total snapshot memory with an LRU keyed by
``(owner, interval)``; lookups exploit that both snapshot families are
monotone in their interval key, so "nearest checkpoint at or below a
dynamic index" is a binary search over the owner's stored intervals.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (thread -> checkpoint)
    from .memory import SharedMemory
    from .thread import ThreadContext
    from .tracing import TraceTable

#: Per-process snapshot-memory budget in MiB of every injector's
#: :class:`CheckpointStore`.
DEFAULT_BUDGET_MB = 64.0

#: Kernels whose deep tertile is shallower than this skip checkpointing:
#: measured on the built-in kernels, snapshot capture overhead only pays
#: for itself once the skippable golden prefix is a few hundred
#: instructions deep (k-means/hotspot/2dconv see no win; pathfinder does).
MIN_AUTO_DEPTH = 192


def derive_checkpoint_interval(traces: TraceTable) -> int:
    """Per-kernel default ``checkpoint_interval`` from trace-length tertiles.

    The revenue of a snapshot is the golden prefix it lets deep faults
    skip, so the decision statistic is the *deep tertile* (the 67th
    percentile of non-empty trace lengths): shallow kernels return 0
    (layer disabled), deep kernels get an interval of roughly one
    sixteenth of the deep-tertile depth, rounded up to a power of two and
    floored at 16 — dense enough that deep faults resume near their
    strike point, coarse enough that capture stays a few percent of run
    time.  An explicit ``checkpoint_interval`` always wins over this.
    """
    lengths = sorted(n for n in traces.icnt.tolist() if n)
    if not lengths:
        return 0
    deep = lengths[min(len(lengths) - 1, (2 * len(lengths)) // 3)]
    if deep < MIN_AUTO_DEPTH:
        return 0
    raw = max(16, deep // 16)
    interval = 1
    while interval < raw:
        interval <<= 1
    return interval

# Rough CPython costs for budget accounting: a register entry is a short
# interned key plus one boxed int/float; a snapshot adds dict + dataclass
# overhead.  Estimates only — the budget bounds order of magnitude, not
# exact RSS.
_REG_NBYTES = 112
_SNAPSHOT_OVERHEAD = 232


def _regs_nbytes(n_regs: int) -> int:
    return _SNAPSHOT_OVERHEAD + _REG_NBYTES * n_regs


@dataclass(slots=True)
class ThreadCheckpoint:
    """Golden architectural state of one thread at one dynamic index.

    ``write_count`` is the number of entries of the thread's golden global
    write log issued strictly before ``dyn_index`` — the heap-repair and
    log-prefix cursor.
    """

    dyn_index: int
    pc: int
    regs: dict[str, int | float]
    write_count: int
    nbytes: int

    @classmethod
    def capture(
        cls, dyn_index: int, pc: int, regs: dict, write_count: int
    ) -> "ThreadCheckpoint":
        return cls(
            dyn_index=dyn_index,
            pc=pc,
            regs=dict(regs),
            write_count=write_count,
            nbytes=_regs_nbytes(len(regs)),
        )

    def restore(self, ctx: "ThreadContext") -> None:
        ctx.regs = dict(self.regs)
        ctx.pc = self.pc
        ctx.dyn_count = self.dyn_index


@dataclass(slots=True)
class CTACheckpoint:
    """Golden state of a whole CTA at one barrier-release boundary.

    Barrier boundaries are the only resumable points of the run-to-barrier
    schedule: every live thread has just been released (or has exited), so
    restoring thread states and re-entering the scheduler loop reproduces
    the original interleaving exactly.  ``write_count`` indexes the CTA's
    golden write log; ``instructions`` is the total dynamic instructions
    executed across the CTA at capture (the work a resume skips).
    """

    barrier_rounds: int
    write_count: int
    instructions: int
    thread_dyn: tuple[int, ...]
    thread_pcs: tuple[int, ...]
    thread_exited: tuple[bool, ...]
    thread_regs: tuple[dict[str, int | float], ...]
    shared_data: bytes | None
    nbytes: int

    @classmethod
    def capture(
        cls,
        barrier_rounds: int,
        threads: list["ThreadContext"],
        shared: "SharedMemory | None",
        write_count: int,
    ) -> "CTACheckpoint":
        from .thread import ThreadState

        regs = tuple(dict(t.regs) for t in threads)
        shared_data = shared.snapshot_bytes() if shared is not None else None
        nbytes = sum(_regs_nbytes(len(r)) for r in regs)
        nbytes += len(shared_data) if shared_data is not None else 0
        nbytes += 64 * len(threads) + _SNAPSHOT_OVERHEAD
        return cls(
            barrier_rounds=barrier_rounds,
            write_count=write_count,
            instructions=sum(t.dyn_count for t in threads),
            thread_dyn=tuple(t.dyn_count for t in threads),
            thread_pcs=tuple(t.pc for t in threads),
            thread_exited=tuple(t.state is ThreadState.EXITED for t in threads),
            thread_regs=regs,
            shared_data=shared_data,
            nbytes=nbytes,
        )

    def restore(
        self, threads: list["ThreadContext"], shared: "SharedMemory | None"
    ) -> None:
        from .thread import ThreadState

        for slot, ctx in enumerate(threads):
            ctx.regs = dict(self.thread_regs[slot])
            ctx.pc = self.thread_pcs[slot]
            ctx.dyn_count = self.thread_dyn[slot]
            ctx.state = (
                ThreadState.EXITED
                if self.thread_exited[slot]
                else ThreadState.RUNNING
            )
        if shared is not None and self.shared_data is not None:
            shared.restore_bytes(self.shared_data)


@dataclass(slots=True)
class CheckpointPlan:
    """Per-launch checkpoint instructions handed to the simulator.

    ``resume`` (when set) is restored before execution starts; ``sink``
    receives capture callbacks — ``sink(dyn, pc, regs)`` every ``interval``
    dynamic instructions up to ``limit`` for thread-sliced runs,
    ``sink(barrier_rounds, threads, shared)`` at every barrier release for
    CTA-sliced runs.  The sink owns all golden-validity and dedup policy;
    the simulator only reports reachable capture points.
    """

    interval: int
    resume: ThreadCheckpoint | CTACheckpoint | None = None
    sink: Callable | None = None
    limit: int = -1


class CheckpointStore:
    """Budget-bounded LRU over thread- and CTA-level checkpoints.

    Entries are keyed ``(owner, interval)`` where the owner is a thread or
    CTA and the interval key is the snapshot's dynamic index (threads) or
    barrier round (CTAs).  Per-owner interval lists stay sorted so the
    "deepest snapshot usable for dynamic index d" lookup is a binary
    search — valid because both families are monotone in their key: a
    thread snapshot's ``dyn_index`` is its key, and a CTA snapshot's
    per-slot ``thread_dyn`` never decreases across rounds.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError("checkpoint budget must be positive")
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[tuple, ThreadCheckpoint | CTACheckpoint]" = (
            OrderedDict()
        )
        self._intervals: dict[tuple, list[int]] = {}
        self.nbytes = 0
        self.stored = 0
        self.evicted = 0
        self.rejected = 0  # single snapshots larger than the whole budget
        #: Cumulative seconds spent capturing snapshots (accumulated by
        #: the injector's capture sinks — one timer pair per capture, so
        #: the per-instruction hot loops stay uninstrumented).
        self.capture_s = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    # ----------------------------------------------------------- mutation

    def _put(self, owner: tuple, interval: int, checkpoint) -> None:
        key = (owner, interval)
        if key in self._entries:  # pragma: no cover - sinks dedup via has_*
            return
        if checkpoint.nbytes > self.budget_bytes:
            self.rejected += 1
            return
        self._entries[key] = checkpoint
        bisect.insort(self._intervals.setdefault(owner, []), interval)
        self.nbytes += checkpoint.nbytes
        self.stored += 1
        while self.nbytes > self.budget_bytes:
            old_key, old = self._entries.popitem(last=False)
            self._intervals[old_key[0]].remove(old_key[1])
            self.nbytes -= old.nbytes
            self.evicted += 1

    def put_thread(self, thread: int, checkpoint: ThreadCheckpoint) -> None:
        self._put(("t", thread), checkpoint.dyn_index, checkpoint)

    def put_cta(self, cta: int, checkpoint: CTACheckpoint) -> None:
        self._put(("c", cta), checkpoint.barrier_rounds, checkpoint)

    # ------------------------------------------------------------ lookup

    def has_thread(self, thread: int, dyn_index: int) -> bool:
        return (("t", thread), dyn_index) in self._entries

    def has_cta(self, cta: int, barrier_rounds: int) -> bool:
        return (("c", cta), barrier_rounds) in self._entries

    def _best(self, owner: tuple, usable: Callable) -> object | None:
        """Deepest stored snapshot for which ``usable`` holds (monotone)."""
        intervals = self._intervals.get(owner)
        best = None
        if intervals:
            entries = self._entries
            lo, hi = 0, len(intervals)
            while lo < hi:  # rightmost interval whose snapshot is usable
                mid = (lo + hi) // 2
                if usable(entries[(owner, intervals[mid])]):
                    lo = mid + 1
                else:
                    hi = mid
            if lo:
                key = (owner, intervals[lo - 1])
                best = entries[key]
                entries.move_to_end(key)  # LRU recency
        return best

    def best_thread(self, thread: int, dyn_index: int) -> ThreadCheckpoint | None:
        """Deepest thread snapshot with ``dyn_index`` at or below the fault's."""
        return self._best(("t", thread), lambda cp: cp.dyn_index <= dyn_index)

    def best_cta(self, cta: int, slot: int, dyn_index: int) -> CTACheckpoint | None:
        """Deepest CTA snapshot where ``slot`` has not yet passed the fault."""
        return self._best(("c", cta), lambda cp: cp.thread_dyn[slot] <= dyn_index)

    # --------------------------------------------------------- reporting

    def counters(self) -> dict[str, int | float]:
        return {
            "stored": self.stored,
            "evicted": self.evicted,
            "rejected": self.rejected,
            "entries": len(self._entries),
            "nbytes": self.nbytes,
            "capture_s": self.capture_s,
        }
