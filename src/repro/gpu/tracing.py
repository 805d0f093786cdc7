"""Dynamic-instruction traces and golden read logs, stored as columns.

A thread trace is the ordered sequence of instructions the thread
*issued* (including predicated-off ones, which occupy an issue slot but
write no destination).  Each entry is the pair ``(pc, dest_width)``:

* ``pc`` — static instruction index, enough to recover the opcode, operand
  structure and loop membership from the program;
* ``dest_width`` — bits written by this dynamic instruction (0 for stores,
  branches, barriers and predicated-off slots).

A traced launch returns every thread's trace in one :class:`TraceTable`,
a CSR ("compressed sparse row") layout: flat ``pcs`` and ``widths`` arrays
for all threads, plus per-thread start ``offsets``.  Indexing the table
yields a :class:`ThreadTrace` view that reads like the classic
``[(pc, width), ...]`` list.  Everything the pruning stages need derives
from the columns without walking entries in Python:

* the paper's iCnt (dynamic instruction count) per thread is
  :attr:`TraceTable.icnt`;
* the exhaustive fault-site count (Eq. 1) per thread is
  :attr:`TraceTable.sites`, the sum of the thread's widths;
* loop detection compares a thread's pc array against loop headers.

Golden read logs use the same idea: each CTA's ``(address, size)`` load
log becomes a pair of integer arrays (:func:`read_log_arrays`).  The log
is slot-major within each run-to-barrier segment, so one row of per-slot
load counts per segment (:func:`slot_load_counts`) attributes every load
to its thread without a per-load column.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .program import Program

TraceEntry = tuple[int, int]

#: Destination widths are at most 64 bits.
WIDTH_DTYPE = np.uint8

#: Golden read-log columns: byte address and load size (2, 4 or 8).
ADDRESS_DTYPE = np.int64
SIZE_DTYPE = np.uint8

_INT16_MAX = int(np.iinfo(np.int16).max)

#: Threads per segmented sum in :attr:`TraceTable.sites`.
_SITES_BLOCK = 256


def pc_dtype(max_pc: int) -> type:
    """The narrowest signed dtype holding every pc up to ``max_pc``."""
    return np.int16 if max_pc <= _INT16_MAX else np.int32


class ThreadTrace:
    """One thread's trace: a read-only view of two columns of a table.

    List-compatible with the classic ``[(pc, width), ...]`` traces for
    every consumer in the tree: ``len``, int index (a ``(pc, width)``
    tuple), slice (a list of tuples), iteration, ``==`` against another
    view, and pickling.  Array consumers read ``pcs``/``widths`` directly.
    """

    __slots__ = ("pcs", "widths")

    def __init__(self, pcs: np.ndarray, widths: np.ndarray) -> None:
        self.pcs = pcs
        self.widths = widths

    def __len__(self) -> int:
        return len(self.pcs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self.pcs[index].tolist(), self.widths[index].tolist()))
        return (int(self.pcs[index]), int(self.widths[index]))

    def __iter__(self):
        return zip(self.pcs.tolist(), self.widths.tolist())

    def __eq__(self, other):
        if not isinstance(other, ThreadTrace):
            return NotImplemented
        return np.array_equal(self.pcs, other.pcs) and np.array_equal(
            self.widths, other.widths
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (ThreadTrace, (self.pcs, self.widths))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadTrace({len(self.pcs)} entries)"


class TraceTable:
    """Every thread's trace in one CSR table.

    ``pcs[offsets[t]:offsets[t + 1]]`` and the same slice of ``widths``
    are thread ``t``'s trace.  The table is a sequence of
    :class:`ThreadTrace` views (``len`` is the thread count), pickles as
    its three arrays, and computes the per-thread aggregates once.
    """

    __slots__ = ("pcs", "widths", "offsets", "_icnt", "_sites")

    def __init__(
        self, pcs: np.ndarray, widths: np.ndarray, offsets: np.ndarray
    ) -> None:
        self.pcs = pcs
        self.widths = widths
        self.offsets = offsets
        self._icnt: np.ndarray | None = None
        self._sites: np.ndarray | None = None

    @classmethod
    def from_lists(cls, traces) -> "TraceTable":
        """Build a table from per-thread ``[(pc, width), ...]`` lists."""
        offsets = np.zeros(len(traces) + 1, dtype=np.int64)
        np.cumsum([len(trace) for trace in traces], out=offsets[1:])
        n = int(offsets[-1])
        # pcs and widths both fit int32: half the transient of int64.
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(traces)), np.int32, count=2 * n
        )
        pcs = flat[0::2]
        max_pc = int(pcs.max()) if n else 0
        return cls(pcs.astype(pc_dtype(max_pc)), flat[1::2].astype(WIDTH_DTYPE), offsets)

    @classmethod
    def concat(cls, tables: list["TraceTable"]) -> "TraceTable":
        """Tables of consecutive thread ranges joined into one."""
        parts = [np.zeros(1, dtype=np.int64)]
        base = 0
        for table in tables:
            parts.append(table.offsets[1:] + base)
            base += len(table.pcs)
        return cls(
            np.concatenate([t.pcs for t in tables]),
            np.concatenate([t.widths for t in tables]),
            np.concatenate(parts),
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, thread: int) -> ThreadTrace:
        n = len(self.offsets) - 1
        if thread < 0:
            thread += n
        if not 0 <= thread < n:
            raise IndexError(f"thread {thread} outside a table of {n}")
        lo = self.offsets[thread]
        hi = self.offsets[thread + 1]
        return ThreadTrace(self.pcs[lo:hi], self.widths[lo:hi])

    def __iter__(self):
        for thread in range(len(self)):
            yield self[thread]

    def __eq__(self, other):
        if not isinstance(other, TraceTable):
            return NotImplemented
        return (
            np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.pcs, other.pcs)
            and np.array_equal(self.widths, other.widths)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (TraceTable, (self.pcs, self.widths, self.offsets))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceTable({len(self)} threads, {len(self.pcs)} entries)"

    @property
    def icnt(self) -> np.ndarray:
        """Per-thread dynamic instruction counts (``int64``)."""
        if self._icnt is None:
            self._icnt = np.diff(self.offsets)
        return self._icnt

    @property
    def sites(self) -> np.ndarray:
        """Per-thread exhaustive fault-site counts (``int64``).

        Segmented sums over ``widths``, :data:`_SITES_BLOCK` threads at a
        time: ``reduceat`` casts its whole input to the ``int64``
        accumulator first, which over the full column would be a 155 MB
        temporary at paper scale.  Empty threads stay out of ``reduceat``,
        which returns the next entry for a zero-length segment.
        """
        if self._sites is None:
            offsets = self.offsets
            sites = np.zeros(len(self), dtype=np.int64)
            nonempty = np.flatnonzero(self.icnt)
            for start in range(0, nonempty.size, _SITES_BLOCK):
                block = nonempty[start : start + _SITES_BLOCK]
                lo = offsets[block[0]]
                hi = offsets[block[-1] + 1]
                sites[block] = np.add.reduceat(
                    self.widths[lo:hi], offsets[block] - lo, dtype=np.int64
                )
            self._sites = sites
        return self._sites


def read_log_arrays(log: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """One CTA's ``[(address, size), ...]`` load log as two columns."""
    flat = np.fromiter(chain.from_iterable(log), np.int64, count=2 * len(log))
    return flat[0::2].astype(ADDRESS_DTYPE), flat[1::2].astype(SIZE_DTYPE)


def slot_load_counts(rows, n_slots: int) -> np.ndarray:
    """Per-segment rows of per-slot load counts as one ``(segments,
    n_slots)`` array; segments that logged no load have no row."""
    return np.array(rows, dtype=np.int32).reshape(-1, n_slots)


def static_key_sequence(program: Program, trace: ThreadTrace) -> list[tuple]:
    """The thread's dynamic instruction stream as structural identity keys.

    Instruction-wise pruning matches these sequences across representative
    threads to find common code blocks (paper Fig. 5 / Table V).
    """
    instructions = program.instructions
    return [instructions[pc].static_key() for pc, _ in trace]
