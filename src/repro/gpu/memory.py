"""Simulated memory spaces.

Three spaces exist, mirroring what the workloads need:

* **global** — byte-addressed heap shared by all CTAs.  Allocations are
  tracked so that an access outside every live allocation raises
  :class:`~repro.errors.MemoryFault`, which the injector classifies as a
  crash (the hardware analogue of an MMU/Xid fault).
* **shared** — per-CTA scratchpad of a size declared by the program.
* **param** — the read-only kernel-parameter block (PTXPlus ``s[...]``).

All values are stored little-endian.  Loads and stores move 2, 4 or 8 bytes
depending on the instruction data type; floats are bit-cast via
:mod:`struct`.
"""

from __future__ import annotations

import struct

from ..errors import MemoryFault
from .isa import DataType

#: First valid global address; keeps small corrupted pointers (e.g. 0) faulting.
GLOBAL_BASE = 0x1000

_INT_FORMATS = {16: "<H", 32: "<I", 64: "<Q"}
_FLOAT_FORMATS = {DataType.F32: "<f", DataType.F64: "<d"}


def encode_value(value: int | float, dtype: DataType) -> bytes:
    """Encode a register value into its little-endian memory image."""
    if dtype.is_float:
        return struct.pack(_FLOAT_FORMATS[dtype], value)
    width = dtype.width
    mask = (1 << width) - 1
    return struct.pack(_INT_FORMATS[width], int(value) & mask)


def decode_value(raw: bytes, dtype: DataType) -> int | float:
    """Decode a little-endian memory image into a register value."""
    if dtype.is_float:
        return struct.unpack(_FLOAT_FORMATS[dtype], raw)[0]
    value = int.from_bytes(raw, "little")
    if dtype.is_signed:
        sign_bit = 1 << (dtype.width - 1)
        if value & sign_bit:
            value -= 1 << dtype.width
    return value


class GlobalMemory:
    """The device heap with allocation tracking and write logging.

    The write log is the mechanism behind the injector's CTA-sliced fast
    path: a faulty CTA re-executes against a copy of the *initial* heap, and
    its logged writes are overlaid onto the golden final heap.  The read
    log records ``(address, size)`` of every ``ld`` so the injector can
    prove that a sliced re-execution observed no bytes another thread
    produced.
    """

    def __init__(self, size: int = 1 << 20) -> None:
        self._data = bytearray(size)
        self._allocations: list[tuple[int, int]] = []
        self._next = GLOBAL_BASE
        self.write_log: list[tuple[int, bytes]] | None = None
        self.read_log: list[tuple[int, int]] | None = None

    def __getstate__(self):
        # Zero-copy views, bounds arrays, and conflict paint boards are
        # process-local caches over ``_data``; pickling them would break
        # aliasing on unpickle (spawn-pool golden-state handoff).
        state = self.__dict__.copy()
        for key in ("_array_view", "_alloc_arrays", "_vector_paint"):
            state.pop(key, None)
        return state

    @property
    def size(self) -> int:
        return len(self._data)

    def alloc(self, nbytes: int) -> int:
        """Reserve ``nbytes`` and return the base address."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        base = self._next
        end = base + nbytes
        if end > len(self._data):
            raise MemoryError("simulated heap exhausted")
        self._allocations.append((base, nbytes))
        self._next = (end + 0xFF) & ~0xFF  # 256-byte alignment between buffers
        return base

    def _check(self, address: int, size: int) -> None:
        for base, nbytes in self._allocations:
            if base <= address and address + size <= base + nbytes:
                return
        raise MemoryFault("global", address, size)

    def load(self, address: int, dtype: DataType) -> int | float:
        size = dtype.width // 8
        self._check(address, size)
        if self.read_log is not None:
            self.read_log.append((address, size))
        return decode_value(bytes(self._data[address : address + size]), dtype)

    def store(self, address: int, value: int | float, dtype: DataType) -> None:
        raw = encode_value(value, dtype)
        self._check(address, len(raw))
        self._data[address : address + len(raw)] = raw
        if self.write_log is not None:
            self.write_log.append((address, raw))

    def read_bytes(self, address: int, nbytes: int) -> bytes:
        self._check(address, nbytes)
        return bytes(self._data[address : address + nbytes])

    def write_bytes(self, address: int, raw: bytes) -> None:
        self._check(address, len(raw))
        self._data[address : address + len(raw)] = raw
        if self.write_log is not None:
            self.write_log.append((address, bytes(raw)))

    def snapshot(self) -> "GlobalMemory":
        """An independent copy sharing the allocation map (logs cleared)."""
        clone = GlobalMemory.__new__(GlobalMemory)
        clone._data = bytearray(self._data)
        clone._allocations = list(self._allocations)
        clone._next = self._next
        clone.write_log = None
        clone.read_log = None
        return clone

    def apply_writes(self, writes: list[tuple[int, bytes]]) -> None:
        """Replay a write log onto this heap (bounds re-checked)."""
        for address, raw in writes:
            self._check(address, len(raw))
            self._data[address : address + len(raw)] = raw

    def revert_writes(
        self, writes: list[tuple[int, bytes]], source: "GlobalMemory"
    ) -> None:
        """Reset every logged span back to ``source``'s bytes.

        The injector's scratch-heap reuse depends on this: instead of
        copying the full golden heap per injection, one scratch heap is
        repaired in O(bytes actually written) after every faulty run.
        """
        data = self._data
        src = source._data
        for address, raw in writes:
            end = address + len(raw)
            data[address:end] = src[address:end]

    def array_view(self):
        """A zero-copy writable ``uint8`` numpy view over the whole heap.

        The backing ``bytearray`` is allocated once and never resized
        (:meth:`alloc` only bump-allocates within it), so the view stays
        valid for the lifetime of this memory object and is cached.
        Writes through the view bypass allocation checks and logging —
        callers (the vectorized backend) are responsible for validating
        addresses and reconstructing equivalent write-log entries.
        """
        view = getattr(self, "_array_view", None)
        if view is None:
            import numpy as np

            view = np.frombuffer(self._data, dtype=np.uint8)
            self._array_view = view
        return view

    def allocation_arrays(self):
        """``(bases, ends)`` int64 arrays sorted by base, for vector bounds.

        An address range ``[a, a + size)`` is valid iff the allocation
        found by ``searchsorted(bases, a, "right") - 1`` contains it —
        equivalent to the linear scan in :meth:`_check` because
        allocations never overlap.  Cached per allocation count.
        """
        cached = getattr(self, "_alloc_arrays", None)
        if cached is not None and cached[0] == len(self._allocations):
            return cached[1], cached[2]
        import numpy as np

        pairs = sorted(self._allocations)
        bases = np.array([b for b, _ in pairs], dtype=np.int64)
        ends = np.array([b + n for b, n in pairs], dtype=np.int64)
        self._alloc_arrays = (len(self._allocations), bases, ends)
        return bases, ends

    def raw_window(self, lo: int, hi: int) -> bytes:
        """Raw heap bytes in ``[lo, hi)`` without allocation checks.

        The allocation span contains alignment gaps between buffers, so
        whole-window reads (the injector's ownership masks) cannot go
        through :meth:`read_bytes`.
        """
        return bytes(self._data[lo:hi])

    def allocation_span(self) -> tuple[int, int]:
        """``(lo, hi)`` byte bounds covering every live allocation."""
        if not self._allocations:
            return (GLOBAL_BASE, GLOBAL_BASE)
        lo = min(base for base, _ in self._allocations)
        hi = max(base + nbytes for base, nbytes in self._allocations)
        return lo, hi


class SharedMemory:
    """Per-CTA scratchpad; out-of-range accesses crash like global ones.

    A launch allocates a zeroed one for every CTA it runs.
    """

    def __init__(self, nbytes: int) -> None:
        self._data = bytearray(nbytes)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_array_view", None)
        return state

    def snapshot_bytes(self) -> bytes:
        """The full scratchpad image (CTA-checkpoint capture)."""
        return bytes(self._data)

    def restore_bytes(self, raw: bytes) -> None:
        """Overwrite the scratchpad with a captured image."""
        if len(raw) != len(self._data):
            raise MemoryFault("shared", 0, len(raw))
        self._data[:] = raw

    def array_view(self):
        """A zero-copy writable ``uint8`` numpy view over the scratchpad."""
        view = getattr(self, "_array_view", None)
        if view is None:
            import numpy as np

            view = np.frombuffer(self._data, dtype=np.uint8)
            self._array_view = view
        return view

    def load(self, address: int, dtype: DataType) -> int | float:
        size = dtype.width // 8
        if address < 0 or address + size > len(self._data):
            raise MemoryFault("shared", address, size)
        return decode_value(bytes(self._data[address : address + size]), dtype)

    def store(self, address: int, value: int | float, dtype: DataType) -> None:
        raw = encode_value(value, dtype)
        if address < 0 or address + len(raw) > len(self._data):
            raise MemoryFault("shared", address, len(raw))
        self._data[address : address + len(raw)] = raw


class ParamMemory:
    """The read-only kernel-parameter block, 4-byte slots."""

    def __init__(self, raw: bytes) -> None:
        self._data = bytes(raw)

    @property
    def raw(self) -> bytes:
        """The immutable parameter image (compiled-backend cache key)."""
        return self._data

    def load(self, offset: int, dtype: DataType) -> int | float:
        size = dtype.width // 8
        if offset < 0 or offset + size > len(self._data):
            raise MemoryFault("param", offset, size)
        return decode_value(self._data[offset : offset + size], dtype)
