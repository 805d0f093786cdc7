"""The exhaustive fault-site space of a kernel (paper Eq. 1).

Built from the golden per-thread traces, a :class:`FaultSpace` can count,
enumerate, index and uniformly sample the space

    FaultCoverage = sum_t sum_i bit(t, i)

without ever materialising it (the spaces run to 1e6+ sites even at our
scale, and 1e8+ at the paper's).
"""

from __future__ import annotations

import bisect

import numpy as np

from ..errors import FaultInjectionError
from ..gpu.tracing import TraceTable
from .site import FaultSite


class FaultSpace:
    """Counting / indexing view over every (thread, dyn instr, bit) site."""

    def __init__(self, traces: TraceTable) -> None:
        self._traces = traces
        self._thread_sites = traces.sites.tolist()
        self._thread_cum = [0] + np.cumsum(traces.sites).tolist()
        # Per-thread cumulative widths over trace entries, for O(log n)
        # random indexing; built lazily per thread to keep startup cheap.
        self._entry_cums: dict[int, list[int]] = {}

    @property
    def n_threads(self) -> int:
        return len(self._traces)

    @property
    def total_sites(self) -> int:
        return self._thread_cum[-1]

    def thread_sites(self, thread: int) -> int:
        return self._thread_sites[thread]

    def thread_icnt(self, thread: int) -> int:
        return len(self._traces[thread])

    def _entry_cum(self, thread: int) -> list[int]:
        cum = self._entry_cums.get(thread)
        if cum is None:
            widths = self._traces[thread].widths
            cum = [0] + np.cumsum(widths, dtype=np.int64).tolist()
            self._entry_cums[thread] = cum
        return cum

    def site_at(self, flat_index: int) -> FaultSite:
        """The site with global index ``flat_index`` in [0, total_sites)."""
        if not 0 <= flat_index < self.total_sites:
            raise FaultInjectionError(
                f"site index {flat_index} outside space of {self.total_sites}"
            )
        thread = bisect.bisect_right(self._thread_cum, flat_index) - 1
        within = flat_index - self._thread_cum[thread]
        cum = self._entry_cum(thread)
        dyn_index = bisect.bisect_right(cum, within) - 1
        bit = within - cum[dyn_index]
        return FaultSite(thread=thread, dyn_index=dyn_index, bit=bit)

    def sample(self, n: int, rng: np.random.Generator) -> list[FaultSite]:
        """``n`` sites drawn uniformly at random (with replacement).

        Sampling with replacement matches the statistical-fault-injection
        baseline of Leveugle et al. that the paper compares against.
        """
        indices = rng.integers(0, self.total_sites, size=n)
        return [self.site_at(int(i)) for i in indices]

    def sites_of_instruction(self, thread: int, dyn_index: int) -> list[FaultSite]:
        """Every bit position of one dynamic instruction of one thread."""
        _, width = self._traces[thread][dyn_index]
        return [FaultSite(thread, dyn_index, b) for b in range(width)]

    def iter_thread_sites(self, thread: int):
        """Every site of one thread, in (dyn_index, bit) order."""
        for dyn_index, (_pc, width) in enumerate(self._traces[thread]):
            for bit in range(width):
                yield FaultSite(thread, dyn_index, bit)

    def width_of(self, thread: int, dyn_index: int) -> int:
        return self._traces[thread][dyn_index][1]

    def pc_of(self, thread: int, dyn_index: int) -> int:
        return self._traces[thread][dyn_index][0]
