"""Regression pins for the injector hot-path optimisations.

Each optimisation replaced a simple reference implementation; these tests
keep the optimised code byte-for-byte faithful to it:

* mask-based ``_writes_escape_cta``   vs  the original per-byte set scans;
* scatter-built ownership masks       vs  the original per-entry loops;
* thread-sliced re-execution          vs  full-grid re-execution;
* cached ``sample_register_file_sites`` vs  the original rescan loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FaultInjector, all_kernels, load_instance, random_campaign
from repro.faults.model import RegisterFileSite

from ..helpers import build_saxpy_instance
from ..helpers import build_shared_flag_instance


def reference_writes_escape_cta(injector, faulty_log, cta) -> bool:
    """The original set-based escape check, verbatim semantics."""
    cta_write_bytes = []
    for log in injector._cta_write_logs:
        owned = set()
        for address, raw in log:
            owned.update(range(address, address + len(raw)))
        cta_write_bytes.append(owned)
    own = cta_write_bytes[cta]
    others = [s for i, s in enumerate(cta_write_bytes) if i != cta]
    for address, raw in faulty_log:
        for byte in range(address, address + len(raw)):
            if byte in own:
                continue
            if any(byte in other for other in others):
                return True
    return False


class TestEscapeMask:
    @pytest.mark.parametrize("key", ["2dconv.k1", "pathfinder.k1"])
    def test_matches_set_reference_on_golden_logs(self, key):
        """Every CTA's own golden log, plus every *other* CTA's log offset
        into this CTA's decision, must classify identically."""
        injector = FaultInjector(load_instance(key))
        n_ctas = injector.instance.geometry.n_ctas
        for cta in range(min(n_ctas, 4)):
            for source in range(min(n_ctas, 4)):
                log = injector._cta_write_logs[source][:32]
                got = injector._writes_escape_cta(log, cta)
                want = reference_writes_escape_cta(injector, log, cta)
                assert got == want, (key, cta, source)

    def test_matches_reference_on_synthetic_spans(self, conv2d_injector):
        injector = conv2d_injector
        lo, hi = injector.instance.initial_memory.allocation_span()
        cases = [
            [(lo, b"\x00" * 4)],                  # window start
            [(hi - 4, b"\x00" * 4)],              # window end
            [(lo - 64, b"\x00" * 16)],            # before the window
            [(hi + 64, b"\x00" * 16)],            # past the window
            [(lo - 8, b"\x00" * 16)],             # straddling the low edge
            [(hi - 8, b"\x00" * 16)],             # straddling the high edge
        ]
        for log in cases:
            got = injector._writes_escape_cta(log, 0)
            want = reference_writes_escape_cta(injector, log, 0)
            assert got == want, log

    def test_fallback_decisions_pinned_end_to_end(self):
        """Seed 2 contains a known write-escape; the optimised path must
        take the full-re-run fallback exactly as often as before."""
        injector = FaultInjector(load_instance("2dconv.k1"))
        random_campaign(injector, 80, rng=2)
        assert injector.fallback_count == 1


def reference_ownership_state(injector) -> dict:
    """The original per-entry loops over the golden logs, one span each."""
    geometry = injector.instance.geometry
    lo, hi = injector.instance.initial_memory.allocation_span()
    size = hi - lo
    n_ctas = geometry.n_ctas
    write_mask = np.zeros((n_ctas, size), dtype=bool)
    for cta, log in enumerate(injector._cta_write_logs):
        for address, raw in log:
            write_mask[cta, address - lo : address - lo + len(raw)] = True
    state = {
        "_cta_write_mask": write_mask,
        "_cta_write_count": write_mask.sum(axis=0, dtype=np.int16),
    }
    # A CTA is exclusive when no byte it writes is written by another CTA.
    shared = state["_cta_write_count"] > 1
    state["_cta_exclusive"] = [
        not (write_mask[c] & shared).any() for c in range(n_ctas)
    ]
    if not injector._slicing_enabled:
        state["_cta_sliceable"] = [False] * n_ctas
        return state
    read_mask = np.zeros((n_ctas, size), dtype=bool)
    for cta, (addresses, sizes) in enumerate(injector._cta_read_logs):
        for address, nbytes in zip(addresses.tolist(), sizes.tolist()):
            read_mask[cta, address - lo : address - lo + nbytes] = True
    counts = np.zeros((n_ctas, size), dtype=np.int16)
    offsets_by_thread = []
    scratch = np.zeros(size, dtype=bool)
    for thread, log in enumerate(injector._thread_write_logs):
        scratch[:] = False
        for address, raw in log:
            scratch[address - lo : address - lo + len(raw)] = True
        offsets = np.flatnonzero(scratch)
        offsets_by_thread.append(offsets)
        counts[geometry.cta_of_thread(thread)][offsets] += 1
    state.update(
        _cta_read_mask=read_mask,
        _thread_write_offsets=offsets_by_thread,
        _thread_write_count=counts,
        _cta_sliceable=[
            state["_cta_exclusive"][c]
            and not (counts[c] > 1).any()  # two threads write one byte
            and not (read_mask[c] & write_mask[c]).any()
            for c in range(n_ctas)
        ],
    )
    return state


class TestOwnershipState:
    @pytest.mark.parametrize("backend", ["compiled", "vectorized"])
    @pytest.mark.parametrize("key", [spec.key for spec in all_kernels()])
    def test_matches_per_entry_reference(self, key, backend):
        injector = FaultInjector(load_instance(key), backend=backend)
        want = reference_ownership_state(injector)
        for name in ("_cta_write_mask", "_cta_write_count", "_cta_read_mask",
                     "_thread_write_count"):
            if name in want:
                got = getattr(injector, name)
                assert got.dtype == want[name].dtype, name
                assert np.array_equal(got, want[name]), name
        if "_thread_write_offsets" in want:
            got = injector._thread_write_offsets
            assert len(got) == len(want["_thread_write_offsets"])
            for mine, ref in zip(got, want["_thread_write_offsets"]):
                assert np.array_equal(mine, ref)
        assert injector._cta_sliceable == want["_cta_sliceable"]
        assert injector._cta_exclusive == want["_cta_exclusive"]
        space = injector.space
        sites = [sum(w for _, w in trace) for trace in injector.traces]
        assert [space.thread_sites(t) for t in range(len(sites))] == sites
        assert space.total_sites == sum(sites)


class TestThreadSlicing:
    @pytest.mark.parametrize("key", ["2dconv.k1", "k-means.k1", "gaussian.k126"])
    def test_outcomes_match_cta_slicing(self, key):
        """Thread-sliced and CTA-sliced classification agree everywhere —
        including on gaussian.k126, where 35 of 36 CTAs are sliceable and
        the last is not."""
        sliced = FaultInjector(load_instance(key))
        unsliced = FaultInjector(load_instance(key), thread_slicing=False)
        assert any(sliced._cta_sliceable)
        assert not any(unsliced._cta_sliceable)
        rng = np.random.default_rng(13)
        for site in sliced.space.sample(40, rng):
            assert sliced.inject(site) == unsliced.inject(site), site
        assert sliced.fallback_count == unsliced.fallback_count

    def test_outcomes_match_full_rerun(self):
        injector = FaultInjector(load_instance("2dconv.k1"))
        rng = np.random.default_rng(17)
        for site in injector.space.sample(25, rng):
            assert injector.inject(site) == injector.inject_full(site), site

    def test_shared_memory_kernels_never_slice(self, pathfinder_injector):
        assert not any(pathfinder_injector._cta_sliceable)

    def test_scratch_heap_repaired_between_injections(self):
        """The reused scratch heap must equal the initial heap after every
        injection, or later injections would see stale faulty bytes."""
        injector = FaultInjector(build_saxpy_instance())
        initial = injector.instance.initial_memory
        rng = np.random.default_rng(3)
        for site in injector.space.sample(30, rng):
            injector.inject(site)
            assert injector._scratch_memory._data == initial._data


def reference_thread_run_interferes(injector, thread, faulty_log, read_log) -> bool:
    """Per-byte set semantics of the thread slice's interference check."""
    geometry = injector.instance.geometry
    cta = geometry.cta_of_thread(thread)
    first = cta * geometry.threads_per_cta
    written_by: dict[int, set] = {}
    for t in range(first, first + geometry.threads_per_cta):
        for address, raw in injector._thread_write_logs[t]:
            for byte in range(address, address + len(raw)):
                written_by.setdefault(byte, set()).add(t)
    addresses, sizes = injector._cta_read_logs[cta]
    cta_reads = {
        byte
        for address, nbytes in zip(addresses.tolist(), sizes.tolist())
        for byte in range(address, address + nbytes)
    }
    for address, nbytes in read_log:
        if any(byte in written_by for byte in range(address, address + nbytes)):
            return True
    for address, raw in faulty_log:
        for byte in range(address, address + len(raw)):
            if byte in cta_reads or written_by.get(byte, set()) - {thread}:
                return True
    return False


class TestThreadInterference:
    def test_matches_set_reference_on_shifted_spans(self, conv2d_injector):
        """Writes and reads slid byte by byte across sibling-written,
        own-written and CTA-read bytes of a thread-sliceable CTA."""
        injector = conv2d_injector
        geometry = injector.instance.geometry
        cta = next(c for c, ok in enumerate(injector._cta_sliceable) if ok)
        first = cta * geometry.threads_per_cta
        thread, sibling = [
            t
            for t in range(first, first + geometry.threads_per_cta)
            if injector._thread_write_logs[t]
        ][:2]
        own = injector._thread_write_logs[thread][0][0]
        other = injector._thread_write_logs[sibling][0][0]
        read = int(injector._cta_read_logs[cta][0][0])
        checked = 0
        for base in (own, other, read):
            for delta in range(-5, 6):
                address = base + delta
                for log, reads in (([(address, bytes(4))], []), ([], [(address, 4)])):
                    got = injector._thread_run_interferes(thread, cta, log, reads)
                    want = reference_thread_run_interferes(injector, thread, log, reads)
                    assert got == want, (base, delta, log, reads)
                    checked += got
        assert 0 < checked < 66


#: (grid, block) of the shared-flag kernel: CTAs share the flag bytes,
#: single-thread CTAs share them, and one CTA's threads share them.
SHARED_FLAG_GEOMETRIES = [(2, 2), (4, 1), (1, 4)]


class TestSharedWrites:
    """Bytes several writers set: the slices' revert patches and the
    all-own escape shortcut assume one writer, so such CTAs must leave
    the thread slice (two writers in the CTA) or every slice (a writer
    in another CTA)."""

    @pytest.mark.parametrize("backend", ["interpreter", "compiled"])
    @pytest.mark.parametrize("grid,block", SHARED_FLAG_GEOMETRIES)
    def test_every_site_matches_full_rerun(self, grid, block, backend):
        injector = FaultInjector(build_shared_flag_instance(grid, block), backend=backend)
        space = injector.space
        sites = [
            site for t in range(space.n_threads) for site in space.iter_thread_sites(t)
        ]
        assert len(sites) == 1424
        for site in sites:
            assert injector.inject(site) == injector.inject_full(site), site

    @pytest.mark.parametrize("grid,block", SHARED_FLAG_GEOMETRIES)
    def test_gates(self, grid, block):
        injector = FaultInjector(build_shared_flag_instance(grid, block))
        want = reference_ownership_state(injector)
        assert injector._cta_exclusive == want["_cta_exclusive"] == [grid == 1] * grid
        assert injector._cta_sliceable == want["_cta_sliceable"] == [False] * grid
        assert np.array_equal(
            injector._thread_write_count, want["_thread_write_count"]
        )

    def test_non_exclusive_cta_goes_straight_to_full_run(self):
        injector = FaultInjector(build_shared_flag_instance(2, 2))
        sites = injector.space.sample(10, np.random.default_rng(0))
        for site in sites:
            injector.inject(site)
        assert injector.fallback_count == len(sites)


def reference_sample_register_file_sites(injector, n, rng):
    """The original rejection loop, rescanning the trace prefix per draw."""
    instructions = injector.instance.program.instructions
    sites = []
    n_threads = len(injector.traces)
    while len(sites) < n:
        thread = int(rng.integers(0, n_threads))
        trace = injector.traces[thread]
        if not trace:
            continue
        dyn_index = int(rng.integers(0, len(trace)))
        written = set()
        for pc, width in trace[:dyn_index]:
            if width and instructions[pc].dest is not None:
                written.add(instructions[pc].dest.name)
        if not written:
            continue
        ordered = sorted(written)
        reg = ordered[int(rng.integers(0, len(ordered)))]
        bit = int(rng.integers(0, 32))
        sites.append(RegisterFileSite(thread, dyn_index, reg, bit))
    return sites


class TestRegisterFileSampleCache:
    @pytest.mark.parametrize("key", ["2dconv.k1", "pathfinder.k1"])
    def test_matches_rescan_reference(self, key):
        injector = FaultInjector(load_instance(key))
        got = injector.sample_register_file_sites(60, np.random.default_rng(41))
        want = reference_sample_register_file_sites(
            injector, 60, np.random.default_rng(41)
        )
        assert got == want

    def test_cache_reused_across_calls(self):
        injector = FaultInjector(build_saxpy_instance())
        injector.sample_register_file_sites(10, np.random.default_rng(1))
        cached = dict(injector._rf_prefix_cache)
        again = injector.sample_register_file_sites(10, np.random.default_rng(1))
        for thread, entry in cached.items():
            assert injector._rf_prefix_cache[thread] is entry
        assert again == injector.sample_register_file_sites(
            10, np.random.default_rng(1)
        )
