"""Regression pins for the injector hot-path optimisations.

Each optimisation replaced a simple reference implementation; these tests
keep the optimised code byte-for-byte faithful to it:

* mask-based ``_writes_escape_cta``   vs  the original per-byte set scans;
* the per-CTA ownership index         vs  per-entry loops and byte sets;
* thread-sliced re-execution          vs  CTA-sliced and full-grid runs;
* cached ``sample_register_file_sites`` vs  the original rescan loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FaultInjector, all_kernels, load_instance, random_campaign
from repro.faults.injector import _program_uses_shared
from repro.faults.model import InjectionSpec, RegisterFileSite
from repro.gpu import GPUSimulator
from repro.pruning.progressive import ProgressivePruner
from repro.telemetry import Telemetry

from ..helpers import build_neighbour_read_instance
from ..helpers import build_saxpy_instance
from ..helpers import build_shared_flag_instance

#: Registry kernels with no shared-memory instruction: the ones whose
#: golden runs record read logs and whose threads may thread-slice.
GLOBAL_ONLY = [
    spec.key
    for spec in all_kernels()
    if not _program_uses_shared(load_instance(spec.key).program)
]


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


def reference_thread_bytes(injector, cta: int) -> tuple[list[set], list[set]]:
    """Per slot of ``cta``, the window offsets its golden loads and stores
    covered: the read log decoded one load at a time by its slot counts."""
    geometry = injector.instance.geometry
    tpc = geometry.threads_per_cta
    lo = injector._win_lo
    reads: list[set] = [set() for _ in range(tpc)]
    addresses, sizes, counts = injector._cta_read_logs[cta]
    loads = iter(zip(addresses.tolist(), sizes.tolist()))
    for row in counts.tolist():
        for slot, n in enumerate(row):
            for _ in range(n):
                address, nbytes = next(loads)
                reads[slot].update(range(address - lo, address - lo + nbytes))
    assert next(loads, None) is None
    writes: list[set] = [set() for _ in range(tpc)]
    for slot in range(tpc):
        for address, raw in injector._thread_write_logs[cta * tpc + slot]:
            writes[slot].update(range(address - lo, address - lo + len(raw)))
    return reads, writes


def reference_sliceable(injector, cta: int) -> list[bool]:
    """The thread-slice gate in byte sets: an exclusive CTA's thread
    passes when its reads touch no byte a sibling writes and its writes
    touch no byte a sibling reads or writes."""
    reads, writes = reference_thread_bytes(injector, cta)
    flags = []
    for slot in range(len(reads)):
        sibling_reads = set().union(*(r for s, r in enumerate(reads) if s != slot))
        sibling_writes = set().union(*(w for s, w in enumerate(writes) if s != slot))
        flags.append(
            injector._cta_exclusive[cta]
            and not reads[slot] & sibling_writes
            and not writes[slot] & (sibling_reads | sibling_writes)
        )
    return flags


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
    count = write_mask.sum(axis=0, dtype=np.int16)
    # A CTA is exclusive when no byte it writes is written by another CTA.
    return {
        "_cta_write_mask": write_mask,
        "_cta_write_count": count,
        "_cta_exclusive": [not (write_mask[c] & (count > 1)).any() for c in range(n_ctas)],
    }


def sums_of(offset_sets, touched: list[int]) -> list[int]:
    """Prefix sums, over the ``touched`` bytes, of how many sets hold each."""
    sums = [0]
    for byte in touched:
        sums.append(sums[-1] + sum(byte in offsets for offsets in offset_sets))
    return sums


class TestOwnershipState:
    @pytest.mark.parametrize("backend", ["compiled", "vectorized"])
    @pytest.mark.parametrize("key", [spec.key for spec in all_kernels()])
    def test_matches_per_entry_reference(self, key, backend):
        injector = FaultInjector(load_instance(key), backend=backend)
        want = reference_ownership_state(injector)
        got = injector._cta_write_count
        assert got.dtype == want["_cta_write_count"].dtype
        assert np.array_equal(got, want["_cta_write_count"])
        assert injector._cta_exclusive == want["_cta_exclusive"]
        for cta in range(injector.instance.geometry.n_ctas):
            index = injector._cta_index(cta)
            assert np.array_equal(index.writes, want["_cta_write_mask"][cta])
            if not injector._slicing_enabled:
                assert index.sliceable is None
                continue
            reads, writes = reference_thread_bytes(injector, cta)
            touched = sorted(set().union(*reads, *writes))
            assert index.touched.tolist() == touched
            assert index.read_sums.tolist() == sums_of(reads, touched)
            assert index.write_sums.tolist() == sums_of(writes, touched)
            for slot, ref in enumerate(writes):
                assert index.write_offsets[slot].tolist() == sorted(ref)
            for slot, ref in enumerate(reads):
                others = set().union(*(r for s, r in enumerate(reads) if s != slot))
                assert index.sole_reads[slot].tolist() == sorted(ref - others)
            assert index.sliceable == reference_sliceable(injector, cta)
        # The index is built once per CTA, on first use.
        assert injector._cta_index(0) is injector._cta_index(0)
        space = injector.space
        sites = [sum(w for _, w in trace) for trace in injector.traces]
        assert [space.thread_sites(t) for t in range(len(sites))] == sites
        assert space.total_sites == sum(sites)

    def test_index_is_built_on_first_use(self):
        injector = FaultInjector(load_instance("gemm.k1"))
        assert injector._indexes == {}
        site = next(injector.space.iter_thread_sites(17))
        injector.inject(site)
        assert list(injector._indexes) == [1]


class TestLoadAttribution:
    @pytest.mark.parametrize("key", GLOBAL_ONLY)
    def test_identical_across_backends_and_solo_runs(self, key):
        """Each backend's golden run attributes the same loads to the same
        threads, and a thread's share is what it loads when run alone."""
        instance = load_instance(key)
        logs = {}
        for backend in ("interpreter", "compiled", "vectorized"):
            result = GPUSimulator(backend=backend).launch(
                instance.program,
                instance.geometry,
                instance.param_bytes,
                memory=instance.initial_memory.snapshot(),
                record_read_logs=True,
            )
            logs[backend] = [
                (a.tolist(), s.tolist(), c.tolist()) for a, s, c in result.cta_read_logs
            ]
        assert logs["compiled"] == logs["interpreter"]
        assert logs["vectorized"] == logs["interpreter"]
        tpc = instance.geometry.threads_per_cta
        golden = logs["interpreter"]
        cta = max(range(len(golden)), key=lambda c: len(golden[c][0]))
        addresses, sizes, counts = golden[cta]
        assert len(counts) == 1  # no barrier: one segment
        bounds = np.cumsum([0] + counts[0])
        for slot in (0, tpc // 2, tpc - 1):
            memory = instance.initial_memory.snapshot()
            memory.read_log = solo = []
            GPUSimulator().launch(
                instance.program,
                instance.geometry,
                instance.param_bytes,
                memory=memory,
                only_thread=cta * tpc + slot,
            )
            first, last = bounds[slot], bounds[slot + 1]
            assert solo == list(zip(addresses[first:last], sizes[first:last]))


class TestThreadGate:
    """The per-thread gate: a thread that shares no byte with a sibling
    thread-slices even when it reads its own output."""

    @pytest.mark.parametrize(
        "key", ["gaussian.k2", "gaussian.k126", "lud.k45", "mvt.k1", "gemm.k1", "syrk.k1"]
    )
    def test_every_pruned_site_matches_full_rerun(self, key):
        """Also the cross-CTA question for these sites: a faulty write to a
        byte another CTA only reads would show as a disagreement."""
        telemetry = Telemetry()
        injector = FaultInjector(load_instance(key), telemetry=telemetry)
        space = ProgressivePruner(num_loop_iters=2, n_bits=2, seed=2018).prune(injector)
        for weighted in space.sites:
            site = weighted.site
            assert injector.inject(site) == injector.inject_full(site), site
        # Every injection tried the thread slice first.
        metrics = telemetry.metrics
        sliced = metrics.counter_value("injections.thread_sliced")
        demoted = metrics.counter_value("injections.thread_sliced_fallback")
        assert sliced > 0
        assert sliced + demoted == space.n_injections

    def test_reading_a_sibling_output_keeps_both_threads_off(self):
        injector = FaultInjector(build_neighbour_read_instance())
        n_threads = injector.instance.geometry.n_threads
        off = [t for t in range(n_threads) if not injector._thread_sliceable(t)]
        assert off == [0, 1]
        assert injector._cta_index(0).sliceable == reference_sliceable(injector, 0)
        space = injector.space
        for thread in range(n_threads):
            for site in space.iter_thread_sites(thread):
                assert injector.inject(site) == injector.inject_full(site), site

    def test_faulty_read_of_a_sibling_byte_demotes(self):
        """Thread 2 loads ``y[2]``; flipping bit 2 of that load's address
        makes it load ``y[3]``, which its sibling writes."""
        telemetry = Telemetry()
        injector = FaultInjector(build_neighbour_read_instance(), telemetry=telemetry)
        thread = 2
        assert injector._thread_sliceable(thread)
        insns = injector.instance.program.instructions
        load = next(
            dyn
            for dyn, (pc, _) in enumerate(injector.traces[thread])
            if insns[pc].op == "ld" and insns[pc].dest.name == "yv"
        )
        spec = InjectionSpec(load - 1, 2)  # the add that forms the address
        got = injector.inject_spec(thread, spec)
        assert got == injector.inject_spec_full(thread, spec)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["injections.thread_sliced_fallback"] == 1
        assert counters["injections.cta_sliced"] == 1
        assert "injections.thread_sliced" not in counters


class TestThreadSlicing:
    @pytest.mark.parametrize(
        "key",
        [
            "2dconv.k1", "k-means.k1", "gaussian.k126", "gaussian.k2", "lud.k45",
            "mvt.k1", "gemm.k1", "syrk.k1",
        ],
    )
    def test_outcomes_match_cta_slicing(self, key):
        """Thread-sliced and CTA-sliced classification agree everywhere —
        also on kernels whose threads read their own output."""
        sliced = FaultInjector(load_instance(key))
        unsliced = FaultInjector(load_instance(key), thread_slicing=False)
        n_threads = sliced.instance.geometry.n_threads
        assert any(sliced._thread_sliceable(t) for t in range(n_threads))
        assert not any(unsliced._thread_sliceable(t) for t in range(n_threads))
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
        """No read logs, no thread attribution, no thread slice."""
        injector = pathfinder_injector
        assert injector._cta_read_logs is None
        assert injector._thread_write_logs is None
        n_threads = injector.instance.geometry.n_threads
        assert not any(injector._thread_sliceable(t) for t in range(n_threads))

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
    """Per-byte set semantics of the thread slice's interference check:
    the faulty thread read a byte a sibling wrote, or wrote a byte a
    sibling read or wrote."""
    geometry = injector.instance.geometry
    cta, slot = divmod(thread, geometry.threads_per_cta)
    lo = injector._win_lo
    reads, writes = reference_thread_bytes(injector, cta)
    sibling_reads = set().union(*(r for s, r in enumerate(reads) if s != slot))
    sibling_writes = set().union(*(w for s, w in enumerate(writes) if s != slot))
    for address, nbytes in read_log:
        if any(b - lo in sibling_writes for b in range(address, address + nbytes)):
            return True
    for address, raw in faulty_log:
        for byte in range(address - lo, address - lo + len(raw)):
            if byte in sibling_reads or byte in sibling_writes:
                return True
    return False


class TestThreadInterference:
    def test_matches_set_reference_on_shifted_spans(self, conv2d_injector, gemm_injector):
        """Writes and reads slid byte by byte across sibling-written,
        own-written, own-read and sibling-read bytes of a sliceable thread
        — on GEMM, whose threads read their own output and share reads."""
        for injector in (conv2d_injector, gemm_injector):
            geometry = injector.instance.geometry
            tpc = geometry.threads_per_cta
            thread = next(
                t
                for t in range(geometry.n_threads)
                if injector._thread_sliceable(t) and injector._thread_write_logs[t]
            )
            cta, slot = divmod(thread, tpc)
            reads, writes = reference_thread_bytes(injector, cta)
            lo = injector._win_lo
            sibling_reads = set().union(*(r for s, r in enumerate(reads) if s != slot))
            sibling = next(s for s in range(tpc) if s != slot and writes[s])
            bases = [
                lo + min(writes[slot]),  # own-written
                lo + min(writes[sibling]),  # sibling-written
                lo + min(reads[slot]),  # own-read
                lo + min(sibling_reads - reads[slot]),  # sibling-read only
                lo - 3 * injector._win_size,  # far below the window
                lo + injector._win_size,  # across and past its high edge
            ]
            checked = 0
            for base in bases:
                for delta in range(-5, 6):
                    address = base + delta
                    for log, reads in (([(address, bytes(4))], []), ([], [(address, 4)])):
                        got = injector._thread_run_interferes(thread, cta, log, reads)
                        want = reference_thread_run_interferes(
                            injector, thread, log, reads
                        )
                        assert got == want, (base, delta, log, reads)
                        checked += got
            assert 0 < checked < 132


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
        for cta in range(grid):
            index = injector._cta_index(cta)
            assert index.sliceable == reference_sliceable(injector, cta) == [False] * block
            _, writes = reference_thread_bytes(injector, cta)
            assert index.write_sums.tolist() == sums_of(writes, index.touched.tolist())

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
