"""Injector tests: classification, fast-path exactness, determinism."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FaultInjector, FaultSite, Outcome
from repro.errors import FaultInjectionError

from ..helpers import build_loop_sum_instance, build_saxpy_instance


@pytest.fixture(scope="module")
def saxpy():
    return FaultInjector(build_saxpy_instance())


@pytest.fixture(scope="module")
def loop_sum():
    return FaultInjector(build_loop_sum_instance())


class TestGoldenState:
    def test_golden_verified_on_construction(self, saxpy):
        assert saxpy.space.total_sites > 0

    def test_traces_define_space(self, saxpy):
        manual = sum(w for trace in saxpy.traces for _, w in trace)
        assert saxpy.space.total_sites == manual


class TestClassification:
    def test_sdc_on_output_value_flip(self, saxpy):
        # Find the mad instruction (writes yv right before the store).
        trace = saxpy.traces[0]
        mad_index = max(
            i for i, (pc, w) in enumerate(trace)
            if w == 32 and saxpy.instance.program.instructions[pc].op == "mad"
        )
        outcome = saxpy.inject(FaultSite(0, mad_index, 30))
        assert outcome is Outcome.SDC

    def test_crash_on_address_high_bit_flip(self, saxpy):
        # Flipping a high bit of the address register sends the store OOB.
        trace = saxpy.traces[0]
        addr_indices = [
            i for i, (pc, w) in enumerate(trace)
            if w == 32 and saxpy.instance.program.instructions[pc].op == "add"
            and saxpy.instance.program.instructions[pc].dest.name == "addr"
        ]
        outcome = saxpy.inject(FaultSite(0, addr_indices[-1], 31))
        assert outcome is Outcome.CRASH

    def test_loop_counter_flip_skips_iterations(self, loop_sum):
        # Flip bit 2 of the freshly initialised loop counter (0 -> 4): the
        # loop runs fewer iterations, so the partial sum corrupts silently.
        trace = loop_sum.traces[0]
        mov_j = next(
            i for i, (pc, w) in enumerate(trace)
            if w == 32 and loop_sum.instance.program.instructions[pc].dest is not None
            and loop_sum.instance.program.instructions[pc].dest.name == "j"
        )
        assert loop_sum.inject(FaultSite(0, mov_j, 2)) is Outcome.SDC

    def test_hang_on_corrupted_loop_exit_check(self):
        """A flipped exit-check predicate inside a loop whose counter is
        re-zeroed each pass would spin forever; the hang budget catches a
        counter flip that pushes the bound comparison out of reach."""
        from repro.gpu import GPUSimulator, KernelBuilder, LaunchGeometry, pack_params
        from repro.kernels.registry import KernelInstance, OutputBuffer
        import numpy as np

        k = KernelBuilder("spin_risk")
        out_ptr, = k.params("out")
        r = k.regs("j", "addr", "bound")
        k.mov("u32", r.bound, 6)
        with k.loop("u32", r.j, 0, r.bound):
            pass
        k.ld("u32", r.addr, out_ptr)
        k.st("u32", k.global_ref(r.addr), r.j)
        k.retp()
        sim = GPUSimulator()
        out_addr = sim.alloc_zeros(4)
        inst = KernelInstance(
            spec=None,
            program=k.build(),
            geometry=LaunchGeometry(grid=(1, 1), block=(1, 1)),
            param_bytes=pack_params(k.param_layout, {"out": out_addr}),
            initial_memory=sim.memory,
            outputs=(OutputBuffer("out", out_addr, np.dtype(np.uint32), 1),),
            reference={"out": np.array([6], dtype=np.uint32)},
        )
        injector = FaultInjector(inst)
        # Flip bit 31 of `bound` (6 -> 2^31+6): the loop must now run two
        # billion iterations — the hang budget trips long before that.
        assert injector.inject(FaultSite(0, 0, 31)) is Outcome.HANG

    def test_pred_upper_flags_are_masked(self, saxpy):
        trace = saxpy.traces[0]
        pred_index = next(i for i, (_pc, w) in enumerate(trace) if w == 4)
        for bit in (1, 2, 3):
            assert saxpy.inject(FaultSite(0, pred_index, bit)) is Outcome.MASKED

    def test_zero_flag_flip_changes_behavior(self, saxpy):
        # Thread 0 is in range; flipping the zero flag makes it skip the
        # body -> its output element is never written -> SDC.
        trace = saxpy.traces[0]
        pred_index = next(i for i, (_pc, w) in enumerate(trace) if w == 4)
        assert saxpy.inject(FaultSite(0, pred_index, 0)) is Outcome.SDC


class TestSiteValidation:
    def test_bad_thread(self, saxpy):
        with pytest.raises(FaultInjectionError):
            saxpy.inject(FaultSite(10_000, 0, 0))

    def test_bad_dyn_index(self, saxpy):
        with pytest.raises(FaultInjectionError):
            saxpy.inject(FaultSite(0, 10_000, 0))

    def test_bad_bit(self, saxpy):
        with pytest.raises(FaultInjectionError):
            saxpy.inject(FaultSite(0, 0, 99))

    def test_zero_width_site_rejected(self, saxpy):
        trace = saxpy.traces[0]
        store_index = next(i for i, (_pc, w) in enumerate(trace) if w == 0)
        with pytest.raises(FaultInjectionError):
            saxpy.inject(FaultSite(0, store_index, 0))

    def test_value_bit_checked_on_every_entry(self, saxpy):
        from repro.faults.model import InjectionSpec

        width = saxpy.traces[0][0][1]
        for inject in (saxpy.inject_spec, saxpy.inject_spec_full):
            with pytest.raises(FaultInjectionError):
                inject(0, InjectionSpec(0, width))

    def test_unwritten_register_rejected(self, saxpy):
        from repro.faults.model import RegisterFileSite

        site = RegisterFileSite(0, 3, "nosuch", 2)
        for inject in (saxpy.inject_spec, saxpy.inject_spec_full):
            with pytest.raises(FaultInjectionError, match="never writes"):
                inject(site.thread, site.spec())


class TestFastPathExactness:
    def test_fastpath_matches_full_on_sample(self, saxpy):
        rng = np.random.default_rng(3)
        for site in saxpy.space.sample(60, rng):
            assert saxpy.inject(site) == saxpy.inject_full(site)

    def test_injection_is_deterministic(self, saxpy):
        rng = np.random.default_rng(5)
        sites = saxpy.space.sample(20, rng)
        first = [saxpy.inject(s) for s in sites]
        second = [saxpy.inject(s) for s in sites]
        assert first == second

    def test_fastpath_matches_full_on_real_kernel(self, conv2d_injector):
        rng = np.random.default_rng(11)
        for site in conv2d_injector.space.sample(25, rng):
            assert conv2d_injector.inject(site) == conv2d_injector.inject_full(site)

    def test_fastpath_matches_full_on_shared_memory_kernel(self, pathfinder_injector):
        rng = np.random.default_rng(13)
        for site in pathfinder_injector.space.sample(25, rng):
            assert pathfinder_injector.inject(site) == pathfinder_injector.inject_full(
                site
            )

    def test_golden_state_unchanged_by_injections(self, saxpy):
        before = saxpy.instance.output_bytes(saxpy._golden_memory)
        rng = np.random.default_rng(17)
        for site in saxpy.space.sample(10, rng):
            saxpy.inject(site)
        after = saxpy.instance.output_bytes(saxpy._golden_memory)
        assert before == after
