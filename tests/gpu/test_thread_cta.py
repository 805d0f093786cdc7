"""Execution-level tests: guards, branching, barriers, hangs, injection."""

import pytest

from repro.errors import HangDetected
from repro.gpu import GPUSimulator, KernelBuilder, LaunchGeometry, pack_params
from repro.gpu.injection import InjectionSpec
from repro.gpu.memory import GlobalMemory, ParamMemory, SharedMemory
from repro.gpu.thread import ThreadContext, ThreadState
from repro.gpu.cta import run_cta


def _run_single(k: KernelBuilder, max_steps=10_000, injection=None, shared_bytes=None):
    program = k.build()
    shared = SharedMemory(program.shared_bytes) if program.shared_bytes else None
    thread = ThreadContext(
        program,
        {("tid", "x"): 0, ("tid", "y"): 0, ("ctaid", "x"): 0, ("ctaid", "y"): 0,
         ("ntid", "x"): 1, ("ntid", "y"): 1, ("nctaid", "x"): 1, ("nctaid", "y"): 1},
        GlobalMemory(),
        shared,
        ParamMemory(b"\x00" * program.param_bytes),
        max_steps=max_steps,
        record_trace=True,
        injection=injection,
    )
    thread.run_until_block()
    return thread


class TestControlFlow:
    def test_falls_off_end_exits(self):
        k = KernelBuilder("t")
        k.nop()
        thread = _run_single(k)
        assert thread.state is ThreadState.EXITED

    def test_retp_exits(self):
        k = KernelBuilder("t")
        k.retp()
        k.nop()  # unreachable
        thread = _run_single(k)
        assert thread.dyn_count == 1

    def test_guarded_off_instruction_counts_but_does_not_write(self):
        k = KernelBuilder("t")
        r = k.regs("a")
        p = k.pred()
        k.set("eq", "u32", p, 1, 2)  # false -> zero flag clear
        k.mov("u32", r.a, 42, guard=(p, "eq"))
        k.retp()
        thread = _run_single(k)
        assert thread.regs.get("a", 0) == 0
        assert thread.dyn_count == 3
        # The predicated-off slot is in the trace with zero width.
        assert thread.trace[1][1] == 0

    def test_guard_ne_executes_on_false(self):
        k = KernelBuilder("t")
        r = k.regs("a")
        p = k.pred()
        k.set("eq", "u32", p, 1, 2)
        k.mov("u32", r.a, 42, guard=(p, "ne"))
        k.retp()
        thread = _run_single(k)
        assert thread.regs.get("a", 0) == 42

    def test_backward_branch_loops(self):
        k = KernelBuilder("t")
        r = k.regs("i")
        with k.loop("u32", r.i, 0, 5):
            pass
        k.retp()
        thread = _run_single(k)
        assert thread.regs.get("i", 0) == 5

    def test_hang_budget_enforced(self):
        k = KernelBuilder("t")
        k.label("spin")
        k.bra("spin")
        with pytest.raises(HangDetected):
            _run_single(k, max_steps=50)

    def test_selp_picks_by_zero_flag(self):
        k = KernelBuilder("t")
        r = k.regs("a")
        p = k.pred()
        k.set("eq", "u32", p, 3, 3)
        k.selp("u32", r.a, 10, 20, p)
        k.set("eq", "u32", p, 3, 4)
        k.selp("u32", r.a, r.a, 99, p)
        k.retp()
        thread = _run_single(k)
        assert thread.regs.get("a", 0) == 99

    def test_injection_flips_dest_after_write(self):
        k = KernelBuilder("t")
        r = k.regs("a")
        k.mov("u32", r.a, 0)
        k.retp()
        thread = _run_single(k, injection=InjectionSpec(0, 5))
        assert thread.regs.get("a", 0) == 32
        assert thread.injection is None  # consumed

    def test_injection_on_pred_flips_flag(self):
        k = KernelBuilder("t")
        r = k.regs("a")
        p = k.pred()
        k.set("eq", "u32", p, 1, 2)  # zero flag clear
        k.mov("u32", r.a, 42, guard=(p, "eq"))
        k.retp()
        thread = _run_single(k, injection=InjectionSpec(0, 0))  # flip zero flag
        assert thread.regs.get("a", 0) == 42  # guard now passes


class TestBarriers:
    def _counting_kernel(self, n_threads):
        """Each thread publishes tid to shared, barrier, reads neighbour."""
        k = KernelBuilder("t")
        base = k.shared_alloc(n_threads * 4)
        r = k.regs("tx", "addr", "v")
        k.cvt("u32", r.tx, k.tid.x)
        k.shl("u32", r.addr, r.tx, 2)
        k.st("u32", k.shared_ref(r.addr, base), r.tx)
        k.bar()
        # read (tx+1) mod n
        k.add("u32", r.v, r.tx, 1)
        k.rem("u32", r.v, r.v, n_threads)
        k.shl("u32", r.addr, r.v, 2)
        k.ld("u32", r.v, k.shared_ref(r.addr, base))
        k.retp()
        return k.build()

    def test_barrier_orders_shared_memory(self):
        n = 4
        program = self._counting_kernel(n)
        shared = SharedMemory(program.shared_bytes)
        heap = GlobalMemory()
        params = ParamMemory(b"")
        threads = [
            ThreadContext(
                program,
                {("tid", "x"): t, ("tid", "y"): 0, ("ctaid", "x"): 0,
                 ("ctaid", "y"): 0, ("ntid", "x"): n, ("ntid", "y"): 1,
                 ("nctaid", "x"): 1, ("nctaid", "y"): 1},
                heap, shared, params, max_steps=1000,
            )
            for t in range(n)
        ]
        run_cta(threads)
        for t, thread in enumerate(threads):
            assert thread.regs.get("v", 0) == (t + 1) % n

    def test_exited_thread_does_not_deadlock_barrier(self):
        # Thread 0 exits before the barrier; thread 1 still passes it.
        k = KernelBuilder("t")
        r = k.regs("tx")
        p = k.pred()
        k.cvt("u32", r.tx, k.tid.x)
        k.set("eq", "u32", p, r.tx, 0)
        k.retp(guard=(p, "eq"))
        k.bar()
        k.mov("u32", r.tx, 99)
        k.retp()
        program = k.build()
        heap = GlobalMemory()
        params = ParamMemory(b"")
        threads = [
            ThreadContext(
                program,
                {("tid", "x"): t, ("tid", "y"): 0, ("ctaid", "x"): 0,
                 ("ctaid", "y"): 0, ("ntid", "x"): 2, ("ntid", "y"): 1,
                 ("nctaid", "x"): 1, ("nctaid", "y"): 1},
                heap, None, params, max_steps=1000,
            )
            for t in range(2)
        ]
        run_cta(threads)
        assert threads[0].regs.get("tx", 0) == 0
        assert threads[1].regs.get("tx", 0) == 99
