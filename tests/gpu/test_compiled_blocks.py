"""Block boundaries of the compiled backend, against the interpreter.

The compiled driver runs a whole basic block per iteration and falls
back to single steps wherever a block would run past a boundary it must
observe: the hang budget, a checkpoint capture, the armed injection — and
after a resume lands mid-block.  A block that raises must leave ``pc`` on
the faulting instruction with the dynamic count including it, and an
armed instruction that blocks (a barrier, an exit) must return there.
Each case below runs a fixed program on *untraced* launches (where
blocks run), places the boundary at every dynamic index — so many land
strictly inside a block — and compares the compiled backend with the
interpreter.  Every case but the blocking one also runs with the shared
scratchpad behind the vectorized backend's recording proxy, which the
generated code must reach through its method calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.gpu import (
    GPUSimulator,
    KernelBuilder,
    LaunchGeometry,
    ParamMemory,
    SharedMemory,
    pack_params,
)
from repro.gpu.injection import FaultModel, InjectionSpec
from repro.gpu.thread import ThreadContext, ThreadState
from repro.gpu.vector import _RecordingShared
from repro.telemetry import Telemetry

THREADS = 4
GEOMETRY = LaunchGeometry(grid=(1, 1), block=(THREADS, 1))
SLOT = 1
SLICE = 8


def _build():
    k = KernelBuilder("blocks")
    inp, _out = k.params("inp", "out")
    tid, a, sa, base, v, w, i, f = (
        k.reg(n) for n in ("tid", "a", "sa", "base", "v", "w", "i", "f")
    )
    p = k.pred("p")
    k.shared_alloc(THREADS * SLICE)
    k.cvt("u32", tid, k.tid.x)
    k.mul("u32", a, tid, SLICE)
    k.mul("u32", sa, tid, SLICE)
    k.ld("u32", base, inp)
    k.add("u32", a, a, base)
    with k.loop("u32", i, 0, 6, pred_name="pl"):
        k.cvt("f32", w, f)
        k.add("u32", w, i, 1, guard=(p, "ne"))  # w: a float or an int
        k.mul("u32", w, w, 2)
        k.ld("u32", v, k.global_ref(a, 0))
        k.add("u32", v, v, w)
        k.set("lt", "u32", p, v, 40)
        k.mul("u32", v, v, 3, guard=(p, "eq"))
        k.st("u32", k.global_ref(a, 0), v)
        k.st("u32", k.shared_ref(sa, 0), v)
        k.ld("u32", w, k.shared_ref(sa, 0))
        k.cvt("f32", f, w)
        k.mul("f32", f, f, 0.5)
        k.st("f32", k.global_ref(a, 4), f)
        k.emit("selp", "u32", w, (v, i, p))
        k.st("u32", k.shared_ref(sa, 4), w)
    k.retp()
    program = k.build()
    sim = GPUSimulator()
    data = np.arange(THREADS * SLICE // 4, dtype=np.uint32)
    addr = sim.alloc_array(data)
    out = sim.alloc_zeros(16)
    params = pack_params(k.param_layout, {"inp": addr, "out": out})
    return program, params, sim.memory


PROGRAM, PARAMS, MEMORY = _build()


class _Painter:
    """Stands in for the vectorized runner behind ``_RecordingShared``."""

    paint = True
    shared_board = None

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def _paint_read_scalar(self, board, lane, address, size):
        self.events.append(("r", lane, address, size))

    def _paint_write_scalar(self, board, lane, address, size):
        self.events.append(("w", lane, address, size))


def _context(backend, recording, *, max_steps=10_000, injection=None):
    memory = MEMORY.snapshot()
    memory.write_log = []
    shared = SharedMemory(PROGRAM.shared_bytes)
    painter = _Painter()
    param_mem = ParamMemory(PARAMS)
    ctx = ThreadContext(
        PROGRAM,
        GEOMETRY.specials_for(0, SLOT),
        memory,
        _RecordingShared(shared, painter, SLOT) if recording else shared,
        param_mem,
        max_steps=max_steps,
        injection=injection,
        compiled=PROGRAM.compiled(param_mem) if backend == "compiled" else None,
    )
    return ctx, memory, shared, painter


def _observe(ctx, memory, shared, painter):
    """Run to completion or failure; everything a caller can observe."""
    try:
        ctx.run_until_block()
        error = None
    except Exception as exc:  # noqa: BLE001 - compared across backends
        error = (type(exc).__name__, str(exc))
    lo, hi = memory.allocation_span()
    return (
        error,
        ctx.state,
        ctx.pc,
        ctx.dyn_count,
        list(memory.write_log),
        dict(ctx.regs),
        memory.raw_window(lo, hi),
        shared.snapshot_bytes(),
        painter.events,
    )


def _run(backend, recording, **kwargs):
    return _observe(*_context(backend, recording, **kwargs))


def _block_starts() -> set[int]:
    """Dynamic indices at which an unbounded compiled run enters a block."""
    ctx, *_ = _context("interpreter", False)
    ctx.trace = []
    ctx.run_until_block()
    sizes = PROGRAM.compiled(ParamMemory(PARAMS)).sizes
    starts, j = set(), 0
    while j < len(ctx.trace):
        starts.add(j)
        j += sizes[ctx.trace[j][0]] or 1
    return starts


GOLDEN = _run("interpreter", False)
LENGTH = GOLDEN[3]
STARTS = _block_starts()
#: Dynamic indices strictly inside a block: the cases that test fallback.
INSIDE = [d for d in range(1, LENGTH) if d not in STARTS]


def test_program_has_multi_instruction_blocks():
    assert GOLDEN[0] is None and GOLDEN[1] is ThreadState.EXITED
    assert len(INSIDE) > LENGTH // 2


@pytest.mark.parametrize("recording", [False, True], ids=["plain", "recording"])
def test_full_run_identical(recording):
    assert _run("compiled", recording) == _run("interpreter", recording)


@pytest.mark.parametrize("recording", [False, True], ids=["plain", "recording"])
def test_hang_budget_mid_block(recording):
    """(a) The budget expires at every dynamic index, inside blocks too."""
    for max_steps in range(1, LENGTH):
        got = _run("compiled", recording, max_steps=max_steps)
        want = _run("interpreter", recording, max_steps=max_steps)
        assert got[0] == ("HangDetected", f"thread exceeded {max_steps} dynamic instructions")
        assert got == want, max_steps


def _store_indices() -> list[int]:
    ctx, *_ = _context("interpreter", False)
    ctx.trace = []
    ctx.run_until_block()
    return [d for d, (pc, _w) in enumerate(ctx.trace) if PROGRAM.instructions[pc].op == "st"]


@pytest.mark.parametrize("recording", [False, True], ids=["plain", "recording"])
def test_crash_mid_block(recording):
    """(b) Stores and address registers corrupted to unmapped addresses."""
    crashed_inside = 0
    for dyn in _store_indices():  # STORE_ADDRESS: crashes at the store
        spec = InjectionSpec(dyn, 30, FaultModel.STORE_ADDRESS)
        got = _run("compiled", recording, injection=spec)
        assert got[0][0] == "MemoryFault"
        assert got == _run("interpreter", recording, injection=spec), dyn
    for dyn in range(LENGTH):  # VALUE: crashes later, inside a block
        spec = InjectionSpec(dyn, 28)
        got = _run("compiled", recording, injection=spec)
        assert got == _run("interpreter", recording, injection=spec), dyn
        if got[0] is not None and got[0][0] == "MemoryFault":
            crashed_inside += (got[3] - 1) not in STARTS
    assert crashed_inside


def test_crash_counts_match_through_the_simulator():
    """(b) ``sim.instructions`` and the write log of a crashed launch."""

    def launch(backend, dyn):
        telemetry = Telemetry()
        sim = GPUSimulator(telemetry=telemetry, backend=backend)
        memory = MEMORY.snapshot()
        memory.write_log = []
        with pytest.raises(MemoryFault) as info:
            sim.launch(
                PROGRAM, GEOMETRY, PARAMS, memory=memory, only_thread=SLOT,
                injection=(SLOT, InjectionSpec(dyn, 28)),
            )
        return (
            str(info.value),
            memory.write_log,
            telemetry.metrics.counter_value("sim.instructions"),
        )

    # The first crashing site corrupts ``tid``, from which the address
    # register ``a`` is built: the block's first global access faults.
    dyn = next(
        d for d in range(LENGTH)
        if _run("interpreter", False, injection=InjectionSpec(d, 28))[0] is not None
    )
    assert launch("compiled", dyn) == launch("interpreter", dyn)


@pytest.mark.parametrize("recording", [False, True], ids=["plain", "recording"])
@pytest.mark.parametrize("every", [1, 3, 7])
def test_checkpoint_captures_off_block_grid(every, recording):
    """(c) Captures at unaligned intervals, then resumes from each one."""

    def captures(backend):
        ctx, memory, shared, painter = _context(backend, recording)
        seen = []

        def sink(dyn, pc, regs):
            seen.append((dyn, pc, dict(regs), list(memory.write_log)))

        ctx.plan_checkpoints(every, LENGTH, sink)
        final = _observe(ctx, memory, shared, painter)
        return seen, final

    got, got_final = captures("compiled")
    want, want_final = captures("interpreter")
    assert [c[:3] for c in got] == [c[:3] for c in want]
    assert got_final == want_final
    assert any(dyn not in STARTS for dyn, *_ in got)

    for dyn, pc, regs, writes in want:  # resume mid-block, run to the end

        def resumed(backend):
            ctx, memory, shared, painter = _context(backend, recording)
            memory.apply_writes(writes)
            ctx.regs = dict(regs)
            ctx.pc, ctx.dyn_count = pc, dyn
            return _observe(ctx, memory, shared, painter)

        assert resumed("compiled") == resumed("interpreter"), dyn


def test_armed_instruction_that_blocks():
    """(d) The armed instruction can itself block: a register-file flip
    striking a ``bar.sync`` or a mid-program ``exit`` returns there, as
    the interpreter does, and the next call resumes after it."""
    k = KernelBuilder("armed_block")
    t, x = k.reg("t"), k.reg("x")
    k.cvt("u32", t, k.tid.x)
    k.add("u32", x, t, 1)
    k.bar()
    k.mul("u32", x, x, 3)
    k.add("u32", x, x, t)
    k.bar()
    k.exit()
    k.add("u32", x, x, 7)  # unreachable: the thread exits above
    k.retp()
    program = k.build()
    param_mem = ParamMemory(b"")

    def stops(backend, spec):
        ctx = ThreadContext(
            program, GEOMETRY.specials_for(0, SLOT), MEMORY.snapshot(), None,
            param_mem, max_steps=100, injection=spec,
            compiled=program.compiled(param_mem) if backend == "compiled" else None,
        )
        seen = []
        while True:  # the CTA scheduler's view: release at each barrier
            ctx.run_until_block()
            seen.append((ctx.state, ctx.pc, ctx.dyn_count, dict(ctx.regs)))
            if ctx.state is ThreadState.EXITED:
                return seen, ctx.injection
            ctx.state = ThreadState.RUNNING

    golden, _ = stops("interpreter", None)
    length = golden[-1][2]
    # Straight-line code, so the dynamic index is the pc: the flips below
    # strike both barriers and the exit among the other instructions.
    assert length == 7
    ops = [program.instructions[pc].op for pc in (2, 5, 6)]
    assert ops == ["bar.sync", "bar.sync", "exit"]
    for dyn in range(length):
        spec = InjectionSpec(dyn, 4, FaultModel.REGISTER_FILE, reg=x.name)
        got = stops("compiled", spec)
        assert got == stops("interpreter", spec), dyn
        assert got[1] is None, dyn  # the flip fired
