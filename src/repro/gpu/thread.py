"""Per-thread functional execution.

A :class:`ThreadContext` interprets the program for one thread, running
until it blocks at a barrier, exits, or exceeds its dynamic-instruction
budget (:class:`~repro.errors.HangDetected`).  The CTA scheduler in
:mod:`~repro.gpu.cta` interleaves threads at barrier granularity, which is
exact for data-race-free kernels.

Fault injection hooks in here: when ``injection=InjectionSpec(dyn_index,
bit)`` is set, the destination register of the dynamic instruction with
that issue index has one bit flipped immediately after the instruction
writes it — the paper's single-bit-flip model for soft errors in
functional-unit outputs (the other fault models strike store addresses
or the register file).

The interpreter runs off :meth:`Program.decoded` — pre-decoded tuples with
labels resolved, widths precomputed and executors bound — and keeps the
hot loop monolithic; fault-injection campaigns execute this loop tens of
millions of times.
"""

from __future__ import annotations

import enum

from ..errors import ExecutionFault, HangDetected
from .injection import FaultModel, InjectionSpec
from .alu import condition_code, to_int, _exec_set_general
from .isa import DataType, Imm, MemRef, Param, Reg, Special
from .memory import GlobalMemory, ParamMemory, SharedMemory
from .program import Program
from .registers import RegisterFile, flip_bit
from .tracing import TraceEntry


class ThreadState(enum.Enum):
    RUNNING = "running"
    AT_BARRIER = "at_barrier"
    EXITED = "exited"


#: Opcode groups the interpreter special-cases outside the ALU table.
_CONTROL = frozenset(("nop", "ssy"))
_EXITS = frozenset(("exit", "retp"))


class ThreadContext:
    """Architectural state and interpreter loop for a single thread."""

    __slots__ = (
        "program",
        "regs",
        "pc",
        "state",
        "dyn_count",
        "max_steps",
        "trace",
        "injection",
        "specials",
        "global_mem",
        "shared_mem",
        "param_mem",
        "cp_every",
        "cp_limit",
        "cp_next",
        "cp_sink",
        "compiled",
    )

    def __init__(
        self,
        program: Program,
        specials: dict[tuple[str, str], int],
        global_mem: GlobalMemory,
        shared_mem: SharedMemory | None,
        param_mem: ParamMemory,
        max_steps: int,
        record_trace: bool = False,
        injection: InjectionSpec | None = None,
        compiled=None,
    ) -> None:
        self.program = program
        self.regs = RegisterFile()
        self.pc = 0
        self.state = ThreadState.RUNNING
        self.dyn_count = 0
        self.max_steps = max_steps
        self.trace: list[TraceEntry] | None = [] if record_trace else None
        self.injection = injection
        self.specials = specials
        self.global_mem = global_mem
        self.shared_mem = shared_mem
        self.param_mem = param_mem
        self.cp_every = 0
        self.cp_limit = -1
        self.cp_next = -1
        self.cp_sink = None
        self.compiled = compiled

    def reset(
        self,
        specials: dict[tuple[str, str], int],
        global_mem: GlobalMemory,
        shared_mem: SharedMemory | None,
        param_mem: ParamMemory,
        max_steps: int,
        record_trace: bool = False,
        injection: InjectionSpec | None = None,
        compiled=None,
    ) -> None:
        """Re-arm a pooled context for a fresh launch of the same program.

        Clears the register dict in place (the expensive part of context
        construction) and reassigns every per-launch field; equivalent to
        building a new :class:`ThreadContext` from scratch.
        """
        self.regs.values.clear()
        self.pc = 0
        self.state = ThreadState.RUNNING
        self.dyn_count = 0
        self.max_steps = max_steps
        self.trace = [] if record_trace else None
        self.injection = injection
        self.specials = specials
        self.global_mem = global_mem
        self.shared_mem = shared_mem
        self.param_mem = param_mem
        self.cp_every = 0
        self.cp_limit = -1
        self.cp_next = -1
        self.cp_sink = None
        self.compiled = compiled

    # ----------------------------------------------------------- checkpoint

    def resume_from(self, checkpoint) -> None:
        """Restore golden architectural state captured along this thread.

        ``run_until_block`` then continues at dynamic index
        ``checkpoint.dyn_index`` exactly as if the prefix had executed;
        the caller is responsible for the heap (the thread's golden write
        prefix must already be applied).
        """
        checkpoint.restore(self)

    def plan_checkpoints(self, every: int, limit: int, sink) -> None:
        """Capture ``sink(dyn, pc, regs)`` every ``every`` dynamic
        instructions, on the absolute dyn-index grid, up to ``limit``
        (inclusive) — the last dynamic index still untouched by a pending
        injection.  Captures happen at the loop head, before the
        instruction at ``dyn`` issues and before any register-file flip.

        Cost attribution: the sink itself times each capture into
        ``CheckpointStore.capture_s`` — both hot loops (compiled and
        interpreted) stay free of per-instruction instrumentation, so
        phase-attributed profiles charge capture to the sink, not the loop.
        """
        self.cp_every = every
        self.cp_limit = limit
        self.cp_sink = sink
        nxt = (self.dyn_count // every + 1) * every
        self.cp_next = nxt if nxt <= limit else -1

    # ------------------------------------------------------------------ run

    def run_until_block(self) -> None:
        """Execute until a barrier, thread exit, or the hang budget trips."""
        if self.compiled is not None:
            self._run_compiled()
        else:
            self._run_interpreted()

    def _run_compiled(self) -> None:
        """Drive a :class:`~repro.gpu.compiler.CompiledProgram`.

        Each iteration runs a whole basic block when the thread stands on
        a leader and the block ends at or before every pending boundary —
        the hang budget, the next checkpoint capture and the armed
        injection — and otherwise one instruction; so every boundary is
        observed on the same dynamic index as in :meth:`_run_interpreted`,
        and entering a block mid-way (a checkpoint resume, the armed step)
        single-steps to the next leader.  Traced runs single-step
        throughout.  The single dynamic instruction holding a pending
        fault runs through :meth:`_armed_step` (interpreter semantics) so
        outcomes, traces and write logs stay byte-identical.
        """
        prog = self.compiled
        end = prog.end
        blocks = prog.blocks
        if self.trace is None:
            sizes = prog.sizes
            steps = prog.steps
        else:
            sizes = prog.step_only
            steps = prog.traced_steps
        regs = self.regs.values
        max_steps = self.max_steps
        injection = self.injection
        arm_at = -1 if injection is None else injection.dyn_index
        consumed = False
        pc = self.pc
        dyn = self.dyn_count
        cp_next = self.cp_next
        cp_sink = self.cp_sink
        cp_every = self.cp_every
        cp_limit = self.cp_limit
        bound = _next_boundary(max_steps, cp_next, arm_at)
        try:
            while True:
                if pc >= end:
                    self.state = ThreadState.EXITED
                    return
                if dyn >= max_steps:
                    raise HangDetected(
                        f"thread exceeded {max_steps} dynamic instructions"
                    )
                if dyn == cp_next:
                    cp_sink(dyn, pc, regs)
                    cp_next += cp_every
                    if cp_next > cp_limit:
                        cp_next = -1
                    bound = _next_boundary(max_steps, cp_next, arm_at)
                if dyn == arm_at:
                    arm_at = -1
                    bound = _next_boundary(max_steps, cp_next, arm_at)
                    dyn += 1
                    pc, fired, blocked = self._armed_step(pc)
                    if fired:
                        consumed = True
                    if blocked:
                        return
                    continue
                n = sizes[pc]
                if n and dyn + n <= bound:
                    dyn += n
                    try:
                        r = blocks[pc](regs, self)
                    except BaseException as exc:
                        k = prog.fault_offset(pc, exc)
                        pc += k
                        dyn += k + 1 - n
                        raise
                else:
                    dyn += 1
                    r = steps[pc](regs, self)
                if r >= 0:
                    pc = r
                else:
                    pc = -1 - r
                    return
        finally:
            self.pc = pc
            self.dyn_count = dyn
            self.cp_next = cp_next
            if consumed:
                self.injection = None

    def _armed_step(self, pc: int) -> tuple[int, bool, bool]:
        """One dynamic instruction through interpreter semantics with the
        pending injection applied — the compiled backend's slow path.

        The caller has already counted this dynamic instruction; on a
        fault the exception propagates with ``pc`` still at the crashing
        instruction, exactly like the interpreter.  Returns
        ``(next_pc, fired, blocked)``.
        """
        (
            op, dtype, dest_name, dest_is_pred, width,
            srcs, guard, target, cmp, executor,
        ) = self.program.decoded()[pc]
        regs = self.regs.values
        specials = self.specials
        param_mem = self.param_mem
        trace = self.trace
        injection = self.injection
        bit = injection.bit
        model = injection.model
        flip_value = model is FaultModel.VALUE
        fired = False
        if model is FaultModel.REGISTER_FILE:
            reg = injection.reg
            regs[reg] = _flip_register_value(regs.get(reg, 0), bit)
            fired = True
        if guard is not None:
            zero = to_int(regs.get(guard[0], 0)) & 1
            executed = (zero == 1) if guard[1] else (zero == 0)
            if not executed:
                if trace is not None:
                    trace.append((pc, 0))
                return pc + 1, fired, False
        if trace is not None:
            trace.append((pc, width))
        if executor is not None:
            values = [
                regs.get(s.name, 0) if type(s) is Reg
                else s.value if type(s) is Imm
                else specials[(s.name, s.axis)] if type(s) is Special
                else param_mem.load(s.offset, dtype)
                for s in srcs
            ]
            value = executor(dtype, *values)
            if dest_is_pred:
                value = to_int(value) & 0xF
            regs[dest_name] = value
            if flip_value:
                self._flip_dest(regs, dest_name, dest_is_pred, dtype, bit)
                fired = True
            return pc + 1, fired, False
        if op == "bra":
            return target, fired, False
        if op == "ld":
            value = self._load(regs, srcs[0], dtype)
            if dest_is_pred:
                value = to_int(value) & 0xF
            regs[dest_name] = value
            if flip_value:
                self._flip_dest(regs, dest_name, dest_is_pred, dtype, bit)
                fired = True
            return pc + 1, fired, False
        if op == "st":
            addr_xor = 0
            if model is FaultModel.STORE_ADDRESS:
                addr_xor = 1 << bit
                fired = True
            self._store(
                regs, srcs[0], self._value(regs, srcs[1], dtype), dtype, addr_xor
            )
            return pc + 1, fired, False
        if op in ("set", "setp"):
            a = self._value(regs, srcs[0], dtype)
            b = self._value(regs, srcs[1], dtype)
            if dest_is_pred:
                value = condition_code(cmp, dtype, a, b)
            else:
                value = _exec_set_general(dtype, cmp, a, b)
            regs[dest_name] = value
            if flip_value:
                self._flip_dest(regs, dest_name, dest_is_pred, dtype, bit)
                fired = True
            return pc + 1, fired, False
        if op == "selp":
            pred = srcs[2]
            if not (type(pred) is Reg and pred.is_pred):
                raise ExecutionFault("selp selector must be a predicate register")
            zero = to_int(regs.get(pred.name, 0)) & 1
            chosen = srcs[0] if zero else srcs[1]
            value = self._value(regs, chosen, dtype)
            if dest_is_pred:
                value = to_int(value) & 0xF
            regs[dest_name] = value
            if flip_value:
                self._flip_dest(regs, dest_name, dest_is_pred, dtype, bit)
                fired = True
            return pc + 1, fired, False
        if op == "bar.sync":
            self.state = ThreadState.AT_BARRIER
            return pc + 1, fired, True
        if op in _EXITS:
            self.state = ThreadState.EXITED
            return pc + 1, fired, True
        if op in _CONTROL:
            return pc + 1, fired, False
        raise ExecutionFault(f"unhandled opcode {op!r}")  # pragma: no cover

    def _run_interpreted(self) -> None:
        decoded = self.program.decoded()
        end = len(decoded)
        regs = self.regs.values
        specials = self.specials
        param_mem = self.param_mem
        trace = self.trace
        max_steps = self.max_steps
        injection = self.injection
        # Injection plan, unpacked per model so the hot loop pays one int
        # comparison for inactive modes.
        inject_at = -1  # VALUE: flip dest after the write at this index
        store_at = -1  # STORE_ADDRESS: xor the effective address
        rf_at = -1  # REGISTER_FILE: flip a register before issue
        inject_bit = 0
        rf_reg = None
        if injection is not None:
            inject_bit = injection.bit
            if injection.model is FaultModel.VALUE:
                inject_at = injection.dyn_index
            elif injection.model is FaultModel.STORE_ADDRESS:
                store_at = injection.dyn_index
            else:
                rf_at = injection.dyn_index
                rf_reg = injection.reg
        consumed = False
        pc = self.pc
        dyn = self.dyn_count
        cp_next = self.cp_next
        cp_sink = self.cp_sink
        cp_every = self.cp_every
        cp_limit = self.cp_limit

        try:
            while True:
                if pc >= end:
                    self.state = ThreadState.EXITED
                    return
                if dyn >= max_steps:
                    raise HangDetected(
                        f"thread exceeded {max_steps} dynamic instructions"
                    )
                if dyn == cp_next:
                    # Checkpoint capture: state here is golden — the
                    # instruction at ``dyn`` has not issued and any
                    # register-file flip below has not fired.
                    cp_sink(dyn, pc, regs)
                    cp_next += cp_every
                    if cp_next > cp_limit:
                        cp_next = -1
                (
                    op, dtype, dest_name, dest_is_pred, width,
                    srcs, guard, target, cmp, executor,
                ) = decoded[pc]

                if dyn == rf_at:
                    # Register-file upset: strikes between instructions,
                    # regardless of predication.
                    regs[rf_reg] = _flip_register_value(
                        regs.get(rf_reg, 0), inject_bit
                    )
                    rf_at = -1
                    consumed = True

                if guard is not None:
                    zero = to_int(regs.get(guard[0], 0)) & 1
                    executed = (zero == 1) if guard[1] else (zero == 0)
                    if not executed:
                        if trace is not None:
                            trace.append((pc, 0))
                        dyn += 1
                        pc += 1
                        continue

                if trace is not None:
                    trace.append((pc, width))
                dyn_index = dyn
                dyn += 1

                if executor is not None:
                    # Plain ALU operation (the common case).
                    values = [
                        regs.get(s.name, 0) if type(s) is Reg
                        else s.value if type(s) is Imm
                        else specials[(s.name, s.axis)] if type(s) is Special
                        else param_mem.load(s.offset, dtype)
                        for s in srcs
                    ]
                    value = executor(dtype, *values)
                    if dest_is_pred:
                        value = to_int(value) & 0xF
                    regs[dest_name] = value
                    if dyn_index == inject_at:
                        self._flip_dest(regs, dest_name, dest_is_pred, dtype, inject_bit)
                        inject_at = -1
                        consumed = True
                    pc += 1
                    continue

                if op == "bra":
                    pc = target
                    continue
                if op == "ld":
                    value = self._load(regs, srcs[0], dtype)
                    if dest_is_pred:
                        value = to_int(value) & 0xF
                    regs[dest_name] = value
                    if dyn_index == inject_at:
                        self._flip_dest(regs, dest_name, dest_is_pred, dtype, inject_bit)
                        inject_at = -1
                        consumed = True
                    pc += 1
                    continue
                if op == "st":
                    addr_xor = 0
                    if dyn_index == store_at:
                        addr_xor = 1 << inject_bit
                        store_at = -1
                        consumed = True
                    self._store(
                        regs, srcs[0], self._value(regs, srcs[1], dtype), dtype,
                        addr_xor,
                    )
                    pc += 1
                    continue
                if op in ("set", "setp"):
                    a = self._value(regs, srcs[0], dtype)
                    b = self._value(regs, srcs[1], dtype)
                    if dest_is_pred:
                        value = condition_code(cmp, dtype, a, b)
                    else:
                        value = _exec_set_general(dtype, cmp, a, b)
                    regs[dest_name] = value
                    if dyn_index == inject_at:
                        self._flip_dest(regs, dest_name, dest_is_pred, dtype, inject_bit)
                        inject_at = -1
                        consumed = True
                    pc += 1
                    continue
                if op == "selp":
                    pred = srcs[2]
                    if not (type(pred) is Reg and pred.is_pred):
                        raise ExecutionFault("selp selector must be a predicate register")
                    zero = to_int(regs.get(pred.name, 0)) & 1
                    chosen = srcs[0] if zero else srcs[1]
                    value = self._value(regs, chosen, dtype)
                    if dest_is_pred:
                        value = to_int(value) & 0xF
                    regs[dest_name] = value
                    if dyn_index == inject_at:
                        self._flip_dest(regs, dest_name, dest_is_pred, dtype, inject_bit)
                        inject_at = -1
                        consumed = True
                    pc += 1
                    continue
                if op == "bar.sync":
                    self.state = ThreadState.AT_BARRIER
                    pc += 1
                    return
                if op in _EXITS:
                    self.state = ThreadState.EXITED
                    pc += 1
                    return
                if op in _CONTROL:
                    pc += 1
                    continue
                raise ExecutionFault(f"unhandled opcode {op!r}")  # pragma: no cover
        finally:
            self.pc = pc
            self.dyn_count = dyn
            self.cp_next = cp_next
            if consumed:
                self.injection = None

    # ------------------------------------------------------------- operands

    def _value(self, regs, operand, dtype: DataType):
        kind = type(operand)
        if kind is Reg:
            return regs.get(operand.name, 0)
        if kind is Imm:
            return operand.value
        if kind is Special:
            return self.specials[(operand.name, operand.axis)]
        if kind is Param:
            return self.param_mem.load(operand.offset, dtype)
        raise ExecutionFault(f"operand {operand!r} not readable here")

    def _load(self, regs, operand, dtype: DataType):
        if type(operand) is Param:
            return self.param_mem.load(operand.offset, dtype)
        if type(operand) is MemRef:
            address = operand.offset
            if operand.base is not None:
                address += to_int(regs.get(operand.base.name, 0))
            if operand.space == "shared":
                return self.shared_mem.load(address, dtype)  # type: ignore[union-attr]
            return self.global_mem.load(address, dtype)
        raise ExecutionFault(f"ld source {operand!r} is not a memory operand")

    def _store(self, regs, operand, value, dtype: DataType, addr_xor: int = 0) -> None:
        if type(operand) is not MemRef:
            raise ExecutionFault(f"st target {operand!r} is not a memory operand")
        address = operand.offset
        if operand.base is not None:
            address += to_int(regs.get(operand.base.name, 0))
        address ^= addr_xor  # STORE_ADDRESS fault model (no-op when 0)
        if operand.space == "shared":
            self.shared_mem.store(address, value, dtype)  # type: ignore[union-attr]
        else:
            self.global_mem.store(address, value, dtype)

    def _flip_dest(self, regs, dest_name, dest_is_pred, dtype, bit: int) -> None:
        flip_type = DataType.PRED if dest_is_pred else dtype
        regs[dest_name] = flip_bit(regs[dest_name], flip_type, bit)


def _next_boundary(max_steps: int, cp_next: int, arm_at: int) -> int:
    """The lowest pending dynamic index no block may run past."""
    bound = max_steps
    if 0 <= cp_next < bound:
        bound = cp_next
    if 0 <= arm_at < bound:
        bound = arm_at
    return bound


def _flip_register_value(value, bit: int):
    """Register-file upset on a dynamically typed register.

    Float-valued registers flip in their IEEE-754 single image; integer
    registers flip as 32-bit cells (the RF model targets the 32-bit
    architected register file, so bits are restricted to [0, 32)).
    """
    if isinstance(value, float):
        return flip_bit(value, DataType.F32, bit)
    return flip_bit(value, DataType.U32, bit)
