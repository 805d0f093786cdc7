"""Program specialisation into generated basic blocks (the compiled backend).

The interpreter in :mod:`repro.gpu.thread` pays a fixed CPython toll per
dynamic instruction: a 10-field decode-tuple unpack, ``type()`` dispatch
over every operand, guard re-tests and a fresh operand list.  This module
removes the toll by generating Python source for each *static*
instruction once per ``(program, parameter block)`` — operands resolved
to register-dict lookups or folded constants, parameter loads folded,
guards emitted only where present, the dtype's wrap arithmetic, condition
codes and ``ld``/``st`` memory accesses (bounds check, read/write log,
``struct`` encode/decode) written out in place — and by fusing the
instructions of each basic block into one function.

Blocks.  A *leader* is pc 0, a branch target, or the instruction after a
terminator (``bra``, ``bar.sync``, ``exit``, ``retp``).  ``blocks[pc]``
runs straight-line from leader ``pc`` through the next terminator (or the
end of the program); ``sizes[pc]`` is its instruction count, 0 off
leaders.  Every instruction of a block issues exactly once per entry —
a guard only decides whether it has an effect — so the driver advances
the dynamic-instruction count by ``sizes[pc]`` per call.

Steps.  ``steps[pc]``/``traced_steps[pc]`` run one instruction.  The
driver single-steps wherever a block would cross a boundary it must
observe (the hang budget, a checkpoint capture, the armed injection),
after entering a block mid-way (a checkpoint resume or the armed step),
and for every instruction of a traced run.  Steps and blocks are
assembled from the same per-shape emitters, so each instruction's
semantics are written once.

Specials (``%tid``/``%ctaid``/…) are read from ``ctx.specials`` at run
time, so one :class:`CompiledProgram` serves every thread of every
launch with that parameter block.

Lazy compilation.  Each table entry starts as a stub that compiles the
real function on first call and replaces itself, so a program pays only
for the code its runs reach and the code dies with the program.  Blocks
embed their operands as literals and are compiled per program.  A step's
source names its per-instruction values as parameters, so its text
depends only on the instruction's *shape* (opcode, dtype, operand kinds,
guard, memory space); steps are compiled once per shape into
``_STEP_TEMPLATES`` — bounded by the ISA, not by the programs run — and
bound per instruction by calling the template.

Protocol (the contract with ``ThreadContext._run_compiled``):

* ``blocks[pc](regs, ctx) -> r`` and ``steps[pc](regs, ctx) -> r``;
* ``r >= 0`` — the next program counter;
* ``r < 0``  — the thread blocked: the function has already set
  ``ctx.state`` (barrier or exit) and ``-1 - r`` is the resume pc.

Traced steps append ``(pc, width)`` — or ``(pc, 0)`` when a guard skips —
to ``ctx.trace`` *before* executing, exactly like the interpreter, so
traces stay byte-identical even for runs that crash mid-instruction.
When a block raises, :meth:`CompiledProgram.fault_offset` maps the
traceback's line number back to the instruction that raised, so the
driver leaves ``pc`` and the dynamic count exactly where the interpreter
would.

Constant folding never skips the destination write: a folded
instruction's result is precomputed, but the store still happens every
execution, because a fault model may have corrupted the register the
instruction is about to overwrite.

The arming layer in :mod:`repro.gpu.thread` keeps injection exact: the
single dynamic instruction carrying a flip runs on the interpreter loop
itself, the only code that applies a fault; every other instruction runs
compiled.  Instruction semantics live in exactly three places — the
interpreter, these emitters and the vector ops of :mod:`repro.gpu.vector`
— and the differential fuzz harness holds the other two to the first.
"""

from __future__ import annotations

import bisect
import struct

from ..errors import ExecutionFault, MemoryFault
from .alu import _exec_set_general, condition_code, to_int
from .isa import DataType, Imm, MemRef, Param, Reg, Special
from .memory import GlobalMemory, SharedMemory
from .registers import clamp_f32
from .thread import ThreadState

#: Opcodes that end a basic block.
_TERMINATORS = frozenset(("bra", "bar.sync", "exit", "retp"))
_CONTROL = frozenset(("nop", "ssy"))
_EXITS = frozenset(("exit", "retp"))

#: ``struct`` formats for loads (signedness decoded by the format) and
#: for stores (integers are masked to the width, then packed unsigned) —
#: byte-identical to ``memory.decode_value``/``encode_value``.
_LOAD_FORMATS = {
    DataType.U16: "<H", DataType.U32: "<I", DataType.S32: "<i",
    DataType.U64: "<Q", DataType.S64: "<q", DataType.F32: "<f",
    DataType.F64: "<d",
}
_STORE_FORMATS = {
    DataType.U16: "<H", DataType.U32: "<I", DataType.S32: "<I",
    DataType.U64: "<Q", DataType.S64: "<Q", DataType.F32: "<f",
    DataType.F64: "<d",
}

#: Names every generated function sees as globals.
_HELPERS: dict[str, object] = {
    "_ti": to_int,
    "_cl": clamp_f32,
    "_cc": condition_code,
    "_sg": _exec_set_general,
    "_GM": GlobalMemory,
    "_SM": SharedMemory,
    "_MF": MemoryFault,
    "_XF": ExecutionFault,
    "_AT_BARRIER": ThreadState.AT_BARRIER,
    "_EXITED": ThreadState.EXITED,
    **{f"_ld_{t.value}": struct.Struct(f).unpack_from for t, f in _LOAD_FORMATS.items()},
    **{f"_st_{t.value}": struct.Struct(f).pack for t, f in _STORE_FORMATS.items()},
}

#: Step template source -> ``make(*values)`` factory.  Keyed by shape
#: text only (per-instruction values are parameters), so it is bounded
#: by the instruction set, never by the number of programs compiled.
_STEP_TEMPLATES: dict[str, object] = {}


# --------------------------------------------------------------- operands
#
# Classified operands: ("r", register name), ("c", folded constant),
# ("s", specials key — read from ``ctx.specials`` at run time), or
# ("f", reader) for the rare operand that must be evaluated at run time
# (e.g. a parameter load whose fault should surface at execution, not at
# compile time, matching the interpreter).


def _classify(operand, dtype, param_mem):
    kind = type(operand)
    if kind is Reg:
        return ("r", operand.name)
    if kind is Imm:
        return ("c", operand.value)
    if kind is Special:
        return ("s", (operand.name, operand.axis))
    if kind is Param:
        try:
            return ("c", param_mem.load(operand.offset, dtype))
        except Exception:
            offset = operand.offset

            def read(regs, ctx, _o=offset, _t=dtype):
                return ctx.param_mem.load(_o, _t)

            return ("f", read)
    message = f"operand {operand!r} not readable here"

    def read(regs, ctx, _m=message):
        raise ExecutionFault(_m)

    return ("f", read)


def _is_literal(value) -> bool:
    """True when ``repr(value)`` parses back to an equal value."""
    kind = type(value)
    if kind is int or kind is str:
        return True
    return kind is tuple and all(type(v) is int or type(v) is str for v in value)


class _Source:
    """Generated lines plus the per-instruction values they reference.

    ``literal`` (blocks) spells ints, strings and tuples of them inline
    and binds anything else as a global; template mode (steps) turns
    every per-instruction value into a parameter, so the text depends
    only on the instruction's shape.

    Blocks also keep registers in locals: every write still stores to
    ``regs`` at once — so the dict is exact wherever a block raises —
    but a register read again later in the block comes from its local,
    skipping the dict lookup and, where the value's type is known, the
    domain coercion.  ``known`` maps a register to ``(local, kind)``
    (``"i"``/``"f"`` when the value is known to be an int/float); it only
    records locals assigned unconditionally, so every later read finds
    them bound.  ``conditional`` counts the guards and branches being
    emitted inside.
    """

    __slots__ = (
        "literal", "depth", "lines", "names", "values", "memory", "known",
        "conditional",
    )

    def __init__(self, literal: bool, depth: int) -> None:
        self.literal = literal
        self.depth = depth
        self.lines: list[str] = []
        self.names: list[str] = []
        self.values: list = []
        self.memory: set[str] = set()
        self.known: dict[str, tuple[str, str | None]] = {}
        self.conditional = 0

    def val(self, value) -> str:
        if self.literal and _is_literal(value):
            return repr(value)
        name = f"_{len(self.names)}"
        self.names.append(name)
        self.values.append(value)
        return name

    def put(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def read(self, var: str, reg: str, domain) -> None:
        """``var = <register reg>``, coerced to the ``"i"``/``"f"`` domain."""
        kind = None
        if reg in self.known:
            local, kind = self.known[reg]
            self.put(f"{var} = {local}")
        elif self.literal and not self.conditional:
            local = self.known.setdefault(reg, (f"r{len(self.known)}", None))[0]
            self.put(f"{var} = {local} = regs.get({reg!r}, 0)")
        else:
            self.put(f"{var} = regs.get({self.val(reg)}, 0)")
        if kind != domain:
            self.coerce(var, domain)

    def coerce(self, var: str, domain) -> None:
        if domain == "i":
            self.put(f"if type({var}) is not int:")
            self.put(f"    {var} = _ti({var})")
        elif domain == "f":
            self.put(f"if type({var}) is not float:")
            self.put(f"    {var} = float({var})")

    def target(self, reg: str) -> str:
        """Where to assign ``reg``'s new value; follow with :meth:`commit`."""
        if self.literal and (reg in self.known or not self.conditional):
            if reg not in self.known:
                self.known[reg] = (f"r{len(self.known)}", None)
            return self.known[reg][0]
        return f"regs[{self.val(reg)}]"

    def commit(self, reg: str, kind) -> None:
        """Store a value assigned through :meth:`target` into ``regs``."""
        if not (self.literal and reg in self.known):
            return
        local, old = self.known[reg]
        self.put(f"regs[{reg!r}] = {local}")
        if self.conditional and old != kind:
            kind = None  # the old value survives when the guard fails
        self.known[reg] = (local, kind)

    def assign(self, reg: str, expr: str, kind) -> None:
        self.put(f"{self.target(reg)} = {expr}")
        self.commit(reg, kind)

    def preamble(self) -> list[str]:
        """Memory-space bindings the emitted lines rely on."""
        pad = "    " * self.depth
        lines = []
        if "gm" in self.memory:
            lines += [
                f"{pad}gm = ctx.global_mem",
                f"{pad}gf = type(gm) is _GM",
                f"{pad}if gf:",
                f"{pad}    gd = gm._data",
                f"{pad}    ga = gm._allocations",
            ]
        if "sm" in self.memory:
            lines += [
                f"{pad}sm = ctx.shared_mem",
                f"{pad}sf = type(sm) is _SM",
                f"{pad}if sf:",
                f"{pad}    sd = sm._data",
                f"{pad}    sn = len(sd)",
            ]
        return lines


# -------------------------------------------------------------- emitters
#
# Each emitter appends the statements for one unguarded instruction.
# Integer/float ALU ops and set/setp inline the dtype's wrap arithmetic
# (mask-and-sign-adjust instead of ``executor`` → ``_wrap`` →
# ``canonical_int`` call chains) and compute condition codes in place;
# semantics are pinned to the interpreter executors in
# :mod:`repro.gpu.alu` by the differential fuzz harness.

_INT_BINARY_EXPRS = {
    "add": "x + y",
    "sub": "x - y",
    "mul": "x * y",
    "mul.wide": "(x & 0xffff) * (y & 0xffff)",
    "and": "x & y",
    "or": "x | y",
    "xor": "x ^ y",
    "min": "x if x < y else y",
    "max": "x if x > y else y",
}
_INT_UNARY_EXPRS = {
    "mov": "x",
    "cvt": "x",
    "not": "~x",
    "neg": "-x",
    "abs": "x if x >= 0 else -x",
}
_FLOAT_BINARY_EXPRS = {"add": "x + y", "sub": "x - y", "mul": "x * y"}
_FLOAT_UNARY_EXPRS = {"mov": "x", "cvt": "x"}
_CMP_SYMBOLS = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _emit_operand(em: _Source, var: str, src, domain) -> None:
    """``var = <operand>``, coerced to the ``"i"``/``"f"`` domain if given."""
    kind, v = src
    if kind == "r":
        em.read(var, v, domain)
        return
    if kind == "c":
        if domain == "i":
            v = to_int(v)
        elif domain == "f":
            v = float(v)
        em.put(f"{var} = {em.val(v)}")
        return
    if kind == "s":
        em.put(f"{var} = ctx.specials[{em.val(v)}]")
    else:
        em.put(f"{var} = {em.val(v)}(regs, ctx)")
    em.coerce(var, domain)


def _kind_of(value):
    """The ``known`` kind of a folded constant."""
    return {int: "i", float: "f"}.get(type(value))


def _wrap_lines(dtype, expr: str, into: str) -> list[str]:
    """Assign ``canonical_int(expr, dtype)`` without the function calls."""
    mask = (1 << dtype.width) - 1
    if not dtype.is_signed:
        return [f"{into} = ({expr}) & {mask:#x}"]
    sign = 1 << (dtype.width - 1)
    return [
        f"v = ({expr}) & {mask:#x}",
        f"if v & {sign:#x}:",
        f"    v -= {mask + 1:#x}",
        f"{into} = v",
    ]


def _shift_lines(op: str, dtype, into: str, shift: int | None) -> list[str]:
    """shl/shr of ``x`` by ``y & 0xff``, or by a folded amount ``shift``."""
    amount = "s" if shift is None else str(shift)
    if op == "shl":
        over = f"{into} = 0"
        lines = _wrap_lines(dtype, f"x << {amount}", into)
    elif dtype.is_signed:
        over = f"{into} = -1 if x < 0 else 0"
        lines = _wrap_lines(dtype, f"x >> {amount}", into)
    else:
        over = f"{into} = 0"
        lines = [f"{into} = (x & {(1 << dtype.width) - 1:#x}) >> {amount}"]
    if shift is not None:
        return [over] if shift >= dtype.width else lines
    head = ["s = y & 0xff", f"if s >= {dtype.width}:", "    " + over, "else:"]
    return head + ["    " + line for line in lines]


def _alu_lines(op: str, dtype, n: int, into: str, shift=None) -> list[str] | None:
    """Inline body for an ALU shape over loaded ``x``/``y``/``z``, or None."""
    if dtype.is_float:
        f32 = dtype is DataType.F32
        if op in ("mad", "fma") and n == 3:
            # Non-fused: the product rounds before the addition.
            return [f"{into} = _cl(_cl(x * y) + z)" if f32 else f"{into} = x * y + z"]
        if n == 2 and op in _FLOAT_BINARY_EXPRS:
            expr = _FLOAT_BINARY_EXPRS[op]
        elif n == 1 and op in _FLOAT_UNARY_EXPRS:
            expr = _FLOAT_UNARY_EXPRS[op]  # mov/cvt round like _exec_cvt
        else:
            return None
        return [f"{into} = _cl({expr})" if f32 else f"{into} = {expr}"]
    if op in ("mad", "fma") and n == 3:
        return _wrap_lines(dtype, "x * y + z", into)
    if n == 2 and op in _INT_BINARY_EXPRS:
        return _wrap_lines(dtype, _INT_BINARY_EXPRS[op], into)
    if n == 1 and op in _INT_UNARY_EXPRS:
        return _wrap_lines(dtype, _INT_UNARY_EXPRS[op], into)
    if n == 2 and op in ("shl", "shr"):
        return _shift_lines(op, dtype, into, shift)
    return None


def _set_lines(dtype, cmp: str, pred: bool, into: str) -> list[str]:
    """Integer set/setp over loaded ``x``/``y``: value or condition code."""
    sym = _CMP_SYMBOLS[cmp]
    mask = (1 << dtype.width) - 1
    if not pred:
        ones = -1 if dtype.is_signed else mask
        return [f"{into} = {ones} if x {sym} y else 0"]
    lines = [
        f"c = 1 if x {sym} y else 0",
        "e = x - y",
        "if e < 0:",
        "    c |= 2",
        f"if (x & {mask:#x}) < (y & {mask:#x}):",
        "    c |= 4",
    ]
    if dtype.is_signed:
        sign = 1 << (dtype.width - 1)
        lines += [
            f"w = e & {mask:#x}",
            f"if w & {sign:#x}:",
            f"    w -= {mask + 1:#x}",
            "if w != e:",
            "    c |= 8",
        ]
    return lines + [f"{into} = c"]


def _emit_alu(em, op, executor, dtype, dest, pred, srcs) -> None:
    if all(k == "c" for k, _ in srcs):
        try:
            value = executor(dtype, *[v for _, v in srcs])
            if pred:
                value = to_int(value) & 0xF
        except Exception:
            pass  # defer the fault to execution time, like the interpreter
        else:
            em.assign(dest, em.val(value), _kind_of(value))
            return
    if not pred and dtype is not None:
        domain = "f" if dtype.is_float else "i"
        shift = None
        if em.literal and op in ("shl", "shr") and srcs[1][0] == "c":
            shift = to_int(srcs[1][1]) & 0xFF  # folded: ``y`` is never loaded
        if _alu_lines(op, dtype, len(srcs), "v", shift) is not None:
            loads = srcs[:1] if shift is not None else srcs
            for var, src in zip("xyz", loads):
                _emit_operand(em, var, src, domain)
            for line in _alu_lines(op, dtype, len(srcs), em.target(dest), shift):
                em.put(line)
            em.commit(dest, domain)
            return
    for var, src in zip("xyz", srcs):
        _emit_operand(em, var, src, None)
    call = f"{em.val(executor)}({em.val(dtype)}, {', '.join('xyz'[: len(srcs)])})"
    if pred:
        em.assign(dest, f"_ti({call}) & 15", "i")
    else:
        em.assign(dest, call, None)


def _emit_set(em, cmp, dtype, dest, pred, srcs) -> None:
    (k0, a), (k1, b) = srcs
    if k0 == "c" and k1 == "c":
        value = (
            condition_code(cmp, dtype, a, b) if pred
            else _exec_set_general(dtype, cmp, a, b)
        )
        em.assign(dest, em.val(value), _kind_of(value))
        return
    if dtype is not None and not dtype.is_float:
        _emit_operand(em, "x", srcs[0], "i")
        _emit_operand(em, "y", srcs[1], "i")
        for line in _set_lines(dtype, cmp, pred, em.target(dest)):
            em.put(line)
        em.commit(dest, "i")
        return
    # Float compares keep NaN semantics on the alu.py implementations.
    _emit_operand(em, "x", srcs[0], None)
    _emit_operand(em, "y", srcs[1], None)
    if pred:
        em.assign(dest, f"_cc({em.val(cmp)}, {em.val(dtype)}, x, y)", "i")
    else:
        em.assign(dest, f"_sg({em.val(dtype)}, {em.val(cmp)}, x, y)", None)


def _emit_selp(em, selector, dest, pred, srcs) -> None:
    if not (type(selector) is Reg and selector.is_pred):
        em.put(f"raise _XF({em.val('selp selector must be a predicate register')})")
        return
    em.read("s", selector.name, "i")
    em.conditional += 1
    em.put("if s & 1:")
    em.depth += 1
    _emit_operand(em, "v", srcs[0], None)
    em.depth -= 1
    em.put("else:")
    em.depth += 1
    _emit_operand(em, "v", srcs[1], None)
    em.depth -= 1
    em.conditional -= 1
    if pred:
        em.assign(dest, "_ti(v) & 15", "i")
    else:
        em.assign(dest, "v", None)


def _emit_address(em, ref: MemRef) -> None:
    """``a = offset + to_int(base)``, like ``ThreadContext._load/_store``."""
    if ref.base is None:
        em.put(f"a = {em.val(ref.offset)}")
        return
    em.read("a", ref.base.name, "i")
    if ref.offset:
        em.put(f"a += {em.val(ref.offset)}")


def _emit_global_check(em, size: int) -> None:
    """``GlobalMemory._check`` for address ``a``, indented under ``if gf:``."""
    em.put("    for b, n in ga:")
    em.put(f"        if b <= a and a + {size} <= b + n:")
    em.put("            break")
    em.put("    else:")
    em.put(f"        raise _MF('global', a, {size})")


def _emit_load(em, space: str, dtype) -> None:
    """``v = <space>.load(a, dtype)``, inlined for plain memory objects."""
    t = em.val(dtype)
    size = dtype.width // 8
    mem, fast = ("sm", "sf") if space == "shared" else ("gm", "gf")
    em.memory.add(mem)
    if dtype not in _LOAD_FORMATS:
        em.put(f"v = {mem}.load(a, {t})")
        return
    unpack = f"_ld_{dtype.value}"
    em.put(f"if {fast}:")
    if space == "shared":
        em.put(f"    if a < 0 or a + {size} > sn:")
        em.put(f"        raise _MF('shared', a, {size})")
        em.put(f"    v = {unpack}(sd, a)[0]")
    else:
        _emit_global_check(em, size)
        em.put("    rl = gm.read_log")
        em.put("    if rl is not None:")
        em.put(f"        rl.append((a, {size}))")
        em.put(f"    v = {unpack}(gd, a)[0]")
    em.put("else:")
    em.put(f"    v = {mem}.load(a, {t})")


def _emit_store(em, space: str, dtype) -> None:
    """``<space>.store(a, v, dtype)``, inlined for plain memory objects."""
    t = em.val(dtype)
    mem, fast = ("sm", "sf") if space == "shared" else ("gm", "gf")
    em.memory.add(mem)
    if dtype not in _STORE_FORMATS:
        em.put(f"{mem}.store(a, v, {t})")
        return
    size = dtype.width // 8
    pack = f"_st_{dtype.value}"
    em.put(f"if {fast}:")
    if dtype.is_float:
        em.put(f"    raw = {pack}(v)")
    else:
        em.put(f"    raw = {pack}(int(v) & {(1 << dtype.width) - 1:#x})")
    if space == "shared":
        em.put(f"    if a < 0 or a + {size} > sn:")
        em.put(f"        raise _MF('shared', a, {size})")
        em.put(f"    sd[a:a + {size}] = raw")
    else:
        _emit_global_check(em, size)
        em.put(f"    gd[a:a + {size}] = raw")
        em.put("    wl = gm.write_log")
        em.put("    if wl is not None:")
        em.put("        wl.append((a, raw))")
    em.put("else:")
    em.put(f"    {mem}.store(a, v, {t})")


def _emit_ld(em, operand, dtype, dest, pred, param_mem) -> None:
    kind = None
    if type(operand) is Param:
        try:
            value = param_mem.load(operand.offset, dtype)
        except Exception:
            em.put(f"v = ctx.param_mem.load({em.val(operand.offset)}, {em.val(dtype)})")
        else:
            if pred:
                value = to_int(value) & 0xF
            em.assign(dest, em.val(value), _kind_of(value))
            return
    elif type(operand) is not MemRef:
        message = f"ld source {operand!r} is not a memory operand"
        em.put(f"raise _XF({em.val(message)})")
        return
    else:
        _emit_address(em, operand)
        _emit_load(em, operand.space, dtype)
        if dtype in _LOAD_FORMATS:
            kind = "f" if dtype.is_float else "i"
    if pred:
        em.assign(dest, "_ti(v) & 15", "i")
    else:
        em.assign(dest, "v", kind)


def _emit_st(em, operand, vsrc, dtype) -> None:
    # The value is read before the target is examined, like the interpreter.
    _emit_operand(em, "v", vsrc, None)
    if type(operand) is not MemRef:
        message = f"st target {operand!r} is not a memory operand"
        em.put(f"raise _XF({em.val(message)})")
        return
    _emit_address(em, operand)
    _emit_store(em, operand.space, dtype)


def _emit_effect(em, pc, entry, param_mem) -> None:
    """The statements of one instruction, guard and trace aside."""
    op, dtype, dest, pred, _width, srcs, _guard, target, cmp, executor = entry
    if executor is not None:
        classified = [_classify(s, dtype, param_mem) for s in srcs]
        _emit_alu(em, op, executor, dtype, dest, pred, classified)
    elif op == "bra":
        em.put(f"return {em.val(target)}")
    elif op == "ld":
        _emit_ld(em, srcs[0], dtype, dest, pred, param_mem)
    elif op == "st":
        _emit_st(em, srcs[0], _classify(srcs[1], dtype, param_mem), dtype)
    elif op in ("set", "setp"):
        classified = [_classify(s, dtype, param_mem) for s in srcs]
        _emit_set(em, cmp, dtype, dest, pred, classified)
    elif op == "selp":
        classified = [_classify(s, dtype, param_mem) for s in srcs[:2]]
        _emit_selp(em, srcs[2], dest, pred, classified)
    elif op == "bar.sync":
        em.put("ctx.state = _AT_BARRIER")
        em.put(f"return {em.val(-1 - (pc + 1))}")  # blocked; resumes at pc + 1
    elif op in _EXITS:
        em.put("ctx.state = _EXITED")
        em.put(f"return {em.val(-1 - (pc + 1))}")
    elif op not in _CONTROL:
        em.put(f"raise _XF({em.val(f'unhandled opcode {op!r}')})")


def _emit_instruction(em, pc, entry, param_mem, traced: bool) -> None:
    """Guard check, trace append (``traced``) and effect of one instruction."""
    guard = entry[6]
    if guard is not None:
        em.read("g", guard[0], "i")
        em.put("if g & 1:" if guard[1] else "if not g & 1:")
        em.depth += 1
        em.conditional += 1
    if traced:
        em.put(f"ctx.trace.append({em.val((pc, entry[4]))})")
    mark = len(em.lines)
    _emit_effect(em, pc, entry, param_mem)
    if guard is not None:
        if len(em.lines) == mark and not traced:
            em.put("pass")
        em.depth -= 1
        em.conditional -= 1
        if traced:
            em.put("else:")
            em.put(f"    ctx.trace.append({em.val((pc, 0))})")


def _make_step(pc, entry, param_mem, traced: bool):
    """One-instruction function, instantiated from its shape's template."""
    em = _Source(literal=False, depth=2)
    _emit_instruction(em, pc, entry, param_mem, traced)
    em.put(f"return {em.val(pc + 1)}")
    source = "\n".join([
        f"def make({', '.join(em.names)}):",
        "    def step(regs, ctx):",
        *em.preamble(),
        *em.lines,
        "    return step",
    ])
    make = _STEP_TEMPLATES.get(source)
    if make is None:
        namespace = dict(_HELPERS)
        exec(compile(source, "<step>", "exec"), namespace)  # noqa: S102
        make = _STEP_TEMPLATES[source] = namespace["make"]
    return make(*em.values)


def _stub(table: list, pc: int, build):
    """A placeholder that compiles ``table[pc]`` on first call."""

    def stub(regs, ctx):
        fn = table[pc] = build(pc)
        return fn(regs, ctx)

    return stub


# ------------------------------------------------------------ compilation


class CompiledProgram:
    """Generated code for one (program, parameter block).

    Shared by every thread of every launch of the program with that
    parameter block; see the module docstring for the block/step tables
    and their protocol.
    """

    __slots__ = (
        "end", "sizes", "step_only", "blocks", "steps", "traced_steps",
        "_decoded", "_param_mem", "_starts",
    )

    def __init__(self, decoded: tuple, param_mem) -> None:
        end = len(decoded)
        self.end = end
        self._decoded = decoded
        self._param_mem = param_mem
        self._starts: dict[int, tuple[int, ...]] = {}
        leaders = {0}
        for pc, entry in enumerate(decoded):
            if entry[0] in _TERMINATORS:
                leaders.add(pc + 1)
            if entry[7] is not None:
                leaders.add(entry[7])
        sizes = [0] * end
        last = end - 1  # the block's final instruction
        for pc in range(end - 1, -1, -1):
            if decoded[pc][0] in _TERMINATORS:
                last = pc
            if pc in leaders:
                sizes[pc] = last - pc + 1
        self.sizes = tuple(sizes)
        #: ``sizes`` for runs that must single-step throughout (traced runs).
        self.step_only = (0,) * end
        self.blocks: list = [None] * end
        self.steps: list = [None] * end
        self.traced_steps: list = [None] * end
        for pc in range(end):
            if sizes[pc]:
                self.blocks[pc] = _stub(self.blocks, pc, self._compile_block)
            self.steps[pc] = _stub(self.steps, pc, self._compile_step)
            self.traced_steps[pc] = _stub(self.traced_steps, pc, self._compile_traced)

    def _compile_step(self, pc: int):
        return _make_step(pc, self._decoded[pc], self._param_mem, False)

    def _compile_traced(self, pc: int):
        return _make_step(pc, self._decoded[pc], self._param_mem, True)

    def _compile_block(self, leader: int):
        n = self.sizes[leader]
        em = _Source(literal=True, depth=1)
        offsets = []
        for pc in range(leader, leader + n):
            offsets.append(len(em.lines))
            _emit_instruction(em, pc, self._decoded[pc], self._param_mem, False)
        em.put(f"return {leader + n}")
        head = ["def block(regs, ctx):", *em.preamble()]
        first = len(head) + 1  # source line number of em.lines[0]
        self._starts[leader] = tuple(first + o for o in offsets)
        namespace = dict(_HELPERS)
        namespace.update(zip(em.names, em.values))
        source = "\n".join(head + em.lines)
        exec(compile(source, f"<block {leader}>", "exec"), namespace)  # noqa: S102
        return namespace["block"]

    def fault_offset(self, leader: int, exc: BaseException) -> int:
        """Position within the block at ``leader`` of the instruction that
        raised ``exc`` (read from the traceback's line number)."""
        code = self.blocks[leader].__code__
        starts = self._starts.get(leader, ())
        tb = exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code is code:
                return max(0, bisect.bisect_right(starts, tb.tb_lineno) - 1)
            tb = tb.tb_next
        return 0


def compile_program(program, param_mem) -> CompiledProgram:
    """Specialise ``program`` against one parameter block (lazily)."""
    return CompiledProgram(program.decoded(), param_mem)
