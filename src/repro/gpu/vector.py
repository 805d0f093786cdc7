"""Vectorised warp execution: lane-masked SIMD over an array register file.

The third execution backend (``backend="vectorized"``).  Instead of
Python-level work per thread per dynamic instruction, every CTA holds a
``(registers, lanes)`` numpy register file and each *static* instruction
executes once across all active lanes with boolean masks for guards and
divergence.  Exactness contract with the interpreter:

* integer arithmetic runs in the uint64 bits domain (values mod 2**64 plus
  a sign plane), wrapped to the operation width exactly like
  :func:`repro.gpu.registers.canonical_int`;
* ``f32`` arithmetic computes in float64 and double-rounds through
  ``float32`` — bit-identical to ``clamp_f32`` on every finite, infinite
  and NaN input;
* loads/stores resolve through numpy views over the heap, with write logs
  reconstructed from masked scatter records in run-to-barrier slot order,
  so tracing/pruning inputs stay byte-identical to the classic backends.

Everything outside that envelope abandons the lockstep attempt with
:class:`VectorFallback`, and the simulator silently re-runs the launch on
the classic compiled path.  Three things do:

* an instruction with no exact vector form (``ex2``/``lg2``, whose libm
  results numpy does not reproduce bit-exactly; predicate-typed ALU and
  memory ops; a ``selp`` whose selector is not a predicate register);
* a lane value outside the exact domains (an int/float conversion beyond
  2**53 or 2**63, NaN into an integer store, f32 store overflow, a float,
  huge or out-of-range address) — no registry kernel reaches one, so no
  lane is ever stepped on its own;
* a race: the run-to-barrier schedule is only observationally equivalent
  to the min-PC lockstep schedule used here when the CTA is data-race-free
  within each barrier segment.  A versioned paint board detects any
  cross-lane overlap on heap or shared bytes, so racy programs (the
  differential fuzzer generates them) keep their classic semantics.

Fault injection stays exact by demoting only the flip-carrying thread to a
compiled :class:`~repro.gpu.thread.ThreadContext` for the whole launch;
its segments interleave with the vector lanes at barrier granularity and
its writes splice into the logs at its slot position.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionFault, HangDetected, MemoryFault
from .alu import to_int
from .isa import (
    DataType,
    Imm,
    MemRef,
    Param,
    PRED_CARRY,
    PRED_OVERFLOW,
    PRED_SIGN,
    Reg,
    Special,
)
from .thread import ThreadState
from .tracing import (
    ADDRESS_DTYPE,
    SIZE_DTYPE,
    WIDTH_DTYPE,
    TraceTable,
    pc_dtype,
    read_log_arrays,
    slot_load_counts,
)

__all__ = ["VectorFallback", "VectorProgram"]

_U64_MASK = (1 << 64) - 1
_TWO63 = np.uint64(1 << 63)
_TWO63F = float(1 << 63)
_ZERO64 = np.uint64(0)
_ONES64 = np.uint64(_U64_MASK)
_F32_MAX = float(np.finfo(np.float32).max)


class VectorFallback(Exception):
    """The lockstep schedule cannot reproduce classic semantics here.

    Deliberately *not* a :class:`~repro.errors.SimulatorError`: the
    injector classifies those as campaign outcomes, whereas a fallback
    must stay invisible — the simulator catches it and re-runs the launch
    on the classic path.
    """


def _fallback_if(hazard) -> None:
    """Abandon the lockstep attempt if any lane is outside the envelope."""
    if hazard.any():
        raise VectorFallback("lane value outside the exact vector envelope")


# ------------------------------------------------------------------ operands

#: Operand kinds after vector decode.
_K_REG = 0
_K_CONST = 1
_K_SPECIAL = 2

#: Instruction kinds (``_Desc.kind``); ``_OP`` issues through ``_Desc.vop``.
_OP = 0
_BRA = 1
_BAR = 2
_EXIT = 3
_NOP = 4
_FAULT = 5

_VEC_INT_DTYPES = frozenset(
    (DataType.U16, DataType.U32, DataType.S32, DataType.U64, DataType.S64)
)
_VEC_FLOAT_DTYPES = frozenset((DataType.F32, DataType.F64))

_LOAD_NP = {
    DataType.U16: "<u2",
    DataType.U32: "<u4",
    DataType.S32: "<i4",
    DataType.U64: "<u8",
    DataType.S64: "<i8",
    DataType.F32: "<f4",
    DataType.F64: "<f8",
}

#: Store image dtype: the memory image of any integer store is the value
#: masked to width, written little-endian — an unsigned cast.
_STORE_NP = {
    DataType.U16: "<u2",
    DataType.U32: "<u4",
    DataType.S32: "<u4",
    DataType.U64: "<u8",
    DataType.S64: "<u8",
    DataType.F32: "<f4",
    DataType.F64: "<f8",
}


class _Desc:
    """One statically decoded instruction, specialised for vector issue.

    An ``_OP`` whose ``vop`` is None has no exact vector form.
    """

    __slots__ = (
        "pc", "op", "kind", "dtype", "width", "trace_width", "wmask", "half",
        "is_signed", "is_float", "f32", "dest_col", "dest_is_pred", "guard_col",
        "guard_want_one", "srcs", "target", "cmp", "vop",
        "space", "base_col", "mem_offset", "mem_size", "np_load", "np_store",
        "fault_exc", "true_bits", "true_neg", "sel_col",
    )

    def __init__(self, pc: int, op: str) -> None:
        self.pc = pc
        self.op = op
        self.kind = _NOP
        self.dtype = None
        self.width = 0
        self.trace_width = 0
        self.wmask = _ONES64
        self.half = _TWO63
        self.is_signed = False
        self.is_float = False
        self.f32 = False
        self.dest_col = -1
        self.dest_is_pred = False
        self.guard_col = -1
        self.guard_want_one = False
        self.srcs = ()
        self.target = -1
        self.cmp = None
        self.vop = None
        self.space = None
        self.base_col = -1
        self.mem_offset = 0
        self.mem_size = 0
        self.np_load = None
        self.np_store = None
        self.fault_exc = None
        self.true_bits = _ZERO64
        self.true_neg = False
        self.sel_col = -1


def _const_operand(value):
    """Precompute every read domain of an immediate at compile time.

    Python-side ``to_int``/``float`` conversions are exact, so constants
    never hazard at run time regardless of magnitude.
    """
    iv = to_int(value)
    bits = np.uint64(iv & _U64_MASK)
    neg = iv < 0
    try:
        fv = float(value)
    except OverflowError:  # pragma: no cover - absurd immediates
        fv = float("inf") if iv > 0 else float("-inf")
    return (_K_CONST, bits, neg, np.float64(fv), isinstance(value, float))


class VectorProgram:
    """A program decoded into :class:`_Desc` records plus a register map."""

    def __init__(self, program, param_mem) -> None:
        self.program = program
        decoded = program.decoded()
        self.end = len(decoded)
        # One column per distinct register *name*: general and predicate
        # registers share the interpreter's single per-thread dict.
        colmap: dict[str, int] = {}

        def col(name: str) -> int:
            c = colmap.get(name)
            if c is None:
                c = len(colmap)
                colmap[name] = c
            return c

        for insn in program.instructions:
            if insn.dest is not None:
                col(insn.dest.name)
            if insn.guard is not None:
                col(insn.guard.reg.name)
            for s in insn.srcs:
                if isinstance(s, Reg):
                    col(s.name)
                elif isinstance(s, MemRef) and s.base is not None:
                    col(s.base.name)
        self.colmap = colmap
        self.ncols = max(1, len(colmap))
        self.descs = [
            self._decode_one(pc, entry, colmap, param_mem)
            for pc, entry in enumerate(decoded)
        ]

    # ------------------------------------------------------------- decoding

    def _operand(self, s, dtype, colmap, param_mem):
        if type(s) is Reg:
            return (_K_REG, colmap[s.name])
        if type(s) is Imm:
            return _const_operand(s.value)
        if type(s) is Special:
            return (_K_SPECIAL, (s.name, s.axis))
        if type(s) is MemRef:
            # Address operands resolve through base_col/mem_offset; the
            # slot is never read as a value.
            return None
        if type(s) is Param:
            # Interpreter semantics evaluate the param load per use; the
            # block is immutable so folding to a constant is exact.  A
            # load that would fault at run time becomes a faulting desc.
            value = param_mem.load(s.offset, dtype)
            return _const_operand(value)
        raise ExecutionFault(f"operand {s!r} not readable here")

    def _decode_one(self, pc, entry, colmap, param_mem):
        (
            op, dtype, dest_name, dest_is_pred, width,
            srcs, guard, target, cmp, _executor,
        ) = entry
        d = _Desc(pc, op)
        d.dtype = dtype
        d.trace_width = width
        d.cmp = cmp
        d.dest_is_pred = dest_is_pred
        if dest_name is not None:
            d.dest_col = colmap[dest_name]
        if guard is not None:
            d.guard_col = colmap[guard[0]]
            d.guard_want_one = guard[1]
        if dtype is not None and dtype is not DataType.PRED:
            d.width = dtype.width
            d.wmask = np.uint64((1 << dtype.width) - 1)
            d.half = np.uint64(1 << (dtype.width - 1))
            d.is_signed = dtype.is_signed
            d.is_float = dtype.is_float
            d.f32 = dtype is DataType.F32

        if op == "bra":
            d.kind = _BRA
            d.target = target
            return d
        if op == "bar.sync":
            d.kind = _BAR
            return d
        if op in ("exit", "retp"):
            d.kind = _EXIT
            return d
        if op in ("nop", "ssy"):
            d.kind = _NOP
            return d

        try:
            d.srcs = tuple(self._operand(s, dtype, colmap, param_mem) for s in srcs)
        except MemoryFault as exc:
            d.kind = _FAULT
            d.fault_exc = exc
            return d

        # Every ``return`` below that leaves ``d.vop`` None marks an
        # instruction with no exact vector form.
        d.kind = _OP
        if op == "selp":
            # Copies register cells whatever the dtype; a non-predicate
            # selector raises on the classic paths.
            pred = srcs[2]
            if type(pred) is Reg and pred.is_pred:
                d.sel_col = colmap[pred.name]
                d.vop = _vop_selp
            return d
        if dtype not in _VEC_INT_DTYPES and dtype not in _VEC_FLOAT_DTYPES:
            return d  # predicate-typed
        if op in ("set", "setp"):
            if not dest_is_pred:
                # PTX `set` into a general register: all-ones on true, in
                # the *operation* dtype's integer image (even for float
                # dtypes — ``_wrap(-1, f32)`` is the int 0xFFFFFFFF).
                from .registers import canonical_int

                true_value = canonical_int(-1, dtype)
                d.true_bits = np.uint64(true_value & _U64_MASK)
                d.true_neg = true_value < 0
            d.vop = _vop_set
            return d
        if dest_is_pred:
            return d  # the classic paths mask it to the 4-bit code
        if op == "ld":
            src = srcs[0]
            if type(src) is Param:
                # Folded above: emit a constant move.
                d.vop = _vop_const_move
            elif type(src) is MemRef:
                d.space = src.space
                d.base_col = colmap[src.base.name] if src.base is not None else -1
                d.mem_offset = src.offset
                d.mem_size = dtype.width // 8
                d.np_load = np.dtype(_LOAD_NP[dtype])
                d.vop = _vop_ld
            return d
        if op == "st":
            tgt = srcs[0]
            if type(tgt) is MemRef:
                d.space = tgt.space
                d.base_col = colmap[tgt.base.name] if tgt.base is not None else -1
                d.mem_offset = tgt.offset
                d.mem_size = dtype.width // 8
                d.np_store = np.dtype(_STORE_NP[dtype])
                d.vop = _vop_st
            return d
        if op == "slct":
            d.vop = _vop_slct
            return d
        # ``ex2``/``lg2`` have no entry: their libm results are not
        # reproduced bit-exactly by numpy on every input.
        d.vop = _VOPS.get((op, dtype.is_float))
        return d


# ----------------------------------------------------------- vector ALU ops
#
# Each ``_vop_*`` executes one static instruction for the lane-index array
# ``idx`` (post-guard, post-trace, dyn already counted), reading operands
# through the runner's domain readers, which raise :class:`VectorFallback`
# for any lane outside the exact envelope; the caller then advances every
# lane's pc.  Integer math runs in the uint64 bits domain; float math in
# float64 with explicit double-rounding for f32.


def _vop_cvt_int(rn, d, idx):
    (a,) = rn._operands(d, idx, "b")
    rn._store_int_bits(d, idx, a)


def _vop_cvt_float(rn, d, idx):
    (a,) = rn._operands(d, idx, "f")
    rn._store_float(d, idx, rn._fround(d, a))


def _vop_const_move(rn, d, idx):
    if d.is_float:
        _vop_cvt_float(rn, d, idx)
    else:
        _vop_cvt_int(rn, d, idx)


def _vop_add_int(rn, d, idx):
    a, b = rn._operands(d, idx, "bb")
    rn._store_int_bits(d, idx, a + b)


def _vop_sub_int(rn, d, idx):
    a, b = rn._operands(d, idx, "bb")
    rn._store_int_bits(d, idx, a - b)


def _vop_mul_int(rn, d, idx):
    a, b = rn._operands(d, idx, "bb")
    rn._store_int_bits(d, idx, a * b)


def _vop_mul_wide(rn, d, idx):
    a, b = rn._operands(d, idx, "bb")
    m = np.uint64(0xFFFF)
    rn._store_int_bits(d, idx, (a & m) * (b & m))


def _vop_mad_int(rn, d, idx):
    a, b, c = rn._operands(d, idx, "bbb")
    rn._store_int_bits(d, idx, a * b + c)


def _vop_and(rn, d, idx):
    a, b = rn._operands(d, idx, "bb")
    rn._store_int_bits(d, idx, a & b)


def _vop_or(rn, d, idx):
    a, b = rn._operands(d, idx, "bb")
    rn._store_int_bits(d, idx, a | b)


def _vop_xor(rn, d, idx):
    a, b = rn._operands(d, idx, "bb")
    rn._store_int_bits(d, idx, a ^ b)


def _vop_not(rn, d, idx):
    (a,) = rn._operands(d, idx, "b")
    rn._store_int_bits(d, idx, ~a)


def _vop_shl(rn, d, idx):
    a, amt = rn._operands(d, idx, "bl")
    big = amt >= np.uint64(d.width)
    safe = np.where(big, _ZERO64, amt)
    rn._store_int_bits(d, idx, np.where(big, _ZERO64, a << safe))


def _vop_shr(rn, d, idx):
    ab, amt = rn._operands(d, idx, "il" if d.is_signed else "bl")
    big = amt >= np.uint64(d.width)
    if d.is_signed:
        bits, neg = ab
        # The int64 bit-view equals the true value for every lane except
        # huge non-negative u64 residues.
        _fallback_if(~neg & (bits >= _TWO63))
        v = bits.view(np.int64)
        safe = np.where(big, _ZERO64, amt).astype(np.int64)
        shifted = (v >> safe).view(np.uint64)
        fill = np.where(v < 0, _ONES64, _ZERO64)
        rn._store_int_bits(d, idx, np.where(big, fill, shifted))
    else:
        safe = np.where(big, _ZERO64, amt)
        rn._store_int_bits(d, idx, np.where(big, _ZERO64, (ab & d.wmask) >> safe))


def _vop_div_int(rn, d, idx):
    (ab, an), (bb, bn) = rn._operands(d, idx, "ii")
    absa = np.where(an, np.negative(ab), ab)
    absb = np.where(bn, np.negative(bb), bb)
    bz = absb == _ZERO64
    q = absa // np.where(bz, np.uint64(1), absb)
    q = np.where(an ^ bn, np.negative(q), q)
    rn._store_int_bits(d, idx, np.where(bz, _ONES64, q))


def _vop_rem_int(rn, d, idx):
    (ab, an), (bb, bn) = rn._operands(d, idx, "ii")
    absa = np.where(an, np.negative(ab), ab)
    absb = np.where(bn, np.negative(bb), bb)
    bz = absb == _ZERO64
    r = absa % np.where(bz, np.uint64(1), absb)
    r = np.where(an, np.negative(r), r)
    rn._store_int_bits(d, idx, np.where(bz, ab, r))


def _full_lt(ab, an, bb, bn):
    """``value(a) < value(b)`` on (bits mod 2**64, negative) planes."""
    return (an & ~bn) | ((an == bn) & (ab < bb))


def _vop_min_int(rn, d, idx):
    (ab, an), (bb, bn) = rn._operands(d, idx, "ii")
    # Python ``min(a, b)`` returns b only when b < a (first on ties).
    take_b = _full_lt(bb, bn, ab, an)
    rn._store_int_bits(d, idx, np.where(take_b, bb, ab))


def _vop_max_int(rn, d, idx):
    (ab, an), (bb, bn) = rn._operands(d, idx, "ii")
    take_b = _full_lt(ab, an, bb, bn)
    rn._store_int_bits(d, idx, np.where(take_b, bb, ab))


def _vop_neg_int(rn, d, idx):
    (a,) = rn._operands(d, idx, "b")
    rn._store_int_bits(d, idx, np.negative(a))


def _vop_abs_int(rn, d, idx):
    ((ab, an),) = rn._operands(d, idx, "i")
    rn._store_int_bits(d, idx, np.where(an, np.negative(ab), ab))


def _vop_add_float(rn, d, idx):
    a, b = rn._operands(d, idx, "ff")
    rn._store_float(d, idx, rn._fround(d, a + b))


def _vop_sub_float(rn, d, idx):
    a, b = rn._operands(d, idx, "ff")
    rn._store_float(d, idx, rn._fround(d, a - b))


def _vop_mul_float(rn, d, idx):
    a, b = rn._operands(d, idx, "ff")
    rn._store_float(d, idx, rn._fround(d, a * b))


def _vop_mad_float(rn, d, idx):
    a, b, c = rn._operands(d, idx, "fff")
    product = rn._fround(d, a * b)
    rn._store_float(d, idx, rn._fround(d, product + c))


def _vop_div_float(rn, d, idx):
    a, b = rn._operands(d, idx, "ff")
    # IEEE division reproduces the interpreter's x/±0 → signed-inf
    # case bit-exactly, but hardware 0/0 and nan/0 NaNs carry the
    # sign bit / input payload where the interpreter returns the
    # canonical positive ``math.nan`` — force those lanes.
    q = np.divide(a, b)
    bad = (b == 0.0) & ((a == 0.0) | np.isnan(a))
    if bad.any():
        q = np.where(bad, np.float64(np.nan), q)
    rn._store_float(d, idx, rn._fround(d, q))


def _vop_rem_float(rn, d, idx):
    a, b = rn._operands(d, idx, "ff")
    # The interpreter returns canonical ``math.nan`` for a zero
    # divisor, infinite dividend or any NaN operand; C fmod would
    # propagate input payloads / set the sign bit.
    r = np.fmod(a, b)
    bad = (b == 0.0) | np.isinf(a) | np.isnan(a) | np.isnan(b)
    if bad.any():
        r = np.where(bad, np.float64(np.nan), r)
    rn._store_float(d, idx, rn._fround(d, r))


def _vop_min_float(rn, d, idx):
    a, b = rn._operands(d, idx, "ff")
    nan_a = np.isnan(a)
    nan_b = np.isnan(b)
    res = np.where(b < a, b, a)  # first operand on ties (Python min)
    rn._store_float(d, idx, np.where(nan_a, b, np.where(nan_b, a, res)))


def _vop_max_float(rn, d, idx):
    a, b = rn._operands(d, idx, "ff")
    nan_a = np.isnan(a)
    nan_b = np.isnan(b)
    res = np.where(b > a, b, a)
    rn._store_float(d, idx, np.where(nan_a, b, np.where(nan_b, a, res)))


def _vop_neg_float(rn, d, idx):
    (a,) = rn._operands(d, idx, "f")
    rn._store_float(d, idx, np.negative(a))


def _vop_abs_float(rn, d, idx):
    (a,) = rn._operands(d, idx, "f")
    rn._store_float(d, idx, np.fabs(a))


def _vop_rcp(rn, d, idx):
    (a,) = rn._operands(d, idx, "f")
    # NaN input → canonical ``math.nan`` (the interpreter does not
    # propagate the input payload); 1/±0 → signed inf matches IEEE.
    r = np.divide(1.0, a)
    bad = np.isnan(a)
    if bad.any():
        r = np.where(bad, np.float64(np.nan), r)
    rn._store_float(d, idx, rn._fround(d, r))


def _vop_sqrt(rn, d, idx):
    (a,) = rn._operands(d, idx, "f")
    # Strictly negative input → canonical ``math.nan`` (hardware
    # sqrt returns the sign-set indefinite NaN); sqrt(-0.0) is -0.0
    # and NaN inputs propagate, identically on both paths.
    s = np.sqrt(a)
    bad = a < 0.0
    if bad.any():
        s = np.where(bad, np.float64(np.nan), s)
    rn._store_float(d, idx, rn._fround(d, s))


_VOPS = {
    ("mov", False): _vop_cvt_int,
    ("mov", True): _vop_cvt_float,
    ("cvt", False): _vop_cvt_int,
    ("cvt", True): _vop_cvt_float,
    ("add", False): _vop_add_int,
    ("add", True): _vop_add_float,
    ("sub", False): _vop_sub_int,
    ("sub", True): _vop_sub_float,
    ("mul", False): _vop_mul_int,
    ("mul", True): _vop_mul_float,
    ("mul.wide", False): _vop_mul_wide,
    ("mad", False): _vop_mad_int,
    ("mad", True): _vop_mad_float,
    ("fma", True): _vop_mad_float,
    ("div", False): _vop_div_int,
    ("div", True): _vop_div_float,
    ("rem", False): _vop_rem_int,
    ("rem", True): _vop_rem_float,
    ("min", False): _vop_min_int,
    ("min", True): _vop_min_float,
    ("max", False): _vop_max_int,
    ("max", True): _vop_max_float,
    ("neg", False): _vop_neg_int,
    ("neg", True): _vop_neg_float,
    ("abs", False): _vop_abs_int,
    ("abs", True): _vop_abs_float,
    ("rcp", True): _vop_rcp,
    ("sqrt", True): _vop_sqrt,
    ("and", False): _vop_and,
    ("or", False): _vop_or,
    ("xor", False): _vop_xor,
    ("not", False): _vop_not,
    ("shl", False): _vop_shl,
    ("shr", False): _vop_shr,
}


_NP_COMPARE = {
    "eq": np.equal,
    "ne": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}


def _int_compare(cmp, ab, an, bb, bn):
    eq = (an == bn) & (ab == bb)
    if cmp == "eq":
        return eq
    if cmp == "ne":
        return ~eq
    lt = _full_lt(ab, an, bb, bn)
    if cmp == "lt":
        return lt
    if cmp == "le":
        return lt | eq
    if cmp == "gt":
        return ~(lt | eq)
    return ~lt  # ge


def _vop_set(rn, d, idx):
    if d.is_float:
        a, b = rn._operands(d, idx, "ff")
        nanm = np.isnan(a) | np.isnan(b)
        res = np.where(nanm, d.cmp == "ne", _NP_COMPARE[d.cmp](a, b))
        if d.dest_is_pred:
            code = res.astype(np.uint64)
            code |= ((~nanm & (a < b)).astype(np.uint64)) << np.uint64(PRED_SIGN)
            rn._store_small_int(d.dest_col, idx, code)
        else:
            rn._store_cells_int(
                d.dest_col, idx,
                np.where(res, d.true_bits, _ZERO64),
                res & d.true_neg,
            )
        return
    (ab, an), (bb, bn) = rn._operands(d, idx, "ii")
    res = _int_compare(d.cmp, ab, an, bb, bn)
    if d.dest_is_pred:
        code = res.astype(np.uint64)
        sign = _full_lt(ab, an, bb, bn)
        code |= sign.astype(np.uint64) << np.uint64(PRED_SIGN)
        carry = (ab & d.wmask) < (bb & d.wmask)
        code |= carry.astype(np.uint64) << np.uint64(PRED_CARRY)
        if d.is_signed:
            # k-decomposition of ``a - b`` over the (bits, neg) planes:
            # diff = d0 - 2**64 * m with m = borrow + neg_a - neg_b.
            d0 = ab - bb
            borrow = ab < bb
            m = (
                borrow.astype(np.int8)
                + an.astype(np.int8)
                - bn.astype(np.int8)
            )
            ovf = (
                ((m == 0) & (d0 >= d.half))
                | ((m == 1) & (d0 < (_ZERO64 - d.half)))
                | (m == -1)
                | (m == 2)
            )
            code |= ovf.astype(np.uint64) << np.uint64(PRED_OVERFLOW)
        rn._store_small_int(d.dest_col, idx, code)
    else:
        rn._store_cells_int(
            d.dest_col, idx,
            np.where(res, d.true_bits, _ZERO64),
            res & d.true_neg,
        )


def _vop_selp(rn, d, idx):
    zero = rn._odd_bit(d.sel_col, idx)
    a = rn._operand_cells(d.srcs[0], idx)
    b = rn._operand_cells(d.srcs[1], idx)
    cells = tuple(np.where(zero, xa, xb) for xa, xb in zip(a, b))
    rn._store_cells(d.dest_col, idx, cells)


def _vop_slct(rn, d, idx):
    ge0 = rn._selector_ge0(d.srcs[2], idx)
    if d.is_float:
        a, b = rn._operands(d, idx, "ff")
        rn._store_float(d, idx, rn._fround(d, np.where(ge0, a, b)))
    else:
        a, b = rn._operands(d, idx, "bb")
        rn._store_int_bits(d, idx, np.where(ge0, a, b))


# ------------------------------------------------------------ memory vops


def _vop_ld(rn, d, idx):
    addr = rn._addresses(d, idx)
    size = d.mem_size
    pos = addr[:, None] + np.arange(size, dtype=np.int64)
    if d.space == "shared":
        if rn.paint:
            rn._paint_read(rn.shared_board, idx, pos)
        raw = rn.shared_view[pos]
    else:
        if rn.paint:
            rn._paint_read(rn.heap_board, idx, pos)
        if rn.record_reads:
            rn.segment_reads.append((idx, addr, size))
        raw = rn.heap_view[pos]
    vals = raw.view(d.np_load).ravel()
    kind = d.np_load.kind
    if kind == "f":
        rn._store_float(d, idx, vals.astype(np.float64))
    elif kind == "i":
        v = vals.astype(np.int64)
        rn._store_cells_int(d.dest_col, idx, v.view(np.uint64), v < 0)
    else:
        rn._store_cells_int(
            d.dest_col, idx, vals.astype(np.uint64), np.zeros(idx.size, bool)
        )


def _vop_st(rn, d, idx):
    if d.is_float:
        f = rn._read_one(d.srcs[1], idx, "f")
        if d.f32:
            # struct.pack('<f', x) raises OverflowError for finite
            # |x| > f32max where the vector cast would produce inf.
            _fallback_if(np.isfinite(f) & (np.fabs(f) > _F32_MAX))
        image = f.astype(d.np_store)
    else:
        image = rn._read_one(d.srcs[1], idx, "s").astype(d.np_store)
    addr = rn._addresses(d, idx)
    raw = image.view(np.uint8).reshape(idx.size, d.mem_size)
    pos = addr[:, None] + np.arange(d.mem_size, dtype=np.int64)
    if d.space == "shared":
        if rn.paint:
            rn._paint_write(rn.shared_board, idx, pos)
        rn.shared_view[pos] = raw
    else:
        if rn.paint:
            rn._paint_write(rn.heap_board, idx, pos)
        rn.heap_view[pos] = raw
        rn.segment_records.append(("W", idx, addr, raw))


# ------------------------------------------------------------ paint boards


class _PaintBoard:
    """Per-byte last-writer/last-reader versioned paint.

    Conflict definition (either triggers :class:`VectorFallback`): two
    distinct lanes touch the same byte within one run-to-barrier segment
    with at least one writer.  Lockstep issue is only equivalent to the
    classic slot-sequential schedule when segments are conflict-free, so
    any hit abandons the vector attempt rather than guessing an order.
    """

    __slots__ = ("wver", "wlane", "rver", "rlane", "cur")

    def __init__(self, nbytes: int) -> None:
        self.wver = np.zeros(nbytes, np.int64)
        self.wlane = np.full(nbytes, -1, np.int32)
        self.rver = np.zeros(nbytes, np.int64)
        self.rlane = np.full(nbytes, -1, np.int32)
        self.cur = 0


def _board_for(mem, nbytes: int) -> _PaintBoard:
    board = getattr(mem, "_vector_paint", None)
    if board is None or len(board.wver) != nbytes:
        board = _PaintBoard(nbytes)
        mem._vector_paint = board
    return board


#: Lane status codes.
_RUNNING = 0
_AT_BARRIER = 1
_EXITED = 2
_PARKED = 3
_SCALAR = 4

_LOW8 = np.uint64(0xFF)
_ONE64 = np.uint64(1)
_TWO62 = np.uint64(1 << 62)
_TWO53U = np.uint64(1 << 53)


class _VectorCTARunner:
    """Lockstep executor for one launch of one CTA over a 4-plane lane
    register file.

    Register value domain: each (column, lane) cell is either a float
    (``isf`` set, value in ``fval``) or a canonical int (``ibits`` holds
    value mod 2**64, ``neg`` marks values below zero) — an injective
    encoding of the interpreter's dynamically typed register dict, with
    the all-zero planes equal to the dict's ``get(name, 0)`` default.
    """

    def __init__(
        self, vprog, special_u64, heap, shared, max_steps, tracing,
        write_target, record_reads, thread_targets,
    ) -> None:
        """Zeroed lane state for one launch of one CTA over ``heap`` and
        ``shared``, logging writes to ``write_target`` (and per slot to
        ``thread_targets``).  ``special_u64`` holds one ``uint64`` lane
        array per special register, one lane per slot
        (``LaunchGeometry.lane_specials``)."""
        self.vprog = vprog
        self.special_u64 = special_u64
        self.nlanes = nlanes = len(special_u64[("tid", "x")])
        #: Narrowest lane dtype: stable argsorts on 8/16-bit keys are
        #: radix sorts.
        self.lane_key = np.min_scalar_type(nlanes - 1)
        ncols = vprog.ncols
        self.ibits = np.zeros((ncols, nlanes), np.uint64)
        self.neg = np.zeros((ncols, nlanes), bool)
        self.isf = np.zeros((ncols, nlanes), bool)
        self.fval = np.zeros((ncols, nlanes), np.float64)
        self.pcs = np.zeros(nlanes, np.int64)
        self.dyn = np.zeros(nlanes, np.int64)
        self.status = np.zeros(nlanes, np.int8)
        self.paint = nlanes > 1
        self.parked: dict[int, BaseException] = {}
        self.segment_records: list = []
        #: Global loads of the current segment: ``(lanes, addresses,
        #: size)`` in step order; flushed slot-major into ``read_parts``
        #: with the segment's per-slot load counts.
        self.segment_reads: list = []
        self.read_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.flushed: list[tuple[int, bytes]] = []
        #: ``(lanes, pc, width)`` per traced step, in step order.
        self.trace_chunks: list = []
        self.scalar_slot = -1
        self.scalar_ctx = None
        #: Per-column "may hold floats" flag — conservative fast path that
        #: lets operand reads skip the isf-plane gather for int columns.
        self.colf = np.zeros(ncols, bool)
        self.status_dirty = False
        self.heap = heap
        self.shared = shared
        self.max_steps = max_steps
        self.tracing = tracing
        self.write_target = write_target
        self.thread_targets = thread_targets
        self.record_reads = record_reads
        self.heap_view = heap.array_view()
        self.heap_bounds = heap.allocation_arrays()
        # The heap's paint board stays cached on the heap: at 24 bytes per
        # heap byte, building one costs more than running a CTA.  Each
        # launch allocates a fresh scratchpad, so its board is fresh too.
        self.heap_board = _board_for(heap, len(heap._data)) if self.paint else None
        if shared is not None:
            self.shared_view = shared.array_view()
            self.shared_len = len(shared._data)
            self.shared_board = _PaintBoard(self.shared_len) if self.paint else None
        else:
            self.shared_view = None
            self.shared_len = 0
            self.shared_board = None

    # ----------------------------------------------------------- operands

    def _read_one(self, o, idx, mode):
        """One operand across ``idx`` in read domain ``mode``.

        ``"b"``: int bits mod 2**64; ``"s"``: the same for an integer store
        image; ``"i"``: ``(bits, negative)`` planes; ``"l"``: the low byte
        (shift amounts); ``"f"``: float64.  A lane the domain cannot hold
        exactly raises :class:`VectorFallback`.
        """
        kind = o[0]
        n = idx.size
        if kind == _K_REG:
            col = o[1]
            bits = self.ibits[col, idx]
            if not self.colf[col]:
                # Column has never held a float: skip the isf gather.
                if mode == "f":
                    neg = self.neg[col, idx]
                    mag = np.where(neg, np.negative(bits), bits)
                    _fallback_if(mag > _TWO53U)
                    fi = mag.astype(np.float64)
                    return np.where(neg, np.negative(fi), fi)
                if mode == "b" or mode == "s":
                    return bits
                if mode == "i":
                    return bits, self.neg[col, idx]
                return bits & _LOW8
            isf = self.isf[col, idx]
            anyf = isf.any()
            if mode == "f":
                neg = self.neg[col, idx]
                mag = np.where(neg, np.negative(bits), bits)
                _fallback_if(~isf & (mag > _TWO53U))
                fi = mag.astype(np.float64)
                f = np.where(neg, np.negative(fi), fi)
                if anyf:
                    f = np.where(isf, self.fval[col, idx], f)
                return f
            if not anyf:
                if mode == "b" or mode == "s":
                    return bits
                if mode == "i":
                    return bits, self.neg[col, idx]
                return bits & _LOW8
            fv = self.fval[col, idx]
            finite = np.isfinite(fv)
            small = finite & (np.fabs(fv) < _TWO63F)
            ti = np.trunc(np.where(isf & small, fv, 0.0)).astype(np.int64)
            tbits = ti.view(np.uint64)
            if mode == "l":
                # The low byte of trunc(f) is provably zero for every
                # finite |f| >= 2**63 (53-bit mantissa): no hazard.
                return np.where(isf, tbits, bits) & _LOW8
            if mode == "s":
                # int-image store: float lanes with non-finite values
                # raise ValueError in ``int(value)`` on the classic path.
                _fallback_if(isf & ~small)
            else:
                _fallback_if(isf & finite & ~small)
            bits = np.where(isf, tbits, bits)
            if mode == "i":
                return bits, np.where(isf, ti < 0, self.neg[col, idx])
            return bits
        if kind == _K_CONST:
            _, cbits, cneg, cf, cisf = o
            if mode == "f":
                return np.full(n, cf, np.float64)
            if mode == "i":
                return np.full(n, cbits, np.uint64), np.full(n, cneg, bool)
            if mode == "l":
                return np.full(n, cbits & _LOW8, np.uint64)
            if mode == "s" and cisf and not np.isfinite(cf):
                # ``int(nan)`` raises on the classic store path while
                # ``to_int`` folded the immediate to 0.
                raise VectorFallback("non-finite immediate into an integer store")
            return np.full(n, cbits, np.uint64)
        arr = self.special_u64[o[1]][idx]
        if mode == "f":
            return arr.astype(np.float64)
        if mode == "i":
            return arr, np.zeros(n, bool)
        if mode == "l":
            return arr & _LOW8
        return arr

    def _operands(self, d, idx, modes):
        """``d``'s leading source operands, one per read domain in ``modes``."""
        return [self._read_one(o, idx, mode) for o, mode in zip(d.srcs, modes)]

    def _odd_bit(self, col, idx):
        """``to_int(value) & 1`` as a boolean lane vector (never hazards)."""
        bits = self.ibits[col, idx]
        if self.colf[col]:
            isf = self.isf[col, idx]
            if isf.any():
                fv = self.fval[col, idx]
                small = np.isfinite(fv) & (np.fabs(fv) < _TWO63F)
                ti = np.trunc(np.where(isf & small, fv, 0.0)).astype(np.int64)
                bits = np.where(isf, ti.view(np.uint64), bits)
        return (bits & _ONE64).astype(bool)

    def _selector_ge0(self, o, idx):
        kind = o[0]
        if kind == _K_REG:
            col = o[1]
            isf = self.isf[col, idx]
            return np.where(isf, self.fval[col, idx] >= 0.0, ~self.neg[col, idx])
        if kind == _K_CONST:
            _, _, cneg, cf, cisf = o
            value = (cf >= 0.0) if cisf else (not cneg)
            return np.full(idx.size, value, bool)
        return np.ones(idx.size, bool)

    def _operand_cells(self, o, idx):
        kind = o[0]
        n = idx.size
        if kind == _K_REG:
            col = o[1]
            return (
                self.ibits[col, idx],
                self.neg[col, idx],
                self.isf[col, idx],
                self.fval[col, idx],
            )
        if kind == _K_CONST:
            _, cbits, cneg, cf, cisf = o
            return (
                np.full(n, cbits, np.uint64),
                np.full(n, cneg, bool),
                np.full(n, cisf, bool),
                np.full(n, cf, np.float64),
            )
        arr = self.special_u64[o[1]][idx]
        return (arr, np.zeros(n, bool), np.zeros(n, bool), arr.astype(np.float64))

    # ------------------------------------------------------------- stores

    def _fround(self, d, vals):
        if d.f32:
            return vals.astype(np.float32).astype(np.float64)
        return vals

    def _store_int_bits(self, d, idx, raw):
        m = raw & d.wmask
        col = d.dest_col
        if d.is_signed:
            negv = (m & d.half) != _ZERO64
            if d.width < 64:
                bits = np.where(negv, m | (_ONES64 ^ d.wmask), m)
            else:
                bits = m
            self.neg[col, idx] = negv
        else:
            bits = m
            self.neg[col, idx] = False
        self.ibits[col, idx] = bits
        self.isf[col, idx] = False

    def _store_float(self, d, idx, vals):
        col = d.dest_col
        self.fval[col, idx] = vals
        self.isf[col, idx] = True
        self.colf[col] = True

    def _store_small_int(self, col, idx, vals):
        self.ibits[col, idx] = vals
        self.neg[col, idx] = False
        self.isf[col, idx] = False

    def _store_cells_int(self, col, idx, bits, neg):
        self.ibits[col, idx] = bits
        self.neg[col, idx] = neg
        self.isf[col, idx] = False

    def _store_cells(self, col, idx, cells):
        self.ibits[col, idx] = cells[0]
        self.neg[col, idx] = cells[1]
        self.isf[col, idx] = cells[2]
        self.fval[col, idx] = cells[3]
        if cells[2].any():
            self.colf[col] = True

    # --------------------------------------------------------- addressing

    def _addresses(self, d, idx):
        """Each lane's effective address.

        A float, huge or out-of-range address raises
        :class:`VectorFallback`: the classic paths own truncation, the
        fault and its exact heap state.
        """
        if d.base_col < 0:
            addr = np.full(idx.size, d.mem_offset, np.int64)
        else:
            col = d.base_col
            if self.colf[col]:
                _fallback_if(self.isf[col, idx])
            bits = self.ibits[col, idx]
            # Margin so ``base + offset`` cannot overflow the int64 view.
            _fallback_if(~self.neg[col, idx] & (bits >= _TWO62))
            addr = bits.view(np.int64) + np.int64(d.mem_offset)
        size = d.mem_size
        if d.space == "shared":
            ok = (addr >= 0) & (addr + size <= self.shared_len)
        else:
            bases, ends = self.heap_bounds
            j = np.searchsorted(bases, addr, side="right") - 1
            jn = np.maximum(j, 0)
            ok = (j >= 0) & (addr >= bases[jn]) & (addr + size <= ends[jn])
        _fallback_if(~ok)
        return addr

    # -------------------------------------------------------------- paint

    def _paint_write(self, board, idx, pos):
        lanes = idx.astype(np.int32)[:, None]
        cur = board.cur
        conflict = (
            (board.wver[pos] == cur) & (board.wlane[pos] != lanes)
        ) | ((board.rver[pos] == cur) & (board.rlane[pos] != lanes))
        if conflict.any():
            raise VectorFallback("cross-lane write conflict in segment")
        board.wver[pos] = cur
        board.wlane[pos] = np.broadcast_to(lanes, pos.shape)
        if not (board.wlane[pos] == lanes).all():
            raise VectorFallback("intra-step write overlap")

    def _paint_read(self, board, idx, pos):
        lanes = idx.astype(np.int32)[:, None]
        cur = board.cur
        if ((board.wver[pos] == cur) & (board.wlane[pos] != lanes)).any():
            raise VectorFallback("cross-lane read-after-write in segment")
        other = (board.rver[pos] == cur) & (board.rlane[pos] != lanes)
        board.rver[pos] = cur
        board.rlane[pos] = np.where(
            other, np.int32(-2), np.broadcast_to(lanes, pos.shape)
        )
        got = board.rlane[pos]
        fix = (got != lanes) & (got != -2)
        if fix.any():
            board.rlane[pos[fix]] = -2

    def _paint_write_scalar(self, board, lane, address, size):
        if size:
            pos = np.arange(address, address + size, dtype=np.int64)[None, :]
            self._paint_write(board, np.array([lane]), pos)

    def _paint_read_scalar(self, board, lane, address, size):
        if size:
            pos = np.arange(address, address + size, dtype=np.int64)[None, :]
            self._paint_read(board, np.array([lane]), pos)

    # ------------------------------------------------------------- launch

    def attach_scalar(self, slot, ctx):
        """Demote ``slot`` to a real ThreadContext for the whole launch.

        The flip-carrying thread runs interpreter/compiled semantics; its
        shared-memory traffic is painted through a recording proxy so the
        race detector still sees it.
        """
        self.scalar_slot = slot
        self.scalar_ctx = ctx
        self.status[slot] = _SCALAR
        if self.shared is not None:
            ctx.shared_mem = _RecordingShared(self.shared, self, slot)

    # ------------------------------------------------------------ stepping

    def _park(self, lane, exc):
        self.status[lane] = _PARKED
        self.status_dirty = True
        self.parked[lane] = exc

    def _step(self, d, idx):
        self.dyn[idx] += 1
        pc = d.pc
        if d.guard_col >= 0:
            odd = self._odd_bit(d.guard_col, idx)
            executed = odd if d.guard_want_one else ~odd
            off = idx[~executed]
            if off.size:
                if self.tracing:
                    self.trace_chunks.append((off, pc, 0))
                self.pcs[off] += 1
            idx = idx[executed]
            if not idx.size:
                return
        if self.tracing:
            self.trace_chunks.append((idx, pc, d.trace_width))
        kind = d.kind
        if kind == _OP:
            if d.vop is None:
                raise VectorFallback(f"{d.op} has no exact vector form")
            d.vop(self, d, idx)
            self.pcs[idx] += 1
            return
        if kind == _BRA:
            self.pcs[idx] = d.target
            return
        if kind == _FAULT:
            for lane in idx.tolist():
                self._park(lane, d.fault_exc)
            return
        if kind == _BAR:
            self.status[idx] = _AT_BARRIER
            self.status_dirty = True
        elif kind == _EXIT:
            self.status[idx] = _EXITED
            self.status_dirty = True
        self.pcs[idx] += 1

    def _run_vector(self):
        """Min-PC lockstep until no vector lane is RUNNING.

        The running-lane index is cached across steps — status only
        changes at barriers, exits and parks, which set ``status_dirty``.
        The hang check runs on a countdown: after observing the deepest
        lane at ``m`` dynamic instructions, no lane can reach
        ``max_steps`` for another ``max_steps - m`` steps.
        """
        pcs = self.pcs
        status = self.status
        dyn = self.dyn
        descs = self.vprog.descs
        end = self.vprog.end
        max_steps = self.max_steps
        ridx = None
        countdown = 0
        while True:
            if ridx is None or self.status_dirty:
                self.status_dirty = False
                ridx = np.flatnonzero(status == _RUNNING)
                if not ridx.size:
                    return
                countdown = 0
            rpcs = pcs[ridx]
            fin = rpcs >= end
            if fin.any():
                status[ridx[fin]] = _EXITED
                keep = ~fin
                ridx = ridx[keep]
                if not ridx.size:
                    ridx = None
                    continue
                rpcs = rpcs[keep]
            if countdown <= 0:
                over = dyn[ridx] >= max_steps
                if over.any():
                    msg = f"thread exceeded {max_steps} dynamic instructions"
                    for lane in ridx[over].tolist():
                        self._park(lane, HangDetected(msg))
                    ridx = None
                    continue
                countdown = int(max_steps - dyn[ridx].max())
            countdown -= 1
            cur = int(rpcs.min())
            self._step(descs[cur], ridx[rpcs == cur])

    def _run_scalar_segment(self):
        """One run-to-barrier segment of the demoted (injected) thread.

        The heap's write/read logs are swapped to temporaries so the
        thread's entries can be painted and spliced into the segment
        records at its slot position.
        """
        ctx = self.scalar_ctx
        heap = self.heap
        lane = self.scalar_slot
        temp_w: list = []
        temp_r: list | None = [] if self.record_reads else None
        heap.write_log = temp_w
        heap.read_log = temp_r
        try:
            ctx.run_until_block()
        except VectorFallback:
            raise
        except Exception as exc:  # noqa: BLE001 - classified by the injector
            self._park(lane, exc)
        finally:
            heap.write_log = None
            heap.read_log = None
            records = self.segment_records
            for address, raw in temp_w:
                if self.paint:
                    self._paint_write_scalar(self.heap_board, lane, address, len(raw))
                records.append(("w", lane, address, raw))
            if temp_r:
                lanes = np.array([lane])
                for address, size in temp_r:
                    if self.paint:
                        self._paint_read_scalar(self.heap_board, lane, address, size)
                    self.segment_reads.append((lanes, np.array([address]), size))

    # ------------------------------------------------------------ flushing

    def _flush_segment(self, limit=None):
        """Replay the segment's scatter records into the logs, slot-major.

        The lockstep schedule executes instructions across lanes; classic
        logs are per-thread segments in slot order.  Bucketing by lane and
        flushing slots in order reconstructs byte-identical logs.  On an
        abort, ``limit`` is the lowest parked slot: classically no slot
        above it started this segment, so their records are dropped (their
        heap bytes are repaired from the CTA entry image).
        """
        records = self.segment_records
        self.segment_records = []
        if self.segment_reads:
            self._flush_reads(limit)
        if not records:
            return
        n = self.nlanes
        wbuckets: list[list | None] = [None] * n
        for rec in records:
            if rec[0] == "W":
                _, lidx, addrs, raw = rec
                al = addrs.tolist()
                for j, lane in enumerate(lidx.tolist()):
                    b = wbuckets[lane]
                    if b is None:
                        b = wbuckets[lane] = []
                    b.append((al[j], raw[j].tobytes()))
            else:  # "w"
                _, lane, address, raw = rec
                b = wbuckets[lane]
                if b is None:
                    b = wbuckets[lane] = []
                b.append((address, raw))
        wt = self.write_target
        tt = self.thread_targets
        flushed = self.flushed
        stop = n if limit is None else limit + 1
        for slot in range(stop):
            wb = wbuckets[slot]
            if wb:
                flushed.extend(wb)
                if wt is not None:
                    wt.extend(wb)
                if tt is not None:
                    tt[slot].extend(wb)

    def _flush_reads(self, limit):
        """The segment's loads as one slot-major ``(addresses, sizes,
        counts)`` part.

        A stable sort by lane keeps each slot's loads in step order —
        exactly the order the classic schedule issues them — and the
        per-lane counts of the sorted lanes attribute them to slots.
        """
        reads = self.segment_reads
        self.segment_reads = []
        lanes = np.concatenate([r[0] for r in reads])
        addresses = np.concatenate([r[1] for r in reads])
        sizes = np.repeat(
            np.array([r[2] for r in reads], SIZE_DTYPE), [r[0].size for r in reads]
        )
        order = np.argsort(lanes.astype(self.lane_key), kind="stable")
        if limit is not None:
            order = order[lanes[order] <= limit]
        self.read_parts.append(
            (
                addresses[order].astype(ADDRESS_DTYPE),
                sizes[order],
                np.bincount(lanes[order], minlength=self.nlanes),
            )
        )

    def read_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drain the flushed loads into one ``(addresses, sizes, counts)``
        triple (see :func:`~repro.gpu.tracing.slot_load_counts`)."""
        parts = self.read_parts
        self.read_parts = []
        counts = slot_load_counts([p[2] for p in parts if p[0].size], self.nlanes)
        if not parts:
            return (*read_log_arrays([]), counts)
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            counts,
        )

    def _abort(self):
        """Classic-exact abort: repair the heap, raise the lowest slot's exc.

        Lanes above the lowest parked slot ran vector steps that classically
        never happened; restoring the CTA-entry image and replaying every
        flushed (logged) write leaves the heap exactly as the interpreter
        would have left it at the raise point.
        """
        limit = min(self.parked)
        self._flush_segment(limit)
        lo, hi = self.entry_span
        data = self.heap._data
        if hi > lo:
            data[lo:hi] = self.entry_image
        for address, raw in self.flushed:
            data[address : address + len(raw)] = raw
        raise self.parked[limit]

    def run(self):
        """Drive the CTA to completion; returns its barrier rounds."""
        lo, hi = self.heap.allocation_span()
        self.entry_span = (lo, hi)
        self.entry_image = bytes(self.heap._data[lo:hi])
        rounds = 0
        sc = self.scalar_ctx
        with np.errstate(all="ignore"):
            while True:
                if self.paint:
                    self.heap_board.cur += 1
                    if self.shared_board is not None:
                        self.shared_board.cur += 1
                self._run_vector()
                if sc is not None and sc.state is ThreadState.RUNNING:
                    # Classic slot order: a fault in a lower slot means the
                    # scalar thread never started this segment.
                    if not self.parked or min(self.parked) > self.scalar_slot:
                        self._run_scalar_segment()
                if self.parked:
                    self._abort()
                self._flush_segment()
                waiting = self.status == _AT_BARRIER
                sc_wait = sc is not None and sc.state is ThreadState.AT_BARRIER
                if waiting.any() or sc_wait:
                    rounds += 1
                    self.status[waiting] = _RUNNING
                    if sc_wait:
                        sc.state = ThreadState.RUNNING
                    continue
                return rounds

    # -------------------------------------------------------------- traces

    def trace_table(self) -> TraceTable:
        """Drain the step-ordered chunk log into this CTA's trace table.

        One ``np.repeat`` per column expands each step's pc and width over
        its lanes; a stable sort by lane then groups each lane's entries
        while preserving step order within the lane — exactly the order
        the interpreter appends them.  The demoted (injected) thread's own
        trace joins as one-lane chunks after every vector step, which the
        stable sort leaves in its issue order.
        """
        n = self.nlanes
        chunks = self.trace_chunks
        # Runners live on in reference cycles until the collector runs;
        # the chunk log is a CTA's trace over again, so let it go now.
        self.trace_chunks = []
        sc = self.scalar_ctx
        if sc is not None and sc.trace:
            slot = np.array([self.scalar_slot])
            chunks = chunks + [(slot, pc, width) for pc, width in sc.trace]
        if not chunks:
            return TraceTable.from_lists([[]] * n)
        lane_parts, step_pcs, step_widths = zip(*chunks)
        sizes = [part.size for part in lane_parts]
        lanes = np.concatenate(lane_parts).astype(self.lane_key)
        order = np.argsort(lanes, kind="stable")
        pcs = np.repeat(np.array(step_pcs, pc_dtype(max(step_pcs))), sizes)
        widths = np.repeat(np.array(step_widths, WIDTH_DTYPE), sizes)
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(lanes, minlength=n), out=offsets[1:])
        return TraceTable(pcs[order], widths[order], offsets)


class _RecordingShared:
    """Shared-memory proxy that paints the demoted thread's accesses."""

    __slots__ = ("_shared", "_runner", "_lane")

    def __init__(self, shared, runner, lane):
        self._shared = shared
        self._runner = runner
        self._lane = lane

    def load(self, address, dtype):
        value = self._shared.load(address, dtype)
        runner = self._runner
        if runner.paint:
            runner._paint_read_scalar(
                runner.shared_board, self._lane, address, dtype.width // 8
            )
        return value

    def store(self, address, value, dtype):
        self._shared.store(address, value, dtype)
        runner = self._runner
        if runner.paint:
            runner._paint_write_scalar(
                runner.shared_board, self._lane, address, dtype.width // 8
            )
