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
  so tracing/pruning inputs stay byte-identical to the classic backends;
* any lane whose value leaves the exactly-vectorisable envelope (huge
  integers, NaN in integer stores, out-of-range addresses, ``ex2``/``lg2``
  libm calls) is demoted for that instruction to a per-lane scalar step
  with interpreter semantics.

The run-to-barrier schedule is only observationally equivalent to the
min-PC lockstep schedule used here when the CTA is data-race-free within
each barrier segment.  A versioned paint board detects any cross-lane
overlap on heap or shared bytes and raises :class:`VectorFallback`; the
simulator then silently re-runs the launch on the classic compiled path,
so racy programs (the differential fuzzer generates them) keep their
classic semantics.

Fault injection stays exact by demoting only the flip-carrying thread to a
compiled :class:`~repro.gpu.thread.ThreadContext` for the whole launch;
its segments interleave with the vector lanes at barrier granularity and
its writes splice into the logs at its slot position.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionFault, HangDetected, MemoryFault, SimulatorError
from ..telemetry import SimRunEvent
from .alu import EXECUTORS, condition_code, to_int, _exec_set_general
from .checkpoint import CTACheckpoint
from .injection import FaultModel
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
from .memory import SharedMemory, decode_value, encode_value
from .thread import ThreadContext, ThreadState

__all__ = ["VectorFallback", "CompactTrace", "VectorProgram", "launch_vectorized"]

_U64_MASK = (1 << 64) - 1
_U64 = np.uint64
_I64 = np.int64
_TWO63 = np.uint64(1 << 63)
_TWO63F = float(1 << 63)
_TWO53F = float(1 << 53)
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


class CompactTrace:
    """A per-thread dynamic trace stored as parallel numpy arrays.

    List-compatible with the classic ``[(pc, width), ...]`` traces for
    every consumer in the tree (``len``, iteration, indexing, equality,
    pickling), at a fraction of the memory — the difference between a
    paper-scale 16384-thread golden trace fitting in a few hundred MB and
    not fitting at all.
    """

    __slots__ = ("pcs", "widths")

    def __init__(self, pcs: np.ndarray, widths: np.ndarray) -> None:
        self.pcs = pcs
        self.widths = widths

    def __len__(self) -> int:
        return len(self.pcs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self.pcs[index].tolist(), self.widths[index].tolist()))
        return (int(self.pcs[index]), int(self.widths[index]))

    def __iter__(self):
        return iter(zip(self.pcs.tolist(), self.widths.tolist()))

    def __eq__(self, other):
        if isinstance(other, CompactTrace):
            return np.array_equal(self.pcs, other.pcs) and np.array_equal(
                self.widths, other.widths
            )
        if isinstance(other, (list, tuple)):
            if len(other) != len(self.pcs):
                return False
            return all(
                p == op and w == ow
                for (p, w), (op, ow) in zip(self, other)
            )
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return (CompactTrace, (self.pcs, self.widths))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompactTrace({len(self.pcs)} entries)"


# ------------------------------------------------------------------ operands

#: Operand kinds after vector decode.
_K_REG = 0
_K_CONST = 1
_K_SPECIAL = 2

#: Instruction kinds (``_Desc.kind``).
_ALU = 0
_LD = 1
_ST = 2
_SET = 3
_SELP = 4
_SLCT = 5
_BRA = 6
_BAR = 7
_EXIT = 8
_NOP = 9
_FAULT = 10

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

#: Ops whose scalar semantics route through libm / Python-float paths that
#: numpy does not reproduce bit-exactly on every input.
_SCALAR_ONLY_OPS = frozenset(("ex2", "lg2"))


class _Desc:
    """One statically decoded instruction, specialised for vector issue."""

    __slots__ = (
        "pc", "op", "kind", "dtype", "width", "trace_width", "wmask", "half",
        "is_signed", "is_float", "f32", "dest_col", "dest_is_pred", "guard_col",
        "guard_want_one", "srcs", "target", "cmp", "vop", "scalar_only",
        "space", "base_col", "mem_offset", "mem_size", "np_load", "np_store",
        "fault_exc", "true_bits", "true_neg", "sel_col", "executor", "raw_srcs",
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
        self.scalar_only = False
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
        self.executor = None
        self.raw_srcs = ()


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
        # Trace pc dtype: int16 comfortably covers every real program and
        # halves golden-trace memory at paper scale.
        self.pc_dtype = np.int16 if self.end < 32767 else np.int32

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
            srcs, guard, target, cmp, executor,
        ) = entry
        d = _Desc(pc, op)
        d.dtype = dtype
        d.trace_width = width
        d.cmp = cmp
        d.executor = executor
        d.raw_srcs = srcs
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

        vectorizable = dtype in _VEC_INT_DTYPES or dtype in _VEC_FLOAT_DTYPES
        try:
            d.srcs = tuple(self._operand(s, dtype, colmap, param_mem) for s in srcs)
        except MemoryFault as exc:
            d.kind = _FAULT
            d.fault_exc = exc
            return d

        if op == "ld":
            d.kind = _LD
            src = srcs[0]
            if type(src) is Param:
                # Folded above: emit a constant move.
                d.kind = _ALU
                d.vop = _vop_const_move
                d.scalar_only = dest_is_pred or not vectorizable
                return d
            if type(src) is not MemRef or dest_is_pred or not vectorizable:
                d.scalar_only = True
                return d
            d.space = src.space
            d.base_col = colmap[src.base.name] if src.base is not None else -1
            d.mem_offset = src.offset
            d.mem_size = dtype.width // 8
            d.np_load = np.dtype(_LOAD_NP[dtype])
            return d
        if op == "st":
            d.kind = _ST
            tgt = srcs[0]
            if type(tgt) is not MemRef or not vectorizable:
                d.scalar_only = True
                return d
            d.space = tgt.space
            d.base_col = colmap[tgt.base.name] if tgt.base is not None else -1
            d.mem_offset = tgt.offset
            d.mem_size = dtype.width // 8
            d.np_store = np.dtype(_STORE_NP[dtype])
            return d
        if op in ("set", "setp"):
            d.kind = _SET
            if not vectorizable:
                d.scalar_only = True
                return d
            if not dest_is_pred:
                # PTX `set` into a general register: all-ones on true, in
                # the *operation* dtype's integer image (even for float
                # dtypes — ``_wrap(-1, f32)`` is the int 0xFFFFFFFF).
                from .registers import canonical_int

                true_value = canonical_int(-1, dtype)
                d.true_bits = np.uint64(true_value & _U64_MASK)
                d.true_neg = true_value < 0
            return d
        if op == "selp":
            d.kind = _SELP
            pred = srcs[2]
            if not (type(pred) is Reg and pred.is_pred):
                d.scalar_only = True  # raises ExecutionFault, per lane
                return d
            d.sel_col = colmap[pred.name]
            return d
        if op == "slct":
            d.kind = _SLCT
            if not vectorizable:
                d.scalar_only = True
            return d

        d.kind = _ALU
        if (
            executor is None
            or op in _SCALAR_ONLY_OPS
            or dest_is_pred
            or not vectorizable
        ):
            d.scalar_only = True
            return d
        key = (op, bool(dtype.is_float))
        d.vop = _VOPS.get(key)
        if d.vop is None:
            d.scalar_only = True
        return d


# ----------------------------------------------------------- vector ALU ops
#
# Each ``_vop_*`` executes one static instruction for the lane-index array
# ``idx`` (post-guard, post-trace, dyn already counted), reading operands
# through the runner's domain readers (which demote hazardous lanes to the
# scalar path) and returns the surviving lane indices whose pc should
# advance by one.  Integer math runs in the uint64 bits domain; float math
# in float64 with explicit double-rounding for f32.


def _vop_cvt_int(rn, d, idx):
    idx, (a,) = rn._operands(d, idx, "b")
    if idx.size:
        rn._store_int_bits(d, idx, a)
    return idx


def _vop_cvt_float(rn, d, idx):
    idx, (a,) = rn._operands(d, idx, "f")
    if idx.size:
        rn._store_float(d, idx, rn._fround(d, a))
    return idx


def _vop_const_move(rn, d, idx):
    if d.is_float:
        return _vop_cvt_float(rn, d, idx)
    return _vop_cvt_int(rn, d, idx)


def _vop_add_int(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "bb")
    if idx.size:
        rn._store_int_bits(d, idx, a + b)
    return idx


def _vop_sub_int(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "bb")
    if idx.size:
        rn._store_int_bits(d, idx, a - b)
    return idx


def _vop_mul_int(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "bb")
    if idx.size:
        rn._store_int_bits(d, idx, a * b)
    return idx


def _vop_mul_wide(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "bb")
    if idx.size:
        m = np.uint64(0xFFFF)
        rn._store_int_bits(d, idx, (a & m) * (b & m))
    return idx


def _vop_mad_int(rn, d, idx):
    idx, (a, b, c) = rn._operands(d, idx, "bbb")
    if idx.size:
        rn._store_int_bits(d, idx, a * b + c)
    return idx


def _vop_and(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "bb")
    if idx.size:
        rn._store_int_bits(d, idx, a & b)
    return idx


def _vop_or(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "bb")
    if idx.size:
        rn._store_int_bits(d, idx, a | b)
    return idx


def _vop_xor(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "bb")
    if idx.size:
        rn._store_int_bits(d, idx, a ^ b)
    return idx


def _vop_not(rn, d, idx):
    idx, (a,) = rn._operands(d, idx, "b")
    if idx.size:
        rn._store_int_bits(d, idx, ~a)
    return idx


def _vop_shl(rn, d, idx):
    idx, (a, amt) = rn._operands(d, idx, "bl")
    if idx.size:
        big = amt >= np.uint64(d.width)
        safe = np.where(big, _ZERO64, amt)
        rn._store_int_bits(d, idx, np.where(big, _ZERO64, a << safe))
    return idx


def _vop_shr(rn, d, idx):
    idx, (ab, amt) = rn._operands(d, idx, "il" if d.is_signed else "bl")
    if not idx.size:
        return idx
    big = amt >= np.uint64(d.width)
    if d.is_signed:
        bits, neg = ab
        # The int64 bit-view equals the true value for every lane except
        # huge non-negative u64 residues, which the reader demoted.
        haz = ~neg & (bits >= _TWO63)
        if haz.any():
            idx = rn._demote(d, idx, haz)
            keep = ~haz
            bits, neg, big, amt = bits[keep], neg[keep], big[keep], amt[keep]
            if not idx.size:
                return idx
        v = bits.view(np.int64)
        safe = np.where(big, _ZERO64, amt).astype(np.int64)
        shifted = (v >> safe).view(np.uint64)
        fill = np.where(v < 0, _ONES64, _ZERO64)
        rn._store_int_bits(d, idx, np.where(big, fill, shifted))
    else:
        a = ab
        safe = np.where(big, _ZERO64, amt)
        rn._store_int_bits(d, idx, np.where(big, _ZERO64, (a & d.wmask) >> safe))
    return idx


def _vop_div_int(rn, d, idx):
    idx, ((ab, an), (bb, bn)) = rn._operands(d, idx, "ii")
    if not idx.size:
        return idx
    absa = np.where(an, np.negative(ab), ab)
    absb = np.where(bn, np.negative(bb), bb)
    bz = absb == _ZERO64
    q = absa // np.where(bz, np.uint64(1), absb)
    q = np.where(an ^ bn, np.negative(q), q)
    rn._store_int_bits(d, idx, np.where(bz, _ONES64, q))
    return idx


def _vop_rem_int(rn, d, idx):
    idx, ((ab, an), (bb, bn)) = rn._operands(d, idx, "ii")
    if not idx.size:
        return idx
    absa = np.where(an, np.negative(ab), ab)
    absb = np.where(bn, np.negative(bb), bb)
    bz = absb == _ZERO64
    r = absa % np.where(bz, np.uint64(1), absb)
    r = np.where(an, np.negative(r), r)
    rn._store_int_bits(d, idx, np.where(bz, ab, r))
    return idx


def _full_lt(ab, an, bb, bn):
    """``value(a) < value(b)`` on (bits mod 2**64, negative) planes."""
    return (an & ~bn) | ((an == bn) & (ab < bb))


def _vop_min_int(rn, d, idx):
    idx, ((ab, an), (bb, bn)) = rn._operands(d, idx, "ii")
    if idx.size:
        # Python ``min(a, b)`` returns b only when b < a (first on ties).
        take_b = _full_lt(bb, bn, ab, an)
        rn._store_int_bits(d, idx, np.where(take_b, bb, ab))
    return idx


def _vop_max_int(rn, d, idx):
    idx, ((ab, an), (bb, bn)) = rn._operands(d, idx, "ii")
    if idx.size:
        take_b = _full_lt(ab, an, bb, bn)
        rn._store_int_bits(d, idx, np.where(take_b, bb, ab))
    return idx


def _vop_neg_int(rn, d, idx):
    idx, (a,) = rn._operands(d, idx, "b")
    if idx.size:
        rn._store_int_bits(d, idx, np.negative(a))
    return idx


def _vop_abs_int(rn, d, idx):
    idx, ((ab, an),) = rn._operands(d, idx, "i")
    if idx.size:
        rn._store_int_bits(d, idx, np.where(an, np.negative(ab), ab))
    return idx


def _vop_add_float(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "ff")
    if idx.size:
        rn._store_float(d, idx, rn._fround(d, a + b))
    return idx


def _vop_sub_float(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "ff")
    if idx.size:
        rn._store_float(d, idx, rn._fround(d, a - b))
    return idx


def _vop_mul_float(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "ff")
    if idx.size:
        rn._store_float(d, idx, rn._fround(d, a * b))
    return idx


def _vop_mad_float(rn, d, idx):
    idx, (a, b, c) = rn._operands(d, idx, "fff")
    if idx.size:
        product = rn._fround(d, a * b)
        rn._store_float(d, idx, rn._fround(d, product + c))
    return idx


def _vop_div_float(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "ff")
    if idx.size:
        # IEEE division reproduces the interpreter's x/±0 → signed-inf
        # case bit-exactly, but hardware 0/0 and nan/0 NaNs carry the
        # sign bit / input payload where the interpreter returns the
        # canonical positive ``math.nan`` — force those lanes.
        q = np.divide(a, b)
        bad = (b == 0.0) & ((a == 0.0) | np.isnan(a))
        if bad.any():
            q = np.where(bad, np.float64(np.nan), q)
        rn._store_float(d, idx, rn._fround(d, q))
    return idx


def _vop_rem_float(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "ff")
    if idx.size:
        # The interpreter returns canonical ``math.nan`` for a zero
        # divisor, infinite dividend or any NaN operand; C fmod would
        # propagate input payloads / set the sign bit.
        r = np.fmod(a, b)
        bad = (b == 0.0) | np.isinf(a) | np.isnan(a) | np.isnan(b)
        if bad.any():
            r = np.where(bad, np.float64(np.nan), r)
        rn._store_float(d, idx, rn._fround(d, r))
    return idx


def _vop_min_float(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "ff")
    if idx.size:
        nan_a = np.isnan(a)
        nan_b = np.isnan(b)
        res = np.where(b < a, b, a)  # first operand on ties (Python min)
        rn._store_float(d, idx, np.where(nan_a, b, np.where(nan_b, a, res)))
    return idx


def _vop_max_float(rn, d, idx):
    idx, (a, b) = rn._operands(d, idx, "ff")
    if idx.size:
        nan_a = np.isnan(a)
        nan_b = np.isnan(b)
        res = np.where(b > a, b, a)
        rn._store_float(d, idx, np.where(nan_a, b, np.where(nan_b, a, res)))
    return idx


def _vop_neg_float(rn, d, idx):
    idx, (a,) = rn._operands(d, idx, "f")
    if idx.size:
        rn._store_float(d, idx, np.negative(a))
    return idx


def _vop_abs_float(rn, d, idx):
    idx, (a,) = rn._operands(d, idx, "f")
    if idx.size:
        rn._store_float(d, idx, np.fabs(a))
    return idx


def _vop_rcp(rn, d, idx):
    idx, (a,) = rn._operands(d, idx, "f")
    if idx.size:
        # NaN input → canonical ``math.nan`` (the interpreter does not
        # propagate the input payload); 1/±0 → signed inf matches IEEE.
        r = np.divide(1.0, a)
        bad = np.isnan(a)
        if bad.any():
            r = np.where(bad, np.float64(np.nan), r)
        rn._store_float(d, idx, rn._fround(d, r))
    return idx


def _vop_sqrt(rn, d, idx):
    idx, (a,) = rn._operands(d, idx, "f")
    if idx.size:
        # Strictly negative input → canonical ``math.nan`` (hardware
        # sqrt returns the sign-set indefinite NaN); sqrt(-0.0) is -0.0
        # and NaN inputs propagate, identically on both paths.
        s = np.sqrt(a)
        bad = a < 0.0
        if bad.any():
            s = np.where(bad, np.float64(np.nan), s)
        rn._store_float(d, idx, rn._fround(d, s))
    return idx


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
        idx, (a, b) = rn._operands(d, idx, "ff")
        if not idx.size:
            return idx
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
        return idx
    idx, ((ab, an), (bb, bn)) = rn._operands(d, idx, "ii")
    if not idx.size:
        return idx
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
    return idx


def _vop_selp(rn, d, idx):
    zero = rn._odd_bit(d.sel_col, idx)
    a = rn._operand_cells(d.srcs[0], idx)
    b = rn._operand_cells(d.srcs[1], idx)
    cells = tuple(np.where(zero, xa, xb) for xa, xb in zip(a, b))
    rn._store_cells(d.dest_col, idx, cells)
    return idx


def _vop_slct(rn, d, idx):
    ge0 = rn._selector_ge0(d.srcs[2], idx)
    if d.is_float:
        idx2, (a, b), (ge0,) = rn._operands(
            d, idx, "ff", srcs=d.srcs[:2], carry=(ge0,)
        )
        if idx2.size:
            rn._store_float(d, idx2, rn._fround(d, np.where(ge0, a, b)))
        return idx2
    idx2, (a, b), (ge0,) = rn._operands(
        d, idx, "bb", srcs=d.srcs[:2], carry=(ge0,)
    )
    if idx2.size:
        rn._store_int_bits(d, idx2, np.where(ge0, a, b))
    return idx2


# ------------------------------------------------------------ memory vops


def _vop_ld(rn, d, idx):
    idx, addr, _ = rn._addresses(d, idx)
    if not idx.size:
        return idx
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
            rn.segment_records.append(("R", idx, addr, size))
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
    return idx


def _vop_st(rn, d, idx):
    # Value operand first — classic evaluation order puts value-conversion
    # exceptions (ValueError/OverflowError from encode) before the
    # address fault, so value hazards must demote before address hazards.
    if d.is_float:
        f, haz = rn._read_one(d.srcs[1], idx, "f")
        if d.f32:
            # struct.pack('<f', x) raises OverflowError for finite
            # |x| > f32max where the vector cast would produce inf.
            over = np.isfinite(f) & (np.fabs(f) > _F32_MAX)
            haz = over if haz is None else (haz | over)
        if haz is not None and haz.any():
            idx = rn._demote(d, idx, haz)
            f = f[~haz]
            if not idx.size:
                return idx
        idx, addr, (f,) = rn._addresses(d, idx, carry=(f,))
        if not idx.size:
            return idx
        raw = f.astype(d.np_store).view(np.uint8).reshape(idx.size, d.mem_size)
    else:
        bits, haz = rn._read_one(d.srcs[1], idx, "s")
        if haz is not None and haz.any():
            idx = rn._demote(d, idx, haz)
            bits = bits[~haz]
            if not idx.size:
                return idx
        idx, addr, (bits,) = rn._addresses(d, idx, carry=(bits,))
        if not idx.size:
            return idx
        raw = (
            bits.astype(d.np_store).view(np.uint8).reshape(idx.size, d.mem_size)
        )
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
    return idx


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
    """Lockstep executor for one CTA over a 4-plane lane register file.

    Register value domain: each (column, lane) cell is either a float
    (``isf`` set, value in ``fval``) or a canonical int (``ibits`` holds
    value mod 2**64, ``neg`` marks values below zero) — an injective
    encoding of the interpreter's dynamically typed register dict, with
    the all-zero planes equal to the dict's ``get(name, 0)`` default.
    """

    def __init__(self, vprog, nlanes: int, specials_list) -> None:
        self.vprog = vprog
        self.nlanes = nlanes
        ncols = vprog.ncols
        self.ibits = np.zeros((ncols, nlanes), np.uint64)
        self.neg = np.zeros((ncols, nlanes), bool)
        self.isf = np.zeros((ncols, nlanes), bool)
        self.fval = np.zeros((ncols, nlanes), np.float64)
        self.pcs = np.zeros(nlanes, np.int64)
        self.dyn = np.zeros(nlanes, np.int64)
        self.status = np.zeros(nlanes, np.int8)
        self.specials_list = specials_list
        self.special_u64 = {
            key: np.array(
                [specials_list[lane][key] for lane in range(nlanes)],
                dtype=np.uint64,
            )
            for key in specials_list[0]
        }
        self.paint = nlanes > 1
        self.parked: dict[int, BaseException] = {}
        self.segment_records: list = []
        self.flushed: list[tuple[int, bytes]] = []
        self.trace_chunks: list = []
        self.scalar_slot = -1
        self.scalar_ctx = None
        #: Per-column "may hold floats" flag — conservative fast path that
        #: lets operand reads skip the isf-plane gather for int columns.
        self.colf = np.zeros(ncols, bool)
        self.status_dirty = False
        self.lane_view = _LaneView(self)

    # ----------------------------------------------------------- operands

    def _read_one(self, o, idx, mode):
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
                    haz = mag > _TWO53U
                    fi = mag.astype(np.float64)
                    f = np.where(neg, np.negative(fi), fi)
                    return f, (haz if haz.any() else None)
                if mode == "b" or mode == "s":
                    return bits, None
                if mode == "i":
                    return (bits, self.neg[col, idx]), None
                return bits & _LOW8, None
            isf = self.isf[col, idx]
            anyf = isf.any()
            if mode == "f":
                neg = self.neg[col, idx]
                mag = np.where(neg, np.negative(bits), bits)
                haz = ~isf & (mag > _TWO53U)
                fi = mag.astype(np.float64)
                f = np.where(neg, np.negative(fi), fi)
                if anyf:
                    f = np.where(isf, self.fval[col, idx], f)
                return f, (haz if haz.any() else None)
            if not anyf:
                if mode == "b" or mode == "s":
                    return bits, None
                if mode == "i":
                    return (bits, self.neg[col, idx]), None
                return bits & _LOW8, None
            fv = self.fval[col, idx]
            finite = np.isfinite(fv)
            small = finite & (np.fabs(fv) < _TWO63F)
            ti = np.trunc(np.where(isf & small, fv, 0.0)).astype(np.int64)
            tbits = ti.view(np.uint64)
            if mode == "b":
                haz = isf & finite & ~small
                bits = np.where(isf, tbits, bits)
                return bits, (haz if haz.any() else None)
            if mode == "s":
                # int-image store: float lanes with non-finite values
                # raise ValueError in ``int(value)`` on the classic path.
                haz = isf & ~small
                bits = np.where(isf, tbits, bits)
                return bits, (haz if haz.any() else None)
            if mode == "i":
                haz = isf & finite & ~small
                neg = self.neg[col, idx]
                bits = np.where(isf, tbits, bits)
                neg = np.where(isf, ti < 0, neg)
                return (bits, neg), (haz if haz.any() else None)
            # mode == "l": the low byte of trunc(f) is provably zero for
            # every finite |f| >= 2**63 (53-bit mantissa), so this read
            # never hazards.
            return np.where(isf, tbits, bits) & _LOW8, None
        if kind == _K_CONST:
            _, cbits, cneg, cf, cisf = o
            if mode == "f":
                return np.full(n, cf, np.float64), None
            if mode == "i":
                return (
                    np.full(n, cbits, np.uint64),
                    np.full(n, cneg, bool),
                ), None
            if mode == "l":
                return np.full(n, cbits & _LOW8, np.uint64), None
            if mode == "s" and cisf and not np.isfinite(cf):
                # ``int(nan)`` raises on the classic store path while
                # ``to_int`` folded the immediate to 0 — demote.
                return np.full(n, cbits, np.uint64), np.ones(n, bool)
            return np.full(n, cbits, np.uint64), None
        arr = self.special_u64[o[1]][idx]
        if mode == "f":
            return arr.astype(np.float64), None
        if mode == "i":
            return (arr, np.zeros(n, bool)), None
        if mode == "l":
            return arr & _LOW8, None
        return arr, None

    def _operands(self, d, idx, modes, srcs=None, carry=()):
        srcs = d.srcs if srcs is None else srcs
        outs = []
        haz = None
        for o, mode in zip(srcs, modes):
            v, h = self._read_one(o, idx, mode)
            outs.append(v)
            if h is not None:
                haz = h if haz is None else (haz | h)
        if haz is not None:
            idx = self._demote(d, idx, haz)
            keep = ~haz
            outs = [
                (v[0][keep], v[1][keep]) if type(v) is tuple else v[keep]
                for v in outs
            ]
            carry = tuple(c[keep] for c in carry)
        if carry:
            return idx, outs, carry
        return idx, outs

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

    # ------------------------------------------------- scalar lane access

    def _lane_get(self, col, lane):
        if self.isf[col, lane]:
            return float(self.fval[col, lane])
        value = int(self.ibits[col, lane])
        if self.neg[col, lane]:
            value -= 1 << 64
        return value

    def _lane_set(self, col, lane, value):
        if isinstance(value, float):
            self.isf[col, lane] = True
            self.fval[col, lane] = value
            self.colf[col] = True
        else:
            self.isf[col, lane] = False
            self.ibits[col, lane] = value & _U64_MASK
            self.neg[col, lane] = value < 0

    # --------------------------------------------------- scalar slow path

    def _demote(self, d, idx, haz):
        for lane in idx[haz].tolist():
            self._scalar_op(d, lane)
        return idx[~haz]

    def _park(self, lane, exc):
        self.status[lane] = _PARKED
        self.status_dirty = True
        self.parked[lane] = exc

    def _scalar_op(self, d, lane):
        try:
            self._scalar_op_body(d, lane)
        except VectorFallback:
            raise
        except Exception as exc:  # noqa: BLE001 - classified by the injector
            self._park(lane, exc)
        else:
            self.pcs[lane] += 1

    def _scalar_value(self, s, dtype, lane):
        kind = type(s)
        if kind is Reg:
            return self._lane_get(self.vprog.colmap[s.name], lane)
        if kind is Imm:
            return s.value
        if kind is Special:
            return self.specials_list[lane][(s.name, s.axis)]
        if kind is Param:
            return self.param_mem.load(s.offset, dtype)
        raise ExecutionFault(f"operand {s!r} not readable here")

    def _scalar_load(self, d, s, lane):
        if type(s) is Param:
            return self.param_mem.load(s.offset, d.dtype)
        if type(s) is MemRef:
            address = s.offset
            if s.base is not None:
                address += to_int(
                    self._lane_get(self.vprog.colmap[s.base.name], lane)
                )
            size = d.dtype.width // 8
            if s.space == "shared":
                value = self.shared.load(address, d.dtype)
                if self.paint and size:
                    self._paint_read_scalar(self.shared_board, lane, address, size)
                return value
            value = self.heap.load(address, d.dtype)
            if self.paint and size:
                self._paint_read_scalar(self.heap_board, lane, address, size)
            if self.record_reads:
                self.segment_records.append(("r", lane, address, size))
            return value
        raise ExecutionFault(f"ld source {s!r} is not a memory operand")

    def _scalar_store(self, d, s, lane, value):
        if type(s) is not MemRef:
            raise ExecutionFault(f"st target {s!r} is not a memory operand")
        address = s.offset
        if s.base is not None:
            address += to_int(self._lane_get(self.vprog.colmap[s.base.name], lane))
        if s.space == "shared":
            self.shared.store(address, value, d.dtype)
            if self.paint:
                self._paint_write_scalar(
                    self.shared_board, lane, address, d.dtype.width // 8
                )
            return
        raw = encode_value(value, d.dtype)
        self.heap._check(address, len(raw))
        self.heap._data[address : address + len(raw)] = raw
        if self.paint:
            self._paint_write_scalar(self.heap_board, lane, address, len(raw))
        self.segment_records.append(("w", lane, address, raw))

    def _scalar_op_body(self, d, lane):
        op = d.op
        dtype = d.dtype
        srcs = d.raw_srcs
        if d.executor is not None:
            values = [self._scalar_value(s, dtype, lane) for s in srcs]
            value = d.executor(dtype, *values)
            if d.dest_is_pred:
                value = to_int(value) & 0xF
            self._lane_set(d.dest_col, lane, value)
            return
        if op == "ld":
            value = self._scalar_load(d, srcs[0], lane)
            if d.dest_is_pred:
                value = to_int(value) & 0xF
            self._lane_set(d.dest_col, lane, value)
            return
        if op == "st":
            self._scalar_store(
                d, srcs[0], lane, self._scalar_value(srcs[1], dtype, lane)
            )
            return
        if op in ("set", "setp"):
            a = self._scalar_value(srcs[0], dtype, lane)
            b = self._scalar_value(srcs[1], dtype, lane)
            if d.dest_is_pred:
                value = condition_code(d.cmp, dtype, a, b)
            else:
                value = _exec_set_general(dtype, d.cmp, a, b)
            self._lane_set(d.dest_col, lane, value)
            return
        if op == "selp":
            pred = srcs[2]
            if not (type(pred) is Reg and pred.is_pred):
                raise ExecutionFault("selp selector must be a predicate register")
            zero = to_int(self._lane_get(self.vprog.colmap[pred.name], lane)) & 1
            chosen = srcs[0] if zero else srcs[1]
            value = self._scalar_value(chosen, dtype, lane)
            if d.dest_is_pred:
                value = to_int(value) & 0xF
            self._lane_set(d.dest_col, lane, value)
            return
        raise ExecutionFault(f"unhandled opcode {op!r}")  # pragma: no cover

    # --------------------------------------------------------- addressing

    def _addresses(self, d, idx, carry=()):
        n = idx.size
        if d.base_col < 0:
            addr = np.full(n, d.mem_offset, np.int64)
        else:
            col = d.base_col
            bits = self.ibits[col, idx]
            neg = self.neg[col, idx]
            isf = self.isf[col, idx]
            haz = np.zeros(n, bool)
            if isf.any():
                fv = self.fval[col, idx]
                finite = np.isfinite(fv)
                small = finite & (np.fabs(fv) < _TWO63F)
                ti = np.trunc(np.where(isf & small, fv, 0.0)).astype(np.int64)
                haz |= isf & finite & ~small
                bits = np.where(isf, ti.view(np.uint64), bits)
                neg = np.where(isf, ti < 0, neg)
            # Margin so ``base + offset`` cannot overflow the int64 view.
            haz |= ~neg & (bits >= _TWO62)
            if haz.any():
                idx = self._demote(d, idx, haz)
                keep = ~haz
                bits = bits[keep]
                carry = tuple(c[keep] for c in carry)
                if not idx.size:
                    return idx, bits.view(np.int64), carry
            addr = bits.view(np.int64) + np.int64(d.mem_offset)
        size = d.mem_size
        if d.space == "shared":
            ok = (addr >= 0) & (addr + size <= self.shared_len)
        else:
            bases, ends = self.heap_bounds
            j = np.searchsorted(bases, addr, side="right") - 1
            jn = np.maximum(j, 0)
            ok = (j >= 0) & (addr >= bases[jn]) & (addr + size <= ends[jn])
        if not ok.all():
            idx = self._demote(d, idx, ~ok)
            addr = addr[ok]
            carry = tuple(c[ok] for c in carry)
        return idx, addr, carry

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

    def prepare(
        self, heap, shared, param_mem, max_steps, tracing,
        write_target, read_target, thread_targets,
    ):
        """Rebind one launch's memories/logs and zero all lane state."""
        self.heap = heap
        self.shared = shared
        self.param_mem = param_mem
        self.max_steps = max_steps
        self.tracing = tracing
        self.write_target = write_target
        self.read_target = read_target
        self.thread_targets = thread_targets
        self.record_reads = read_target is not None
        self.heap_view = heap.array_view()
        self.heap_bounds = heap.allocation_arrays()
        self.heap_board = _board_for(heap, len(heap._data)) if self.paint else None
        if shared is not None:
            self.shared_view = shared.array_view()
            self.shared_len = len(shared._data)
            self.shared_board = (
                _board_for(shared, self.shared_len) if self.paint else None
            )
        else:
            self.shared_view = None
            self.shared_len = 0
            self.shared_board = None
        self.ibits[:] = 0
        self.neg[:] = False
        self.isf[:] = False
        self.fval[:] = 0.0
        self.pcs[:] = 0
        self.dyn[:] = 0
        self.status[:] = _RUNNING
        self.colf[:] = False
        self.status_dirty = False
        self.parked.clear()
        self.segment_records = []
        self.flushed = []
        self.trace_chunks = []
        self.scalar_slot = -1
        self.scalar_ctx = None

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
        if kind == _BRA:
            self.pcs[idx] = d.target
            return
        if kind == _BAR:
            self.status[idx] = _AT_BARRIER
            self.status_dirty = True
            self.pcs[idx] += 1
            return
        if kind == _EXIT:
            self.status[idx] = _EXITED
            self.status_dirty = True
            self.pcs[idx] += 1
            return
        if kind == _NOP:
            self.pcs[idx] += 1
            return
        if kind == _FAULT:
            for lane in idx.tolist():
                self._park(lane, d.fault_exc)
            return
        if d.scalar_only:
            for lane in idx.tolist():
                self._scalar_op(d, lane)
            return
        if kind == _ALU:
            ok = d.vop(self, d, idx)
        elif kind == _LD:
            ok = _vop_ld(self, d, idx)
        elif kind == _ST:
            ok = _vop_st(self, d, idx)
        elif kind == _SET:
            ok = _vop_set(self, d, idx)
        elif kind == _SELP:
            ok = _vop_selp(self, d, idx)
        else:
            ok = _vop_slct(self, d, idx)
        if ok.size:
            self.pcs[ok] += 1

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
                for address, size in temp_r:
                    if self.paint:
                        self._paint_read_scalar(self.heap_board, lane, address, size)
                    records.append(("r", lane, address, size))

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
        if not records:
            return
        n = self.nlanes
        wbuckets: list[list | None] = [None] * n
        rbuckets: list[list | None] | None = (
            [None] * n if self.record_reads else None
        )
        for rec in records:
            tag = rec[0]
            if tag == "W":
                _, lidx, addrs, raw = rec
                al = addrs.tolist()
                for j, lane in enumerate(lidx.tolist()):
                    b = wbuckets[lane]
                    if b is None:
                        b = wbuckets[lane] = []
                    b.append((al[j], raw[j].tobytes()))
            elif tag == "w":
                _, lane, address, raw = rec
                b = wbuckets[lane]
                if b is None:
                    b = wbuckets[lane] = []
                b.append((address, raw))
            elif tag == "R":
                _, lidx, addrs, size = rec
                al = addrs.tolist()
                for lane, address in zip(lidx.tolist(), al):
                    b = rbuckets[lane]
                    if b is None:
                        b = rbuckets[lane] = []
                    b.append((address, size))
            else:  # "r"
                _, lane, address, size = rec
                b = rbuckets[lane]
                if b is None:
                    b = rbuckets[lane] = []
                b.append((address, size))
        wt = self.write_target
        rt = self.read_target
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
            if rbuckets is not None:
                rb = rbuckets[slot]
                if rb and rt is not None:
                    rt.extend(rb)

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

    def run(self, barrier_hook, rounds_start):
        """Drive the CTA to completion; returns absolute barrier rounds."""
        lo, hi = self.heap.allocation_span()
        self.entry_span = (lo, hi)
        self.entry_image = bytes(self.heap._data[lo:hi])
        rounds = rounds_start
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
                    if barrier_hook is not None:
                        barrier_hook(rounds, self.lane_view)
                    continue
                return rounds

    # -------------------------------------------------------------- traces

    def traces_by_slot(self):
        """Per-slot traces assembled from the step-ordered chunk log.

        A stable sort by lane groups each lane's entries while preserving
        step order within the lane — exactly the order the interpreter
        appends them.
        """
        n = self.nlanes
        pc_dtype = self.vprog.pc_dtype
        chunks = self.trace_chunks
        if chunks:
            lanes = np.concatenate([c[0] for c in chunks])
            pcs = np.concatenate(
                [np.full(c[0].size, c[1], pc_dtype) for c in chunks]
            )
            widths = np.concatenate(
                [np.full(c[0].size, c[2], np.int16) for c in chunks]
            )
            order = np.argsort(lanes, kind="stable")
            lanes = lanes[order]
            pcs = pcs[order]
            widths = widths[order]
            bounds = np.cumsum(np.bincount(lanes, minlength=n))
        else:
            pcs = np.empty(0, pc_dtype)
            widths = np.empty(0, np.int16)
            bounds = np.zeros(n, np.int64)
        out = []
        start = 0
        for slot in range(n):
            stop = int(bounds[slot])
            if slot == self.scalar_slot:
                out.append(self.scalar_ctx.trace)
            else:
                out.append(CompactTrace(pcs[start:stop], widths[start:stop]))
            start = stop
        return out


# ------------------------------------------------------- checkpoint shims
#
# ``CTACheckpoint.capture``/``restore`` speak the ThreadContext protocol:
# ``t.regs.values`` (a dict), ``t.pc``, ``t.dyn_count`` and ``t.state``.
# These views present one lane of the register file through that protocol,
# so the existing checkpoint machinery (and the injector's barrier sink)
# works against the vector backend without modification.


class _SlotRegs:
    __slots__ = ("_runner", "_lane")

    def __init__(self, runner, lane):
        self._runner = runner
        self._lane = lane

    @property
    def values(self):
        runner = self._runner
        lane = self._lane
        return {
            name: runner._lane_get(col, lane)
            for name, col in runner.vprog.colmap.items()
        }

    @values.setter
    def values(self, mapping):
        runner = self._runner
        lane = self._lane
        colmap = runner.vprog.colmap
        runner.ibits[:, lane] = 0
        runner.neg[:, lane] = False
        runner.isf[:, lane] = False
        runner.fval[:, lane] = 0.0
        for name, value in mapping.items():
            col = colmap.get(name)
            if col is None:
                if value == 0:
                    continue  # zero default: absent column reads as zero
                raise VectorFallback(f"unknown register {name!r} in checkpoint")
            runner._lane_set(col, lane, value)


class _SlotView:
    __slots__ = ("_runner", "_lane", "regs")

    def __init__(self, runner, lane):
        self._runner = runner
        self._lane = lane
        self.regs = _SlotRegs(runner, lane)

    @property
    def pc(self):
        return int(self._runner.pcs[self._lane])

    @pc.setter
    def pc(self, value):
        self._runner.pcs[self._lane] = value

    @property
    def dyn_count(self):
        return int(self._runner.dyn[self._lane])

    @dyn_count.setter
    def dyn_count(self, value):
        self._runner.dyn[self._lane] = value

    @property
    def state(self):
        s = self._runner.status[self._lane]
        if s == _EXITED:
            return ThreadState.EXITED
        if s == _AT_BARRIER:
            return ThreadState.AT_BARRIER
        return ThreadState.RUNNING

    @state.setter
    def state(self, value):
        if value is ThreadState.EXITED:
            s = _EXITED
        elif value is ThreadState.AT_BARRIER:
            s = _AT_BARRIER
        else:
            s = _RUNNING
        self._runner.status[self._lane] = s


class _LaneView:
    """List-like CTA view; the demoted slot resolves to its real context."""

    __slots__ = ("_runner", "_views")

    def __init__(self, runner):
        self._runner = runner
        self._views = [_SlotView(runner, lane) for lane in range(runner.nlanes)]

    def __len__(self):
        return len(self._views)

    def __getitem__(self, slot):
        runner = self._runner
        if slot == runner.scalar_slot:
            return runner.scalar_ctx
        return self._views[slot]

    def __iter__(self):
        for slot in range(len(self._views)):
            yield self[slot]

    def capture_native(self, barrier_rounds, shared, write_count):
        """Whole-CTA snapshot as register-file plane copies (no dicts).

        ``CTACheckpoint.capture`` dispatches here for vector runners; the
        demoted scalar lane (if any) is folded in dict-form since its live
        state is a ThreadContext, with its status normalised so the arrays
        describe a plain vector CTA.
        """
        runner = self._runner
        dyn = runner.dyn.copy()
        pcs = runner.pcs.copy()
        status = runner.status.copy()
        sc = runner.scalar_slot
        scalar_regs = None
        if sc >= 0:
            ctx = runner.scalar_ctx
            dyn[sc] = ctx.dyn_count
            pcs[sc] = ctx.pc
            status[sc] = _EXITED if ctx.state is ThreadState.EXITED else _RUNNING
            scalar_regs = dict(ctx.regs.values)
        shared_data = shared.snapshot_bytes() if shared is not None else None
        nbytes = int(
            runner.ibits.nbytes + runner.neg.nbytes + runner.isf.nbytes
            + runner.fval.nbytes + pcs.nbytes + dyn.nbytes + status.nbytes
        ) + 256
        if shared_data is not None:
            nbytes += len(shared_data)
        if scalar_regs is not None:
            nbytes += 64 * len(scalar_regs)
        return VectorCTACheckpoint(
            barrier_rounds=barrier_rounds,
            write_count=write_count,
            instructions=int(dyn.sum()),
            thread_dyn=tuple(int(d) for d in dyn),
            thread_pcs=(),
            thread_exited=(),
            thread_regs=(),
            shared_data=shared_data,
            nbytes=nbytes,
            lane_ibits=runner.ibits.copy(),
            lane_neg=runner.neg.copy(),
            lane_isf=runner.isf.copy(),
            lane_fval=runner.fval.copy(),
            lane_pcs=pcs,
            lane_dyn=dyn,
            lane_status=status,
            scalar_lane=sc,
            scalar_regs=scalar_regs,
            colmap=runner.vprog.colmap,
        )


@dataclass(slots=True)
class VectorCTACheckpoint(CTACheckpoint):
    """Vector-native CTA snapshot: plane slices instead of per-lane dicts.

    Capture and restore against a vector runner are a handful of array
    copies, so checkpointed fast-forwarding costs O(planes) instead of
    O(lanes x registers) Python work per injection.  The dict-protocol
    fields of the base class stay empty; ``restore`` also accepts a plain
    ThreadContext list (classic fallback rerun) by materialising each
    lane's dict from the planes via ``colmap``.
    """

    lane_ibits: "np.ndarray"
    lane_neg: "np.ndarray"
    lane_isf: "np.ndarray"
    lane_fval: "np.ndarray"
    lane_pcs: "np.ndarray"
    lane_dyn: "np.ndarray"
    lane_status: "np.ndarray"
    scalar_lane: int
    scalar_regs: dict | None
    colmap: dict

    def _lane_dict(self, lane):
        out = {}
        for name, col in self.colmap.items():
            if self.lane_isf[col, lane]:
                out[name] = float(self.lane_fval[col, lane])
            else:
                value = int(self.lane_ibits[col, lane])
                if self.lane_neg[col, lane]:
                    value -= 1 << 64
                out[name] = value
        return out

    def restore(self, threads, shared) -> None:
        if isinstance(threads, _LaneView):
            runner = threads._runner
            runner.ibits[:] = self.lane_ibits
            runner.neg[:] = self.lane_neg
            runner.isf[:] = self.lane_isf
            runner.fval[:] = self.lane_fval
            runner.pcs[:] = self.lane_pcs
            runner.dyn[:] = self.lane_dyn
            runner.status[:] = self.lane_status
            runner.status_dirty = True
            # The may-hold-floats column flags must cover the restored
            # planes, not whatever the runner saw since prepare().
            runner.colf[:] = self.lane_isf.any(axis=1)
            s1 = self.scalar_lane
            s2 = runner.scalar_slot
            if s1 >= 0 and s1 != s2:
                # The snapshot's demoted lane has no plane state; rehydrate
                # its planes from the captured dict.
                threads._views[s1].regs.values = self.scalar_regs
            if s2 >= 0:
                ctx = runner.scalar_ctx
                if s1 == s2:
                    ctx.regs.values = dict(self.scalar_regs)
                else:
                    ctx.regs.values = threads._views[s2].regs.values
                ctx.pc = int(self.lane_pcs[s2])
                ctx.dyn_count = int(self.lane_dyn[s2])
                ctx.state = (
                    ThreadState.EXITED
                    if self.lane_status[s2] == _EXITED
                    else ThreadState.RUNNING
                )
                runner.status[s2] = _SCALAR
            if shared is not None and self.shared_data is not None:
                shared.restore_bytes(self.shared_data)
            return
        for slot, ctx in enumerate(threads):
            if slot == self.scalar_lane:
                ctx.regs.values = dict(self.scalar_regs)
            else:
                ctx.regs.values = self._lane_dict(slot)
            ctx.pc = int(self.lane_pcs[slot])
            ctx.dyn_count = int(self.lane_dyn[slot])
            ctx.state = (
                ThreadState.EXITED
                if self.lane_status[slot] == _EXITED
                else ThreadState.RUNNING
            )
        if shared is not None and self.shared_data is not None:
            shared.restore_bytes(self.shared_data)


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


# --------------------------------------------------------------- launcher


def launch_vectorized(
    sim,
    program,
    geometry,
    param_mem,
    heap,
    *,
    record_traces,
    record_write_logs,
    record_read_logs,
    record_thread_write_logs,
    only_cta,
    injection_thread,
    injection_spec,
    max_steps,
    checkpoint,
):
    """Run one launch on the vector backend with classic-identical results.

    Raises :class:`VectorFallback` (after rolling the heap and caller logs
    back to their launch-entry state) when lockstep execution cannot prove
    equivalence; the simulator then re-runs on the compiled path.
    """
    from .simulator import _POOL_LIMIT, LaunchResult

    telemetry = sim.telemetry
    vprog = program.vectorized(param_mem)
    tpc = geometry.threads_per_cta
    ctas = range(geometry.n_ctas) if only_cta is None else (only_cta,)
    use_pool = only_cta is not None
    param_key = param_mem.raw
    write_logs = (
        [[] for _ in range(geometry.n_ctas)] if record_write_logs else None
    )
    read_logs = (
        [[] for _ in range(geometry.n_ctas)] if record_read_logs else None
    )
    thread_write_logs = (
        [[] for _ in range(geometry.n_threads)]
        if record_thread_write_logs and record_write_logs
        else None
    )
    trace_map: dict = {}
    injection_applied = False
    t0 = time.perf_counter() if telemetry.enabled else 0.0
    instructions = 0
    barrier_rounds = 0
    total_skipped = 0
    hang = False
    memory_fault = False
    fell_back = False
    caller_write_log = heap.write_log
    caller_read_log = heap.read_log
    caller_wlen = len(caller_write_log) if caller_write_log is not None else 0
    caller_rlen = len(caller_read_log) if caller_read_log is not None else 0
    span_lo, span_hi = heap.allocation_span()
    launch_image = bytes(heap._data[span_lo:span_hi])
    heap.write_log = None
    heap.read_log = None
    try:
        for cta in ctas:
            if not program.shared_bytes:
                shared = None
            elif use_pool:
                shared = sim._pooled_shared(program, cta)
            else:
                shared = SharedMemory(program.shared_bytes)
            runner = None
            if use_pool:
                rkey = (id(program), param_key, geometry, cta)
                entry = sim._vector_pool.get(rkey)
                if entry is not None and entry[0] is program:
                    runner = entry[1]
            if runner is None:
                specials_list = [
                    sim._cached_specials(geometry, cta, slot)
                    if use_pool
                    else geometry.specials_for(cta, slot)
                    for slot in range(tpc)
                ]
                runner = _VectorCTARunner(vprog, tpc, specials_list)
                if use_pool:
                    if len(sim._vector_pool) >= _POOL_LIMIT:
                        sim._vector_pool.clear()
                    sim._vector_pool[rkey] = (program, runner)
            write_target = (
                write_logs[cta] if write_logs is not None else caller_write_log
            )
            read_target = (
                read_logs[cta] if read_logs is not None else caller_read_log
            )
            thread_targets = (
                [thread_write_logs[cta * tpc + slot] for slot in range(tpc)]
                if thread_write_logs is not None
                else None
            )
            runner.prepare(
                heap, shared, param_mem, max_steps, record_traces,
                write_target, read_target, thread_targets,
            )
            sc_ctx = None
            if (
                injection_thread is not None
                and geometry.cta_of_thread(injection_thread) == cta
            ):
                sc_slot = injection_thread % tpc
                compiled_program = program.compiled(param_mem)
                if use_pool:
                    key = (id(program), param_key, geometry, cta, sc_slot)
                    specials = sim._cached_specials(geometry, cta, sc_slot)
                    entry = sim._context_pool.get(key)
                    if entry is not None and entry[0] is program:
                        sc_ctx = entry[1]
                        sc_ctx.reset(
                            specials, heap, shared, param_mem,
                            max_steps=max_steps, record_trace=record_traces,
                            injection=injection_spec, compiled=compiled_program,
                        )
                    else:
                        sc_ctx = ThreadContext(
                            program, specials, heap, shared, param_mem,
                            max_steps=max_steps, record_trace=record_traces,
                            injection=injection_spec, compiled=compiled_program,
                        )
                        if len(sim._context_pool) >= _POOL_LIMIT:
                            sim._context_pool.clear()
                        sim._context_pool[key] = (program, sc_ctx)
                else:
                    specials = geometry.specials_for(cta, sc_slot)
                    sc_ctx = ThreadContext(
                        program, specials, heap, shared, param_mem,
                        max_steps=max_steps, record_trace=record_traces,
                        injection=injection_spec, compiled=compiled_program,
                    )
                runner.attach_scalar(sc_slot, sc_ctx)
            barrier_hook = None
            rounds_start = 0
            skipped = 0
            if checkpoint is not None:
                resume = checkpoint.resume
                if resume is not None:
                    if not isinstance(resume, CTACheckpoint):
                        raise SimulatorError(
                            "CTA-sliced runs resume from CTACheckpoint"
                        )
                    restore_t0 = time.perf_counter()
                    resume.restore(runner.lane_view, shared)
                    sim._note_restore(time.perf_counter() - restore_t0)
                    rounds_start = resume.barrier_rounds
                    skipped = resume.instructions
                if checkpoint.sink is not None:

                    def barrier_hook(
                        rounds, cta_threads, _sink=checkpoint.sink, _shared=shared
                    ):
                        _sink(rounds, cta_threads, _shared)
            try:
                barrier_rounds += runner.run(barrier_hook, rounds_start)
            finally:
                executed = int(runner.dyn.sum())
                if sc_ctx is not None:
                    executed += sc_ctx.dyn_count - int(runner.dyn[runner.scalar_slot])
                instructions += executed - skipped
                total_skipped += skipped
            if record_traces:
                for slot, trace in enumerate(runner.traces_by_slot()):
                    trace_map[cta * tpc + slot] = trace
            if sc_ctx is not None:
                injection_applied = sc_ctx.injection is None
    except VectorFallback:
        fell_back = True
        heap._data[span_lo:span_hi] = launch_image
        if caller_write_log is not None:
            del caller_write_log[caller_wlen:]
        if caller_read_log is not None:
            del caller_read_log[caller_rlen:]
        raise
    except HangDetected:
        hang = True
        raise
    except MemoryFault:
        memory_fault = True
        raise
    finally:
        if fell_back:
            heap.write_log = caller_write_log
            heap.read_log = caller_read_log
        else:
            heap.write_log = caller_write_log if write_logs is None else None
            heap.read_log = caller_read_log
            if telemetry.enabled:
                if only_cta is not None:
                    kind = "sliced"
                elif injection_thread is None:
                    kind = "golden"
                else:
                    kind = "full"
                telemetry.count("sim.launches")
                telemetry.count("sim.instructions", instructions)
                telemetry.count("sim.barrier_rounds", barrier_rounds)
                if hang:
                    telemetry.count("sim.hangs")
                if memory_fault:
                    telemetry.count("sim.memory_faults")
                telemetry.emit(
                    SimRunEvent(
                        time.time(),
                        kind=kind,
                        n_ctas=len(ctas),
                        instructions=instructions,
                        barrier_rounds=barrier_rounds,
                        hang=hang,
                        memory_fault=memory_fault,
                        duration_s=time.perf_counter() - t0,
                        backend=sim.backend,
                        checkpoint_interval=(
                            checkpoint.interval if checkpoint is not None else 0
                        ),
                        skipped_instructions=total_skipped,
                    )
                )
    traces = None
    if record_traces:
        if only_cta is None:
            traces = [trace_map[t] for t in range(geometry.n_threads)]
        else:
            traces = [trace_map[t] for t in sorted(trace_map)]
    return LaunchResult(
        geometry=geometry,
        traces=traces,
        cta_write_logs=write_logs,
        injection_applied=injection_applied,
        instructions=instructions,
        barrier_rounds=barrier_rounds,
        thread_write_logs=thread_write_logs,
        cta_read_logs=read_logs,
    )
