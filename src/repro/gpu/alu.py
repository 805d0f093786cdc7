"""Opcode semantics for the functional interpreter.

Each executor takes the operation :class:`~repro.gpu.isa.DataType` and the
already-evaluated source values, and returns the destination value.  Integer
results wrap to the operation width (two's complement); ``f32`` results are
rounded through IEEE-754 single precision so the simulated math matches what
a real GPU (and the NumPy references) produce.

Deliberate hardware-flavoured choices, relevant under fault injection:

* integer division / remainder by zero produce the CUDA ``0xFFFF...`` /
  dividend results instead of trapping — GPUs do not raise on this;
* shift amounts at or beyond the operation width shift out to zero (or the
  sign fill for arithmetic right shifts), so a corrupted shift count cannot
  materialise a million-bit Python integer;
* float overflow saturates to ±inf, and NaNs propagate.
"""

from __future__ import annotations

import math
from typing import Callable

from .isa import DataType, PRED_CARRY, PRED_OVERFLOW, PRED_SIGN, PRED_ZERO
from .registers import canonical_int, clamp_f32

Number = int | float


def to_int(value: Number) -> int:
    """Coerce a register value to the integer domain (truncating floats)."""
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return 0
        return int(value)
    return value


def to_float(value: Number) -> float:
    return float(value)


def _wrap(value: int, dtype: DataType) -> int:
    return canonical_int(value, dtype)


def _round(value: float, dtype: DataType) -> float:
    if dtype is DataType.F32:
        return clamp_f32(value)
    return value


def _binary_int(fn: Callable[[int, int], int]):
    def run(dtype: DataType, a: Number, b: Number) -> int:
        return _wrap(fn(to_int(a), to_int(b)), dtype)

    return run


def _exec_add(dtype, a, b):
    if dtype.is_float:
        return _round(to_float(a) + to_float(b), dtype)
    return _wrap(to_int(a) + to_int(b), dtype)


def _exec_sub(dtype, a, b):
    if dtype.is_float:
        return _round(to_float(a) - to_float(b), dtype)
    return _wrap(to_int(a) - to_int(b), dtype)


def _exec_mul(dtype, a, b):
    if dtype.is_float:
        return _round(to_float(a) * to_float(b), dtype)
    return _wrap(to_int(a) * to_int(b), dtype)


def _exec_mul_wide(dtype, a, b):
    # PTXPlus mul.wide.u16: 16-bit halves multiplied into a 32-bit result.
    return _wrap((to_int(a) & 0xFFFF) * (to_int(b) & 0xFFFF), dtype)


def _exec_mad(dtype, a, b, c):
    if dtype.is_float:
        # Non-fused multiply-add: the product is rounded before the addition,
        # so NumPy float32 references can mirror the arithmetic bit-exactly.
        product = _round(to_float(a) * to_float(b), dtype)
        return _round(product + to_float(c), dtype)
    return _wrap(to_int(a) * to_int(b) + to_int(c), dtype)


def _exec_div(dtype, a, b):
    if dtype.is_float:
        fa, fb = to_float(a), to_float(b)
        if fb == 0.0:
            if fa == 0.0 or math.isnan(fa):
                return math.nan
            return math.copysign(math.inf, fa) * math.copysign(1.0, fb)
        return _round(fa / fb, dtype)
    ia, ib = to_int(a), to_int(b)
    if ib == 0:
        # CUDA integer division by zero yields an undefined (all-ones) value.
        return _wrap(-1, dtype)
    quotient = abs(ia) // abs(ib)
    if (ia < 0) != (ib < 0):
        quotient = -quotient
    return _wrap(quotient, dtype)


def _exec_rem(dtype, a, b):
    if dtype.is_float:
        fa, fb = to_float(a), to_float(b)
        # IEEE-754: fmod is NaN for a zero divisor, an infinite dividend,
        # or any NaN operand (Python's math.fmod raises instead).
        if fb == 0.0 or math.isinf(fa) or math.isnan(fa) or math.isnan(fb):
            return math.nan
        return _round(math.fmod(fa, fb), dtype)
    ia, ib = to_int(a), to_int(b)
    if ib == 0:
        return _wrap(ia, dtype)
    remainder = abs(ia) % abs(ib)
    return _wrap(-remainder if ia < 0 else remainder, dtype)


def _exec_min(dtype, a, b):
    if dtype.is_float:
        fa, fb = to_float(a), to_float(b)
        if math.isnan(fa):
            return fb
        if math.isnan(fb):
            return fa
        return min(fa, fb)
    return _wrap(min(to_int(a), to_int(b)), dtype)


def _exec_max(dtype, a, b):
    if dtype.is_float:
        fa, fb = to_float(a), to_float(b)
        if math.isnan(fa):
            return fb
        if math.isnan(fb):
            return fa
        return max(fa, fb)
    return _wrap(max(to_int(a), to_int(b)), dtype)


def _exec_neg(dtype, a):
    if dtype.is_float:
        return -to_float(a)
    return _wrap(-to_int(a), dtype)


def _exec_abs(dtype, a):
    if dtype.is_float:
        return abs(to_float(a))
    return _wrap(abs(to_int(a)), dtype)


def _exec_rcp(dtype, a):
    fa = to_float(a)
    if fa == 0.0:
        return math.copysign(math.inf, fa)
    if math.isnan(fa):
        return math.nan
    return _round(1.0 / fa, dtype)


def _exec_sqrt(dtype, a):
    fa = to_float(a)
    if fa < 0.0:
        return math.nan
    return _round(math.sqrt(fa), dtype)


def _exec_ex2(dtype, a):
    try:
        return _round(2.0 ** to_float(a), dtype)
    except OverflowError:
        return math.inf


def _exec_lg2(dtype, a):
    fa = to_float(a)
    if fa < 0.0 or math.isnan(fa):
        return math.nan
    if fa == 0.0:
        return -math.inf
    return _round(math.log2(fa), dtype)


def _shift_amount(b: Number) -> int:
    return to_int(b) & 0xFF


def _exec_shl(dtype, a, b):
    amount = _shift_amount(b)
    if amount >= dtype.width:
        return 0
    return _wrap(to_int(a) << amount, dtype)


def _exec_shr(dtype, a, b):
    amount = _shift_amount(b)
    value = to_int(a)
    if dtype.is_signed:
        if amount >= dtype.width:
            return -1 if value < 0 else 0
        return _wrap(value >> amount, dtype)
    unsigned = value & ((1 << dtype.width) - 1)
    if amount >= dtype.width:
        return 0
    return _wrap(unsigned >> amount, dtype)


def _exec_cvt(dtype, a):
    if dtype.is_float:
        return _round(to_float(a), dtype)
    return _wrap(to_int(a), dtype)


_COMPARATORS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def compare(cmp: str, dtype: DataType, a: Number, b: Number) -> bool:
    """Evaluate a comparison in the operation's domain (NaN compares false)."""
    if dtype.is_float:
        fa, fb = to_float(a), to_float(b)
        if math.isnan(fa) or math.isnan(fb):
            return cmp == "ne"
        return _COMPARATORS[cmp](fa, fb)
    return _COMPARATORS[cmp](to_int(a), to_int(b))


def condition_code(cmp: str, dtype: DataType, a: Number, b: Number) -> int:
    """Pack the PTXPlus 4-bit condition code for ``set`` with a predicate dest.

    Bit 0 (zero flag) carries the comparison outcome — the only flag branch
    guards consult.  Sign/carry/overflow are derived from ``a - b`` so that
    flipping them is architecturally possible yet (as the paper observes)
    inconsequential for these workloads.
    """
    code = 0
    if compare(cmp, dtype, a, b):
        code |= 1 << PRED_ZERO
    if dtype.is_float:
        fa, fb = to_float(a), to_float(b)
        if not (math.isnan(fa) or math.isnan(fb)) and fa < fb:
            code |= 1 << PRED_SIGN
        return code
    ia, ib = to_int(a), to_int(b)
    diff = ia - ib
    if diff < 0:
        code |= 1 << PRED_SIGN
    width = dtype.width
    ua = ia & ((1 << width) - 1)
    ub = ib & ((1 << width) - 1)
    if ua < ub:
        code |= 1 << PRED_CARRY
    wrapped = canonical_int(diff, dtype)
    if wrapped != diff and not dtype.is_signed:
        pass  # unsigned wrap is the carry flag, already set above
    elif dtype.is_signed and wrapped != diff:
        code |= 1 << PRED_OVERFLOW
    return code


def _exec_set_general(dtype, cmp, a, b):
    # PTX `set` into a general register produces all-ones on true.
    return _wrap(-1, dtype) if compare(cmp, dtype, a, b) else 0


def _exec_slct(dtype, a, b, c):
    selector = to_float(c) if isinstance(c, float) else to_int(c)
    chosen = a if selector >= 0 else b
    return _round(to_float(chosen), dtype) if dtype.is_float else _wrap(to_int(chosen), dtype)


#: opcode -> executor taking (dtype, *source values).
EXECUTORS: dict[str, Callable[..., Number]] = {
    "mov": _exec_cvt,
    "cvt": _exec_cvt,
    "add": _exec_add,
    "sub": _exec_sub,
    "mul": _exec_mul,
    "mul.wide": _exec_mul_wide,
    "mad": _exec_mad,
    "fma": _exec_mad,
    "div": _exec_div,
    "rem": _exec_rem,
    "min": _exec_min,
    "max": _exec_max,
    "neg": _exec_neg,
    "abs": _exec_abs,
    "rcp": _exec_rcp,
    "sqrt": _exec_sqrt,
    "ex2": _exec_ex2,
    "lg2": _exec_lg2,
    "and": _binary_int(lambda a, b: a & b),
    "or": _binary_int(lambda a, b: a | b),
    "xor": _binary_int(lambda a, b: a ^ b),
    "not": lambda dtype, a: _wrap(~to_int(a), dtype),
    "shl": _exec_shl,
    "shr": _exec_shr,
    "slct": _exec_slct,
}
