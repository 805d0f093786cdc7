"""Register value encoding and the fault model's bit-flip primitive.

A thread's registers are the plain dict ``ThreadContext.regs``, keyed by
register name and created on first write (PTXPlus programs declare
register usage implicitly); unwritten registers read as zero
(``regs.get(name, 0)``), like a freshly allocated hardware register file.
Integer registers hold Python ints already masked to the operation width
at write time; float registers hold Python floats; predicate registers
hold a 4-bit condition code packed into an int (bit 0 = zero flag,
1 = sign, 2 = carry, 3 = overflow).

:func:`flip_bit` implements the paper's single-bit-flip fault model on a
destination register *after* the instruction writes it.
"""

from __future__ import annotations

import math
import struct

from ..errors import FaultInjectionError
from .isa import DataType


def _float_bits(value: float, dtype: DataType) -> int:
    if dtype is DataType.F32:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _bits_float(bits: int, dtype: DataType) -> float:
    if dtype is DataType.F32:
        return struct.unpack("<f", struct.pack("<I", bits))[0]
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def clamp_f32(value: float) -> float:
    """Round a Python float through IEEE-754 single precision."""
    if math.isnan(value) or math.isinf(value):
        return value
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except (OverflowError, ValueError):
        return math.inf if value > 0 else -math.inf


def flip_bit(value: int | float, dtype: DataType, bit: int) -> int | float:
    """Return ``value`` with bit ``bit`` of its storage image inverted.

    For float types the flip happens in the IEEE-754 bit pattern, so flips
    can produce NaN/Inf exactly as a hardware upset would.  For the 4-bit
    predicate condition code, ``bit`` selects one of the four flags.
    """
    width = dtype.width
    if not 0 <= bit < width:
        raise FaultInjectionError(f"bit {bit} out of range for {dtype}")
    if dtype.is_float:
        bits = _float_bits(float(value), dtype) ^ (1 << bit)
        return _bits_float(bits, dtype)
    mask = (1 << width) - 1
    flipped = (int(value) & mask) ^ (1 << bit)
    if dtype.is_signed and flipped & (1 << (width - 1)):
        return flipped - (1 << width)
    return flipped


def canonical_int(value: int, dtype: DataType) -> int:
    """Wrap an arbitrary Python int to the representable range of ``dtype``."""
    mask = (1 << dtype.width) - 1
    value &= mask
    if dtype.is_signed and value & (1 << (dtype.width - 1)):
        value -= 1 << dtype.width
    return value
