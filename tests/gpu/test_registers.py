"""Unit + property tests for register values and the bit-flip primitive."""

import math
import struct

import pytest
from hypothesis import assume, given, strategies as st

from repro.errors import FaultInjectionError
from repro.gpu.isa import DataType
from repro.gpu.registers import canonical_int, clamp_f32, flip_bit


class TestFlipBit:
    def test_u32_flip(self):
        assert flip_bit(0, DataType.U32, 0) == 1
        assert flip_bit(1, DataType.U32, 0) == 0
        assert flip_bit(0, DataType.U32, 31) == 2**31

    def test_s32_flip_sign_bit(self):
        assert flip_bit(0, DataType.S32, 31) == -(2**31)

    def test_f32_flip_sign_bit(self):
        assert flip_bit(1.0, DataType.F32, 31) == -1.0

    def test_f32_flip_can_make_inf(self):
        # Flipping the top exponent bit of 2.0 (0x40000000) gives 0x7F800000.
        bits = struct.unpack("<I", struct.pack("<f", 2.0))[0]
        target_bit = 29  # 0x40000000 ^ 0x3F800000... find via xor
        flipped = flip_bit(2.0, DataType.F32, 30)
        expected_bits = bits ^ (1 << 30)
        expected = struct.unpack("<f", struct.pack("<I", expected_bits))[0]
        assert flipped == expected or (math.isnan(flipped) and math.isnan(expected))

    def test_pred_flip_selects_flag(self):
        assert flip_bit(0b0000, DataType.PRED, 0) == 0b0001
        assert flip_bit(0b0001, DataType.PRED, 3) == 0b1001

    def test_out_of_range_bit_raises(self):
        with pytest.raises(FaultInjectionError):
            flip_bit(0, DataType.U32, 32)
        with pytest.raises(FaultInjectionError):
            flip_bit(0, DataType.PRED, 4)
        with pytest.raises(FaultInjectionError):
            flip_bit(0, DataType.U32, -1)

    @given(
        value=st.integers(min_value=0, max_value=2**32 - 1),
        bit=st.integers(min_value=0, max_value=31),
    )
    def test_flip_is_involutive_u32(self, value, bit):
        once = flip_bit(value, DataType.U32, bit)
        assert flip_bit(once, DataType.U32, bit) == value

    @given(
        value=st.floats(width=32, allow_nan=False, allow_infinity=False),
        bit=st.integers(min_value=0, max_value=31),
    )
    def test_flip_is_involutive_f32(self, value, bit):
        once = flip_bit(value, DataType.F32, bit)
        # NaN intermediates lose their payload through the Python-double
        # register representation; a second flip never happens in a real
        # campaign (one injection per run), so scope the property to the
        # non-NaN intermediate case.
        assume(not math.isnan(once))
        twice = flip_bit(once, DataType.F32, bit)
        assert twice == value

    @given(
        value=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        bit=st.integers(min_value=0, max_value=31),
    )
    def test_flip_changes_exactly_one_bit_s32(self, value, bit):
        flipped = flip_bit(value, DataType.S32, bit)
        diff = (flipped & 0xFFFFFFFF) ^ (value & 0xFFFFFFFF)
        assert diff == 1 << bit


class TestCanonicalInt:
    def test_u32_wrap(self):
        assert canonical_int(2**32, DataType.U32) == 0
        assert canonical_int(-1, DataType.U32) == 2**32 - 1

    def test_s32_wrap(self):
        assert canonical_int(2**31, DataType.S32) == -(2**31)

    @given(st.integers())
    def test_result_in_range(self, value):
        wrapped = canonical_int(value, DataType.S32)
        assert -(2**31) <= wrapped < 2**31


class TestClampF32:
    def test_passthrough_special(self):
        assert math.isinf(clamp_f32(math.inf))
        assert math.isnan(clamp_f32(math.nan))

    def test_rounding(self):
        assert clamp_f32(1.0 + 2.0**-30) == 1.0

    def test_overflow_to_inf(self):
        assert clamp_f32(1e39) == math.inf
        assert clamp_f32(-1e39) == -math.inf
