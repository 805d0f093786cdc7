"""Robustness properties: the ALU must digest fault-corrupted values.

After a bit flip, any register can hold any value representable in its
width.  Whatever garbage flows into subsequent instructions, the
*simulator* must never raise from an ALU executor — only memory accesses
(MemoryFault) and runaway loops (HangDetected) may abort a faulty run.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.gpu.alu import EXECUTORS, compare, condition_code
from repro.gpu.isa import DataType
from repro.gpu.program import FLOAT_ONLY_OPS, INT_ONLY_OPS

_INT_DTYPES = [DataType.U16, DataType.U32, DataType.S32, DataType.U64]
_FLOAT_DTYPES = [DataType.F32, DataType.F64]

# Values a corrupted register could plausibly hold: full 64-bit ints and
# any float including NaN/Inf (a flipped exponent bit produces those).
corrupt_ints = st.integers(min_value=-(2**63), max_value=2**64 - 1)
corrupt_floats = st.floats(allow_nan=True, allow_infinity=True, width=32)
corrupt_values = st.one_of(corrupt_ints, corrupt_floats)

# Valid (op, dtype-family) pairs only — programs with integer-only ops on
# floats (and vice versa) are rejected at build time (see test_builder_
# program), so the ALU contract covers well-typed instructions.
_UNARY = ["mov", "cvt", "neg", "abs", "not", "rcp", "sqrt", "ex2", "lg2"]
_BINARY = ["add", "sub", "mul", "mul.wide", "div", "rem", "min", "max",
           "and", "or", "xor", "shl", "shr"]
_TERNARY = ["mad", "fma", "slct"]


def _dtypes_for(op):
    if op in INT_ONLY_OPS:
        return _INT_DTYPES
    if op in FLOAT_ONLY_OPS:
        return _FLOAT_DTYPES
    return _INT_DTYPES + _FLOAT_DTYPES


def _op_dtype_pairs(ops):
    return st.one_of(
        *(st.tuples(st.just(op), st.sampled_from(_dtypes_for(op))) for op in ops)
    )


@settings(max_examples=200)
@given(pair=_op_dtype_pairs(_BINARY), a=corrupt_values, b=corrupt_values)
def test_binary_ops_never_raise(pair, a, b):
    op, dtype = pair
    result = EXECUTORS[op](dtype, a, b)
    _check_domain(result, dtype)


@settings(max_examples=200)
@given(pair=_op_dtype_pairs(_UNARY), a=corrupt_values)
def test_unary_ops_never_raise(pair, a):
    op, dtype = pair
    result = EXECUTORS[op](dtype, a)
    _check_domain(result, dtype)


@settings(max_examples=200)
@given(
    pair=_op_dtype_pairs(_TERNARY),
    a=corrupt_values,
    b=corrupt_values,
    c=corrupt_values,
)
def test_ternary_ops_never_raise(pair, a, b, c):
    op, dtype = pair
    result = EXECUTORS[op](dtype, a, b, c)
    _check_domain(result, dtype)


@settings(max_examples=200)
@given(
    cmp=st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
    dtype=st.sampled_from(_INT_DTYPES + _FLOAT_DTYPES),
    a=corrupt_values,
    b=corrupt_values,
)
def test_compare_and_cc_never_raise(cmp, dtype, a, b):
    assert isinstance(compare(cmp, dtype, a, b), bool)
    code = condition_code(cmp, dtype, a, b)
    assert 0 <= code < 16


def _check_domain(result, dtype):
    """Integer ops must stay within width; float ops must stay floats."""
    if dtype.is_float:
        assert isinstance(result, float)
        return
    assert isinstance(result, int)
    if dtype.is_signed:
        assert -(2 ** (dtype.width - 1)) <= result < 2 ** (dtype.width - 1)
    else:
        assert 0 <= result < 2**dtype.width
