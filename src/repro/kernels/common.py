"""Shared emit patterns and input-generation helpers for the workloads."""

from __future__ import annotations

import numpy as np

from ..gpu import KernelBuilder, Reg


def emit_global_tid_x(k: KernelBuilder, dest: Reg, scratch: Reg) -> None:
    """dest = ctaid.x * ntid.x + tid.x (the canonical 1-D global index)."""
    k.cvt("u32", dest, k.ctaid.x)
    k.cvt("u32", scratch, k.ntid.x)
    k.mul("u32", dest, dest, scratch)
    k.cvt("u32", scratch, k.tid.x)
    k.add("u32", dest, dest, scratch)


def emit_global_xy(
    k: KernelBuilder, dest_x: Reg, dest_y: Reg, scratch: Reg
) -> None:
    """2-D global coordinates (x from ctaid.x/tid.x, y from ctaid.y/tid.y)."""
    k.cvt("u32", dest_x, k.ctaid.x)
    k.cvt("u32", scratch, k.ntid.x)
    k.mul("u32", dest_x, dest_x, scratch)
    k.cvt("u32", scratch, k.tid.x)
    k.add("u32", dest_x, dest_x, scratch)
    k.cvt("u32", dest_y, k.ctaid.y)
    k.cvt("u32", scratch, k.ntid.y)
    k.mul("u32", dest_y, dest_y, scratch)
    k.cvt("u32", scratch, k.tid.y)
    k.add("u32", dest_y, dest_y, scratch)


def f32(value) -> np.float32:
    return np.float32(value)


def f32_add(a, b) -> np.float32:
    """Bit-exact mirror of the simulator's f32 add (double op, one rounding)."""
    return np.float32(float(a) + float(b))


def f32_sub(a, b) -> np.float32:
    return np.float32(float(a) - float(b))


def f32_mul(a, b) -> np.float32:
    return np.float32(float(a) * float(b))


def f32_div(a, b) -> np.float32:
    return np.float32(float(a) / float(b))


def f32_mad(a, b, c) -> np.float32:
    """Non-fused multiply-add, matching :func:`repro.gpu.alu._exec_mad`."""
    return f32_add(f32_mul(a, b), c)


def float_inputs(rng: np.random.Generator, shape, lo=0.1, hi=1.0) -> np.ndarray:
    """Deterministic, well-conditioned f32 inputs.

    Values are rounded to a coarse grid so that reference computations in
    float64 NumPy, when cast to f32, agree bit-exactly with the simulator's
    f32 arithmetic on short dependence chains.
    """
    values = rng.uniform(lo, hi, size=shape)
    return np.round(values, 3).astype(np.float32)
