"""Tiny synthetic kernels for fast, targeted tests."""

from __future__ import annotations

import numpy as np

from repro.gpu import GPUSimulator, KernelBuilder, LaunchGeometry, pack_params
from repro.kernels.registry import KernelInstance, OutputBuffer


def build_saxpy_instance(n: int = 12, block: int = 4, a: float = 2.0) -> KernelInstance:
    """y = a*x + y over ``n`` elements; tail threads exit via the guard."""
    k = KernelBuilder("saxpy")
    x_ptr, y_ptr, n_p, a_p = k.params("x", "y", "n", "a_f32")
    r = k.regs("i", "t", "addr", "xv", "yv")
    k.cvt("u32", r.i, k.ctaid.x)
    k.cvt("u32", r.t, k.ntid.x)
    k.mul("u32", r.i, r.i, r.t)
    k.cvt("u32", r.t, k.tid.x)
    k.add("u32", r.i, r.i, r.t)
    k.ld("u32", r.t, n_p)
    with k.if_lt("u32", r.i, r.t):
        k.shl("u32", r.addr, r.i, 2)
        k.ld("u32", r.t, x_ptr)
        k.add("u32", r.addr, r.addr, r.t)
        k.ld("f32", r.xv, k.global_ref(r.addr))
        k.shl("u32", r.addr, r.i, 2)
        k.ld("u32", r.t, y_ptr)
        k.add("u32", r.addr, r.addr, r.t)
        k.ld("f32", r.yv, k.global_ref(r.addr))
        k.ld("f32", r.t, a_p)
        k.mad_op("f32", r.yv, r.t, r.xv, r.yv)
        k.st("f32", k.global_ref(r.addr), r.yv)
    k.retp()
    program = k.build()

    rng = np.random.default_rng(99)
    x = np.round(rng.uniform(0, 1, n), 3).astype(np.float32)
    y = np.round(rng.uniform(0, 1, n), 3).astype(np.float32)
    sim = GPUSimulator()
    x_addr = sim.alloc_array(x)
    y_addr = sim.alloc_array(y)
    params = pack_params(
        k.param_layout, {"x": x_addr, "y": y_addr, "n": n, "a_f32": a}
    )
    grid = (n + block - 1) // block
    expected = np.empty(n, dtype=np.float32)
    for i in range(n):
        expected[i] = np.float32(
            float(np.float32(float(np.float32(a)) * float(x[i]))) + float(y[i])
        )
    return KernelInstance(
        spec=None,
        program=program,
        geometry=LaunchGeometry(grid=(grid, 1), block=(block, 1)),
        param_bytes=params,
        initial_memory=sim.memory,
        outputs=(OutputBuffer("y", y_addr, np.dtype(np.float32), n),),
        reference={"y": expected},
    )


def build_loop_sum_instance(n_threads: int = 4, iters: int = 6) -> KernelInstance:
    """Each thread sums ``iters`` array elements in a run-time loop."""
    k = KernelBuilder("loop_sum")
    in_ptr, out_ptr = k.params("inp", "out")
    r = k.regs("i", "t", "j", "addr", "acc", "v")
    k.cvt("u32", r.i, k.tid.x)
    k.mul("u32", r.addr, r.i, iters * 4)
    k.ld("u32", r.t, in_ptr)
    k.add("u32", r.addr, r.addr, r.t)
    k.mov("u32", r.acc, 0)
    with k.loop("u32", r.j, 0, iters):
        k.ld("u32", r.v, k.global_ref(r.addr))
        k.add("u32", r.acc, r.acc, r.v)
        k.add("u32", r.addr, r.addr, 4)
    k.shl("u32", r.addr, r.i, 2)
    k.ld("u32", r.t, out_ptr)
    k.add("u32", r.addr, r.addr, r.t)
    k.st("u32", k.global_ref(r.addr), r.acc)
    k.retp()
    program = k.build()

    rng = np.random.default_rng(7)
    data = rng.integers(0, 100, size=n_threads * iters, dtype=np.uint32)
    sim = GPUSimulator()
    in_addr = sim.alloc_array(data)
    out_addr = sim.alloc_zeros(n_threads * 4)
    params = pack_params(k.param_layout, {"inp": in_addr, "out": out_addr})
    expected = data.reshape(n_threads, iters).sum(axis=1, dtype=np.uint32)
    return KernelInstance(
        spec=None,
        program=program,
        geometry=LaunchGeometry(grid=(1, 1), block=(n_threads, 1)),
        param_bytes=params,
        initial_memory=sim.memory,
        outputs=(OutputBuffer("out", out_addr, np.dtype(np.uint32), n_threads),),
        reference={"out": expected},
    )


def build_shared_flag_instance(grid: int = 2, block: int = 2) -> KernelInstance:
    """Every thread sets ``flag[0] = 1`` and ``y[i] = i``: a benign race.

    All threads write the same flag bytes, so no CTA (when ``grid`` > 1)
    and no thread (when ``block`` > 1) owns its writes alone; both
    buffers are outputs.
    """
    n = grid * block
    k = KernelBuilder("shared_flag")
    flag_ptr, y_ptr, n_p = k.params("flag", "y", "n")
    r = k.regs("i", "t", "addr", "one")
    k.cvt("u32", r.i, k.ctaid.x)
    k.cvt("u32", r.t, k.ntid.x)
    k.mul("u32", r.i, r.i, r.t)
    k.cvt("u32", r.t, k.tid.x)
    k.add("u32", r.i, r.i, r.t)
    k.ld("u32", r.t, n_p)
    with k.if_lt("u32", r.i, r.t):
        k.ld("u32", r.addr, flag_ptr)
        k.mov("u32", r.one, 1)
        k.st("u32", k.global_ref(r.addr), r.one)
        k.shl("u32", r.addr, r.i, 2)
        k.ld("u32", r.t, y_ptr)
        k.add("u32", r.addr, r.addr, r.t)
        k.st("u32", k.global_ref(r.addr), r.i)
    k.retp()
    program = k.build()

    sim = GPUSimulator()
    flag_addr = sim.alloc_zeros(4)
    y_addr = sim.alloc_zeros(4 * n)
    params = pack_params(k.param_layout, {"flag": flag_addr, "y": y_addr, "n": n})
    return KernelInstance(
        spec=None,
        program=program,
        geometry=LaunchGeometry(grid=(grid, 1), block=(block, 1)),
        param_bytes=params,
        initial_memory=sim.memory,
        outputs=(
            OutputBuffer("flag", flag_addr, np.dtype(np.uint32), 1),
            OutputBuffer("y", y_addr, np.dtype(np.uint32), n),
        ),
        reference={
            "flag": np.ones(1, dtype=np.uint32),
            "y": np.arange(n, dtype=np.uint32),
        },
    )


def build_neighbour_read_instance(block: int = 4) -> KernelInstance:
    """``y[i] += x[i]`` in one CTA, except thread 0 reads ``y[1]``.

    Thread 0 reads a byte its sibling (thread 1) writes; every other
    thread reads only the element it writes, as GEMM's ``C = aAB + bC``
    does.
    """
    k = KernelBuilder("neighbour_read")
    x_ptr, y_ptr = k.params("x", "y")
    r = k.regs("i", "j", "t", "addr", "xv", "yv")
    k.cvt("u32", r.i, k.tid.x)
    k.mov("u32", r.j, r.i)
    with k.if_block("eq", "u32", r.i, 0):
        k.mov("u32", r.j, 1)
    k.shl("u32", r.addr, r.i, 2)
    k.ld("u32", r.t, x_ptr)
    k.add("u32", r.addr, r.addr, r.t)
    k.ld("u32", r.xv, k.global_ref(r.addr))
    k.shl("u32", r.addr, r.j, 2)
    k.ld("u32", r.t, y_ptr)
    k.add("u32", r.addr, r.addr, r.t)
    k.ld("u32", r.yv, k.global_ref(r.addr))
    k.add("u32", r.yv, r.yv, r.xv)
    k.shl("u32", r.addr, r.i, 2)
    k.add("u32", r.addr, r.addr, r.t)
    k.st("u32", k.global_ref(r.addr), r.yv)
    k.retp()
    program = k.build()

    x = np.arange(10, 10 + block, dtype=np.uint32)
    y = np.arange(100, 100 + 16 * block, 16, dtype=np.uint32)
    sim = GPUSimulator()
    x_addr = sim.alloc_array(x)
    y_addr = sim.alloc_array(y)
    params = pack_params(k.param_layout, {"x": x_addr, "y": y_addr})
    expected = y + x
    expected[0] = y[1] + x[0]
    return KernelInstance(
        spec=None,
        program=program,
        geometry=LaunchGeometry(grid=(1, 1), block=(block, 1)),
        param_bytes=params,
        initial_memory=sim.memory,
        outputs=(OutputBuffer("y", y_addr, np.dtype(np.uint32), block),),
        reference={"y": expected},
    )
