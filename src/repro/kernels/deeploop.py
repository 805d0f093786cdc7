"""Deep-loop microbenchmark kernel for backend throughput comparisons.

Synthetic, deliberately *not* registered in the Table I registry: its job
is to stress the execution backends at a representative paper-scale shape
— wide CTAs (hundreds of lanes), a deep uniform register loop, one global
store per thread — so ``benchmarks/bench_vectorized_backend.py`` can
measure injections/sec where lane-parallel execution matters most.

The kernel stages each thread's input through shared memory (store, one
barrier, read the ring neighbour's slot), which disables the injector's
thread-sliced fast path: every injection re-executes a full CTA, exactly
the regime the vectorized backend accelerates.
"""

from __future__ import annotations

import numpy as np

from ..gpu import GPUSimulator, KernelBuilder, LaunchGeometry, pack_params
from .common import emit_global_tid_x, float_inputs
from .registry import KernelInstance, OutputBuffer

N_THREADS = 2048
BLOCK_THREADS = 1024
ITERS = 200
DECAY = np.float32(0.5)
SEED = 0x0DEE


def build_program(
    block_threads: int = BLOCK_THREADS,
    iters: int = ITERS,
) -> KernelBuilder:
    k = KernelBuilder("deeploop_kernel")
    x_ptr, out_ptr = k.params("x", "out")
    r = k.regs(
        "gid", "ltid", "t", "ii", "addr", "saddr", "acc", "seed", "decay"
    )

    emit_global_tid_x(k, r.gid, r.t)
    k.cvt("u32", r.ltid, k.tid.x)
    shared_base = k.shared_alloc(block_threads * 4)

    # Stage x[gid] into this thread's shared slot, barrier, then read the
    # ring neighbour's value — a real cross-lane shared dependence.
    k.shl("u32", r.addr, r.gid, 2)
    k.ld("u32", r.t, x_ptr)
    k.add("u32", r.addr, r.addr, r.t)
    k.ld("f32", r.acc, k.global_ref(r.addr))
    k.shl("u32", r.saddr, r.ltid, 2)
    k.st("f32", k.shared_ref(r.saddr, shared_base), r.acc)
    k.bar()
    k.add("u32", r.saddr, r.ltid, 1)
    k.rem("u32", r.saddr, r.saddr, block_threads)
    k.shl("u32", r.saddr, r.saddr, 2)
    k.ld("f32", r.seed, k.shared_ref(r.saddr, shared_base))

    # Deep uniform register loop: acc = acc * DECAY + seed, `iters` times.
    k.mov("f32", r.decay, float(DECAY))
    with k.loop("u32", r.ii, 0, iters):
        k.mad_op("f32", r.acc, r.acc, r.decay, r.seed)

    # out[gid] = acc
    k.shl("u32", r.addr, r.gid, 2)
    k.ld("u32", r.t, out_ptr)
    k.add("u32", r.addr, r.addr, r.t)
    k.st("f32", k.global_ref(r.addr), r.acc)
    k.retp()
    return k


def reference(x: np.ndarray, block_threads: int, iters: int) -> np.ndarray:
    """Bit-exact vectorised mirror of the per-thread recurrence."""
    seed = (
        x.reshape(-1, block_threads)[:, np.r_[1:block_threads, 0]].reshape(-1)
    )
    acc = x.copy()
    for _ in range(iters):
        acc = acc * DECAY + seed
    return acc


def build(
    n_threads: int = N_THREADS,
    block_threads: int = BLOCK_THREADS,
    iters: int = ITERS,
) -> KernelInstance:
    if n_threads % block_threads:
        raise ValueError("n_threads must be a multiple of block_threads")
    k = build_program(block_threads, iters)
    program = k.build()
    rng = np.random.default_rng(SEED)
    x = float_inputs(rng, n_threads)

    sim = GPUSimulator()
    x_addr = sim.alloc_array(x)
    out_addr = sim.alloc_array(np.zeros(n_threads, dtype=np.float32))
    params = pack_params(k.param_layout, {"x": x_addr, "out": out_addr})
    return KernelInstance(
        spec=None,
        program=program,
        geometry=LaunchGeometry(
            grid=(n_threads // block_threads, 1), block=(block_threads, 1)
        ),
        param_bytes=params,
        initial_memory=sim.memory,
        outputs=(OutputBuffer("out", out_addr, np.dtype(np.float32), n_threads),),
        reference={"out": reference(x, block_threads, iters)},
    )
