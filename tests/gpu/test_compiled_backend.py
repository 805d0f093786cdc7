"""Differential fuzzing: compiled basic blocks vs the interpreter.

``repro.gpu.compiler`` re-implements instruction semantics as generated
basic-block and single-step functions, so its correctness argument is
equivalence, not review: this harness
generates random programs spanning every opcode, guarded instructions,
both memory spaces, run-time loops and barriers, runs each on both
backends, and asserts the complete observable state matches — traces,
write logs, instruction/barrier counts, and the final heap (which, via a
register-dump epilogue, includes every register and predicate).

A second stage fuzzes the *arming layer*: injection outcomes for all
three fault models must match the interpreter on the same random
programs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FaultInjector
from repro.gpu import GPUSimulator, KernelBuilder, LaunchGeometry, pack_params
from repro.gpu.isa import CMP_OPS
from repro.kernels.registry import KernelInstance, OutputBuffer
from repro.telemetry import Telemetry

N_THREADS_PER_CTA = 4
N_CTAS = 2
N_THREADS = N_THREADS_PER_CTA * N_CTAS
SLICE_BYTES = 16  # private global scratch per thread
DUMP_BYTES = 4 * 4 + 3 * 8 + 2 * 4  # 4 int regs + 3 float regs + 2 preds

INT_DTYPES = ("u16", "u32", "s32", "u64", "s64")
FLOAT_DTYPES = ("f32", "f64")
INT_BINARY = ("add", "sub", "mul", "mul.wide", "min", "max",
              "and", "or", "xor", "shl", "shr", "div", "rem")
INT_UNARY = ("mov", "cvt", "not", "neg", "abs")
FLOAT_BINARY = ("add", "sub", "mul", "div", "rem", "min", "max")
FLOAT_UNARY = ("mov", "cvt", "neg", "abs", "rcp", "sqrt", "ex2", "lg2")


def _int_imm(rng) -> int:
    return int(rng.integers(-(1 << 20), 1 << 20))


def _float_imm(rng) -> float:
    return round(float(rng.uniform(-8.0, 8.0)), 3)


class _Fuzzer:
    """Emits one random-but-valid program via the KernelBuilder DSL."""

    def __init__(self, rng: np.random.Generator, n_body: int) -> None:
        self.rng = rng
        self.k = KernelBuilder("fuzz")
        self.in_ptr, self.out_ptr = self.k.params("inp", "out")
        self.ints = [self.k.reg(f"i{j}") for j in range(4)]
        self.floats = [self.k.reg(f"f{j}") for j in range(3)]
        self.preds = [self.k.pred(f"p{j}") for j in range(2)]
        self.addr = self.k.reg("addr")
        self.saddr = self.k.reg("saddr")
        self.ctr = self.k.reg("ctr")  # loop counter: never a random dest
        self.shared_off = self.k.shared_alloc(N_THREADS_PER_CTA * SLICE_BYTES)
        self.n_body = n_body

    def _guard(self):
        if self.rng.random() < 0.2:
            pred = self.preds[int(self.rng.integers(len(self.preds)))]
            return (pred, "eq" if self.rng.random() < 0.5 else "ne")
        return None

    def _iop(self, allow_imm=True):
        if allow_imm and self.rng.random() < 0.3:
            return _int_imm(self.rng)
        return self.ints[int(self.rng.integers(len(self.ints)))]

    def _fop(self, allow_imm=True):
        if allow_imm and self.rng.random() < 0.3:
            return _float_imm(self.rng)
        return self.floats[int(self.rng.integers(len(self.floats)))]

    def _preamble(self) -> None:
        k = self.k
        tid = self.ints[0]
        k.cvt("u32", tid, k.tid.x)
        # addr -> this thread's private global slice (uses the full grid id
        # so CTAs never alias); saddr -> its shared slice.
        k.cvt("u32", self.addr, k.ctaid.x)
        k.mul("u32", self.addr, self.addr, N_THREADS_PER_CTA)
        k.add("u32", self.addr, self.addr, tid)
        k.mul("u32", self.addr, self.addr, SLICE_BYTES)
        k.ld("u32", self.ints[1], self.in_ptr)
        k.add("u32", self.addr, self.addr, self.ints[1])
        k.mul("u32", self.saddr, tid, SLICE_BYTES)
        for j, reg in enumerate(self.ints[1:], start=1):
            k.ld("u32", reg, k.global_ref(self.addr, 4 * (j % 4)))
        for j, reg in enumerate(self.floats):
            k.ld("f32", reg, k.global_ref(self.addr, 4 * j))
        k.set("lt", "s32", self.preds[0], self.ints[1], self.ints[2])
        k.set("ge", "u32", self.preds[1], self.ints[2], self.ints[3])

    def _emit_random(self) -> None:
        k, rng = self.k, self.rng
        roll = rng.random()
        guard = self._guard()
        if roll < 0.30:  # int ALU
            op = INT_BINARY[int(rng.integers(len(INT_BINARY)))]
            dtype = INT_DTYPES[int(rng.integers(len(INT_DTYPES)))]
            dest = self.ints[int(rng.integers(len(self.ints)))]
            k.emit(op, dtype, dest, (self._iop(), self._iop()), guard=guard)
        elif roll < 0.42:  # int unary / mad
            if rng.random() < 0.3:
                dtype = INT_DTYPES[int(rng.integers(len(INT_DTYPES)))]
                dest = self.ints[int(rng.integers(len(self.ints)))]
                k.emit("mad", dtype, dest,
                       (self._iop(), self._iop(), self._iop()), guard=guard)
            else:
                op = INT_UNARY[int(rng.integers(len(INT_UNARY)))]
                dtype = INT_DTYPES[int(rng.integers(len(INT_DTYPES)))]
                dest = self.ints[int(rng.integers(len(self.ints)))]
                k.emit(op, dtype, dest, (self._iop(),), guard=guard)
        elif roll < 0.56:  # float ALU (binary / unary / mad / fma)
            dtype = FLOAT_DTYPES[int(rng.integers(len(FLOAT_DTYPES)))]
            dest = self.floats[int(rng.integers(len(self.floats)))]
            sub = rng.random()
            if sub < 0.5:
                op = FLOAT_BINARY[int(rng.integers(len(FLOAT_BINARY)))]
                k.emit(op, dtype, dest, (self._fop(), self._fop()), guard=guard)
            elif sub < 0.75:
                op = FLOAT_UNARY[int(rng.integers(len(FLOAT_UNARY)))]
                k.emit(op, dtype, dest, (self._fop(),), guard=guard)
            else:
                op = "mad" if rng.random() < 0.5 else "fma"
                k.emit(op, dtype, dest,
                       (self._fop(), self._fop(), self._fop()), guard=guard)
        elif roll < 0.68:  # set / setp, int and float flavours
            cmp = CMP_OPS[int(rng.integers(len(CMP_OPS)))]
            op = "setp" if rng.random() < 0.5 else "set"
            if rng.random() < 0.7:
                dtype = INT_DTYPES[int(rng.integers(len(INT_DTYPES)))]
                srcs = (self._iop(allow_imm=False), self._iop())
            else:
                dtype = FLOAT_DTYPES[int(rng.integers(len(FLOAT_DTYPES)))]
                srcs = (self._fop(allow_imm=False), self._fop())
            if op == "setp" or rng.random() < 0.5:
                dest = self.preds[int(rng.integers(len(self.preds)))]
            else:
                dest = self.ints[int(rng.integers(len(self.ints)))]
            k.emit(op, dtype, dest, srcs, cmp=cmp, guard=guard)
        elif roll < 0.76:  # selp / slct
            dest = self.ints[int(rng.integers(len(self.ints)))]
            if rng.random() < 0.5:
                pred = self.preds[int(rng.integers(len(self.preds)))]
                k.emit("selp", "u32", dest,
                       (self._iop(), self._iop(), pred), guard=guard)
            else:
                k.emit("slct", "s32", dest,
                       (self._iop(), self._iop(), self._iop()), guard=guard)
        elif roll < 0.92:  # memory, both spaces
            offset = 4 * int(rng.integers(SLICE_BYTES // 4))
            space_shared = rng.random() < 0.5
            ref = (
                self.k.shared_ref(self.saddr, offset)
                if space_shared
                else self.k.global_ref(self.addr, offset)
            )
            if rng.random() < 0.5:
                dtype = "f32" if rng.random() < 0.3 else "u32"
                dest = (
                    self.floats[int(rng.integers(len(self.floats)))]
                    if dtype == "f32"
                    else self.ints[int(rng.integers(len(self.ints)))]
                )
                k.ld(dtype, dest, ref, guard=guard)
            elif rng.random() < 0.3:
                k.st("f32", ref, self._fop(), guard=guard)
            else:
                k.st("u32", ref, self._iop(), guard=guard)
        else:  # control filler
            k.nop() if rng.random() < 0.5 else k.emit("ssy")

    def _dump_registers(self) -> None:
        """Epilogue making every register observable in the output heap."""
        k = self.k
        dump = k.reg("dump")
        k.cvt("u32", dump, k.ctaid.x)
        k.mul("u32", dump, dump, N_THREADS_PER_CTA)
        k.cvt("u32", self.saddr, k.tid.x)  # saddr is dead past the body
        k.add("u32", dump, dump, self.saddr)
        k.mul("u32", dump, dump, DUMP_BYTES)
        k.ld("u32", self.saddr, self.out_ptr)
        k.add("u32", dump, dump, self.saddr)
        offset = 0
        for reg in self.ints:
            k.st("u32", k.global_ref(dump, offset), reg)
            offset += 4
        for reg in self.floats:
            k.st("f64", k.global_ref(dump, offset), reg)
            offset += 8
        for pred in self.preds:
            k.st("u32", k.global_ref(dump, offset), pred)
            offset += 4

    def build(self):
        k, rng = self.k, self.rng
        self._preamble()
        emitted = 0
        while emitted < self.n_body:
            block = int(rng.integers(3, 9))
            shape = rng.random()
            if shape < 0.25:  # uniform run-time loop (may contain a barrier)
                with k.loop("u32", self.ctr, 0, int(rng.integers(2, 5)),
                            pred_name=f"pl{emitted}"):
                    for _ in range(block):
                        self._emit_random()
                    if rng.random() < 0.5:
                        k.bar()
            elif shape < 0.45:  # divergent if-block (no barrier inside)
                with k.if_block(
                    "lt", "u32", self.ints[1], self._iop(),
                    pred_name=f"pi{emitted}",
                ):
                    for _ in range(block):
                        self._emit_random()
            else:
                for _ in range(block):
                    self._emit_random()
                if rng.random() < 0.3:
                    k.bar()
            emitted += block
        self._dump_registers()
        k.retp()
        return k.build()


def build_fuzz_instance(seed: int, n_body: int = 48) -> KernelInstance:
    rng = np.random.default_rng(seed)
    fuzzer = _Fuzzer(rng, n_body)
    program = fuzzer.build()
    data = np.round(rng.uniform(-4, 4, N_THREADS * SLICE_BYTES // 4), 3).astype(
        np.float32
    )
    sim = GPUSimulator()
    in_addr = sim.alloc_array(data)
    out_addr = sim.alloc_zeros(N_THREADS * DUMP_BYTES)
    params = pack_params(fuzzer.k.param_layout, {"inp": in_addr, "out": out_addr})
    return KernelInstance(
        spec=None,
        program=program,
        geometry=LaunchGeometry(grid=(N_CTAS, 1), block=(N_THREADS_PER_CTA, 1)),
        param_bytes=params,
        initial_memory=sim.memory,
        outputs=(
            OutputBuffer("dump", out_addr, np.dtype(np.uint8), N_THREADS * DUMP_BYTES),
            OutputBuffer("data", in_addr, np.dtype(np.float32), data.size),
        ),
        reference={},  # nothing to verify: the program IS the oracle pair
    )


def _launch(
    instance: KernelInstance, backend: str, traced: bool = True, telemetry=None
):
    sim = GPUSimulator(backend=backend, telemetry=telemetry)
    memory = instance.initial_memory.snapshot()
    result = sim.launch(
        instance.program,
        instance.geometry,
        instance.param_bytes,
        memory=memory,
        record_traces=traced,
        record_write_logs=True,
        record_read_logs=True,
        record_thread_write_logs=True,
    )
    lo, hi = memory.allocation_span()
    return result, bytes(memory.raw_window(lo, hi))


def _issued_ops(instance: KernelInstance) -> set[str]:
    """Opcodes some thread issues with its guard on, per the interpreter."""
    traces = _launch(instance, "interpreter")[0].traces
    insns = instance.program.instructions
    return {insns[pc].op for pc in traces.pcs[traces.widths > 0].tolist()}


def _read_log_lists(result):
    """Load logs with their per-segment slot counts (thread attribution)."""
    return [(a.tolist(), s.tolist(), c.tolist()) for a, s, c in result.cta_read_logs]


# Untraced launches are where the compiled backend runs fused blocks
# (traced runs single-step), so both arms are fuzzed.
@pytest.mark.parametrize(
    ("backend", "traced"),
    [("compiled", True), ("vectorized", True),
     ("compiled", False), ("vectorized", False)],
    ids=["compiled", "vectorized", "compiled-untraced", "vectorized-untraced"],
)
@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_programs_execute_identically(seed, backend, traced):
    instance = build_fuzz_instance(seed)
    ref, ref_heap = _launch(instance, "interpreter", traced)
    telemetry = Telemetry()
    got, got_heap = _launch(instance, backend, traced, telemetry)
    assert got.traces == ref.traces
    assert got.cta_write_logs == ref.cta_write_logs
    assert _read_log_lists(got) == _read_log_lists(ref)
    assert got.thread_write_logs == ref.thread_write_logs
    assert got.instructions == ref.instructions
    assert got.barrier_rounds == ref.barrier_rounds
    # The heap includes the register-dump epilogue: every general register,
    # float register and predicate of every thread.
    assert got_heap == ref_heap
    # Fuzzed threads touch only their own slices, so only an issued
    # ``ex2``/``lg2`` (no exact vector form) may send the launch to the
    # compiled path; any other fallback would pass the equalities above
    # untested.
    if backend == "vectorized":
        libm = bool(_issued_ops(instance) & {"ex2", "lg2"})
        assert telemetry.metrics.counter_value("vector.fallbacks") == libm


@pytest.mark.parametrize("backend", ["compiled", "vectorized"])
@pytest.mark.parametrize("seed", [1, 4, 7])
def test_fuzzed_injection_outcomes_identical(seed, backend):
    """All three fault models agree on random programs (arming layer)."""
    instance = build_fuzz_instance(seed)
    interp = FaultInjector(instance, backend="interpreter")
    candidate = FaultInjector(instance, backend=backend)
    rng = np.random.default_rng(seed)

    for site in interp.space.sample(24, rng):  # VALUE
        assert interp.inject(site) == candidate.inject(site), site
    thread = max(range(len(interp.traces)), key=lambda t: len(interp.traces[t]))
    for site in interp.store_address_sites(thread)[:16]:  # STORE_ADDRESS
        spec = site.spec()
        assert interp.inject_spec(site.thread, spec) == candidate.inject_spec(
            site.thread, spec
        ), site
    for site in interp.sample_register_file_sites(16, rng):  # REGISTER_FILE
        spec = site.spec()
        assert interp.inject_spec(site.thread, spec) == candidate.inject_spec(
            site.thread, spec
        ), site

