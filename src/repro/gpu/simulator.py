"""Kernel launches over the functional GPU model.

:class:`GPUSimulator` owns the device heap and launches programs over a
(grid, block) geometry, executing CTAs sequentially (CTAs within one launch
cannot communicate, per the CUDA execution model, so sequential order is
exact).  It exposes the three facilities the fault-injection layer builds
on:

* **golden runs** with per-thread dynamic traces, per-CTA write/read logs
  and optional per-thread write attribution;
* **sliced runs** (``only_cta=`` / ``only_thread=``) that re-execute a
  single CTA — or a single thread of a communication-free CTA — against a
  heap snapshot: the injector's fast paths;
* **injected runs** that arm one :class:`~repro.gpu.injection.InjectionSpec`
  fault on one thread.

Every backend runs the one :meth:`GPUSimulator.launch` loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import FaultInjectionError, HangDetected, MemoryFault, SimulatorError
from ..telemetry import NULL_TELEMETRY, SimRunEvent, Telemetry
from .checkpoint import CheckpointPlan, CTACheckpoint, ThreadCheckpoint
from .cta import run_cta
from .injection import InjectionSpec
from .memory import GlobalMemory, ParamMemory, SharedMemory
from .program import Program
from .thread import ThreadContext
from .tracing import TraceTable, read_log_arrays, slot_load_counts
from .vector import VectorFallback, _VectorCTARunner

#: Generous per-thread budget for golden runs; catches authoring bugs only.
DEFAULT_MAX_STEPS = 1_000_000

#: Execution backends: ``interpreter`` is the decoded-tuple loop in
#: :mod:`~repro.gpu.thread`; ``compiled`` specialises programs into
#: generated basic-block functions (:mod:`~repro.gpu.compiler`) with
#: identical semantics;
#: ``vectorized`` executes lane-masked SIMD over a numpy register file
#: (:mod:`~repro.gpu.vector`), falling back to the compiled path whenever
#: lockstep execution cannot prove classic-identical results.
BACKENDS = ("interpreter", "compiled", "vectorized")

#: CTA width from which ``backend="auto"`` picks the vectorized backend.
#: A lockstep step costs about the same for 32 or 256 lanes while the
#: compiled backend pays per lane; on the deeploop microkernel the two
#: cross between 64 and 128 lanes (``docs/performance.md``, "Backend
#: selection").
VECTORIZED_MIN_LANES = 128

Dim2 = tuple[int, int]


@dataclass(frozen=True)
class LaunchGeometry:
    """Grid and block dimensions (x, y) of a kernel launch."""

    grid: Dim2
    block: Dim2

    @property
    def n_ctas(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def threads_per_cta(self) -> int:
        return self.block[0] * self.block[1]

    @property
    def n_threads(self) -> int:
        return self.n_ctas * self.threads_per_cta

    def cta_of_thread(self, thread_id: int) -> int:
        return thread_id // self.threads_per_cta

    def specials_for(self, cta: int, slot: int) -> dict[tuple[str, str], int]:
        gx, _gy = self.grid
        bx, _by = self.block
        return {
            ("tid", "x"): slot % bx,
            ("tid", "y"): slot // bx,
            ("tid", "z"): 0,
            ("ntid", "x"): self.block[0],
            ("ntid", "y"): self.block[1],
            ("ntid", "z"): 1,
            ("ctaid", "x"): cta % gx,
            ("ctaid", "y"): cta // gx,
            ("ctaid", "z"): 0,
            ("nctaid", "x"): self.grid[0],
            ("nctaid", "y"): self.grid[1],
            ("nctaid", "z"): 1,
        }

    def lane_specials(self, cta: int) -> dict[tuple[str, str], np.ndarray]:
        """:meth:`specials_for` of every slot of ``cta`` at once, one
        ``uint64`` lane array per special register: only ``%tid`` varies
        across a CTA's slots."""
        tpc = self.threads_per_cta
        lanes = {
            key: np.full(tpc, value, np.uint64)
            for key, value in self.specials_for(cta, 0).items()
        }
        slots = np.arange(tpc, dtype=np.uint64)
        bx = np.uint64(self.block[0])
        lanes[("tid", "x")] = slots % bx
        lanes[("tid", "y")] = slots // bx
        return lanes


def resolve_backend(backend: str, geometry: LaunchGeometry) -> str:
    """Collapse ``"auto"`` to a concrete backend name for ``geometry``.

    Auto picks ``vectorized`` for CTAs of at least
    :data:`VECTORIZED_MIN_LANES` threads and ``compiled`` for narrower
    ones — decided from the launch shape alone, before any golden run.
    Concrete names pass through unchanged; outcomes are identical on
    every backend, so the choice only moves speed.
    """
    if backend == "auto":
        if geometry.threads_per_cta >= VECTORIZED_MIN_LANES:
            return "vectorized"
        return "compiled"
    if backend not in BACKENDS:
        raise SimulatorError(
            f"unknown backend {backend!r}; expected 'auto' or one of {BACKENDS}"
        )
    return backend


@dataclass
class LaunchResult:
    """Artifacts of one launch."""

    geometry: LaunchGeometry
    #: Traces of the launched threads, in global-thread order.
    traces: TraceTable | None
    cta_write_logs: list[list[tuple[int, bytes]]] | None
    injection_applied: bool
    instructions: int = 0
    barrier_rounds: int = 0
    #: Per-thread global-write attribution (``record_thread_write_logs``).
    thread_write_logs: list[list[tuple[int, bytes]]] | None = None
    #: Per-CTA load logs (``record_read_logs``): ``(addresses, sizes,
    #: counts)`` integer arrays, slot-major within each run-to-barrier
    #: segment; ``counts`` holds one row of per-slot load counts per
    #: segment that loaded (:func:`~repro.gpu.tracing.slot_load_counts`).
    cta_read_logs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None


class GPUSimulator:
    """Device state plus the launch entry point.

    Between launches the simulator holds only its heap: every launch
    builds its thread contexts, scratchpads and lockstep runners and drops
    them when it returns; compiled code stays cached on the
    :class:`~repro.gpu.program.Program`.
    """

    def __init__(
        self,
        heap_bytes: int = 1 << 20,
        telemetry: Telemetry | None = None,
        backend: str = "interpreter",
    ) -> None:
        if backend not in BACKENDS:
            raise SimulatorError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.memory = GlobalMemory(heap_bytes)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.backend = backend

    def _wire_checkpoint(
        self,
        checkpoint: CheckpointPlan | None,
        threads: list[ThreadContext],
        shared: SharedMemory | None,
        thread_sliced: bool,
    ):
        """Restore a classic slice from ``checkpoint.resume`` and wire its
        capture sink; returns ``(barrier_hook, rounds_start, skipped)``."""
        if checkpoint is None:
            return None, 0, 0
        resume = checkpoint.resume
        if thread_sliced:
            skipped = 0
            if resume is not None:
                if not isinstance(resume, ThreadCheckpoint):
                    raise SimulatorError(
                        "thread-sliced runs resume from ThreadCheckpoint"
                    )
                restore_t0 = time.perf_counter()
                resume.restore(threads[0])
                self._note_restore(time.perf_counter() - restore_t0)
                skipped = resume.dyn_index
            if checkpoint.sink is not None and checkpoint.interval > 0:
                threads[0].plan_checkpoints(
                    checkpoint.interval, checkpoint.limit, checkpoint.sink
                )
            return None, 0, skipped
        rounds_start = skipped = 0
        if resume is not None:
            if not isinstance(resume, CTACheckpoint):
                raise SimulatorError("CTA-sliced runs resume from CTACheckpoint")
            restore_t0 = time.perf_counter()
            resume.restore(threads, shared)
            self._note_restore(time.perf_counter() - restore_t0)
            rounds_start = resume.barrier_rounds
            skipped = resume.instructions
        hook = None
        sink = checkpoint.sink
        if sink is not None:

            def hook(rounds, cta_threads):
                sink(rounds, cta_threads, shared)

        return hook, rounds_start, skipped

    def _note_restore(self, seconds: float) -> None:
        """Attribute in-launch snapshot-restore time to its own phase.

        The injector's ``suffix_exec`` phase brackets the whole launch
        call, so restore cost is moved out of it and into
        ``checkpoint_restore`` via a negative delta — the two phases keep
        summing to the bracketed wall clock.
        """
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.add_phase("checkpoint_restore", seconds)
            telemetry.add_phase("suffix_exec", -seconds)
            telemetry.observe("checkpoint.restore_s", seconds)

    # ------------------------------------------------------------- buffers

    def alloc_array(self, array: np.ndarray) -> int:
        """Copy a host array to a fresh device buffer; returns its address."""
        raw = np.ascontiguousarray(array).tobytes()
        base = self.memory.alloc(len(raw))
        self.memory.write_bytes(base, raw)
        return base

    def alloc_zeros(self, nbytes: int) -> int:
        return self.memory.alloc(nbytes)

    def read_array(self, base: int, dtype: np.dtype, count: int) -> np.ndarray:
        nbytes = int(np.dtype(dtype).itemsize) * count
        return np.frombuffer(self.memory.read_bytes(base, nbytes), dtype=dtype).copy()

    # -------------------------------------------------------------- launch

    def launch(
        self,
        program: Program,
        geometry: LaunchGeometry,
        param_bytes: bytes,
        *,
        memory: GlobalMemory | None = None,
        record_traces: bool = False,
        record_write_logs: bool = False,
        record_read_logs: bool = False,
        record_thread_write_logs: bool = False,
        only_cta: int | None = None,
        only_thread: int | None = None,
        injection: tuple[int, InjectionSpec] | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        checkpoint: CheckpointPlan | None = None,
        step_trace: tuple | None = None,
    ) -> LaunchResult:
        """Run ``program`` over ``geometry``.

        Every backend runs this one loop; CTAs differ only in how they
        execute.  A classic CTA (interpreter, compiled) runs its thread
        contexts through :func:`~repro.gpu.cta.run_cta`.  A vectorized CTA
        runs a lockstep runner (:mod:`~repro.gpu.vector`) with the
        injected thread demoted to a compiled context; when lockstep
        execution cannot prove classic-identical results the runner raises
        :class:`~repro.gpu.vector.VectorFallback`, and the launch rolls the
        heap and the caller's logs back to their entry state and reruns on
        the compiled path.

        Args:
            param_bytes: packed kernel-parameter block.
            memory: heap to run against (defaults to the simulator's own).
            record_read_logs: log every global load's address and size
                per CTA, attributed to its thread by per-segment slot
                counts (golden runs; powers thread-sliced injection).
            record_thread_write_logs: attribute global writes to the
                issuing thread (requires ``record_write_logs``).
            only_cta: execute just this CTA (the injection fast path).
            only_thread: execute just this global thread — valid only for
                kernels whose CTA threads provably do not communicate;
                the caller (the injector) is responsible for that proof.
                Thread slices run on the compiled path on the vectorized
                backend.
            injection: ``(global_thread_id, InjectionSpec)`` — the one
                fault the launch arms.
            max_steps: per-thread dynamic-instruction budget; exceeded →
                :class:`~repro.errors.HangDetected` propagates to the caller.
            checkpoint: a :class:`~repro.gpu.checkpoint.CheckpointPlan` for
                sliced runs — restore golden state before executing and/or
                capture snapshots along the golden prefix.  The caller owns
                the heap contract: a resumed run's heap must already hold
                the golden write prefix up to the snapshot.  Vectorized
                CTA slices take no plan.
            step_trace: ``(global_thread_id, sink)`` — observe that one
                thread at *every* dynamic instruction via the existing
                checkpoint-sink plumbing (``sink(dyn, pc, regs)`` fires at
                the loop head, before the instruction at ``dyn`` issues
                and before any register-file flip).  Powers the
                propagation tracer; exclusive with ``checkpoint`` because
                both ride the same per-context sink slot.
        """
        if len(param_bytes) != program.param_bytes:
            raise SimulatorError(
                f"{program.name}: expected {program.param_bytes} param bytes, "
                f"got {len(param_bytes)}"
            )
        tpc = geometry.threads_per_cta
        if only_thread is not None:
            if only_cta is not None:
                raise SimulatorError("only_cta and only_thread are exclusive")
            if not 0 <= only_thread < geometry.n_threads:
                raise SimulatorError(f"thread {only_thread} outside grid")
            slots: tuple[int, ...] | range = (only_thread % tpc,)
            ctas: tuple[int, ...] | range = (geometry.cta_of_thread(only_thread),)
        else:
            slots = range(tpc)
            ctas = range(geometry.n_ctas) if only_cta is None else (only_cta,)
        if only_cta is not None and not 0 <= only_cta < geometry.n_ctas:
            raise SimulatorError(f"CTA {only_cta} outside grid")
        if checkpoint is not None and only_thread is None and only_cta is None:
            raise SimulatorError("checkpoint plans require a sliced run")
        if step_trace is not None:
            if checkpoint is not None:
                raise SimulatorError("step_trace and checkpoint plans are exclusive")
            if not 0 <= step_trace[0] < geometry.n_threads:
                raise SimulatorError(f"step_trace thread {step_trace[0]} outside grid")
        # Thread-sliced and step-traced runs observe a single thread per
        # instruction; they stay on the compiled path, which is exact for
        # them.
        vector = (
            self.backend == "vectorized" and only_thread is None and step_trace is None
        )
        if vector and checkpoint is not None:
            raise SimulatorError("vectorized CTA launches take no checkpoint plan")
        armed_cta = armed_slot = spec = None
        if injection is not None:
            injection_thread, spec = injection
            if not 0 <= injection_thread < geometry.n_threads:
                raise FaultInjectionError("injection thread outside the grid")
            if only_thread is None or injection_thread == only_thread:
                armed_cta, armed_slot = divmod(injection_thread, tpc)

        heap = memory if memory is not None else self.memory
        param_mem = ParamMemory(param_bytes)
        compiled = (
            program.compiled(param_mem) if self.backend != "interpreter" else None
        )
        caller_write_log = heap.write_log
        caller_read_log = heap.read_log
        if vector:
            # The launch-entry state a VectorFallback rolls back to.
            span_lo, span_hi = heap.allocation_span()
            launch_image = bytes(heap._data[span_lo:span_hi])
            caller_wlen = len(caller_write_log) if caller_write_log is not None else 0
            caller_rlen = len(caller_read_log) if caller_read_log is not None else 0
        telemetry = self.telemetry
        while True:
            t0 = time.perf_counter() if telemetry.enabled else 0.0
            # Threads append one tuple per traced step and GlobalMemory.load
            # one per logged load; each CTA's lists become arrays as soon as
            # it finishes, so only one CTA's tuples are alive at a time.
            cta_tables: list[TraceTable] = []
            write_logs: list[list[tuple[int, bytes]]] | None = (
                [[] for _ in range(geometry.n_ctas)] if record_write_logs else None
            )
            read_logs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = (
                [(*read_log_arrays([]), slot_load_counts([], tpc))] * geometry.n_ctas
                if record_read_logs
                else None
            )
            thread_write_logs: list[list[tuple[int, bytes]]] | None = (
                [[] for _ in range(geometry.n_threads)]
                if record_thread_write_logs and record_write_logs
                else None
            )
            injection_applied = False
            instructions = barrier_rounds = total_skipped = 0
            hang = memory_fault = fell_back = False
            try:
                for cta in ctas:
                    shared = (
                        SharedMemory(program.shared_bytes)
                        if program.shared_bytes
                        else None
                    )
                    write_target = (
                        write_logs[cta] if write_logs is not None else caller_write_log
                    )
                    read_target = [] if read_logs is not None else caller_read_log
                    read_counts = [] if read_logs is not None else None
                    slot_write_logs = (
                        [thread_write_logs[cta * tpc + slot] for slot in slots]
                        if thread_write_logs is not None
                        else None
                    )
                    slot = armed_slot if armed_cta == cta else None
                    # A vectorized CTA needs a context only for the injected
                    # thread, which it demotes to classic execution.
                    if vector:
                        context_slots = () if slot is None else (slot,)
                    else:
                        context_slots = slots
                    threads = [
                        ThreadContext(
                            program, geometry.specials_for(cta, s), heap, shared,
                            param_mem, max_steps=max_steps,
                            record_trace=record_traces,
                            injection=spec if s == slot else None,
                            compiled=compiled,
                        )
                        for s in context_slots
                    ]
                    injected = (
                        threads[context_slots.index(slot)] if slot is not None else None
                    )
                    skipped = 0
                    if vector:
                        runner = _VectorCTARunner(
                            program.vectorized(param_mem),
                            geometry.lane_specials(cta),
                            heap, shared, max_steps, record_traces,
                            write_target, read_target is not None, slot_write_logs,
                        )
                        if injected is not None:
                            runner.attach_scalar(slot, injected)
                        # The runner logs its own loads and stores.
                        heap.write_log = heap.read_log = None
                        execute = runner.run
                    else:
                        if step_trace is not None:
                            for ctx_slot, ctx in zip(slots, threads):
                                if cta * tpc + ctx_slot == step_trace[0]:
                                    # every=1 on the absolute dyn grid, alive
                                    # for the whole run — per-instruction
                                    # observation with zero hot-loop changes.
                                    ctx.plan_checkpoints(1, max_steps, step_trace[1])
                        hook, rounds_start, skipped = self._wire_checkpoint(
                            checkpoint, threads, shared, only_thread is not None
                        )
                        heap.write_log = write_target
                        heap.read_log = read_target
                        execute = partial(
                            run_cta,
                            threads,
                            slot_write_logs,
                            barrier_hook=hook,
                            barrier_rounds_start=rounds_start,
                            read_counts=read_counts,
                        )
                    try:
                        barrier_rounds += execute()
                    finally:
                        heap.write_log = caller_write_log if write_logs is None else None
                        heap.read_log = caller_read_log
                        executed = sum(thread.dyn_count for thread in threads)
                        if vector:
                            # The demoted lane never steps in the runner, so
                            # its context alone counts it.
                            executed += int(runner.dyn.sum())
                            reads = runner.read_arrays()
                            if read_logs is None and caller_read_log is not None:
                                # A caller's heap log takes tuples, as
                                # GlobalMemory.load appends them — including
                                # loads flushed before an abort.
                                caller_read_log.extend(
                                    zip(reads[0].tolist(), reads[1].tolist())
                                )
                        elif read_logs is not None:
                            reads = (
                                *read_log_arrays(read_target),
                                slot_load_counts(read_counts, len(threads)),
                            )
                        # A resumed slice reports only the instructions it
                        # actually executed, not the skipped golden prefix.
                        instructions += executed - skipped
                        total_skipped += skipped
                    if record_traces:
                        cta_tables.append(
                            runner.trace_table()
                            if vector
                            else TraceTable.from_lists([t.trace for t in threads])
                        )
                    if read_logs is not None:
                        read_logs[cta] = reads
                    if injected is not None:
                        injection_applied = injected.injection is None
            except VectorFallback:
                fell_back = True
                heap._data[span_lo:span_hi] = launch_image
                if caller_write_log is not None:
                    del caller_write_log[caller_wlen:]
                if caller_read_log is not None:
                    del caller_read_log[caller_rlen:]
            except HangDetected:
                hang = True
                raise
            except MemoryFault:
                memory_fault = True
                raise
            finally:
                if telemetry.enabled and not fell_back:
                    if only_thread is not None:
                        kind = "thread-sliced"
                    elif only_cta is not None:
                        kind = "sliced"
                    else:
                        kind = "golden" if injection is None else "full"
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
                            backend=self.backend,
                            checkpoint_interval=(
                                checkpoint.interval if checkpoint is not None else 0
                            ),
                            skipped_instructions=total_skipped,
                        )
                    )
            if not fell_back:
                return LaunchResult(
                    geometry=geometry,
                    traces=TraceTable.concat(cta_tables) if record_traces else None,
                    cta_write_logs=write_logs,
                    injection_applied=injection_applied,
                    instructions=instructions,
                    barrier_rounds=barrier_rounds,
                    thread_write_logs=thread_write_logs,
                    cta_read_logs=read_logs,
                )
            # Lockstep could not prove classic-identical results: rerun the
            # whole launch on the compiled path.
            vector = False
            if telemetry.enabled:
                telemetry.count("vector.fallbacks")
