"""The fault injector: golden run + classified faulty runs.

``FaultInjector`` wraps one staged :class:`~repro.kernels.KernelInstance`.
On construction it performs the golden run, recording per-thread traces
(which define the fault-site space), per-CTA global-memory write/read logs
and the golden output image.

Injections execute over a ladder of progressively cheaper slices, each
rung proven equivalent to the one below before its result is trusted:

* **thread slice** — when the owning CTA provably exchanges no data
  between its threads (no shared-memory instructions, and the CTA's
  golden global reads never touch golden global writes), only the
  injected thread re-executes.  Dynamic read/write logs of the faulty
  run are checked against precomputed byte-ownership masks; any overlap
  with what sibling threads read or wrote demotes the run one rung.
* **CTA slice** — the paper's fast path: the owning CTA re-executes
  against the initial heap (CTAs within one launch cannot communicate,
  so this is exact) and its writes are overlaid onto the golden final
  output image.  If a corrupted-but-in-bounds pointer wrote into another
  CTA's output territory, ordering against the other CTA matters, so the
  overlap is detected via the same ownership masks and the run falls
  back to a full re-execution.
* **full re-execution** — ``inject_full``, the reference slow path used
  for cross-validation and as the final fallback.

Hot-path engineering (see ``docs/performance.md``): one scratch heap is
reused across injections and repaired from the write log instead of
copying the golden heap; overlays patch only the output image instead of
a full heap snapshot; and cross-CTA/intra-CTA overlap checks are numpy
slice operations over precomputed byte-ownership masks rather than
per-byte ``set`` scans.

Outcome classification (paper Section II-B):

* ``MASKED`` — output image identical to golden;
* ``SDC``    — run completed, output differs;
* ``CRASH``  — a memory fault aborted the run;
* ``HANG``   — a thread exceeded ``hang_factor`` x its golden iCnt budget.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

from dataclasses import dataclass

from ..errors import FaultInjectionError, HangDetected, MemoryFault
from ..gpu import GPUSimulator, GlobalMemory, resolve_backend
from ..gpu.checkpoint import (
    DEFAULT_BUDGET_MB,
    CheckpointPlan,
    CheckpointStore,
    CTACheckpoint,
    ThreadCheckpoint,
    derive_checkpoint_interval,
)
from ..gpu.isa import MemRef
from ..kernels.registry import KernelInstance
from ..telemetry import NULL_TELEMETRY, InjectionEvent, Telemetry
from .model import FaultModel, InjectionSpec, RegisterFileSite, StoreAddressSite
from .outcome import Outcome
from .site import FaultSite
from .space import FaultSpace

#: Faulty runs may execute this many times the CTA's golden instruction
#: budget before being declared hung.
DEFAULT_HANG_FACTOR = 10

#: Effective addresses and architected registers are 32-bit cells.
ADDRESS_BITS = 32

_EMPTY_PATCH = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.uint8))


def _program_uses_shared(program) -> bool:
    """Does any instruction touch the per-CTA shared scratchpad?"""
    return any(
        isinstance(operand, MemRef) and operand.space == "shared"
        for insn in program.instructions
        for operand in insn.srcs
    )


@dataclass
class GoldenState:
    """Pickled golden-run artifacts for worker handoff.

    A :class:`FaultInjector` built with ``golden=`` skips the golden
    launch entirely: the final heap is rebuilt by replaying the CTA write
    logs (exact, because CTAs execute sequentially and cannot
    communicate), and traces/logs are adopted as-is.  Everything here is
    plain picklable data, so a campaign coordinator captures golden state
    once and ships it to every pool worker instead of each worker paying
    a full traced-and-logged run.
    """

    traces: list
    cta_write_logs: list
    cta_read_logs: list | None
    thread_write_logs: list | None


class FaultInjector:
    """Golden state plus the injection entry points for one kernel."""

    def __init__(
        self,
        instance: KernelInstance,
        hang_factor: int = DEFAULT_HANG_FACTOR,
        verify_golden: bool = True,
        telemetry: Telemetry | None = None,
        thread_slicing: bool = True,
        checkpoint_interval: int | str = "auto",
        checkpoint_budget_mb: float = DEFAULT_BUDGET_MB,
        backend: str = "auto",
        golden: GoldenState | None = None,
        propagation: bool = False,
    ) -> None:
        self.instance = instance
        self.hang_factor = hang_factor
        self.thread_slicing = thread_slicing  # the requested flag, as given
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Resolved before the golden run: ``self.backend`` is always the
        # concrete name every launch, worker payload and event carries.
        self.backend = resolve_backend(backend, instance.geometry)
        #: Provenance tracing: every classified injection also gets a
        #: diagnostic replay producing a :class:`PropagationRecord`
        #: (see ``repro.faults.propagation``).  Off by default; the
        #: disabled cost is one attribute check per injection.
        self.propagation = propagation
        self.propagation_records: list = []
        #: Pruning-group tag stamped onto emitted events/records while
        #: set (used by the coherence audit); None outside audits.
        self.injection_group: str | None = None
        self._tracer = None  # built lazily on the first traced injection
        #: Golden-prefix instructions the current injection's checkpoint
        #: restore skipped (counted into its event's effective iCnt).
        self._skipped = 0
        self._launcher = GPUSimulator(telemetry=self.telemetry, backend=self.backend)
        self.checkpoint_budget_mb = checkpoint_budget_mb
        # Thread slicing is sound only for CTAs whose threads provably do
        # not communicate; the static half of that proof is "no shared
        # memory instructions at all".
        self._slicing_enabled = thread_slicing and not _program_uses_shared(
            instance.program
        )

        if golden is not None:
            # Worker handoff: adopt shipped golden artifacts and rebuild
            # the final heap from the CTA write logs — no golden launch.
            if self._slicing_enabled and golden.cta_read_logs is None:
                self._slicing_enabled = False  # shipped state lacks read logs
            with self.telemetry.span("golden-restore"):
                golden_memory = instance.golden_memory()
                for log in golden.cta_write_logs:
                    golden_memory.apply_writes(log)
            result = golden
            self.traces = golden.traces
        else:
            with self.telemetry.span("golden-run"):
                golden_memory = instance.golden_memory()
                result = self._launcher.launch(
                    instance.program,
                    instance.geometry,
                    instance.param_bytes,
                    memory=golden_memory,
                    record_traces=True,
                    record_write_logs=True,
                    record_read_logs=self._slicing_enabled,
                    record_thread_write_logs=self._slicing_enabled,
                )
                if verify_golden:
                    instance.verify_reference(golden_memory)
            self.traces = result.traces

        # Checkpointed fast-forwarding: interval 0 disables the layer and
        # every injection re-executes its full golden prefix (the
        # reference behaviour all equivalence tests pin against).
        # ``"auto"`` derives a per-kernel interval from the trace-length
        # tertiles — shallow kernels skip the layer entirely.
        if checkpoint_interval == "auto":
            self.checkpoint_interval = derive_checkpoint_interval(self.traces)
        else:
            self.checkpoint_interval = max(0, int(checkpoint_interval))
        self.checkpoints: CheckpointStore | None = (
            CheckpointStore(int(checkpoint_budget_mb * (1 << 20)))
            if self.checkpoint_interval > 0
            else None
        )

        self.space = FaultSpace(self.traces)
        #: Per-thread golden global-write logs (sliceable kernels only) —
        #: the checkpoint layer replays prefixes of these onto the scratch
        #: heap instead of re-executing the instructions that issued them.
        self._thread_write_logs = result.thread_write_logs
        self._golden_memory = golden_memory
        self._golden_output = instance.output_bytes(golden_memory)
        self._cta_write_logs = result.cta_write_logs
        self._cta_read_logs = result.cta_read_logs
        tpc = instance.geometry.threads_per_cta
        self._cta_budget = [
            self.hang_factor
            * max(len(self.traces[cta * tpc + s]) for s in range(tpc))
            + 256
            for cta in range(instance.geometry.n_ctas)
        ]
        self.fallback_count = 0  # full re-executions forced by write overlap

        self._build_ownership_masks(result)
        self._build_output_image()
        # One scratch heap reused by every sliced faulty run; repaired
        # from the write log afterwards instead of re-copied.
        self._scratch_memory = instance.initial_memory.snapshot()
        self._cta_patches: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._thread_patches: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._rf_prefix_cache: dict[int, tuple[list[int], list[tuple[str, ...]]]] = {}

    # --------------------------------------------------- golden-state index

    def golden_state(self) -> GoldenState:
        """Picklable golden-run artifacts for :class:`GoldenState` handoff.

        Everything returned is immutable-in-practice golden data; shipping
        it to a pool worker lets that worker's injector skip the golden
        launch entirely (see ``repro.parallel``).
        """
        return GoldenState(
            traces=self.traces,
            cta_write_logs=self._cta_write_logs,
            cta_read_logs=self._cta_read_logs,
            thread_write_logs=self._thread_write_logs,
        )

    def _build_ownership_masks(self, result) -> None:
        """Byte-ownership masks over the allocated heap window.

        ``_cta_write_mask[c][b]`` — CTA ``c`` wrote window byte ``b`` in
        the golden run; ``_cta_write_count`` counts owning CTAs per byte,
        so "some *other* CTA wrote this byte" is ``count > own`` — the
        vectorised replacement for the former per-byte ``set`` scans.
        """
        geometry = self.instance.geometry
        lo, hi = self.instance.initial_memory.allocation_span()
        self._win_lo = lo
        self._win_size = size = hi - lo
        n_ctas = geometry.n_ctas
        self._cta_write_mask = np.zeros((n_ctas, size), dtype=bool)
        for cta, log in enumerate(self._cta_write_logs):
            mask = self._cta_write_mask[cta]
            for address, raw in log:
                start = address - lo
                mask[start : start + len(raw)] = True
        self._cta_write_count = self._cta_write_mask.sum(axis=0, dtype=np.int16)

        if not self._slicing_enabled:
            self._cta_sliceable = [False] * n_ctas
            return
        self._cta_read_mask = np.zeros((n_ctas, size), dtype=bool)
        for cta, log in enumerate(result.cta_read_logs):
            mask = self._cta_read_mask[cta]
            for address, nbytes in log:
                start = address - lo
                mask[start : start + nbytes] = True
        # Threads-per-byte counts within each CTA, plus each thread's own
        # written-byte offsets (for subtracting its contribution).
        self._thread_write_count = np.zeros((n_ctas, size), dtype=np.int16)
        self._thread_write_offsets: list[np.ndarray] = []
        scratch = np.zeros(size, dtype=bool)
        for thread, log in enumerate(result.thread_write_logs):
            scratch[:] = False
            for address, raw in log:
                start = address - lo
                scratch[start : start + len(raw)] = True
            offsets = np.flatnonzero(scratch)
            self._thread_write_offsets.append(offsets)
            self._thread_write_count[geometry.cta_of_thread(thread)][offsets] += 1
        # A CTA is thread-sliceable when its golden reads never touch its
        # golden writes: no thread observed any thread's output, so every
        # thread's golden behaviour is schedule-independent.
        self._cta_sliceable = [
            not (self._cta_read_mask[c] & self._cta_write_mask[c]).any()
            for c in range(n_ctas)
        ]

    def _build_output_image(self) -> None:
        """The golden output image plus the heap→image region table."""
        regions = []
        offset = 0
        for buf in self.instance.outputs:
            regions.append((buf.address, buf.address + buf.nbytes, offset))
            offset += buf.nbytes
        self._out_regions = regions
        self._golden_image = np.frombuffer(self._golden_output, dtype=np.uint8)
        self._image_scratch = self._golden_image.copy()
        self._initial_window = np.frombuffer(
            self.instance.initial_memory.raw_window(
                self._win_lo, self._win_lo + self._win_size
            ),
            dtype=np.uint8,
        )

    # ------------------------------------------------------------ injection

    def inject(self, site: FaultSite) -> Outcome:
        """Classify one single-bit flip using the sliced fast paths."""
        self._check_site(site)
        return self.inject_spec(
            site.thread, InjectionSpec(site.dyn_index, site.bit), label=str(site)
        )

    def inject_spec(
        self, thread: int, spec: InjectionSpec, label: str | None = None
    ) -> Outcome:
        """Classify one injection of any fault model (fast path)."""
        return self._inject(self._run_spec, thread, spec, label, sliced=True)

    def _inject(
        self, run, thread: int, spec: InjectionSpec, label: str | None, sliced: bool
    ) -> Outcome:
        """Classify one injection through ``run``; instrumented campaigns
        also time it and record its :class:`InjectionEvent`.

        ``sliced`` marks the fast-path runner, whose event reports
        ``fast_path`` unless the run fell back to a full re-execution.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            outcome = run(thread, spec, label)
            if self.propagation:
                self._trace_propagation(thread, spec, outcome)
            return outcome
        t0 = time.perf_counter()
        fallbacks_before = self.fallback_count
        instructions = telemetry.metrics.counter("sim.instructions")
        instructions_before = instructions.value
        prev_phases = telemetry.phases
        telemetry.phases = phases = {}
        self._skipped = 0
        record = None
        try:
            with telemetry.span("injection"):
                outcome = run(thread, spec, label)
                # Counter delta snapshots the *classifying* run before the
                # diagnostic replay (which uses a NULL_TELEMETRY simulator
                # and must never show up in campaign attribution).
                suffix_instructions = instructions.value - instructions_before
                if self.propagation:
                    with telemetry.phase("propagation_trace"):
                        record = self._trace_propagation(thread, spec, outcome)
        finally:
            telemetry.phases = prev_phases
        self._record_injection(
            thread,
            spec,
            outcome,
            fast_path=sliced and self.fallback_count == fallbacks_before,
            duration_s=time.perf_counter() - t0,
            phases=phases,
            suffix_instructions=suffix_instructions,
            skipped_instructions=self._skipped,
            propagation=record,
        )
        return outcome

    def _run_spec(
        self, thread: int, spec: InjectionSpec, label: str | None = None
    ) -> Outcome:
        """The uninstrumented fast path (slice, overlay, classify)."""
        label = label if label is not None else f"t{thread}:{spec}"
        self._check_spec(thread, spec)
        cta = self.instance.geometry.cta_of_thread(thread)
        telemetry = self.telemetry
        if self._cta_sliceable[cta]:
            outcome = self._run_spec_thread(thread, spec, label, cta)
            if outcome is not None:
                if telemetry.enabled:
                    telemetry.count("injections.thread_sliced")
                return outcome
            # The faulty run touched bytes sibling threads read or wrote;
            # demote to the CTA slice, which replays the full schedule.
            if telemetry.enabled:
                telemetry.count("injections.thread_sliced_fallback")
        if telemetry.enabled:
            telemetry.count("injections.cta_sliced")
        return self._run_spec_cta(thread, spec, label, cta)

    def _run_spec_thread(
        self, thread: int, spec: InjectionSpec, label: str, cta: int
    ) -> Outcome | None:
        """Re-execute only the injected thread; ``None`` = demote to CTA.

        With checkpointing enabled, the deepest golden snapshot at or
        below the fault's dynamic index is restored and only the suffix
        executes: the thread's golden write prefix is replayed onto the
        scratch heap beforehand, and prepended to the faulty log
        afterwards so interference/escape/classification decisions are
        byte-identical to a full-prefix run (the prefix's *reads* need no
        replay — a sliceable CTA's golden reads provably never touch its
        golden writes, so they cannot flip any check).
        """
        memory = self._scratch_memory
        telemetry = self.telemetry
        faulty_log: list[tuple[int, bytes]] = []
        read_log: list[tuple[int, int]] = []
        with telemetry.phase("checkpoint_restore"):
            resume, prefix, plan = self._thread_checkpoint_plan(
                thread, spec, faulty_log
            )
        if prefix:
            with telemetry.phase("prefix_replay"):
                memory.apply_writes(prefix)
        memory.write_log = faulty_log
        memory.read_log = read_log
        crashed = hanged = False
        result = None
        try:
            with telemetry.phase("suffix_exec"):
                result = self._launcher.launch(
                    self.instance.program,
                    self.instance.geometry,
                    self.instance.param_bytes,
                    memory=memory,
                    only_thread=thread,
                    injection=(thread, spec),
                    max_steps=self._cta_budget[cta],
                    checkpoint=plan,
                )
        except MemoryFault:
            crashed = True
        except HangDetected:
            hanged = True
        finally:
            memory.write_log = None
            memory.read_log = None
            full_log = prefix + faulty_log if prefix else faulty_log
            with telemetry.phase("heap_repair"):
                memory.revert_writes(full_log, self.instance.initial_memory)
        # Interference must be ruled out even for crash/hang outcomes: up
        # to the aborting access the thread's behaviour is only schedule-
        # independent if it never touched sibling-owned bytes.
        with telemetry.phase("classify"):
            interferes = self._thread_run_interferes(thread, cta, full_log, read_log)
        if interferes:
            return None
        if crashed:
            return Outcome.CRASH
        if hanged:
            return Outcome.HANG
        if not result.injection_applied:
            if spec.model is FaultModel.STORE_ADDRESS:
                # The targeted store was predicated off: a corrupted address
                # on a store that never issues has no effect.
                return Outcome.MASKED
            raise FaultInjectionError(f"injection at {label} never fired")
        with telemetry.phase("classify"):
            escaped = self._writes_escape_cta(full_log, cta)
        if escaped:
            self.fallback_count += 1
            return self._run_spec_full(thread, spec, label)
        with telemetry.phase("classify"):
            return self._classify_patched(self._thread_patch(thread), full_log)

    def _thread_checkpoint_plan(
        self, thread: int, spec: InjectionSpec, faulty_log: list
    ) -> tuple[ThreadCheckpoint | None, list, CheckpointPlan | None]:
        """Resolve (resume snapshot, golden write prefix, launch plan)."""
        store = self.checkpoints
        if store is None:
            return None, [], None
        flip = spec.dyn_index
        resume = store.best_thread(thread, flip)
        base = resume.write_count if resume is not None else 0
        prefix = self._thread_write_logs[thread][:base] if base else []

        def capture(dyn: int, pc: int, regs: dict) -> None:
            if store.has_thread(thread, dyn):
                return
            t0 = time.perf_counter()
            store.put_thread(
                thread,
                ThreadCheckpoint.capture(dyn, pc, regs, base + len(faulty_log)),
            )
            store.capture_s += time.perf_counter() - t0

        self._note_checkpoint_lookup(
            "thread", resume.dyn_index if resume is not None else None
        )
        return resume, prefix, CheckpointPlan(
            interval=self.checkpoint_interval,
            resume=resume,
            sink=capture,
            limit=flip,
        )

    def _run_spec_cta(
        self, thread: int, spec: InjectionSpec, label: str, cta: int
    ) -> Outcome:
        """Re-execute the owning CTA against the (scratch) initial heap.

        With checkpointing enabled, the CTA resumes from the deepest
        barrier-boundary snapshot in which the injected thread has not yet
        reached the fault; the CTA's golden write-log prefix is replayed
        onto the scratch heap first and prepended to the faulty log for
        the escape check and classification, so results are byte-identical
        to a full-prefix CTA replay.
        """
        memory = self._scratch_memory
        telemetry = self.telemetry
        faulty_log: list[tuple[int, bytes]] = []
        with telemetry.phase("checkpoint_restore"):
            resume, prefix, plan = self._cta_checkpoint_plan(
                cta, thread, spec, faulty_log
            )
        if prefix:
            with telemetry.phase("prefix_replay"):
                memory.apply_writes(prefix)
        memory.write_log = faulty_log
        full_log = faulty_log
        crashed = hanged = False
        result = None
        try:
            with telemetry.phase("suffix_exec"):
                result = self._launcher.launch(
                    self.instance.program,
                    self.instance.geometry,
                    self.instance.param_bytes,
                    memory=memory,
                    only_cta=cta,
                    injection=(thread, spec),
                    max_steps=self._cta_budget[cta],
                    checkpoint=plan,
                )
        except MemoryFault:
            crashed = True
        except HangDetected:
            hanged = True
        finally:
            memory.write_log = None
            full_log = prefix + faulty_log if prefix else faulty_log
            with telemetry.phase("heap_repair"):
                memory.revert_writes(full_log, self.instance.initial_memory)
        if crashed:
            return Outcome.CRASH
        if hanged:
            return Outcome.HANG
        if not result.injection_applied:
            if spec.model is FaultModel.STORE_ADDRESS:
                return Outcome.MASKED
            raise FaultInjectionError(f"injection at {label} never fired")

        with telemetry.phase("classify"):
            escaped = self._writes_escape_cta(full_log, cta)
        if escaped:
            self.fallback_count += 1
            return self._run_spec_full(thread, spec, label)
        with telemetry.phase("classify"):
            return self._classify_patched(self._cta_patch(cta), full_log)

    def _cta_checkpoint_plan(
        self, cta: int, thread: int, spec: InjectionSpec, faulty_log: list
    ) -> tuple[CTACheckpoint | None, list, CheckpointPlan | None]:
        """Resolve (resume snapshot, golden write prefix, launch plan).

        The capture sink fires at barrier releases; it keeps the snapshot
        cadence on the injected thread's ``checkpoint_interval`` grid and
        only captures while that thread's injection is still pending —
        once the flip fires the CTA state is no longer golden.
        """
        store = self.checkpoints
        if store is None:
            return None, [], None
        slot = thread % self.instance.geometry.threads_per_cta
        resume = store.best_cta(cta, slot, spec.dyn_index)
        base = resume.write_count if resume is not None else 0
        prefix = self._cta_write_logs[cta][:base] if base else []
        interval = self.checkpoint_interval
        resume_dyn = resume.thread_dyn[slot] if resume is not None else 0
        next_capture = [(resume_dyn // interval + 1) * interval]

        def sink(rounds: int, threads: list, shared) -> None:
            ctx = threads[slot]
            if ctx.injection is None:
                return  # the flip already fired — state is faulty
            if ctx.dyn_count < next_capture[0]:
                return
            next_capture[0] = (ctx.dyn_count // interval + 1) * interval
            if store.has_cta(cta, rounds):
                return
            t0 = time.perf_counter()
            store.put_cta(
                cta,
                CTACheckpoint.capture(
                    rounds, threads, shared, base + len(faulty_log)
                ),
            )
            store.capture_s += time.perf_counter() - t0

        self._note_checkpoint_lookup(
            "cta", resume.instructions if resume is not None else None
        )
        plan = CheckpointPlan(
            interval=interval, resume=resume, sink=sink, limit=spec.dyn_index
        )
        return resume, prefix, plan

    def _note_checkpoint_lookup(self, kind: str, skipped: int | None) -> None:
        """Hit/miss/bytes telemetry for one checkpoint-store lookup."""
        # Last rung wins: a demoted thread slice's skip is superseded by
        # the CTA slice that actually decides the outcome.
        self._skipped = skipped or 0
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        if skipped is None:
            telemetry.count(f"checkpoint.{kind}_misses")
        else:
            telemetry.count(f"checkpoint.{kind}_hits")
            telemetry.count("checkpoint.skipped_instructions", skipped)
        store = self.checkpoints
        telemetry.set_gauge("checkpoint.bytes", store.nbytes)
        telemetry.set_gauge("checkpoint.entries", len(store))
        telemetry.set_gauge("checkpoint.evicted", store.evicted)
        telemetry.set_gauge("checkpoint.capture_s", store.capture_s)

    def inject_full(self, site: FaultSite) -> Outcome:
        """Reference slow path: re-execute the entire grid."""
        self._check_site(site)
        return self.inject_spec_full(
            site.thread, InjectionSpec(site.dyn_index, site.bit), label=str(site)
        )

    def inject_spec_full(
        self, thread: int, spec: InjectionSpec, label: str | None = None
    ) -> Outcome:
        """Classify one injection via the reference full re-execution."""
        return self._inject(self._run_spec_full, thread, spec, label, sliced=False)

    def _run_spec_full(
        self, thread: int, spec: InjectionSpec, label: str | None = None
    ) -> Outcome:
        label = label if label is not None else f"t{thread}:{spec}"
        self._check_spec(thread, spec)
        telemetry = self.telemetry
        # A full re-execution skips nothing — clear any accounting left
        # behind by a demoted sliced attempt.
        self._skipped = 0
        with telemetry.phase("heap_repair"):
            memory = self.instance.initial_memory.snapshot()
        max_steps = max(self._cta_budget)
        try:
            with telemetry.phase("suffix_exec"):
                result = self._launcher.launch(
                    self.instance.program,
                    self.instance.geometry,
                    self.instance.param_bytes,
                    memory=memory,
                    injection=(thread, spec),
                    max_steps=max_steps,
                )
        except MemoryFault:
            return Outcome.CRASH
        except HangDetected:
            return Outcome.HANG
        if not result.injection_applied:
            if spec.model is FaultModel.STORE_ADDRESS:
                return Outcome.MASKED
            raise FaultInjectionError(f"injection at {label} never fired")
        with telemetry.phase("classify"):
            return self._classify_output(memory)

    # -------------------------------------------- extended fault-model sites

    def store_address_sites(self, thread: int) -> list[StoreAddressSite]:
        """Every IOA site of one thread: each bit of each store's address."""
        program = self.instance.program
        sites = []
        for dyn_index, (pc, _width) in enumerate(self.traces[thread]):
            if program.instructions[pc].op == "st":
                sites.extend(
                    StoreAddressSite(thread, dyn_index, bit)
                    for bit in range(ADDRESS_BITS)
                )
        return sites

    def sample_register_file_sites(
        self, n: int, rng: np.random.Generator
    ) -> list[RegisterFileSite]:
        """``n`` random RF sites: (thread, dynamic point, register, bit).

        Registers are drawn from those the thread has *written* by the
        chosen point (flipping a never-written cell models an upset in an
        unallocated register — pointless to study).  Per-thread prefixes
        of the written-register set are cached, so repeated samples on
        the same thread cost one binary search instead of a trace rescan.
        """
        sites: list[RegisterFileSite] = []
        n_threads = len(self.traces)
        while len(sites) < n:
            thread = int(rng.integers(0, n_threads))
            trace = self.traces[thread]
            if not trace:
                continue
            dyn_index = int(rng.integers(0, len(trace)))
            positions, prefixes = self._rf_written_prefixes(thread)
            written_count = bisect.bisect_left(positions, dyn_index)
            if not written_count:
                continue
            written = prefixes[written_count]
            reg = written[int(rng.integers(0, written_count))]
            bit = int(rng.integers(0, ADDRESS_BITS))
            sites.append(RegisterFileSite(thread, dyn_index, reg, bit))
        return sites

    def _rf_written_prefixes(
        self, thread: int
    ) -> tuple[list[int], list[tuple[str, ...]]]:
        """First-write positions plus name-sorted prefixes of the written set.

        ``prefixes[k]`` is the sorted tuple of the first ``k`` registers
        (in first-write order); the set of registers written strictly
        before dynamic index ``i`` is ``prefixes[bisect_left(positions, i)]``
        — identical to rescanning ``trace[:i]`` but O(log writes).
        """
        cached = self._rf_prefix_cache.get(thread)
        if cached is None:
            instructions = self.instance.program.instructions
            positions: list[int] = []
            order: list[str] = []
            seen: set[str] = set()
            for index, (pc, width) in enumerate(self.traces[thread]):
                if not width:
                    continue
                dest = instructions[pc].dest
                if dest is None or dest.name in seen:
                    continue
                seen.add(dest.name)
                positions.append(index)
                order.append(dest.name)
            prefixes: list[tuple[str, ...]] = [()]
            for k in range(1, len(order) + 1):
                prefixes.append(tuple(sorted(order[:k])))
            cached = (positions, prefixes)
            self._rf_prefix_cache[thread] = cached
        return cached

    # -------------------------------------------------------------- helpers

    def _record_injection(
        self,
        thread: int,
        spec: InjectionSpec,
        outcome: Outcome,
        fast_path: bool,
        duration_s: float,
        phases: dict[str, float] | None = None,
        suffix_instructions: int = 0,
        skipped_instructions: int = 0,
        propagation=None,
    ) -> None:
        """Counters + one :class:`InjectionEvent` per classified injection."""
        telemetry = self.telemetry
        # Effective dynamic iCnt: what the injection *covered*, not what
        # it executed — executed suffix + checkpoint-skipped prefix.
        # Keeps hang-budget shares and latency-by-depth tertiles
        # comparable across checkpoint settings.
        effective = suffix_instructions + skipped_instructions
        telemetry.count("injections.total")
        telemetry.count(
            "injections.fast_path" if fast_path else "injections.full_rerun"
        )
        # The aggregate lives under ``work.`` rather than ``injections.``:
        # like ``sim.instructions``, a crash-truncated count follows the
        # backend's lane schedule (lockstep lanes advance past the abort
        # point, sequential threads don't), so the total is equivalence-
        # comparable across checkpoint settings but not across backends —
        # keep it out of the invariant namespaces.
        telemetry.count("work.effective_instructions", effective)
        telemetry.count(f"outcome.{outcome.value}")
        telemetry.observe("injection_s", duration_s)
        if phases:
            for name, seconds in phases.items():
                telemetry.observe(f"phase.{name}_s", seconds)
        if propagation is not None:
            telemetry.count("propagation.traced")
        telemetry.emit(
            InjectionEvent(
                time.time(),
                thread=thread,
                dyn_index=spec.dyn_index,
                bit=spec.bit,
                model=spec.model.value,
                outcome=outcome.value,
                fast_path=fast_path,
                duration_s=duration_s,
                backend=self.backend,
                checkpoint_interval=self.checkpoint_interval,
                suffix_instructions=suffix_instructions,
                effective_instructions=effective,
                phases=phases or None,
                propagation=propagation.to_dict() if propagation else None,
                group=self.injection_group,
            )
        )

    def _trace_propagation(self, thread: int, spec: InjectionSpec, outcome):
        """Diagnostic replay of one classified injection (tracer is lazy:
        campaigns that never enable tracing pay nothing)."""
        tracer = self._tracer
        if tracer is None:
            from .propagation import PropagationTracer

            tracer = self._tracer = PropagationTracer(self)
        record = tracer.trace(thread, spec, outcome)
        self.propagation_records.append(record)
        return record

    def _check_site(self, site: FaultSite) -> None:
        if not 0 <= site.thread < len(self.traces):
            raise FaultInjectionError(f"{site}: thread out of range")
        trace = self.traces[site.thread]
        if not 0 <= site.dyn_index < len(trace):
            raise FaultInjectionError(f"{site}: dynamic instruction out of range")
        width = trace[site.dyn_index][1]
        if not 0 <= site.bit < width:
            raise FaultInjectionError(
                f"{site}: bit out of range for a {width}-bit destination"
            )

    def _check_spec(self, thread: int, spec: InjectionSpec) -> None:
        if not 0 <= thread < len(self.traces):
            raise FaultInjectionError(f"thread {thread} out of range")
        trace = self.traces[thread]
        if not 0 <= spec.dyn_index < len(trace):
            raise FaultInjectionError(
                f"t{thread}/i{spec.dyn_index}: dynamic instruction out of range"
            )
        if spec.model is FaultModel.STORE_ADDRESS:
            pc = trace[spec.dyn_index][0]
            if self.instance.program.instructions[pc].op != "st":
                raise FaultInjectionError(
                    f"t{thread}/i{spec.dyn_index}: STORE_ADDRESS target is not a store"
                )
            if not 0 <= spec.bit < ADDRESS_BITS:
                raise FaultInjectionError(f"address bit {spec.bit} out of range")
        elif spec.model is FaultModel.REGISTER_FILE:
            if not 0 <= spec.bit < ADDRESS_BITS:
                raise FaultInjectionError(f"register bit {spec.bit} out of range")

    def _writes_escape_cta(self, faulty_log, cta: int) -> bool:
        """Did the faulty CTA write bytes another CTA also writes?

        Vectorised over the precomputed ownership masks: a span escapes
        iff it is not fully covered by the CTA's own golden writes and at
        least one of its bytes is owned by a different CTA
        (``count > own`` byte-wise).
        """
        own = self._cta_write_mask[cta]
        count = self._cta_write_count
        lo = self._win_lo
        size = self._win_size
        for address, raw in faulty_log:
            start = address - lo
            end = start + len(raw)
            if start < 0 or end > size:
                # Bytes outside the allocated window belong to no CTA, so
                # the span cannot be "all own"; check the in-window part
                # for foreign ownership.
                c0, c1 = max(start, 0), min(end, size)
                if c0 < c1 and (count[c0:c1] > own[c0:c1]).any():
                    return True
                continue
            span_own = own[start:end]
            if span_own.all():
                continue
            if (count[start:end] > span_own).any():
                return True
        return False

    def _thread_run_interferes(
        self, thread: int, cta: int, faulty_log, read_log
    ) -> bool:
        """Did a thread-sliced run touch bytes sibling threads own?

        True when the faulty thread read anything its CTA wrote, wrote
        anything its CTA read, or wrote a byte some *other* thread of the
        CTA also wrote — any of which makes the single-thread replay
        schedule-dependent, so the CTA slice must decide instead.
        """
        cta_writes = self._cta_write_mask[cta]
        cta_reads = self._cta_read_mask[cta]
        thread_counts = self._thread_write_count[cta]
        own_offsets = self._thread_write_offsets[thread]
        lo = self._win_lo
        size = self._win_size
        for address, nbytes in read_log:
            start = max(address - lo, 0)
            end = min(address - lo + nbytes, size)
            if start < end and cta_writes[start:end].any():
                return True
        for address, raw in faulty_log:
            start = max(address - lo, 0)
            end = min(address - lo + len(raw), size)
            if start >= end:
                continue
            if cta_reads[start:end].any():
                return True
            counts = thread_counts[start:end]
            if not counts.any():
                continue
            span_own = np.zeros(end - start, dtype=np.int16)
            if own_offsets.size:
                left = np.searchsorted(own_offsets, start)
                right = np.searchsorted(own_offsets, end)
                span_own[own_offsets[left:right] - start] = 1
            if (counts > span_own).any():
                return True
        return False

    def _cta_patch(self, cta: int) -> tuple[np.ndarray, np.ndarray]:
        """Image patch reverting CTA ``cta``'s golden writes to initial."""
        patch = self._cta_patches.get(cta)
        if patch is None:
            offsets = np.flatnonzero(self._cta_write_mask[cta])
            patch = self._cta_patches[cta] = self._revert_patch(offsets)
        return patch

    def _thread_patch(self, thread: int) -> tuple[np.ndarray, np.ndarray]:
        """Image patch reverting one thread's golden writes to initial."""
        patch = self._thread_patches.get(thread)
        if patch is None:
            offsets = self._thread_write_offsets[thread]
            patch = self._thread_patches[thread] = self._revert_patch(offsets)
        return patch

    def _revert_patch(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map window byte offsets to (output-image indices, initial bytes)."""
        index_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        lo = self._win_lo
        for region_lo, region_hi, image_off in self._out_regions:
            a, b = region_lo - lo, region_hi - lo
            selected = offsets[(offsets >= a) & (offsets < b)]
            if selected.size:
                index_parts.append(selected - a + image_off)
                value_parts.append(self._initial_window[selected])
        if not index_parts:
            return _EMPTY_PATCH
        return np.concatenate(index_parts), np.concatenate(value_parts)

    def _classify_patched(
        self, patch: tuple[np.ndarray, np.ndarray], faulty_log
    ) -> Outcome:
        """Classify by patching only the output image, never a full heap.

        Equivalent to the reference ``_overlay`` + ``_classify_output``
        path: start from the golden output image, revert the slice's
        golden writes to initial values (order-free — all revert bytes
        are initial), then replay the faulty writes in program order.
        """
        image = self._image_scratch
        np.copyto(image, self._golden_image)
        indices, values = patch
        if indices.size:
            image[indices] = values
        regions = self._out_regions
        for address, raw in faulty_log:
            end = address + len(raw)
            for region_lo, region_hi, image_off in regions:
                if address < region_hi and end > region_lo:
                    a = address if address >= region_lo else region_lo
                    b = end if end <= region_hi else region_hi
                    image[image_off + a - region_lo : image_off + b - region_lo] = (
                        np.frombuffer(raw[a - address : b - address], dtype=np.uint8)
                    )
        if np.array_equal(image, self._golden_image):
            return Outcome.MASKED
        return Outcome.SDC

    def _overlay(self, cta: int, faulty_log) -> GlobalMemory:
        """Golden final heap with CTA ``cta``'s writes replaced.

        The reference full-heap overlay, kept for severity analysis and
        cross-validation of the patched-image classifier.
        """
        final = self._golden_memory.snapshot()
        initial = self.instance.initial_memory
        for address, raw in self._cta_write_logs[cta]:
            final.write_bytes(address, initial.read_bytes(address, len(raw)))
        final.apply_writes(faulty_log)
        return final

    def _classify_output(self, memory: GlobalMemory) -> Outcome:
        try:
            output = self.instance.output_bytes(memory)
        except MemoryFault:  # pragma: no cover - outputs are always allocated
            return Outcome.CRASH
        if output == self._golden_output:
            return Outcome.MASKED
        return Outcome.SDC
