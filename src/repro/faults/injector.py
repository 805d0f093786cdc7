"""The fault injector: golden run + classified faulty runs.

``FaultInjector`` wraps one staged :class:`~repro.kernels.KernelInstance`.
On construction it performs the golden run, recording per-thread traces
(which define the fault-site space), per-CTA global-memory write/read logs
and the golden output image.

Injections execute over a ladder of progressively cheaper slices, each
rung proven equivalent to the one below before its result is trusted:

* **thread slice** — when the injected thread provably exchanges no data
  with its siblings (no shared-memory instructions in the program; its
  golden global reads touch no byte a sibling writes; its golden writes
  touch no byte a sibling reads or writes), only that thread
  re-executes.  Dynamic read/write logs of the faulty run are checked
  the same way against a per-CTA index of the golden logs, built on the
  first injection into the CTA; any byte a sibling read or wrote demotes
  the run one rung.
* **CTA slice** — the paper's fast path: the owning CTA re-executes
  against the initial heap (CTAs within one launch cannot communicate,
  so this is exact) and its writes are overlaid onto the golden final
  output image.  If a corrupted-but-in-bounds pointer wrote into another
  CTA's output territory, ordering against the other CTA matters, so the
  overlap is detected via the same index and the per-byte count of
  writing CTAs, and the run falls back to a full re-execution.
* **full re-execution** — ``inject_full``, the reference slow path used
  for cross-validation and as the final fallback.  A CTA that shares a
  golden-written byte with another CTA (a benign race such as every
  thread setting one flag) goes here directly: its golden final image
  depends on the CTA order, so no slice can rebuild it.

Both slices run through one runner of four fixed stages — restore,
execute, check, classify — with the slice level as a parameter.

Hot-path engineering (see ``docs/performance.md``): one scratch heap is
reused across injections and repaired from the write log instead of
copying the golden heap; classification patches only the output image
instead of a full heap snapshot; and cross-CTA/intra-CTA overlap checks
are numpy operations over byte-ownership arrays rather than per-byte
``set`` scans.

Outcome classification (paper Section II-B):

* ``MASKED`` — output image identical to golden;
* ``SDC``    — run completed, output differs;
* ``CRASH``  — a memory fault aborted the run;
* ``HANG``   — a thread exceeded :data:`DEFAULT_HANG_FACTOR` x its golden
  iCnt budget.
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
from ..gpu.tracing import TraceTable, read_log_arrays
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


def _span_bytes(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Every byte of the spans ``[start, start + length)``.

    One fancy index per distinct length (loads and stores move 2, 4 or 8
    bytes), so the cost is a handful of array operations per log.  The
    lengths come from a bincount, not ``np.unique``, which would import
    ``numpy.ma`` (about 1 MB) into runs that never slice a thread.
    """
    parts = [np.empty(0, dtype=np.int64)]
    for nbytes in np.flatnonzero(np.bincount(lengths)).tolist():
        parts.append((starts[lengths == nbytes][:, None] + np.arange(nbytes)).ravel())
    return np.concatenate(parts)


def _log_spans(log, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Window starts (from ``lo``) and lengths of a write log's spans."""
    starts = np.fromiter((address for address, _ in log), np.int64, len(log)) - lo
    return starts, np.fromiter((len(raw) for _, raw in log), np.int64, len(log))


def _log_bytes(log, lo: int) -> np.ndarray:
    """Window offsets (from ``lo``) of every byte a write log covers."""
    return _span_bytes(*_log_spans(log, lo))


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` by sorting: numpy's hash-based ``unique`` took 244 ms
    on one paper-gemm CTA's 263K read keys, a sort 4 ms."""
    keys = np.sort(keys)
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _in_spans(offsets: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per span ``[start, end)``, how many of the sorted ``offsets`` it holds."""
    return np.searchsorted(offsets, ends) - np.searchsorted(offsets, starts)


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

    traces: TraceTable
    cta_write_logs: list
    #: ``(addresses, sizes, slot counts)`` per CTA — see
    #: :attr:`~repro.gpu.simulator.LaunchResult.cta_read_logs`.
    cta_read_logs: list | None
    thread_write_logs: list | None


@dataclass
class _CTAIndex:
    """One CTA's golden byte ownership over the allocated heap window.

    Built on the first injection into the CTA and cached.  ``writes``
    marks the bytes the CTA wrote.  The rest exists only for kernels that
    may thread-slice: ``touched``, the sorted window offsets some thread
    of the CTA read or wrote; prefix sums of each touched byte's writer
    and reader counts (``sums[j] - sums[i]`` totals ``touched[i:j]``);
    and per slot, the sorted offsets the thread wrote, the offsets only
    it reads, and whether it passes the thread-slice gate.
    """

    writes: np.ndarray
    touched: np.ndarray | None = None
    write_sums: np.ndarray | None = None
    read_sums: np.ndarray | None = None
    write_offsets: list[np.ndarray] | None = None
    sole_reads: list[np.ndarray] | None = None
    sliceable: list[bool] | None = None


class FaultInjector:
    """Golden state plus the injection entry points for one kernel."""

    def __init__(
        self,
        instance: KernelInstance,
        telemetry: Telemetry | None = None,
        thread_slicing: bool = True,
        checkpoint_interval: int | str = "auto",
        backend: str = "auto",
        golden: GoldenState | None = None,
        propagation: bool = False,
    ) -> None:
        self.instance = instance
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
        self._launcher = GPUSimulator(telemetry=self.telemetry, backend=self.backend)
        # Thread slicing is sound only for CTAs whose threads provably do
        # not communicate; the static half of that proof is "no shared
        # memory instructions at all".
        self._slicing_enabled = thread_slicing and not _program_uses_shared(
            instance.program
        )

        if golden is not None:
            # Worker handoff: adopt shipped golden artifacts and rebuild
            # the final heap from the CTA write logs — no golden launch.
            with self.telemetry.span("golden_restore_s"):
                golden_memory = instance.golden_memory()
                for log in golden.cta_write_logs:
                    golden_memory.apply_writes(log)
            result = golden
            self.traces = golden.traces
        else:
            with self.telemetry.span("golden_s"):
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
            CheckpointStore(int(DEFAULT_BUDGET_MB * (1 << 20)))
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
        geometry = instance.geometry
        cta_icnt = self.traces.icnt.reshape(geometry.n_ctas, geometry.threads_per_cta)
        self._cta_budget = (DEFAULT_HANG_FACTOR * cta_icnt.max(axis=1) + 256).tolist()
        self.fallback_count = 0  # full re-executions forced by write overlap

        self._build_write_counts()
        self._build_output_image()
        # One scratch heap reused by every sliced faulty run; repaired
        # from the write log afterwards instead of re-copied.
        self._scratch_memory = instance.initial_memory.snapshot()
        self._indexes: dict[int, _CTAIndex] = {}
        self._patches: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
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

    def _build_write_counts(self) -> None:
        """Per-byte count of writing CTAs over the allocated heap window.

        ``_cta_write_count[b]`` counts the CTAs that wrote window byte
        ``b`` in the golden run, folded from each CTA's written offsets,
        so "some *other* CTA wrote this byte" is ``count > own``.
        A CTA is exclusive when no other CTA writes a byte it writes;
        only then can a slice's revert patch rebuild the golden image.
        Golden accesses all lie inside allocations, hence inside the
        window, so their offsets index it directly.
        """
        lo, hi = self.instance.initial_memory.allocation_span()
        self._win_lo = lo
        self._win_size = size = hi - lo
        written = [_log_bytes(log, lo) for log in self._cta_write_logs]
        count = np.zeros(size, dtype=np.int16)
        for offsets in written:
            # A fancy-index ``+=`` adds once per distinct offset, so a byte
            # the CTA wrote twice still counts one writing CTA.
            count[offsets] += 1
        self._cta_write_count = count
        self._cta_exclusive = [bool((count[offsets] == 1).all()) for offsets in written]

    def _cta_index(self, cta: int) -> _CTAIndex:
        """The cached :class:`_CTAIndex` of ``cta``, built on first use."""
        index = self._indexes.get(cta)
        if index is None:
            index = self._indexes[cta] = self._build_cta_index(cta)
        return index

    def _build_cta_index(self, cta: int) -> _CTAIndex:
        """Fold one CTA's golden logs into its :class:`_CTAIndex`.

        Every (thread, byte) pair a golden read or write covers becomes
        one ``slot * window + offset`` key; the sorted unique keys give
        each slot's offsets as slices and each byte's reader and writer
        counts as bincounts.  Thread ``t`` passes the gate when its reads
        touch no byte a sibling writes and its writes touch no byte a
        sibling reads or writes.  Reading its own output (``C = aAB +
        bC``) is allowed: its golden behaviour then depends on no other
        thread's schedule.
        """
        size = self._win_size
        lo = self._win_lo
        writes = np.zeros(size, dtype=bool)
        writes[_log_bytes(self._cta_write_logs[cta], lo)] = True
        if not self._slicing_enabled:
            return _CTAIndex(writes)
        tpc = self.instance.geometry.threads_per_cta
        first = cta * tpc
        logs = self._thread_write_logs[first : first + tpc]
        write_keys = _sorted_unique(
            np.concatenate(
                [slot * size + _log_bytes(log, lo) for slot, log in enumerate(logs)]
            )
        )
        addresses, sizes, counts = self._cta_read_logs[cta]
        slots = np.repeat(np.tile(np.arange(tpc), len(counts)), counts.ravel())
        read_keys = _sorted_unique(_span_bytes(slots * size + addresses - lo, sizes))
        read_slot, read_offset = np.divmod(read_keys, size)
        write_slot, write_offset = np.divmod(write_keys, size)
        touched = _sorted_unique(np.concatenate((read_offset, write_offset)))
        read_at = np.searchsorted(touched, read_offset)
        write_at = np.searchsorted(touched, write_offset)
        readers = np.bincount(read_at, minlength=touched.size)
        writers = np.bincount(write_at, minlength=touched.size)
        # A byte's sibling readers (writers) are its readers (writers)
        # less the thread itself.
        sibling_written = writers[read_at] > np.isin(
            read_keys, write_keys, assume_unique=True
        )
        sibling_touched = (writers[write_at] > 1) | (
            readers[write_at] > np.isin(write_keys, read_keys, assume_unique=True)
        )
        sliceable = np.full(tpc, self._cta_exclusive[cta])
        sliceable[read_slot[sibling_written]] = False
        sliceable[write_slot[sibling_touched]] = False
        sole = readers[read_at] == 1
        bounds = np.arange(1, tpc)
        return _CTAIndex(
            writes,
            touched=touched,
            write_sums=np.concatenate(([0], np.cumsum(writers))),
            read_sums=np.concatenate(([0], np.cumsum(readers))),
            write_offsets=np.split(write_offset, np.searchsorted(write_slot, bounds)),
            sole_reads=np.split(
                read_offset[sole], np.searchsorted(read_slot[sole], bounds)
            ),
            sliceable=sliceable.tolist(),
        )

    def _thread_sliceable(self, thread: int) -> bool:
        """Does ``thread`` pass the thread-slice gate?"""
        if not self._slicing_enabled:
            return False
        cta, slot = divmod(thread, self.instance.geometry.threads_per_cta)
        return self._cta_index(cta).sliceable[slot]

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

    def inject(self, site: FaultSite, weight: float = 1.0) -> Outcome:
        """Classify one single-bit flip using the sliced fast paths;
        ``weight`` (the sites it stands for) only labels its event."""
        spec = InjectionSpec(site.dyn_index, site.bit)
        return self._inject(self._run_spec, site.thread, spec, str(site), True, weight)

    def inject_spec(
        self, thread: int, spec: InjectionSpec, label: str | None = None
    ) -> Outcome:
        """Classify one injection of any fault model (fast path)."""
        return self._inject(self._run_spec, thread, spec, label, sliced=True)

    def _inject(
        self, run, thread: int, spec: InjectionSpec, label: str | None, sliced: bool,
        weight: float = 1.0,
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
        metrics = telemetry.metrics
        instructions = metrics.counter("sim.instructions")
        instructions_before = instructions.value
        skipped_before = metrics.counter_value("checkpoint.skipped_instructions")
        prev_phases = telemetry.phases
        telemetry.phases = phases = {}
        record = None
        try:
            outcome = run(thread, spec, label)
            # Counter deltas snapshot the *classifying* run before the
            # diagnostic replay (which uses a NULL_TELEMETRY simulator and
            # must never show up in campaign attribution).  Both sum over
            # every rung a demoted injection ran, so the effective count
            # matches the same ladder with checkpoints off.
            suffix_instructions = instructions.value - instructions_before
            skipped_instructions = (
                metrics.counter_value("checkpoint.skipped_instructions")
                - skipped_before
            )
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
            weight=weight,
            phases=phases,
            suffix_instructions=suffix_instructions,
            skipped_instructions=skipped_instructions,
            propagation=record,
        )
        return outcome

    def _run_spec(
        self, thread: int, spec: InjectionSpec, label: str | None = None
    ) -> Outcome:
        """The uninstrumented ladder: validate, then the cheapest exact slice."""
        label = label if label is not None else f"t{thread}:{spec}"
        self._check_spec(thread, spec)
        cta = self.instance.geometry.cta_of_thread(thread)
        telemetry = self.telemetry
        if not self._cta_exclusive[cta]:
            # Another CTA writes some byte this one writes: the golden
            # image depends on the CTA order, which only the full run has.
            self.fallback_count += 1
            return self._run_spec_full(thread, spec, label)
        if self._thread_sliceable(thread):
            outcome = self._run_slice("thread", thread, spec, label, cta)
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
        return self._run_slice("cta", thread, spec, label, cta)

    def _run_slice(
        self, level: str, thread: int, spec: InjectionSpec, label: str, cta: int
    ) -> Outcome | None:
        """Re-execute only the injected thread or its CTA on the scratch heap.

        ``level`` (``"thread"`` or ``"cta"``) picks the launch argument,
        the checkpoint-plan builder and the revert patch; the stages are
        fixed:

        1. **restore** — resume from the deepest golden checkpoint at or
           below the flip, replaying the slice's golden write prefix onto
           the scratch heap;
        2. **execute** — launch the slice, then repair the scratch heap;
        3. **check** — a thread slice that touched bytes its siblings read
           or wrote returns ``None`` (demote to the CTA slice), even when
           it crashed, hung or never fired; writes that escape into
           another CTA's bytes go to the full run;
        4. **classify** — patch the golden output image.

        The prefix is prepended to the faulty log, so checks and
        classification see what a full-prefix replay would have written.
        The prefix's *reads* are absent from the read log and need no
        check: the gate proves a sliceable thread's golden reads touch
        no byte a sibling writes.
        """
        telemetry = self.telemetry
        memory = self._scratch_memory
        on_thread = level == "thread"
        faulty_log: list[tuple[int, bytes]] = []
        read_log: list[tuple[int, int]] | None = [] if on_thread else None
        with telemetry.phase("checkpoint_restore"):
            if on_thread:
                prefix, plan = self._thread_checkpoint_plan(thread, spec, faulty_log)
            else:
                prefix, plan = self._cta_checkpoint_plan(cta, thread, spec, faulty_log)
        if prefix:
            with telemetry.phase("prefix_replay"):
                memory.apply_writes(prefix)
        memory.write_log = faulty_log
        memory.read_log = read_log
        try:
            result = self._execute(
                memory,
                thread,
                spec,
                max_steps=self._cta_budget[cta],
                checkpoint=plan,
                **({"only_thread": thread} if on_thread else {"only_cta": cta}),
            )
        finally:
            memory.write_log = memory.read_log = None
            log = prefix + faulty_log if prefix else faulty_log
            with telemetry.phase("heap_repair"):
                memory.revert_writes(log, self.instance.initial_memory)
        if on_thread:
            # Up to an abort the thread's behaviour is schedule-independent
            # only if it never touched sibling-owned bytes.
            with telemetry.phase("classify"):
                if self._thread_run_interferes(thread, cta, log, read_log):
                    return None
        outcome = self._settled(result, spec, label)
        if outcome is not None:
            return outcome
        with telemetry.phase("classify"):
            if not self._writes_escape_cta(log, cta):
                patch = self._slice_patch(level, thread if on_thread else cta)
                return self._classify_patched(patch, log)
        self.fallback_count += 1
        return self._run_spec_full(thread, spec, label)

    def _execute(self, memory: GlobalMemory, thread: int, spec: InjectionSpec, **launch):
        """Execute stage: one faulty launch on ``memory``, timed as
        ``suffix_exec``; CRASH or HANG when it aborts, else its result."""
        instance = self.instance
        try:
            with self.telemetry.phase("suffix_exec"):
                return self._launcher.launch(
                    instance.program,
                    instance.geometry,
                    instance.param_bytes,
                    memory=memory,
                    injection=(thread, spec),
                    **launch,
                )
        except MemoryFault:
            return Outcome.CRASH
        except HangDetected:
            return Outcome.HANG

    @staticmethod
    def _settled(result, spec: InjectionSpec, label: str) -> Outcome | None:
        """The outcome an executed launch decides alone; ``None`` when it
        completed with the flip applied and its output needs classifying."""
        if isinstance(result, Outcome):
            return result
        if result.injection_applied:
            return None
        if spec.model is FaultModel.STORE_ADDRESS:
            # The targeted store was predicated off: a corrupted address
            # on a store that never issues has no effect.
            return Outcome.MASKED
        raise FaultInjectionError(f"injection at {label} never fired")

    def _thread_checkpoint_plan(
        self, thread: int, spec: InjectionSpec, faulty_log: list
    ) -> tuple[list, CheckpointPlan | None]:
        """Resolve (golden write prefix, launch plan) for a thread slice."""
        store = self.checkpoints
        if store is None:
            return [], None
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
        return prefix, CheckpointPlan(
            interval=self.checkpoint_interval,
            resume=resume,
            sink=capture,
            limit=flip,
        )

    def _cta_checkpoint_plan(
        self, cta: int, thread: int, spec: InjectionSpec, faulty_log: list
    ) -> tuple[list, CheckpointPlan | None]:
        """Resolve (golden write prefix, launch plan) for a CTA slice.

        The capture sink fires at barrier releases; it keeps the snapshot
        cadence on the injected thread's ``checkpoint_interval`` grid and
        only captures while that thread's injection is still pending —
        once the flip fires the CTA state is no longer golden.  Vectorized
        CTA slices take no plan: no workload that runs them hits a CTA
        snapshot (``docs/performance.md``).
        """
        store = self.checkpoints
        if store is None or self.backend == "vectorized":
            return [], None
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
        return prefix, CheckpointPlan(
            interval=interval, resume=resume, sink=sink, limit=spec.dyn_index
        )

    def _note_checkpoint_lookup(self, kind: str, skipped: int | None) -> None:
        """Hit/miss/bytes telemetry for one checkpoint-store lookup."""
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
        with self.telemetry.phase("heap_repair"):
            memory = self.instance.initial_memory.snapshot()
        result = self._execute(memory, thread, spec, max_steps=max(self._cta_budget))
        outcome = self._settled(result, spec, label)
        if outcome is not None:
            return outcome
        with self.telemetry.phase("classify"):
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
        weight: float = 1.0,
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
                weight=weight,
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

    def _check_spec(self, thread: int, spec: InjectionSpec) -> None:
        """Reject an injection that names no fault site of the golden run."""
        if not 0 <= thread < len(self.traces):
            raise FaultInjectionError(f"thread {thread} out of range")
        trace = self.traces[thread]
        where = f"t{thread}/i{spec.dyn_index}"
        if not 0 <= spec.dyn_index < len(trace):
            raise FaultInjectionError(f"{where}: dynamic instruction out of range")
        pc, width = trace[spec.dyn_index]
        if spec.model is FaultModel.STORE_ADDRESS:
            if self.instance.program.instructions[pc].op != "st":
                raise FaultInjectionError(f"{where}: STORE_ADDRESS target is not a store")
        elif spec.model is FaultModel.REGISTER_FILE:
            if not any(
                insn.dest is not None and insn.dest.name == spec.reg
                for insn in self.instance.program.instructions
            ):
                raise FaultInjectionError(
                    f"{where}: the program never writes register {spec.reg!r}"
                )
        if spec.model is not FaultModel.VALUE:
            width = ADDRESS_BITS
        if not 0 <= spec.bit < width:
            raise FaultInjectionError(
                f"{where}/b{spec.bit}: bit out of range for a {width}-bit target"
            )

    def _writes_escape_cta(self, faulty_log, cta: int) -> bool:
        """Did the faulty CTA write bytes another CTA also writes?

        Vectorised over the CTA index's write mask and the per-byte
        count of writing CTAs: a span escapes iff it is not fully
        covered by the CTA's own golden writes and at least one of its
        bytes is owned by a different CTA (``count > own`` byte-wise).
        Skipping all-own spans is exact for exclusive CTAs, the only ones
        the slices run.
        """
        own = self._cta_index(cta).writes
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

        The gate's test on the faulty logs: True when the thread read a
        byte a sibling wrote, or wrote a byte a sibling read or wrote —
        any of which makes the single-thread replay schedule-dependent,
        so the CTA slice must decide instead.  Per span, siblings account
        for the CTA's writer count less the thread's own written bytes
        (the gate gives each of them no other writer), and for its reader
        count less the bytes only the thread reads.  A byte no thread of
        the CTA touched, in or out of the window, counts for no one.
        """
        index = self._cta_index(cta)
        slot = thread - cta * self.instance.geometry.threads_per_cta
        lo = self._win_lo
        addresses, sizes = read_log_arrays(read_log)
        write_starts, write_lengths = _log_spans(faulty_log, lo)
        # Read spans, then write spans, as index ranges into ``touched``.
        starts = np.concatenate((addresses - lo, write_starts))
        ends = starts + np.concatenate((sizes, write_lengths))
        first = np.searchsorted(index.touched, starts)
        last = np.searchsorted(index.touched, ends)
        # Reads and writes alike must miss every sibling-written byte.
        writers = index.write_sums[last] - index.write_sums[first]
        if (writers > _in_spans(index.write_offsets[slot], starts, ends)).any():
            return True
        n = len(read_log)
        readers = index.read_sums[last[n:]] - index.read_sums[first[n:]]
        own = _in_spans(index.sole_reads[slot], starts[n:], ends[n:])
        return bool((readers > own).any())

    def _slice_patch(self, level: str, owner: int) -> tuple[np.ndarray, np.ndarray]:
        """Image patch reverting one thread's or CTA's golden writes to initial."""
        patch = self._patches.get((level, owner))
        if patch is None:
            if level == "thread":
                cta, slot = divmod(owner, self.instance.geometry.threads_per_cta)
                offsets = self._cta_index(cta).write_offsets[slot]
            else:
                offsets = np.flatnonzero(self._cta_index(owner).writes)
            patch = self._patches[level, owner] = self._revert_patch(offsets)
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

    def _patched_image(
        self, patch: tuple[np.ndarray, np.ndarray], faulty_log
    ) -> np.ndarray:
        """The output image a sliced run leaves, built without a heap.

        Start from the golden output image, revert the slice's golden
        writes to initial values (order-free — all revert bytes are
        initial), then replay the faulty writes in program order.  Exact
        when no other writer sets a reverted byte.  Returns the reused
        scratch image, valid until the next call.
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
        return image

    def _classify_patched(
        self, patch: tuple[np.ndarray, np.ndarray], faulty_log
    ) -> Outcome:
        """Classify by patching only the output image, never a full heap."""
        if np.array_equal(self._patched_image(patch, faulty_log), self._golden_image):
            return Outcome.MASKED
        return Outcome.SDC

    def _classify_output(self, memory: GlobalMemory) -> Outcome:
        try:
            output = self.instance.output_bytes(memory)
        except MemoryFault:  # pragma: no cover - outputs are always allocated
            return Outcome.CRASH
        if output == self._golden_output:
            return Outcome.MASKED
        return Outcome.SDC
