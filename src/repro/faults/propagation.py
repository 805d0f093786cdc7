"""Fault-propagation provenance tracing.

Outcome labels (masked/SDC/crash/hang) say *what* an injection did;
this module reconstructs *why*.  For one classified injection the
:class:`PropagationTracer` replays the owning CTA twice against the
initial heap — once golden (cached per thread), once faulty — observing
the injected thread at every dynamic instruction through the simulator's
``step_trace`` hook (the checkpoint-sink plumbing re-armed at
``every=1``, so both backends are covered with zero hot-loop changes).
Diffing the two replays yields a :class:`PropagationRecord`:

* the **corrupted-register set** per dynamic instruction (stored as
  change events, capped at :data:`MAX_CORRUPTION_EVENTS`);
* the **first-corrupted PC** — the static instruction where the flip
  entered architectural state;
* the **control-flow divergence point** — the first dynamic instruction
  whose PC departs from the golden trace;
* the **masking point** — the depth at which the corrupted-register set
  drains back to empty (register tracking stops at divergence: past it a
  by-dyn-index diff compares unrelated instructions);
* **heap-corruption geometry** — corrupted window bytes vs the golden
  CTA image, with cross-thread / cross-CTA escape decided by the
  injector's existing byte-ownership masks;
* **output-corruption geometry** — corrupted output-image bytes, their
  spatial extent and maximum per-byte magnitude.

Design invariants:

* The tracer never touches the classifying run: it owns a private
  :class:`~repro.gpu.GPUSimulator` with ``NULL_TELEMETRY``, so outcome
  profiles, metrics and sim-run events are byte-identical with tracing
  on or off, on either backend, at any checkpoint interval.
* Replays are CTA-sliced against the initial heap — exact for every
  kernel (CTAs within a launch cannot communicate) — and repair the
  injector's scratch heap from their own write logs afterwards.
* Disabled cost is one ``is None`` check per injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import HangDetected, MemoryFault
from ..gpu import GPUSimulator
from ..telemetry import NULL_TELEMETRY
from .model import InjectionSpec
from .outcome import Outcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .injector import FaultInjector

#: Corrupted-set *change* events stored per record; the total change
#: count is always recorded so truncation is visible.
MAX_CORRUPTION_EVENTS = 64

#: Golden per-thread snapshot streams kept; cleared wholesale on overflow
#: (campaigns hammer few threads, audits touch many once).
_GOLDEN_CACHE_LIMIT = 32

_MISSING = object()


def _same_value(a, b) -> bool:
    """Register equality with NaN == NaN (a NaN payload is one value)."""
    if a is _MISSING or b is _MISSING:
        return a is b
    if a == b:
        return True
    return isinstance(a, float) and isinstance(b, float) and a != a and b != b


@dataclass(frozen=True)
class PropagationRecord:
    """Corruption lineage of one classified injection."""

    thread: int
    dyn_index: int
    bit: int
    model: str  # FaultModel value
    outcome: str  # Outcome value (from the real classification)
    backend: str
    #: Static instruction where the corruption entered architectural
    #: state — the key of the PC-level vulnerability map.
    first_corrupted_pc: int
    #: Diagnostic replay status: "completed" | "crash" | "hang".
    replay_outcome: str
    #: Dynamic instructions the injected thread executed in the replay.
    faulty_icnt: int
    #: ``(dyn, (reg, ...))`` whenever the corrupted set changed; capped.
    corruption_events: tuple = ()
    n_corruption_events: int = 0
    max_corrupted_regs: int = 0
    #: First dynamic instruction whose PC left the golden trace.
    divergence_dyn: int | None = None
    divergence_pc: int | None = None
    #: First dynamic instruction at which the corrupted-register set was
    #: empty and stayed empty (pre-divergence); None = never drained.
    masking_dyn: int | None = None
    #: Corrupted heap bytes vs the golden CTA image.
    heap_corrupt_bytes: int = 0
    heap_extent: int = 0
    heap_first_offset: int | None = None
    #: Corruption reached bytes outside the injected thread's own golden
    #: writes (None when thread ownership masks were not recorded).
    escaped_thread: bool | None = None
    #: Faulty writes overlapped another CTA's golden territory.
    escaped_cta: bool = False
    #: Output-image corruption geometry.
    output_corrupt_bytes: int = 0
    output_extent: int = 0
    output_max_magnitude: int = 0
    group: str | None = field(default=None, compare=False)

    @property
    def masking_depth(self) -> int | None:
        """Dynamic instructions from flip to drain; None = unmasked."""
        if self.masking_dyn is None:
            return None
        return self.masking_dyn - self.dyn_index

    @property
    def diverged(self) -> bool:
        return self.divergence_dyn is not None

    def signature(self) -> str:
        """Compact propagation fingerprint for equivalence auditing.

        Two injections with the same signature corrupted state at the
        same static instruction and propagated the same way: same
        control-flow fate, masking bucket, escape behaviour, outcome and
        output-corruption magnitude bucket.  Site coordinates (thread,
        dyn index) are deliberately excluded so signatures compare
        *across* the members of a pruning group.
        """
        depth = self.masking_depth
        if depth is None:
            mask = "live"
        else:
            mask = f"mask{max(0, depth - 1).bit_length()}"
        return "|".join(
            (
                f"pc{self.first_corrupted_pc}",
                self.outcome,
                "div" if self.diverged else "conv",
                mask,
                "esc" if self.escaped_cta else "local",
                f"out{self.output_corrupt_bytes.bit_length()}",
            )
        )

    def to_dict(self) -> dict:
        """JSON-ready payload for ``InjectionEvent.propagation``."""
        return {
            "thread": self.thread,
            "dyn_index": self.dyn_index,
            "bit": self.bit,
            "model": self.model,
            "outcome": self.outcome,
            "backend": self.backend,
            "first_corrupted_pc": self.first_corrupted_pc,
            "replay_outcome": self.replay_outcome,
            "faulty_icnt": self.faulty_icnt,
            "corruption_events": [
                [dyn, list(regs)] for dyn, regs in self.corruption_events
            ],
            "n_corruption_events": self.n_corruption_events,
            "max_corrupted_regs": self.max_corrupted_regs,
            "divergence_dyn": self.divergence_dyn,
            "divergence_pc": self.divergence_pc,
            "masking_dyn": self.masking_dyn,
            "masking_depth": self.masking_depth,
            "heap_corrupt_bytes": self.heap_corrupt_bytes,
            "heap_extent": self.heap_extent,
            "heap_first_offset": self.heap_first_offset,
            "escaped_thread": self.escaped_thread,
            "escaped_cta": self.escaped_cta,
            "output_corrupt_bytes": self.output_corrupt_bytes,
            "output_extent": self.output_extent,
            "output_max_magnitude": self.output_max_magnitude,
            "signature": self.signature(),
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PropagationRecord":
        return cls(
            thread=data["thread"],
            dyn_index=data["dyn_index"],
            bit=data["bit"],
            model=data["model"],
            outcome=data["outcome"],
            backend=data.get("backend", "interpreter"),
            first_corrupted_pc=data["first_corrupted_pc"],
            replay_outcome=data.get("replay_outcome", "completed"),
            faulty_icnt=data.get("faulty_icnt", 0),
            corruption_events=tuple(
                (dyn, tuple(regs))
                for dyn, regs in data.get("corruption_events", ())
            ),
            n_corruption_events=data.get("n_corruption_events", 0),
            max_corrupted_regs=data.get("max_corrupted_regs", 0),
            divergence_dyn=data.get("divergence_dyn"),
            divergence_pc=data.get("divergence_pc"),
            masking_dyn=data.get("masking_dyn"),
            heap_corrupt_bytes=data.get("heap_corrupt_bytes", 0),
            heap_extent=data.get("heap_extent", 0),
            heap_first_offset=data.get("heap_first_offset"),
            escaped_thread=data.get("escaped_thread"),
            escaped_cta=data.get("escaped_cta", False),
            output_corrupt_bytes=data.get("output_corrupt_bytes", 0),
            output_extent=data.get("output_extent", 0),
            output_max_magnitude=data.get("output_max_magnitude", 0),
            group=data.get("group"),
        )


class PropagationTracer:
    """Produces a :class:`PropagationRecord` per classified injection."""

    def __init__(self, injector: "FaultInjector") -> None:
        self._injector = injector
        # Private simulator: diagnostic replays must not pollute the
        # campaign's metrics, events or instruction counters.
        self._sim = GPUSimulator(
            telemetry=NULL_TELEMETRY, backend=injector.backend
        )
        self._golden: dict[int, list[dict]] = {}

    # ------------------------------------------------------------- replays

    def _launch_cta(self, cta: int, thread: int, sink, injection=None) -> str:
        """One CTA-sliced replay on the scratch heap; returns the replay
        status and leaves the faulty write log in ``self._last_log``."""
        injector = self._injector
        instance = injector.instance
        memory = injector._scratch_memory
        log: list[tuple[int, bytes]] = []
        self._last_log = log
        memory.write_log = log
        status = "completed"
        try:
            self._sim.launch(
                instance.program,
                instance.geometry,
                instance.param_bytes,
                memory=memory,
                only_cta=cta,
                injection=injection,
                max_steps=injector._cta_budget[cta],
                step_trace=(thread, sink),
            )
        except MemoryFault:
            status = "crash"
        except HangDetected:
            status = "hang"
        finally:
            memory.write_log = None
            memory.revert_writes(log, instance.initial_memory)
        return status

    def _golden_stream(self, thread: int) -> list[dict]:
        """Golden per-instruction register snapshots of one thread.

        The stream holds one dict per observation at dyn 1..icnt-1 (the
        state *before* dyn 0 is trivially empty, the state *after* the
        final instruction is unobservable — and irrelevant: a thread's
        last instruction is an exit, which writes no register).

        Captured once per thread on the private simulator: sliceable
        CTAs replay just the thread, others replay the owning CTA.
        """
        cached = self._golden.get(thread)
        if cached is not None:
            return cached
        if len(self._golden) >= _GOLDEN_CACHE_LIMIT:
            self._golden.clear()
        injector = self._injector
        instance = injector.instance
        cta = instance.geometry.cta_of_thread(thread)
        memory = injector._scratch_memory
        snaps: list[dict] = []

        def sink(dyn: int, pc: int, regs: dict) -> None:
            snaps.append(dict(regs))

        slicing = {"only_thread": thread} if injector._cta_sliceable[cta] else {
            "only_cta": cta
        }
        result = self._sim.launch(
            instance.program,
            instance.geometry,
            instance.param_bytes,
            memory=memory,
            record_write_logs=True,
            max_steps=injector._cta_budget[cta],
            step_trace=(thread, sink),
            **slicing,
        )
        memory.revert_writes(result.cta_write_logs[cta], instance.initial_memory)
        self._golden[thread] = snaps
        return snaps

    # --------------------------------------------------------------- trace

    def trace(
        self, thread: int, spec: InjectionSpec, outcome: Outcome
    ) -> PropagationRecord:
        """Replay one injection diagnostically and diff it against golden."""
        injector = self._injector
        geometry = injector.instance.geometry
        cta = geometry.cta_of_thread(thread)
        golden_trace = injector.traces[thread]
        golden_len = len(golden_trace)
        flip = spec.dyn_index
        snaps = self._golden_stream(thread)

        state = {
            "cur": (),  # current corrupted-register set
            "drain_dyn": None,  # dyn at which the set last became empty
            "div_dyn": None,
            "div_pc": None,
            "last_dyn": 0,
            "n_events": 0,
            "max_regs": 0,
        }
        events: list[tuple[int, tuple]] = []

        def sink(dyn: int, pc: int, regs: dict) -> None:
            state["last_dyn"] = dyn
            if dyn <= flip or state["div_dyn"] is not None:
                return
            if dyn >= golden_len or pc != golden_trace[dyn][0]:
                state["div_dyn"] = dyn
                state["div_pc"] = pc
                return
            golden = snaps[dyn - 1]
            corrupted = tuple(
                sorted(
                    name
                    for name in golden.keys() | regs.keys()
                    if not _same_value(
                        golden.get(name, _MISSING), regs.get(name, _MISSING)
                    )
                )
            )
            if corrupted == state["cur"]:
                return
            state["cur"] = corrupted
            state["drain_dyn"] = dyn if not corrupted else None
            state["n_events"] += 1
            if len(corrupted) > state["max_regs"]:
                state["max_regs"] = len(corrupted)
            if len(events) < MAX_CORRUPTION_EVENTS:
                events.append((dyn, corrupted))

        status = self._launch_cta(cta, thread, sink, injection=(thread, spec))
        faulty_log = self._last_log

        masking_dyn = None
        if (
            status == "completed"
            and state["div_dyn"] is None
            and state["last_dyn"] > flip
            and not state["cur"]
        ):
            masking_dyn = (
                state["drain_dyn"] if state["drain_dyn"] is not None else flip + 1
            )

        heap = self._heap_geometry(cta, thread, faulty_log)
        output = self._output_geometry(cta, faulty_log)

        return PropagationRecord(
            thread=thread,
            dyn_index=flip,
            bit=spec.bit,
            model=spec.model.value,
            outcome=outcome.value,
            backend=injector.backend,
            first_corrupted_pc=golden_trace[flip][0],
            replay_outcome=status,
            faulty_icnt=state["last_dyn"] + 1,
            corruption_events=tuple(events),
            n_corruption_events=state["n_events"],
            max_corrupted_regs=state["max_regs"],
            divergence_dyn=state["div_dyn"],
            divergence_pc=state["div_pc"],
            masking_dyn=masking_dyn,
            escaped_cta=injector._writes_escape_cta(faulty_log, cta),
            group=injector.injection_group,
            **heap,
            **output,
        )

    # ------------------------------------------------------------ geometry

    def _heap_geometry(self, cta: int, thread: int, faulty_log) -> dict:
        """Corrupted window bytes vs the golden CTA image, plus escape."""
        injector = self._injector
        lo = injector._win_lo
        size = injector._win_size
        faulty = injector._initial_window.copy()
        self._apply_log(faulty, faulty_log, lo, size)
        golden = injector._initial_window.copy()
        self._apply_log(golden, injector._cta_write_logs[cta], lo, size)
        offsets = np.flatnonzero(faulty != golden)
        escaped_thread = None
        if injector._slicing_enabled and offsets.size:
            own = injector._thread_write_offsets[thread]
            escaped_thread = bool(np.setdiff1d(offsets, own).size)
        elif injector._slicing_enabled:
            escaped_thread = False
        if not offsets.size:
            return {
                "heap_corrupt_bytes": 0,
                "heap_extent": 0,
                "heap_first_offset": None,
                "escaped_thread": escaped_thread,
            }
        return {
            "heap_corrupt_bytes": int(offsets.size),
            "heap_extent": int(offsets[-1] - offsets[0] + 1),
            "heap_first_offset": int(offsets[0]),
            "escaped_thread": escaped_thread,
        }

    @staticmethod
    def _apply_log(window: np.ndarray, log, lo: int, size: int) -> None:
        for address, raw in log:
            start = address - lo
            end = start + len(raw)
            c0, c1 = max(start, 0), min(end, size)
            if c0 < c1:
                window[c0:c1] = np.frombuffer(
                    raw[c0 - start : c1 - start], dtype=np.uint8
                )

    def _output_geometry(self, cta: int, faulty_log) -> dict:
        """Corrupted output-image bytes: count, extent, max magnitude.

        Same overlay as the injector's patched-image classifier: golden
        image, CTA's golden writes reverted to initial, faulty writes
        replayed in order.  For escaped injections (cross-CTA writes)
        the overlay is CTA-local and therefore approximate — the record
        flags those via ``escaped_cta``.
        """
        injector = self._injector
        image = injector._golden_image.copy()
        indices, values = injector._cta_patch(cta)
        if indices.size:
            image[indices] = values
        for address, raw in faulty_log:
            end = address + len(raw)
            for region_lo, region_hi, image_off in injector._out_regions:
                if address < region_hi and end > region_lo:
                    a = max(address, region_lo)
                    b = min(end, region_hi)
                    image[image_off + a - region_lo : image_off + b - region_lo] = (
                        np.frombuffer(raw[a - address : b - address], dtype=np.uint8)
                    )
        golden = injector._golden_image
        offsets = np.flatnonzero(image != golden)
        if not offsets.size:
            return {
                "output_corrupt_bytes": 0,
                "output_extent": 0,
                "output_max_magnitude": 0,
            }
        deltas = np.abs(
            image[offsets].astype(np.int16) - golden[offsets].astype(np.int16)
        )
        return {
            "output_corrupt_bytes": int(offsets.size),
            "output_extent": int(offsets[-1] - offsets[0] + 1),
            "output_max_magnitude": int(deltas.max()),
        }
