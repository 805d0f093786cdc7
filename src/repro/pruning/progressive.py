"""The four-stage progressive pruning pipeline (paper Section III, Fig. 1).

``ProgressivePruner`` chains thread-wise, instruction-wise, loop-wise and
bit-wise pruning into a :class:`PrunedSpace`: a list of weighted fault
sites whose exhaustive injection estimates the kernel's full resilience
profile.  Weights are conserved at every stage —

    sum(site weights) + statically-masked weight == exhaustive site count

— which is the invariant the property tests pin down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import PruningError
from ..faults.campaign import run_campaign
from ..faults.injector import FaultInjector
from ..faults.outcome import ResilienceProfile
from ..faults.site import FaultSite
from ..telemetry import StageEvent, Telemetry
from .bitwise import BitPlan, plan_bits
from .instructionwise import InstructionwisePruning, prune_instructions
from .loopwise import LoopwisePruning, prune_loops
from .threadwise import ThreadwisePruning, prune_threads


@dataclass(frozen=True)
class WeightedSite:
    site: FaultSite
    weight: float


@dataclass(frozen=True)
class StageReport:
    """Fault sites remaining after one pruning stage (Fig. 10 bars)."""

    name: str
    sites_after: int


@dataclass
class PrunedSpace:
    """The final injection plan plus per-stage bookkeeping."""

    sites: list[WeightedSite]
    static_masked_weight: float
    stages: list[StageReport]
    threadwise: ThreadwisePruning
    instructionwise: InstructionwisePruning | None
    loopwise: LoopwisePruning | None
    total_sites: int

    @property
    def n_injections(self) -> int:
        return len(self.sites)

    def weight_total(self) -> float:
        return sum(ws.weight for ws in self.sites) + self.static_masked_weight

    def reduction_factor(self) -> float:
        if not self.sites:
            raise PruningError("empty pruned space")
        return self.total_sites / len(self.sites)

    def estimate_profile(
        self, injector: FaultInjector, executor=None, progress=None, live=None
    ) -> ResilienceProfile:
        """Exhaustively inject the pruned space and extrapolate: one
        weighted :func:`~repro.faults.campaign.run_campaign` (``executor``,
        ``progress`` and ``live`` pass through) that also counts the
        static masked weight."""
        return run_campaign(
            injector,
            (ws.site for ws in self.sites),
            weights=(ws.weight for ws in self.sites),
            static_masked_weight=self.static_masked_weight,
            executor=executor,
            progress=progress,
            total=len(self.sites),
            keep_sites=False,
            label="pruned-estimate",
            live=live,
        ).profile


@dataclass
class ProgressivePruner:
    """Configuration + entry point for the pipeline.

    Attributes:
        num_loop_iters: loop iterations sampled per loop (paper: 3-15,
            average 7.22; choose via the Fig. 6 stability sweep).
        n_bits: bit positions sampled per 32-bit destination (paper: 16).
        enable_instructionwise / enable_loopwise / enable_bitwise: stage
            toggles, used by the ablation benches.
        seed: RNG seed for loop-iteration sampling.
    """

    num_loop_iters: int = 5
    n_bits: int = 16
    enable_instructionwise: bool = True
    enable_loopwise: bool = True
    enable_bitwise: bool = True
    seed: int = 2018

    def prune(
        self,
        injector: FaultInjector,
        telemetry: Telemetry | None = None,
        progress=None,
    ) -> PrunedSpace:
        """Run all enabled stages.

        ``telemetry`` (defaulting to the injector's) gets one
        :class:`~repro.telemetry.StageEvent`, one ``prune.<stage>_s``
        histogram observation and a pair of ``prune.<stage>.*`` gauges
        per stage; ``progress(done, total)`` fires after each of the four
        stages.
        """
        traces = injector.traces
        program = injector.instance.program
        geometry = injector.instance.geometry
        rng = np.random.default_rng(self.seed)
        stages: list[StageReport] = []
        telemetry = telemetry if telemetry is not None else injector.telemetry
        n_stages = 4

        def finish_stage(name: str, sites_before: int, sites_after: int, t0: float):
            stages.append(StageReport(name, sites_after))
            if telemetry.enabled:
                duration_s = time.perf_counter() - t0
                telemetry.set_gauge(f"prune.{name}.sites_after", sites_after)
                if sites_after:
                    telemetry.set_gauge(
                        f"prune.{name}.factor", sites_before / sites_after
                    )
                telemetry.observe(f"prune.{name}_s", duration_s)
                telemetry.emit(
                    StageEvent(
                        time.time(),
                        stage=name,
                        sites_before=sites_before,
                        sites_after=sites_after,
                        duration_s=duration_s,
                    )
                )
            if progress is not None:
                progress(len(stages), n_stages)
            return sites_after

        # ---- stage 1: thread-wise ---------------------------------------
        # Representatives are drawn randomly within each group, per the
        # paper ("we are able to randomly select one thread as the group
        # representative").  Deterministic picks of the first member bias
        # towards boundary-adjacent threads, whose flips cross the
        # active/idle boundary far more often than their group's.
        t0 = time.perf_counter()
        tw = prune_threads(traces, geometry, rng=rng)
        # Injection units: (thread, dyn index) -> weight per bit.
        units: dict[tuple[int, int], float] = {}
        widths: dict[tuple[int, int], int] = {}
        for group in tw.thread_groups:
            rep = group.representative
            w = group.per_site_weight
            for dyn_index, (_pc, width) in enumerate(traces[rep]):
                if width:
                    key = (rep, dyn_index)
                    units[key] = units.get(key, 0.0) + w
                    widths[key] = width
        remaining = finish_stage(
            "thread-wise", tw.total_sites, _site_count(units, widths), t0
        )

        # ---- stage 2: instruction-wise ----------------------------------
        iw = None
        t0 = time.perf_counter()
        if self.enable_instructionwise:
            iw = prune_instructions(program, traces, tw.representatives)
            for block in iw.borrowed:
                for offset in range(block.size):
                    src = (block.thread, block.lo + offset)
                    dst = (block.donor, block.donor_lo + offset)
                    if src not in units:
                        continue
                    src_width = widths[src]
                    if dst in units and widths[dst] == src_width:
                        units[dst] += units.pop(src)
                    # else: donor slot was predicated off or absent — the
                    # borrower's copy stays and is injected directly.
        remaining = finish_stage(
            "instruction-wise", remaining, _site_count(units, widths), t0
        )

        # ---- stage 3: loop-wise -----------------------------------------
        lw = None
        t0 = time.perf_counter()
        if self.enable_loopwise:
            active_threads = sorted({t for t, _ in units})
            lw = prune_loops(
                program, traces, active_threads, self.num_loop_iters, rng
            )
            surviving: dict[tuple[int, int], float] = {}
            for (thread, dyn_index), weight in units.items():
                multiplier = lw.kept(thread).get(dyn_index)
                if multiplier is None:
                    continue
                surviving[(thread, dyn_index)] = weight * multiplier
            units = surviving
        remaining = finish_stage("loop-wise", remaining, _site_count(units, widths), t0)

        # ---- stage 4: bit-wise ------------------------------------------
        t0 = time.perf_counter()
        sites: list[WeightedSite] = []
        static_masked = 0.0
        plans: dict[int, BitPlan] = {}
        for (thread, dyn_index), weight in sorted(units.items()):
            width = widths[(thread, dyn_index)]
            if self.enable_bitwise:
                plan = plans.get(width)
                if plan is None:
                    plan = plan_bits(width, self.n_bits)
                    plans[width] = plan
                for bit in plan.kept_bits:
                    sites.append(
                        WeightedSite(
                            FaultSite(thread, dyn_index, bit),
                            weight * plan.weight_per_bit,
                        )
                    )
                static_masked += weight * plan.static_masked_bits
            else:
                for bit in range(width):
                    sites.append(
                        WeightedSite(FaultSite(thread, dyn_index, bit), weight)
                    )
        finish_stage("bit-wise", remaining, len(sites), t0)

        return PrunedSpace(
            sites=sites,
            static_masked_weight=static_masked,
            stages=stages,
            threadwise=tw,
            instructionwise=iw,
            loopwise=lw,
            total_sites=tw.total_sites,
        )


def _site_count(units: dict[tuple[int, int], float], widths: dict) -> int:
    """Injections still required if we stopped pruning here."""
    return sum(widths[key] for key in units)
