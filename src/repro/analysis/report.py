"""Markdown resilience reports.

Bundles everything a reliability engineer asks about one kernel into a
single document: workload identity, fault-space size, per-stage pruning
reduction, the estimated profile, and the most vulnerable static
instructions (hardening priorities).  Used by ``python -m repro report``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..faults.injector import FaultInjector
from ..faults.outcome import Outcome, ResilienceProfile
from ..pruning.progressive import PrunedSpace
from ..telemetry import InjectionEvent


@dataclass(frozen=True)
class InstructionVulnerability:
    """Aggregated weighted outcomes of one static instruction."""

    pc: int
    text: str
    weighted_sites: float
    unsafe_fraction: float  # (sdc + other) share

    @property
    def impact(self) -> float:
        return self.weighted_sites * self.unsafe_fraction


def instruction_vulnerabilities(
    injector: FaultInjector, events: list[InjectionEvent]
) -> list[InstructionVulnerability]:
    """Rank static instructions by weighted unsafe fault sites: a pruned
    campaign's ``InjectionEvent`` weights folded per pc, most-harmful first.
    """
    program = injector.instance.program
    cells: dict[int, dict[str, float]] = defaultdict(
        lambda: {"masked": 0.0, "sdc": 0.0, "other": 0.0}
    )
    for event in events:
        pc = injector.space.pc_of(event.thread, event.dyn_index)
        cells[pc][Outcome(event.outcome).category] += event.weight

    rows = []
    for pc, cell in cells.items():
        total = sum(cell.values())
        unsafe = (cell["sdc"] + cell["other"]) / total if total else 0.0
        rows.append(
            InstructionVulnerability(
                pc=pc,
                text=str(program.instructions[pc]),
                weighted_sites=total,
                unsafe_fraction=unsafe,
            )
        )
    rows.sort(key=lambda r: -r.impact)
    return rows


def render_report(
    injector: FaultInjector,
    space: PrunedSpace,
    profile: ResilienceProfile,
    events: list[InjectionEvent],
    top_n: int = 10,
) -> str:
    """A self-contained markdown resilience report for one kernel;
    ``events`` are the campaign's that estimated ``profile``."""
    instance = injector.instance
    spec = instance.spec
    lines = [f"# Resilience report — {spec.key if spec else instance.program.name}"]
    if spec is not None:
        lines += [
            "",
            f"* suite: **{spec.suite}**, kernel `{spec.kernel_name}` ({spec.kernel_id})",
            f"* scaling: {spec.scaling_note}",
        ]
    geometry = instance.geometry
    lines += [
        f"* geometry: grid {geometry.grid} × block {geometry.block} "
        f"= {geometry.n_threads} threads",
        f"* exhaustive fault sites (Eq. 1): **{space.total_sites:,}**",
        "",
        "## Pruning",
        "",
        "| stage | remaining injections |",
        "|---|---|",
    ]
    for stage in space.stages:
        lines.append(f"| {stage.name} | {stage.sites_after:,} |")
    lines += [
        "",
        f"Reduction: **{space.reduction_factor():,.0f}×** "
        f"({space.total_sites:,} → {space.n_injections:,}).",
        "",
        "## Estimated error-resilience profile",
        "",
        "| masked | SDC | other (crash+hang) |",
        "|---|---|---|",
        f"| {profile.pct_masked:.2f}% | {profile.pct_sdc:.2f}% "
        f"| {profile.pct_other:.2f}% |",
        "",
        "## Hardening priorities",
        "",
        "Static instructions ranked by weighted unsafe fault sites "
        "(destination-register flips that end in SDC or crash/hang):",
        "",
        "| rank | pc | instruction | unsafe | weighted sites |",
        "|---|---|---|---|---|",
    ]
    rows = instruction_vulnerabilities(injector, events)
    for rank, row in enumerate(rows[:top_n], start=1):
        lines.append(
            f"| {rank} | {row.pc} | `{row.text}` | "
            f"{100 * row.unsafe_fraction:.1f}% | {row.weighted_sites:,.0f} |"
        )
    covered = sum(r.impact for r in rows[:top_n])
    total_impact = sum(r.impact for r in rows) or 1.0
    lines += [
        "",
        f"The top {min(top_n, len(rows))} instructions cover "
        f"{100 * covered / total_impact:.1f}% of the kernel's weighted "
        "unsafe sites.",
    ]
    return "\n".join(lines)
