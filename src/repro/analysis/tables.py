"""Table renderers matching the paper's layouts (Tables I-IV, VII)."""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels.registry import KernelSpec
from ..pruning.threadwise import ThreadwisePruning


def format_table1(rows: list[tuple[KernelSpec, int, int]]) -> str:
    """Table I: suite / app / kernel / threads / total fault sites.

    Each row carries our measured (threads, sites); the paper's values are
    printed alongside for the scale comparison.
    """
    header = (
        f"{'suite':10s} {'app':10s} {'kernel':18s} {'id':5s} "
        f"{'threads':>8s} {'fault sites':>12s} {'paper thr':>10s} {'paper sites':>12s}"
    )
    lines = [header, "-" * len(header)]
    for spec, threads, sites in rows:
        paper_thr = f"{spec.paper_threads}" if spec.paper_threads else "-"
        paper_sites = (
            f"{spec.paper_fault_sites:.2E}" if spec.paper_fault_sites else "-"
        )
        lines.append(
            f"{spec.suite:10s} {spec.app:10s} {spec.kernel_name:18s} "
            f"{spec.kernel_id:5s} {threads:8d} {sites:12d} "
            f"{paper_thr:>10s} {paper_sites:>12s}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class GroupTableRow:
    """One CTA group of Tables III/IV with its thread groups."""

    cta_group: str
    avg_icnt: float
    cta_proportion: float
    thread_groups: list[tuple[str, str, float]]  # (name, icnt desc, proportion)


def group_table(tw: ThreadwisePruning, n_ctas: int) -> list[GroupTableRow]:
    """Build Table III/IV rows from a thread-wise pruning result."""
    rows = []
    for gid, cgroup in enumerate(tw.cta_groups, start=1):
        tgroups = [g for g in tw.thread_groups if g.cta_group == gid - 1]
        total_threads = sum(len(g.threads) for g in tgroups)
        thread_rows = [
            (
                f"T-{gid}{tid}",
                str(g.icnt),
                100.0 * len(g.threads) / total_threads,
            )
            for tid, g in enumerate(tgroups, start=1)
        ]
        rows.append(
            GroupTableRow(
                cta_group=f"C-{gid}",
                avg_icnt=cgroup.mean_icnt,
                cta_proportion=100.0 * len(cgroup.ctas) / n_ctas,
                thread_groups=thread_rows,
            )
        )
    return rows


def format_group_table(rows: list[GroupTableRow]) -> str:
    header = (
        f"{'CTA grp':8s} {'avg iCnt':>9s} {'CTA prop.':>10s} | "
        f"{'thd grp':8s} {'thd iCnt':>9s} {'thd prop.':>10s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        first = True
        for name, icnt, prop in row.thread_groups:
            left = (
                f"{row.cta_group:8s} {row.avg_icnt:9.1f} {row.cta_proportion:9.2f}%"
                if first
                else " " * 29
            )
            lines.append(f"{left} | {name:8s} {icnt:>9s} {prop:9.2f}%")
            first = False
    return "\n".join(lines)


def format_table7(rows: list[tuple[KernelSpec, int, int, float]]) -> str:
    """Table VII: threads, loop iterations, % instructions in loops."""
    header = (
        f"{'app':10s} {'kernel':7s} {'threads':>8s} {'#loop iter':>11s} "
        f"{'% insn in loop':>15s}"
    )
    lines = [header, "-" * len(header)]
    for spec, threads, iters, share in rows:
        lines.append(
            f"{spec.app:10s} {spec.kernel_id:7s} {threads:8d} {iters:11d} "
            f"{share:14.2f}%"
        )
    return "\n".join(lines)
