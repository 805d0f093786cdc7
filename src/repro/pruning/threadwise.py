"""Stage 1 — thread-wise pruning (paper Section III-B, Observations 1-2).

Two-level classification by dynamic instruction count (iCnt):

1. **CTA-wise**: CTAs are grouped by their per-thread iCnt statistics
   (the paper groups on the average thread iCnt per CTA — Fig. 3 /
   Tables III-IV).  One representative CTA is chosen per group.
2. **Thread-wise**: inside each representative CTA, threads are grouped
   by their exact iCnt; one representative thread per group.

Only the representative threads' fault sites survive; each carries the
total site weight of the population it stands for, so exhaustive injection
over representatives estimates the whole kernel's profile.

The paper shows the CTA step cannot be skipped: threads with equal iCnt in
*different* CTAs may execute different instructions (HotSpot, Gaussian
K2).  ``method="signature"`` offers a stricter grouping (exact iCnt
multiset) used by the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PruningError
from ..gpu.simulator import LaunchGeometry
from ..gpu.tracing import TraceTable
from ..stats.distributions import group_by_distance


@dataclass(frozen=True)
class CTAGroup:
    """CTAs indistinguishable under the grouping key."""

    key: tuple
    ctas: tuple[int, ...]
    representative: int
    mean_icnt: float


@dataclass(frozen=True)
class ThreadGroup:
    """Threads of one representative CTA sharing an exact iCnt."""

    cta_group: int  # index into ThreadwisePruning.cta_groups
    icnt: int
    threads: tuple[int, ...]  # global thread ids within the representative CTA
    representative: int  # global thread id
    site_weight: float  # exhaustive sites this group stands for
    rep_sites: int  # fault sites of the representative thread

    @property
    def per_site_weight(self) -> float:
        """Weight attached to each of the representative's sites."""
        if self.rep_sites == 0:
            return 0.0
        return self.site_weight / self.rep_sites


@dataclass
class ThreadwisePruning:
    """The outcome of stage 1."""

    cta_groups: list[CTAGroup]
    thread_groups: list[ThreadGroup]
    total_sites: int
    method: str

    @property
    def representatives(self) -> list[int]:
        return [g.representative for g in self.thread_groups]

    @property
    def sites_after(self) -> int:
        """Fault sites left for injection (Fig. 10's thread-wise bar)."""
        return sum(g.rep_sites for g in self.thread_groups)

    def weight_check(self) -> float:
        """Sum of group weights; must equal the exhaustive site count."""
        return sum(g.site_weight for g in self.thread_groups)


def _group_ctas(
    cta_icnts: list[list[int]], method: str, mean_tolerance: float
) -> list[list[int]]:
    """Group CTA indices by the chosen key.

    ``mean`` (the paper's method) groups CTAs whose average thread iCnt
    lies within ``mean_tolerance`` of a group exemplar — the programmatic
    analogue of "these boxplots look the same" in Figs. 2-3.
    ``signature`` requires the exact iCnt multiset to match.
    """
    if method == "mean":
        means = [float(np.mean(icnts)) for icnts in cta_icnts]
        return group_by_distance(
            means, lambda a, b: abs(a - b), threshold=mean_tolerance
        )
    if method == "signature":
        by_key: dict[tuple, list[int]] = {}
        for cta, icnts in enumerate(cta_icnts):
            by_key.setdefault(tuple(sorted(icnts)), []).append(cta)
        return list(by_key.values())
    raise PruningError(f"unknown CTA grouping method {method!r}")


def prune_threads(
    traces: TraceTable,
    geometry: LaunchGeometry,
    method: str = "mean",
    mean_tolerance: float = 0.6,
    rng: np.random.Generator | None = None,
) -> ThreadwisePruning:
    """Run the two-level iCnt classification.

    Args:
        traces: golden per-thread traces (index = global thread id).
        method: CTA grouping key — ``"mean"`` (paper default) or
            ``"signature"`` (exact iCnt multiset).
        mean_tolerance: how close two CTAs' average iCnts must be to share
            a group under the ``mean`` method.
        rng: optional source of randomness for representative choice;
            ``None`` picks the first member (deterministic).
    """
    tpc = geometry.threads_per_cta
    if len(traces) != geometry.n_threads:
        raise PruningError("trace count does not match launch geometry")

    sites = traces.sites.tolist()
    total_sites = sum(sites)

    # ---- level 1: CTA groups --------------------------------------------
    cta_icnts: list[list[int]] = traces.icnt.reshape(geometry.n_ctas, tpc).tolist()
    cta_groups: list[CTAGroup] = []
    for ctas in _group_ctas(cta_icnts, method, mean_tolerance):
        rep = ctas[0] if rng is None else int(rng.choice(ctas))
        cta_groups.append(
            CTAGroup(
                key=(round(float(np.mean(cta_icnts[rep])), 3),),
                ctas=tuple(ctas),
                representative=rep,
                mean_icnt=float(np.mean(cta_icnts[rep])),
            )
        )
    cta_groups.sort(key=lambda g: g.ctas[0])

    # ---- level 2: thread groups inside each representative CTA ----------
    thread_groups: list[ThreadGroup] = []
    for gid, cgroup in enumerate(cta_groups):
        rep_cta = cgroup.representative
        group_total_sites = sum(
            sites[cta * tpc + s] for cta in cgroup.ctas for s in range(tpc)
        )
        rep_cta_sites = sum(sites[rep_cta * tpc + s] for s in range(tpc))
        by_icnt: dict[int, list[int]] = {}
        for slot, icnt in enumerate(cta_icnts[rep_cta]):
            by_icnt.setdefault(icnt, []).append(rep_cta * tpc + slot)
        for icnt in sorted(by_icnt):
            members = by_icnt[icnt]
            rep = members[0] if rng is None else int(rng.choice(members))
            members_sites = sum(sites[t] for t in members)
            if rep_cta_sites == 0:
                share = 0.0
            else:
                share = members_sites / rep_cta_sites
            thread_groups.append(
                ThreadGroup(
                    cta_group=gid,
                    icnt=icnt,
                    threads=tuple(members),
                    representative=rep,
                    site_weight=share * group_total_sites,
                    rep_sites=sites[rep],
                )
            )

    return ThreadwisePruning(
        cta_groups=cta_groups,
        thread_groups=thread_groups,
        total_sites=total_sites,
        method=method,
    )
