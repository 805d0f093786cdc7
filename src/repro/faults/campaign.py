"""Campaign drivers: batches of injections aggregated into profiles.

Three campaign shapes cover everything the paper does:

* :func:`run_campaign` — inject an explicit iterable of sites (optionally
  weighted), e.g. the exhaustive pruned space;
* :func:`random_campaign` — ``n`` uniform random sites, the statistical
  baseline of Section II-D;
* :func:`exhaustive_campaign` — every site in the space (only sane for
  small spaces or single instructions).

``run_campaign`` streams: sites may be any iterable (a generator over a
1e6-site exhaustive space never materialises twice), the profile is built
incrementally, and an optional ``progress(done, total)`` hook fires after
every injection.  Campaigns record into the injector's telemetry.
``random_campaign`` and ``exhaustive_campaign`` forward all keyword
arguments (``weights``/``progress``/``live``/…) to :func:`run_campaign`,
so every campaign shape is instrumentable the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..telemetry import CampaignEvent
from .injector import FaultInjector
from .outcome import Outcome, ResilienceProfile
from .site import FaultSite


@dataclass
class CampaignResult:
    """Outcomes plus the aggregated (possibly weighted) profile.

    ``sites``/``outcomes`` are empty when the campaign ran with
    ``keep_sites=False`` (streaming over huge spaces); the profile still
    carries every classified run.  ``converged`` reports whether the
    ``until_ci`` convergence target was met; ``stopped_early`` whether the
    campaign actually cut off there (``early_stop=True``, sampled mode).
    """

    sites: list[FaultSite]
    outcomes: list[Outcome]
    profile: ResilienceProfile
    converged: bool = False
    stopped_early: bool = False

    @property
    def n_runs(self) -> int:
        return len(self.sites) if self.sites else self.profile.n_injections


def run_campaign(
    injector: FaultInjector,
    sites: Iterable[FaultSite],
    weights: Iterable[float] | None = None,
    *,
    static_masked_weight: float = 0.0,
    executor=None,
    progress=None,
    total: int | None = None,
    keep_sites: bool = True,
    label: str = "explicit",
    live=None,
    until_ci: float | None = None,
    early_stop: bool = False,
    confidence: float = 0.95,
) -> CampaignResult:
    """Inject every site in ``sites``; weight outcomes if weights given.

    Args:
        sites: any iterable of fault sites — consumed exactly once.
        weights: optional per-site weights, zipped strictly against sites.
            Each weight is stamped on its site's ``InjectionEvent``.
        static_masked_weight: weight counted as masked without injecting
            (a pruned space's static masked sites), recorded on the
            ``start`` record and added after the last injection.
        executor: a :class:`~repro.parallel.ParallelCampaignRunner` (or
            anything with its ``imap`` signature) to fan injections over
            worker processes; ``None`` injects serially in-process
            (:class:`~repro.parallel.SerialExecutor`).  Outcomes stream
            back in site order either way, so the profile is identical
            for identical seeds.
        progress: ``callable(done, total)``, invoked after every
            injection.
        total: planned site count for progress/ETA when ``sites`` has no
            ``len()`` (e.g. a generator).
        keep_sites: set False to drop the per-run site/outcome lists and
            keep only the profile — O(1) memory over huge spaces.
        label: campaign tag recorded in :class:`CampaignEvent`.
        live: a :class:`~repro.observe.live.LiveAggregator`, attached to
            the injector's telemetry for the campaign's duration so it
            folds the ``start`` record and every ``InjectionEvent``
            (serial and process-pool executors alike).  Needs enabled
            telemetry (``ValueError`` otherwise).
            Advisory: outcomes and the profile are identical with or
            without it.
        until_ci: convergence target — once the widest Wilson CI
            half-width over the four outcome shares drops to this value
            the campaign reports ``converged``.  Computed from the
            parent's in-order outcome stream, so the verdict (and any
            early stop) is deterministic for a fixed seed regardless of
            worker count.  ``ValueError`` in a weighted campaign: a
            Wilson CI over weighted sites measures no error.
        early_stop: with ``until_ci``, actually stop at convergence
            instead of just flagging it.
        confidence: CI confidence level for the convergence signal.
    """
    telemetry = injector.telemetry
    if live is not None and not telemetry.enabled:
        raise ValueError(
            "live= folds the campaign's telemetry events; "
            "give the injector an enabled Telemetry"
        )
    if until_ci is not None and (weights is not None or static_masked_weight):
        raise ValueError(
            "until_ci judges unweighted outcome counts; a weighted "
            "campaign has no sampling CI"
        )
    if total is None:
        try:
            total = len(sites)  # type: ignore[arg-type]
        except TypeError:
            total = None
    if live is not None:
        spec = getattr(injector.instance, "spec", None)
        live.begin(
            total=total,
            kernel=getattr(spec, "key", "") or "",
            label=label,
            telemetry=telemetry,
        )
    if telemetry.enabled:
        telemetry.emit(
            CampaignEvent(
                time.time(),
                phase="start",
                campaign=label,
                n_sites=total if total is not None else -1,
                profile=(
                    {"masked": static_masked_weight} if static_masked_weight else None
                ),
            )
        )
    pairs = (
        ((site, 1.0) for site in sites)
        if weights is None
        else zip(sites, weights, strict=True)
    )
    if executor is None:
        from ..parallel import SerialExecutor

        executor = SerialExecutor()
    if until_ci is not None:
        from ..observe.live import check_convergence
    kept_sites: list[FaultSite] = []
    kept_outcomes: list[Outcome] = []
    profile = ResilienceProfile()
    counts: dict[str, int] = {}
    converged = False
    stopped_early = False
    done = 0
    stream = executor.imap(injector, pairs)
    try:
        with telemetry.span(f"campaign.{label}_s"):
            for site, weight, outcome in stream:
                profile.add(outcome, weight)
                if keep_sites:
                    kept_sites.append(site)
                    kept_outcomes.append(outcome)
                done += 1
                if until_ci is not None and not converged:
                    counts[outcome.value] = counts.get(outcome.value, 0) + 1
                    if check_convergence(counts, done, until_ci, confidence):
                        converged = True
                        if live is not None:
                            live.note_converged()
                if progress is not None:
                    progress(done, total)
                if converged and early_stop:
                    stopped_early = True
                    break
    except BaseException as exc:
        if live is not None:
            live.abort(exc)
        raise
    finally:
        # Breaking out (early stop) must still run the executor
        # generator's cleanup: pool terminate/join.
        close = getattr(stream, "close", None)
        if close is not None:
            close()
    if static_masked_weight:
        profile.add(Outcome.MASKED, static_masked_weight)
    if telemetry.enabled:
        telemetry.emit(
            CampaignEvent(
                time.time(),
                phase="end",
                campaign=label,
                n_sites=done,
                profile=dict(profile.weights),
            )
        )
    if live is not None:
        live.finish(converged=converged, stopped_early=stopped_early)
    return CampaignResult(
        sites=kept_sites,
        outcomes=kept_outcomes,
        profile=profile,
        converged=converged,
        stopped_early=stopped_early,
    )


def random_campaign(
    injector: FaultInjector,
    n: int,
    rng: np.random.Generator | int | None = None,
    **campaign_kwargs,
) -> CampaignResult:
    """``n`` uniform random injections over the exhaustive space.

    Extra keyword arguments pass straight through to :func:`run_campaign`.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    sites = injector.space.sample(n, rng)
    campaign_kwargs.setdefault("label", "random")
    return run_campaign(injector, sites, **campaign_kwargs)


def exhaustive_campaign(
    injector: FaultInjector,
    threads: list[int] | None = None,
    **campaign_kwargs,
) -> CampaignResult:
    """Every site of the given threads (default: the whole space).

    Sites stream from the space lazily — the full site list is never
    materialised up front.  Extra keyword arguments pass straight through
    to :func:`run_campaign`.
    """
    if threads is None:
        threads = list(range(injector.space.n_threads))
    sites = (
        site for thread in threads for site in injector.space.iter_thread_sites(thread)
    )
    campaign_kwargs.setdefault("label", "exhaustive")
    campaign_kwargs.setdefault(
        "total", sum(injector.space.thread_sites(t) for t in threads)
    )
    return run_campaign(injector, sites, **campaign_kwargs)
