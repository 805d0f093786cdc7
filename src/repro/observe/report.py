"""Build a campaign report from a :class:`~repro.observe.loader.CampaignLog`.

The report is a plain nested dict — renderers (text/markdown/JSON) and
tests consume the same structure.  Sections:

* ``meta``        — kernel, sources, counts, backends, wall-clock span;
* ``outcomes``    — per-outcome counts and weighted shares (the
  campaign's profile), with Wilson confidence intervals while unweighted;
* ``latency``     — per-injection duration percentiles;
* ``phases``      — where injection milliseconds go, by pipeline phase;
* ``tertiles``    — latency and phase mix by fault-site depth tertile;
* ``checkpoint``  — snapshot-store hit/miss/skip economics;
* ``compiled``    — closure-chain bind-cache efficiency (older logs only);
* ``workers``     — per-worker utilisation and load imbalance;
* ``stragglers``  — sites slower than the p99, with their phase splits;
* ``funnel``      — the pruning-stage site funnel;
* ``propagation`` — PC vulnerability map, masking-depth histograms, SDC
  signatures and pruning-group coherence (opt-in via ``propagation=True``;
  needs a tracing-enabled campaign — see ``repro.observe.propagation``).

Sections whose inputs were not recorded (no checkpoints, serial run, no
stages) are present but ``None`` so renderers can skip them cleanly.
"""

from __future__ import annotations

from ..telemetry.events import PHASE_NAMES
from .live import outcome_rows
from .loader import CampaignLog
from .propagation import build_propagation_section

#: Straggler list length bound: enough to eyeball, short enough to print.
MAX_STRAGGLERS = 10

TERTILE_LABELS = ("shallow", "middle", "deep")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over an ascending list (0 < q <= 100)."""
    if not sorted_values:
        return 0.0
    rank = max(1, round(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _latency_summary(durations: list[float]) -> dict:
    ordered = sorted(durations)
    total = sum(ordered)
    return {
        "count": len(ordered),
        "total_s": total,
        "mean_s": total / len(ordered) if ordered else 0.0,
        "p50_s": _percentile(ordered, 50),
        "p90_s": _percentile(ordered, 90),
        "p99_s": _percentile(ordered, 99),
        "max_s": ordered[-1] if ordered else 0.0,
    }


def _phase_totals(injections) -> dict[str, float]:
    totals: dict[str, float] = {}
    for event in injections:
        if event.phases:
            for name, seconds in event.phases.items():
                totals[name] = totals.get(name, 0.0) + seconds
    return totals


def _phase_section(injections) -> dict | None:
    totals = _phase_totals(injections)
    if not totals:
        return None
    duration_total = sum(e.duration_s for e in injections)
    attributed = sum(totals.values())
    # Current phases in pipeline order, then others (older logs' phases).
    names = [n for n in PHASE_NAMES if n in totals]
    rows = []
    for name in names + sorted(set(totals) - set(names)):
        seconds = totals[name]
        rows.append({
            "phase": name,
            "total_s": seconds,
            "mean_s": seconds / len(injections),
            "share": seconds / duration_total if duration_total else 0.0,
        })
    return {
        "rows": rows,
        "attributed_s": attributed,
        "unattributed_s": max(0.0, duration_total - attributed),
        "duration_total_s": duration_total,
    }


def _tertile_section(injections) -> dict | None:
    if not injections:
        return None
    depths = sorted(e.dyn_index for e in injections)
    n = len(depths)
    cut1 = depths[(n - 1) // 3]
    cut2 = depths[(2 * (n - 1)) // 3]
    buckets: dict[str, list] = {label: [] for label in TERTILE_LABELS}
    for event in injections:
        if event.dyn_index <= cut1:
            buckets["shallow"].append(event)
        elif event.dyn_index <= cut2:
            buckets["middle"].append(event)
        else:
            buckets["deep"].append(event)
    rows = []
    for label in TERTILE_LABELS:
        events = buckets[label]
        if not events:
            continue
        durations = [e.duration_s for e in events]
        totals = _phase_totals(events)
        attributed = sum(totals.values())
        rows.append({
            "tertile": label,
            "depth_max": max(e.dyn_index for e in events),
            **_latency_summary(durations),
            "phase_shares": {
                name: seconds / attributed
                for name, seconds in sorted(totals.items())
            } if attributed > 0 else {},
        })
    return {"cuts": [cut1, cut2], "rows": rows}


def _checkpoint_section(log: CampaignLog, counters, gauges) -> dict | None:
    hits = counters.get("checkpoint.thread_hits", 0) + counters.get(
        "checkpoint.cta_hits", 0
    )
    misses = counters.get("checkpoint.thread_misses", 0) + counters.get(
        "checkpoint.cta_misses", 0
    )
    intervals = {e.checkpoint_interval for e in log.injections}
    intervals.discard(0)
    if not intervals:
        # A manifest-only report: the interval each run resolved (older
        # manifests recorded the flag text ``"auto"`` instead).
        recorded = (m.config.get("checkpoint_interval") for m in log.manifests)
        intervals = {i for i in recorded if isinstance(i, int) and i > 0}
    if hits + misses == 0 and not intervals:
        return None
    lookups = hits + misses
    return {
        "interval": max(intervals) if intervals else 0,
        "thread_hits": counters.get("checkpoint.thread_hits", 0),
        "thread_misses": counters.get("checkpoint.thread_misses", 0),
        "cta_hits": counters.get("checkpoint.cta_hits", 0),
        "cta_misses": counters.get("checkpoint.cta_misses", 0),
        "hit_rate": hits / lookups if lookups else 0.0,
        "skipped_instructions": counters.get("checkpoint.skipped_instructions", 0),
        "store_bytes": gauges.get("checkpoint.bytes", 0.0),
        "store_entries": gauges.get("checkpoint.entries", 0.0),
        "store_evicted": gauges.get("checkpoint.evicted", 0.0),
        "capture_s": gauges.get("checkpoint.capture_s", 0.0),
    }


def _compiled_section(counters) -> dict | None:
    """Closure-chain cache rates, carried only by logs of older releases
    (the compiled backend no longer binds per-thread chains)."""
    if not {"compiled.chain_hits", "compiled.chain_misses"} & counters.keys():
        return None
    hits = counters.get("compiled.chain_hits", 0)
    misses = counters.get("compiled.chain_misses", 0)
    lookups = hits + misses
    return {
        "chain_hits": hits,
        "chain_misses": misses,
        "hit_rate": hits / lookups if lookups else 0.0,
    }


def _scoped_gauge(gauges, name: str, worker: str) -> float | None:
    """A ``name[worker]`` gauge value, or None when never recorded."""
    return gauges.get(f"{name}[{worker}]")


def _worker_section(injections, counters, gauges, histograms) -> dict | None:
    by_worker: dict[str, list] = {}
    for event in injections:
        by_worker.setdefault(event.worker or "serial", []).append(event)
    busy: dict[str, float] = {}
    for name, value in counters.items():
        if name.startswith("parallel.worker.") and name.endswith(".busy_s"):
            busy[name[len("parallel.worker."):-len(".busy_s")]] = value
    workers = sorted(set(by_worker) | set(busy))
    if workers in ([], ["serial"]) and not busy:
        return None
    rows = []
    wait_means: list[float] = []
    for worker in workers:
        events = by_worker.get(worker, [])
        durations = [e.duration_s for e in events]
        row = {
            "worker": worker,
            "injections": len(events),
            "injection_s": sum(durations),
            "busy_s": busy.get(worker, sum(durations)),
        }
        # Per-worker resource levels from the scoped ``name[worker]``
        # gauges and histograms the merge keeps for each contributor.
        checkpoint_bytes = _scoped_gauge(gauges, "checkpoint.bytes", worker)
        if checkpoint_bytes is not None:
            row["checkpoint_bytes"] = checkpoint_bytes
            row["checkpoint_entries"] = (
                _scoped_gauge(gauges, "checkpoint.entries", worker) or 0.0
            )
        wait = histograms.get(f"parallel.queue_wait_s[{worker}]")
        if wait and wait.get("count"):
            row["queue_wait_mean_s"] = wait["total"] / wait["count"]
            wait_means.append(row["queue_wait_mean_s"])
        rows.append(row)
    busy_values = [row["busy_s"] for row in rows if row["busy_s"] > 0]
    mean_busy = sum(busy_values) / len(busy_values) if busy_values else 0.0
    mean_wait = sum(wait_means) / len(wait_means) if wait_means else 0.0
    queue_wait = histograms.get("parallel.queue_wait_s")
    return {
        "rows": rows,
        "imbalance": (max(busy_values) / mean_busy) if mean_busy else 1.0,
        # Skew of mean chunk queue-wait across workers: a straggling
        # worker picks chunks up late, inflating its mean vs the fleet's.
        "queue_wait_skew": (max(wait_means) / mean_wait) if mean_wait else 1.0,
        "queue_wait": queue_wait,
    }


def _straggler_section(injections) -> dict | None:
    if not injections:
        return None
    ordered = sorted(e.duration_s for e in injections)
    p99 = _percentile(ordered, 99)
    stragglers = sorted(
        (e for e in injections if e.duration_s > p99),
        key=lambda e: e.duration_s,
        reverse=True,
    )[:MAX_STRAGGLERS]
    if not stragglers:
        return None
    return {
        "threshold_s": p99,
        "rows": [
            {
                "thread": e.thread,
                "dyn_index": e.dyn_index,
                "bit": e.bit,
                "outcome": e.outcome,
                "fast_path": e.fast_path,
                "duration_s": e.duration_s,
                "worker": e.worker,
                "phases": dict(e.phases) if e.phases else {},
            }
            for e in stragglers
        ],
    }


def _outcome_section(log: CampaignLog, confidence: float) -> list[dict]:
    """The campaign's profile: its injections' weights plus the static
    masked weight of its ``start`` records (coherence-audit probes, with
    ``group`` set, feed only the propagation section).  Without injection
    events, the profile the manifests recorded."""
    counts: dict[str, int] = {}
    weights: dict[str, float] = {}
    weighted = False
    for event in log.injections:
        if event.group is None:
            counts[event.outcome] = counts.get(event.outcome, 0) + 1
            weights[event.outcome] = weights.get(event.outcome, 0.0) + event.weight
            weighted = weighted or event.weight != 1.0
    recorded = [s.profile for s in log.campaigns if s.phase == "start" and s.profile]
    if not log.injections:
        counts = None
        recorded = [m.profile["weights"] for m in log.manifests if m.profile]
    for profile in recorded:
        for outcome, weight in profile.items():
            weights[outcome] = weights.get(outcome, 0.0) + weight
    if not weights:
        return []
    return outcome_rows(weights, counts, weighted or bool(recorded), confidence)


def build_report(
    log: CampaignLog, confidence: float = 0.95, propagation: bool = False
) -> dict:
    """Assemble the full campaign report dict from a loaded log.

    Coherence-audit probes (events with a ``group``) are counted apart
    in ``meta``; every campaign section reads the campaign's own
    injections, and only the propagation section reads the probes.
    """
    injections = [e for e in log.injections if e.group is None]
    metrics = log.merged_metrics()
    counters = metrics["counters"]
    gauges = metrics["gauges"]
    histograms = metrics.get("histograms", {})

    n = len(injections)
    fast = sum(1 for e in injections if e.fast_path)
    sim_runs = len(log.sim_runs)
    backends = sorted({e.backend for e in injections})
    # Effective dynamic coverage: executed + checkpoint-skipped
    # instructions the campaign accounted for.
    effective = sum(e.effective_instructions for e in injections)
    if not log.injections:  # a manifest-only report: the recorded totals
        n = int(counters.get("injections.total", 0))
        fast = counters.get("injections.fast_path", 0)
        sim_runs = int(counters.get("sim.launches", 0))
        backends = sorted(
            {m.config["backend"] for m in log.manifests if m.config.get("backend")}
        )
        effective = int(counters.get("work.effective_instructions", 0))
    timestamps = [e.ts for e in log.events]
    return {
        "meta": {
            "kernel": log.kernel,
            "sources": list(log.sources),
            "n_injections": n,
            "n_probes": len(log.injections) - len(injections),
            "n_sim_runs": sim_runs,
            "backends": backends,
            "fast_path_rate": fast / n if n else 0.0,
            "suffix_instructions": sum(e.suffix_instructions for e in injections),
            "effective_instructions": effective,
            "wall_span_s": (max(timestamps) - min(timestamps)) if timestamps else 0.0,
            "confidence": confidence,
        },
        "outcomes": _outcome_section(log, confidence),
        "latency": _latency_summary([e.duration_s for e in injections])
        if injections
        else None,
        "phases": _phase_section(injections),
        "tertiles": _tertile_section(injections),
        "checkpoint": _checkpoint_section(log, counters, gauges),
        "compiled": _compiled_section(counters),
        "workers": _worker_section(injections, counters, gauges, histograms),
        "stragglers": _straggler_section(injections),
        "funnel": [
            {
                "stage": s.stage,
                "sites_before": s.sites_before,
                "sites_after": s.sites_after,
                "factor": s.sites_before / s.sites_after if s.sites_after else 0.0,
                "duration_s": s.duration_s,
            }
            for s in log.stages
        ]
        or None,
        # Opt-in: the key is always present (keeping untraced reports
        # structurally stable) but only populated on request.
        "propagation": build_propagation_section(log) if propagation else None,
    }
