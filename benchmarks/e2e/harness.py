"""Workloads, passes, checks and metrics of the end-to-end profile benchmark.

A *pass* drives every kernel of a workload through the public entry points
``repro profile`` and ``repro baseline`` use — ``load_instance`` →
``FaultInjector`` (the golden run) → ``ProgressivePruner.prune`` →
``PrunedSpace.estimate_profile``, or ``random_campaign`` for the
statistical baseline — and times each call from outside with in-memory
spans.  A *run* (:func:`run_workload`) repeats passes for its measurement
window, then repeats set-up alone until the workload's set-up count is
reached, and, when traced, adds one pass whose injectors record the
program's own ``Telemetry`` stream.  Every profile is checked against
``expected.json``; a mismatch or an exception fails that kernel's
pipeline and counts toward ``failed_frac``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    FaultInjector,
    ProgressivePruner,
    Telemetry,
    load_instance,
    random_campaign,
    resolve_executor,
)
from repro.stats import sample_size_worst_case
from repro.telemetry import InjectionEvent, RunManifest

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
RESULTS_DIR = HERE / "results"

#: Length of one run's measurement window (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 20

#: Pruning always uses the seed that pinned fig9_accuracy.txt and
#: fig10_reduction.txt.  The pruner seed picks representative threads and
#: loop iterations, which moves a pass's work far beyond the metric
#: bounds (registry-pruned took 18.1-24.5 s over seeds 1-5; lud.k44 alone
#: ran 1274-1786 sites), so the workload seed drives only the kernel
#: order and the baseline's random sites.  Pinning it also lets every run
#: of a pruned workload check its profiles exactly.
PRUNER_SEED = 2018

#: Loop iterations sampled per loop; with ``n_bits=4`` the settings that
#: pinned fig9_accuracy.txt and fig10_reduction.txt.
LOOP_ITERS = 4

#: The workload seed ``expected.json``'s baseline profiles were taken at;
#: other seeds check only the seed-free invariants.
EXPECTED_SEED = 2018

BASELINE_MARGIN = 0.03
BASELINE_CONFIDENCE = 0.95
BASELINE_RUNS = sample_size_worst_case(BASELINE_MARGIN, BASELINE_CONFIDENCE)

STAGES = ("thread-wise", "instruction-wise", "loop-wise", "bit-wise")
#: Per-injection phases in pipeline order (``repro.telemetry.PHASE_NAMES``
#: without the optional propagation trace).
PHASES = (
    "queue_wait", "checkpoint_restore", "prefix_replay", "suffix_exec",
    "resync_scan", "suffix_splice", "heap_repair", "classify",
)
SETUP_SPANS = ("load_instance", "FaultInjector", "prune")
CAMPAIGN_SPANS = ("estimate_profile", "random_campaign")

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "profile_s": ("s", "lower"),
    "injections_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics, named after the ``repro`` module they measure.
PER_LAYER = {
    "kernels.load_s": "s",
    "gpu.golden_s": "s",
    "gpu.golden_instructions": "count",
    "gpu.checkpoint_interval": "count",
    "gpu.checkpoint_hit_rate": "fraction",
    **{f"pruning.{stage}_s": "s" for stage in STAGES},
    "pruning.sites_exhaustive": "count",
    **{f"pruning.{stage}_sites": "count" for stage in STAGES},
    "faults.campaign_s": "s",
    "faults.injections": "count",
    "faults.fallback_frac": "fraction",
    "faults.inj_ms_p50": "ms",
    "faults.inj_ms_tail": "ms",
    "faults.inj_ms_tail_pct": "%",
    **{f"faults.phase.{phase}_s": "s" for phase in PHASES},
    "faults.exec_instructions": "count",
    "faults.effective_instructions": "count",
    "faults.exec_frac": "fraction",
    "parallel.first_outcome_s": "s",
    "parallel.queue_wait_frac": "fraction",
    "parallel.worker_skew": "ratio",
    "process.cpu_s": "s",
    "telemetry.trace_overhead_frac": "fraction",
}


@dataclass(frozen=True)
class Workload:
    """One set of inputs: which kernels, and how the pipeline runs them."""

    name: str
    why: str
    kernels: tuple[str, ...]
    baseline: bool = False  # random_campaign instead of prune + estimate
    scale: str = "sim"
    backend: str | None = None  # None: the library default
    workers: int = 1
    n_bits: int = 4
    setups: int = 3  # set-ups per run, the pass's own included


#: Table I kernels except hotspot.k1, in Table I order.
REGISTRY_KERNELS = (
    "k-means.k1", "k-means.k2",
    "gaussian.k1", "gaussian.k2", "gaussian.k125", "gaussian.k126",
    "pathfinder.k1",
    "lud.k44", "lud.k45", "lud.k46",
    "2dconv.k1", "mvt.k1", "2mm.k1", "gemm.k1", "syrk.k1",
)

WORKLOADS = (
    Workload(
        "registry-pruned",
        "Full pipeline, serial, on the 15 Table I kernels but hotspot.k1: many "
        "small campaigns, shallow and checkpointed, where fixed per-injection "
        "cost dominates.",
        REGISTRY_KERNELS,
    ),
    Workload(
        "hotspot-pool2",
        "The only pool workload (2 workers): golden handoff, chunk IPC and "
        "worker telemetry; shared memory forces the CTA path with "
        "checkpoints off.",
        ("hotspot.k1",),
        workers=2,
    ),
    Workload(
        "paper-gemm",
        "Paper-grid 16384-thread GEMM on the vectorized backend: set-up heavy "
        "(golden and thread-wise pruning), wide CTAs, auto checkpoint "
        "interval 128.",
        ("gemm.k1",),
        scale="paper",
        backend="vectorized",
        # The benchmark's 92 runs share one time budget.  One sampled bit
        # (bit 31; 58 sites) keeps a pass near 14 s, where four bits'
        # campaign alone takes 37 s; and with a ~9 s golden run a third
        # set-up would cost more than the campaign.
        n_bits=1,
        setups=2,
    ),
    Workload(
        "baseline-sampled",
        "Statistical baseline, 1068-site cap with early stop at +-3pp, on 5 "
        "kernels: uniform random depths, checkpoint restores at every depth, "
        "live convergence check.",
        ("pathfinder.k1", "lud.k44", "mvt.k1", "syrk.k1", "k-means.k2"),
        baseline=True,
    ),
)

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


def config_key(workload: Workload, kernel: str) -> str:
    """The ``expected.json`` key: everything that determines a profile.

    Backend and worker count are left out on purpose — profiles are
    byte-identical across both, so one pinned entry covers them all.
    """
    if workload.baseline:
        return f"baseline/{kernel}/{workload.scale}/n{BASELINE_RUNS}/ci{BASELINE_MARGIN}"
    return f"pruned/{kernel}/{workload.scale}/bits{workload.n_bits}/iters{LOOP_ITERS}"


def kernel_order(workload: Workload, seed: int) -> list[str]:
    """The workload's kernels in a seed-chosen order."""
    order = np.random.default_rng(seed).permutation(len(workload.kernels))
    return [workload.kernels[i] for i in order]


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())["profiles"]


# ------------------------------------------------------------------ spans


class Spans:
    """Spans around each public call: name, start, end and parent.

    Kept in memory and written out with the traced-run artifact.  A span
    inherits its parent's ``kernel`` so one pipeline's spans share it.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[dict] = []

    def _new(self, name: str, start: float, attrs: dict) -> dict:
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.records),
            "name": name,
            "parent": parent["id"] if parent else None,
            "kernel": parent["kernel"] if parent else None,
            "start": start,
            "end": None,
            **attrs,
        }
        self.records.append(record)
        return record

    @contextmanager
    def span(self, name: str, **attrs):
        record = self._new(name, time.perf_counter(), attrs)
        self._open.append(record)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished child of the innermost open span."""
        self._new(name, start, {})["end"] = end

    def total(self, *names: str, kernel: str | None = None) -> float:
        return sum(
            r["end"] - r["start"]
            for r in self.records
            if r["name"] in names and (kernel is None or r["kernel"] == kernel)
        )

    def export(self) -> list[dict]:
        """Records relative to the first start, each with its self time."""
        if not self.records:
            return []
        origin = self.records[0]["start"]
        child_s: dict[int, float] = {}
        for r in self.records:
            if r["parent"] is not None:
                child_s[r["parent"]] = child_s.get(r["parent"], 0.0) + r["end"] - r["start"]
        return [
            {
                **r,
                "start": r["start"] - origin,
                "end": r["end"] - origin,
                "self_s": r["end"] - r["start"] - child_s.get(r["id"], 0.0),
            }
            for r in self.records
        ]


class _StageSpans:
    """``prune`` progress callback: one span per finished pruning stage."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.mark = time.perf_counter()

    def __call__(self, done: int, total: int) -> None:
        now = time.perf_counter()
        self.spans.add(STAGES[done - 1], self.mark, now)
        self.mark = now


class _OutcomeClock:
    """Campaign progress callback: first-outcome time and injection count."""

    def __init__(self) -> None:
        self.first: float | None = None
        self.done = 0

    def __call__(self, done: int, total: int | None) -> None:
        if self.first is None:
            self.first = time.perf_counter()
        self.done = done


# ----------------------------------------------------------------- passes


@dataclass
class KernelRun:
    """One kernel's pipeline within a pass: what it produced, what failed."""

    kernel: str
    telemetry: Telemetry | None = None
    profile: dict | None = None
    funnel: dict | None = None
    injections: int = 0
    first_outcome_s: float = 0.0
    checkpoint_interval: int = 0
    golden_instructions: int = 0
    fallbacks: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    spans: Spans
    kernels: list[KernelRun]
    cpu_s: float = 0.0

    @property
    def setup_s(self) -> float:
        return self.spans.total(*SETUP_SPANS)

    @property
    def campaign_s(self) -> float:
        return self.spans.total(*CAMPAIGN_SPANS)

    @property
    def profile_s(self) -> float:
        """From the first ``load_instance`` to the last finished profile."""
        starts = [r["start"] for r in self.spans.records if r["name"] == "load_instance"]
        ends = [r["end"] for r in self.spans.records if r["name"] in CAMPAIGN_SPANS]
        return max(ends) - min(starts) if starts and ends else 0.0

    @property
    def injections(self) -> int:
        return sum(k.injections for k in self.kernels)


def _set_up(workload: Workload, key: str, spans: Spans, telemetry=None):
    """load_instance → FaultInjector (golden) → prune; returns both results."""
    with spans.span("load_instance"):
        instance = load_instance(key, scale=workload.scale)
    options = {} if workload.backend is None else {"backend": workload.backend}
    with spans.span("FaultInjector"):
        injector = FaultInjector(instance, telemetry=telemetry, **options)
    if workload.baseline:
        return injector, None
    pruner = ProgressivePruner(
        num_loop_iters=LOOP_ITERS, n_bits=workload.n_bits, seed=PRUNER_SEED
    )
    with spans.span("prune"):
        space = pruner.prune(injector, progress=_StageSpans(spans))
    return injector, space


def _run_kernel(
    workload: Workload, key: str, seed: int, spans: Spans, traced: bool
) -> KernelRun:
    run = KernelRun(key, telemetry=Telemetry() if traced else None)
    clock = _OutcomeClock()
    try:
        with spans.span("kernel", kernel=key):
            injector, space = _set_up(workload, key, spans, run.telemetry)
            executor = resolve_executor(workload.workers)
            if space is None:
                with spans.span("random_campaign") as campaign:
                    result = random_campaign(
                        injector,
                        BASELINE_RUNS,
                        rng=seed,
                        executor=executor,
                        progress=clock,
                        until_ci=BASELINE_MARGIN,
                        early_stop=True,
                    )
                profile = result.profile
            else:
                with spans.span("estimate_profile") as campaign:
                    profile = space.estimate_profile(
                        injector, executor=executor, progress=clock
                    )
    except Exception:
        run.problems.append("raised:\n" + traceback.format_exc())
        return run
    run.profile = {"weights": dict(profile.weights), "n_injections": profile.n_injections}
    run.injections = clock.done
    if clock.first is not None:
        run.first_outcome_s = clock.first - campaign["start"]
    run.checkpoint_interval = injector.checkpoint_interval
    run.golden_instructions = sum(len(trace) for trace in injector.traces)
    run.fallbacks = injector.fallback_count
    if space is None:
        if clock.done > BASELINE_RUNS:
            run.problems.append(f"sampled {clock.done} sites, cap {BASELINE_RUNS}")
        if profile.n_injections != clock.done or profile.total_weight != clock.done:
            run.problems.append(f"profile holds {profile} for {clock.done} injections")
        if not result.stopped_early and clock.done != BASELINE_RUNS:
            run.problems.append(f"ran {clock.done} of {BASELINE_RUNS} without stopping early")
        return run
    run.funnel = {"exhaustive": space.total_sites}
    run.funnel.update((stage.name, stage.sites_after) for stage in space.stages)
    # No weight_total() == total_sites check: loop-wise pruning does not
    # conserve weight on lud.k44 (190760 of 196544) or lud.k46 (90144 of
    # 62144).  The pinned profile fixes the total weight instead.
    static = 1 if space.static_masked_weight else 0
    if profile.n_injections != space.n_injections + static:
        run.problems.append(
            f"profile holds {profile.n_injections} runs for {space.n_injections} sites"
        )
    if clock.done != space.n_injections:
        run.problems.append(f"classified {clock.done} of {space.n_injections} sites")
    return run


def _cpu_s() -> float:
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def run_pass(workload: Workload, seed: int, traced: bool = False) -> Pass:
    """Every kernel of the workload once, through the whole pipeline."""
    spans = Spans()
    cpu0 = _cpu_s()
    kernels = [
        _run_kernel(workload, key, seed, spans, traced)
        for key in kernel_order(workload, seed)
    ]
    return Pass(spans, kernels, cpu_s=_cpu_s() - cpu0)


def run_setup(workload: Workload, seed: int) -> float:
    """Set-up alone (load, golden run, pruning) for every kernel; seconds."""
    spans = Spans()
    for key in kernel_order(workload, seed):
        _set_up(workload, key, spans)
    return spans.total(*SETUP_SPANS)


# ----------------------------------------------------------------- checks


def check_pass(
    workload: Workload, seed: int, run: Pass, expected: dict, first: dict
) -> None:
    """Compare each profile with its pinned entry and with the run's first.

    ``first`` maps kernel -> the profile the run produced first; a later
    pass (the traced one included) must reproduce it exactly.
    """
    pinned = not workload.baseline or seed == EXPECTED_SEED
    for kernel in run.kernels:
        if kernel.profile is None:
            continue
        if pinned:
            key = config_key(workload, kernel.kernel)
            entry = expected.get(key)
            if entry is None:
                kernel.problems.append(f"no pinned expectation for {key}")
            else:
                got = {
                    "profile": kernel.profile,
                    "funnel": kernel.funnel,
                    "injections": kernel.injections,
                }
                for part, value in got.items():
                    if value != entry[part]:
                        kernel.problems.append(
                            f"{part} {value} differs from pinned {entry[part]}"
                        )
        reference = first.setdefault(kernel.kernel, kernel.profile)
        if kernel.profile != reference:
            kernel.problems.append(
                f"profile {kernel.profile} differs from this run's first {reference}"
            )


# ---------------------------------------------------------------- metrics


def _percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _tail_pct(n: int) -> float:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0):
        if n * (1 - pct / 100) >= 10:
            return pct
    return 50.0


def peak_rss_mb() -> float:
    """Max resident set of this process and its reaped children, in MB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def end_to_end_metrics(passes: list[Pass], setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "profile_s": statistics.median(p.profile_s for p in passes),
        "injections_per_s": statistics.median(
            p.injections / p.campaign_s if p.campaign_s else 0.0 for p in passes
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def _per_worker(snapshot: dict, suffix: str) -> list[float]:
    """``parallel.worker.<name><suffix>`` counters, one per pool worker."""
    return [
        value
        for name, value in snapshot["counters"].items()
        if name.startswith("parallel.worker.") and name.endswith(suffix)
    ]


def _busy_s(snapshot: dict) -> float:
    """Seconds pool workers spent classifying; 0 for a serial campaign."""
    return sum(_per_worker(snapshot, ".busy_s"))


def _telemetry_metrics(kernels: list[KernelRun]) -> dict[str, float]:
    """Per-layer numbers only the program's telemetry stream can give."""
    traced = [k.telemetry for k in kernels if k.telemetry is not None]
    events = [
        event
        for telemetry in traced
        for event in telemetry.sink.events
        if isinstance(event, InjectionEvent)
    ]
    snapshots = [telemetry.metrics.snapshot() for telemetry in traced]

    def counter(name: str) -> float:
        return sum(s["counters"].get(name, 0) for s in snapshots)

    hits = counter("checkpoint.thread_hits") + counter("checkpoint.cta_hits")
    lookups = hits + counter("checkpoint.thread_misses") + counter("checkpoint.cta_misses")
    durations = sorted(1000.0 * e.duration_s for e in events) or [0.0]
    tail_pct = _tail_pct(len(events))
    phases = dict.fromkeys(PHASES, 0.0)
    for event in events:
        for name, seconds in (event.phases or {}).items():
            if name in phases:
                phases[name] += seconds
    # The pool reports queueing per chunk, not per injection.
    phases["queue_wait"] += sum(
        (s["histograms"].get("parallel.queue_wait_s") or {}).get("total", 0.0)
        for s in snapshots
    )
    busy = sum(_busy_s(s) for s in snapshots)
    skew = 1.0
    for snapshot in snapshots:
        per_worker = _per_worker(snapshot, ".injections")
        if per_worker:
            skew = max(skew, max(per_worker) / max(min(per_worker), 1))
    executed = sum(e.suffix_instructions for e in events)
    effective = sum(e.effective_instructions for e in events)
    waited = phases["queue_wait"]
    return {
        "gpu.checkpoint_hit_rate": hits / lookups if lookups else 0.0,
        "faults.inj_ms_p50": _percentile(durations, 50.0),
        "faults.inj_ms_tail": _percentile(durations, tail_pct),
        "faults.inj_ms_tail_pct": tail_pct,
        **{f"faults.phase.{name}_s": seconds for name, seconds in phases.items()},
        "faults.exec_instructions": executed,
        "faults.effective_instructions": effective,
        "faults.exec_frac": executed / effective if effective else 0.0,
        "parallel.queue_wait_frac": waited / (waited + busy) if busy else 0.0,
        "parallel.worker_skew": skew,
    }


def layer_metrics(passes: list[Pass], traced: Pass) -> dict[str, float]:
    """Per-layer metrics: outside timings from the untraced passes
    (medians), counts from the first pass, the rest from the traced one."""

    def median(fn) -> float:
        return statistics.median(fn(p) for p in passes)

    kernels = passes[0].kernels
    injections = sum(k.injections for k in kernels)
    untraced_s = median(lambda p: p.profile_s)
    funnels = [k.funnel for k in kernels if k.funnel is not None]
    return {
        "kernels.load_s": median(lambda p: p.spans.total("load_instance")),
        "gpu.golden_s": median(lambda p: p.spans.total("FaultInjector")),
        "gpu.golden_instructions": sum(k.golden_instructions for k in kernels),
        # Injection-weighted, so it reads as the interval campaigns ran at.
        "gpu.checkpoint_interval": (
            sum(k.checkpoint_interval * k.injections for k in kernels) / injections
            if injections
            else 0.0
        ),
        **{
            f"pruning.{stage}_s": median(lambda p, stage=stage: p.spans.total(stage))
            for stage in STAGES
        },
        "pruning.sites_exhaustive": sum(f["exhaustive"] for f in funnels),
        **{
            f"pruning.{stage}_sites": sum(f[stage] for f in funnels)
            for stage in STAGES
        },
        "faults.campaign_s": median(lambda p: p.campaign_s),
        "faults.injections": injections,
        "faults.fallback_frac": (
            sum(k.fallbacks for k in kernels) / injections if injections else 0.0
        ),
        "parallel.first_outcome_s": median(
            lambda p: sum(k.first_outcome_s for k in p.kernels)
        ),
        "process.cpu_s": median(lambda p: p.cpu_s),
        "telemetry.trace_overhead_frac": (
            traced.profile_s / untraced_s - 1.0 if untraced_s else 0.0
        ),
        **_telemetry_metrics(traced.kernels),
    }


# -------------------------------------------------------- where the time went

TIME_COLUMNS = (
    ("golden", "golden"),
    *zip(STAGES, ("thread", "insn", "loop", "bit")),
    *zip(
        PHASES,
        ("q_wait", "restore", "replay", "suffix", "rs_scan", "splice", "heap",
         "classify"),
    ),
    ("unattributed", "other"),
    ("total", "total"),
)


def time_rows(traced: Pass) -> list[dict]:
    """Seconds per kernel: set-up, each pruning stage, each injection phase.

    ``golden`` is ``load_instance`` plus ``FaultInjector``.  Phases are
    summed over injections (over workers, under a pool); ``queue_wait`` is
    the pool's per-chunk wait, which overlaps execution.  ``unattributed``
    is the time injections ran that no other phase claims: campaign
    wall-clock when serial, worker busy seconds under a pool.
    """
    rows = []
    spans = traced.spans
    for kernel in traced.kernels:
        key = kernel.kernel
        row = {
            "kernel": key,
            "golden": spans.total("load_instance", "FaultInjector", kernel=key),
            **{stage: spans.total(stage, kernel=key) for stage in STAGES},
        }
        phases = _telemetry_metrics([kernel])
        row.update((p, phases[f"faults.phase.{p}_s"]) for p in PHASES)
        busy = _busy_s(kernel.telemetry.metrics.snapshot())
        ran = busy or spans.total(*CAMPAIGN_SPANS, kernel=key)
        row["unattributed"] = ran - sum(row[p] for p in PHASES if p != "queue_wait")
        row["total"] = spans.total("kernel", kernel=key)
        rows.append(row)
    rows.append(
        {"kernel": "(workload)"}
        | {name: sum(r[name] for r in rows) for name, _label in TIME_COLUMNS}
    )
    return rows


def render_time_table(rows: list[dict]) -> str:
    lines = [
        f"{'kernel':14s}" + "".join(f" {label:>8s}" for _name, label in TIME_COLUMNS)
    ]
    for row in rows:
        lines.append(
            f"{row['kernel']:14s}"
            + "".join(f" {row[name]:8.3f}" for name, _label in TIME_COLUMNS)
        )
    return "\n".join(lines)


# -------------------------------------------------------------------- runs


@dataclass
class RunResult:
    workload: Workload
    seed: int
    passes: list[Pass]
    setups: list[float]
    traced: Pass | None
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None
    manifest: RunManifest

    @property
    def all_kernels(self) -> list[KernelRun]:
        passes = self.passes + ([self.traced] if self.traced else [])
        return [k for p in passes for k in p.kernels]

    @property
    def attempted(self) -> int:
        return len(self.all_kernels)

    @property
    def failed(self) -> int:
        return sum(1 for k in self.all_kernels if k.problems)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def metrics(self) -> dict[str, dict]:
        """The emitted metrics: end-to-end untraced, per-layer traced."""
        if self.per_layer is not None:
            return {
                name: {"value": value, "unit": PER_LAYER[name]}
                for name, value in self.per_layer.items()
            }
        return {
            name: {"value": value, "unit": END_TO_END[name][0]}
            for name, value in self.end_to_end.items()
        }

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics(),
        })


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float = RUN_SECONDS,
    trace: bool = False,
    expected: dict | None = None,
) -> RunResult:
    """One run: passes for ``seconds`` (at least one), then set-ups up to
    the workload's count, then — when ``trace`` — one traced pass."""
    expected = load_expected() if expected is None else expected
    manifest = RunManifest.create(
        kernel=",".join(workload.kernels),
        command=f"bench:e2e:{workload.name}",
        config={
            "workload": workload.name,
            "seconds": seconds,
            "trace": trace,
            "nproc": os.cpu_count(),
            "loadavg_before": os.getloadavg(),
        },
        seed=seed,
    )
    started = time.perf_counter()
    passes = [run_pass(workload, seed)]
    while (
        time.perf_counter() - started + statistics.median(p.profile_s for p in passes)
        <= seconds
    ):
        passes.append(run_pass(workload, seed))
    setups = [p.setup_s for p in passes]
    while len(setups) < workload.setups:
        setups.append(run_setup(workload, seed))
    traced = run_pass(workload, seed, traced=True) if trace else None
    first: dict = {}
    for checked in passes + ([traced] if traced else []):
        check_pass(workload, seed, checked, expected, first)
    manifest.config["loadavg_after"] = os.getloadavg()
    manifest.config["passes"] = len(passes)
    manifest.finalize(wall_clock_s=time.perf_counter() - started)
    return RunResult(
        workload=workload,
        seed=seed,
        passes=passes,
        setups=setups,
        traced=traced,
        end_to_end=end_to_end_metrics(passes, setups),
        per_layer=layer_metrics(passes, traced) if traced else None,
        manifest=manifest,
    )


def render_result(result: RunResult) -> str:
    """Human-readable report: every emitted metric by name, with its unit."""
    lines = [
        f"{result.workload.name} seed={result.seed}: {len(result.passes)} pass(es), "
        f"{len(result.setups)} set-up(s), {result.attempted - result.failed}"
        f"/{result.attempted} kernel pipelines correct",
    ]
    for kernel in result.all_kernels:
        for problem in kernel.problems:
            lines.append(f"  FAILED {kernel.kernel}: {problem}")
    rows = {**result.metrics(), "failed_frac": {
        "value": result.failed / result.attempted, "unit": "fraction"}}
    for name, metric in rows.items():
        lines.append(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    if result.traced is not None:
        lines.append("")
        lines.append(f"where the time went (traced pass, seconds; trace overhead "
                     f"{result.per_layer['telemetry.trace_overhead_frac']:+.1%}):")
        lines.append(render_time_table(time_rows(result.traced)))
    return "\n".join(lines)


def write_artifacts(result: RunResult) -> list[Path]:
    """The run's manifest and, for a traced run, ``trace-<workload>.json``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    name = result.workload.name
    manifest_path = RESULTS_DIR / f"manifest-{name}.json"
    result.manifest.write(manifest_path)
    written = [manifest_path]
    if result.traced is not None:
        trace_path = RESULTS_DIR / f"trace-{name}.json"
        payload = {
            "workload": name,
            "seed": result.seed,
            "manifest": result.manifest.to_dict(),
            "metrics": result.metrics(),
            "where_the_time_went": time_rows(result.traced),
            "spans": {
                "untraced": result.passes[0].spans.export(),
                "traced": result.traced.spans.export(),
            },
        }
        trace_path.write_text(json.dumps(payload, indent=1) + "\n")
        written.append(trace_path)
    return written


def write_expected() -> None:
    """Record every workload's profiles at :data:`EXPECTED_SEED`."""
    profiles = {}
    for workload in WORKLOADS:
        for kernel in run_pass(workload, EXPECTED_SEED).kernels:
            if kernel.problems:
                raise RuntimeError(f"{kernel.kernel}: {kernel.problems}")
            profiles[config_key(workload, kernel.kernel)] = {
                "profile": kernel.profile,
                "funnel": kernel.funnel,
                "injections": kernel.injections,
            }
    payload = {"seed": EXPECTED_SEED, "profiles": dict(sorted(profiles.items()))}
    EXPECTED_PATH.write_text(json.dumps(payload, indent=1) + "\n")
