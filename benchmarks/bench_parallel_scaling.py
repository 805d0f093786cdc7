"""Engineering bench — campaign throughput: serial baseline vs workers.

Measures a pruned-space campaign on ``2dconv.k1`` four ways:

* **serial baseline** — the CTA-sliced engine as seeded
  (``thread_slicing=False``), one process: the reference all speed-ups
  are quoted against;
* **serial optimised** — the current in-process fast path
  (thread-sliced re-execution + mask-based escape checks + scratch-heap
  reuse);
* **2 / 4 workers** — the optimised path fanned over a
  :class:`~repro.parallel.ParallelCampaignRunner` process pool.

The pruned site list is iterated ``REPEATS`` times inside one campaign so
that per-worker initialisation (each worker's golden run) amortises the
way it does in real campaigns, which are orders of magnitude larger than
this bench.  Every row must produce the identical resilience profile —
the determinism guarantee of ``docs/performance.md`` — and the 4-worker
row must clear the 2.5x acceptance bar over the serial baseline.

Host parallelism is reported alongside: on a single-core box the pool
rows cannot beat the optimised serial path, so the speed-up there comes
from the injector work itself; on multi-core hosts the pool multiplies it.
"""

import itertools
import os
import time

from repro import FaultInjector, load_instance, run_campaign
from repro.parallel import ParallelCampaignRunner

from benchmarks.common import BACKEND, append_history, emit, pruned_space_for

KEY = "2dconv.k1"
REPEATS = 5
ACCEPTANCE_SPEEDUP = 2.5


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _campaign(injector, space, executor=None):
    sites = list(
        itertools.chain.from_iterable(
            (ws.site for ws in space.sites) for _ in range(REPEATS)
        )
    )
    weights = list(
        itertools.chain.from_iterable(
            (ws.weight for ws in space.sites) for _ in range(REPEATS)
        )
    )
    t0 = time.perf_counter()
    result = run_campaign(
        injector,
        sites,
        weights=weights,
        executor=executor,
        keep_sites=False,
        label="parallel-scaling",
    )
    return result.profile, time.perf_counter() - t0, len(sites)


def run_scaling(key: str = KEY) -> str:
    space = pruned_space_for(key)
    rows = []

    baseline = FaultInjector(
        load_instance(key), backend=BACKEND, thread_slicing=False
    )
    profile_ref, baseline_dt, n = _campaign(baseline, space)
    rows.append(("serial baseline (CTA-sliced)", baseline_dt, None))

    optimised = FaultInjector(load_instance(key), backend=BACKEND)
    profile, dt, _ = _campaign(optimised, space)
    assert profile.weights == profile_ref.weights
    rows.append(("serial optimised (thread-sliced)", dt, None))

    for workers in (2, 4):
        injector = FaultInjector(load_instance(key), backend=BACKEND)
        runner = ParallelCampaignRunner(workers)
        profile, dt, _ = _campaign(injector, space, executor=runner)
        assert profile.weights == profile_ref.weights
        assert injector.fallback_count == baseline.fallback_count
        rows.append((f"{workers} workers", dt, workers))

    cores = _cores()
    lines = [
        f"{key}: pruned-space campaign, {n} weighted injections "
        f"({space.n_injections} sites x {REPEATS}), host cores: {cores}",
        f"  {'configuration':34s} {'wall':>8s} {'inj/s':>9s} {'speedup':>8s}",
    ]
    for name, dt, workers in rows:
        speedup = baseline_dt / dt
        note = ""
        if workers is not None and cores < workers:
            note = f"  (pool wider than {cores}-core host)"
        lines.append(
            f"  {name:34s} {dt:7.2f}s {n / dt:9.1f} {speedup:7.2f}x{note}"
        )
    lines.append("  profiles: byte-identical across all configurations")

    speedup_at_4 = baseline_dt / rows[-1][1]
    append_history(
        "parallel", "speedup_4_workers", speedup_at_4,
        kernel=key, unit="x", direction="higher",
    )
    append_history(
        "parallel", "inj_per_s_4_workers", n / rows[-1][1],
        kernel=key, unit="inj/s", direction="higher",
    )
    assert speedup_at_4 >= ACCEPTANCE_SPEEDUP, (
        f"4-worker speedup {speedup_at_4:.2f}x below the "
        f"{ACCEPTANCE_SPEEDUP}x acceptance bar"
    )
    return "\n".join(lines)


def test_parallel_scaling(benchmark):
    text = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    emit("parallel_scaling", text)
    assert "speedup" in text
