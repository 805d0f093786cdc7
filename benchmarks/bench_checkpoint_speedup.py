"""Engineering bench — checkpointed fast-forward vs full-prefix injection.

The checkpoint layer (``docs/performance.md``) snapshots golden
architectural state along each thread/CTA prefix and resumes injections
from the nearest snapshot at or below the fault, so only the suffix
re-executes.  The win therefore grows with fault depth: this bench splits
each kernel's dynamic range into shallow/median/deep tertiles, measures
ms/injection per tertile on both paths, asserts the classifications are
identical, and reports the per-tertile speed-up.

``pathfinder.k1`` exercises the CTA-checkpoint path (barrier-heavy,
shared memory, 32-thread CTAs); ``k-means.k1`` the thread-checkpoint path
(sliceable, short traces — fixed launch overhead bounds its gain).
"""

import time

import numpy as np

from benchmarks.common import BACKEND, append_history, emit
from repro import FaultInjector, load_instance
from repro.faults.site import FaultSite

KEYS = ("pathfinder.k1", "k-means.k1")
INTERVAL = 16
N_THREADS = 12  # threads sampled per kernel, spread across the grid
SITES_PER_TERTILE = 3  # sites per tertile per sampled thread
TERTILES = ("shallow", "median", "deep")


def _tertile_sites(injector, rng) -> dict[str, list[FaultSite]]:
    """Valid sites bucketed by depth tertile of each thread's trace."""
    n_threads = len(injector.traces)
    threads = range(0, n_threads, max(1, n_threads // N_THREADS))
    buckets: dict[str, list[FaultSite]] = {name: [] for name in TERTILES}
    for thread in threads:
        trace = injector.traces[thread]
        length = len(trace)
        bounds = (0, length // 3, 2 * length // 3, length)
        for name, lo, hi in zip(TERTILES, bounds, bounds[1:]):
            candidates = [d for d in range(lo, hi) if trace[d][1] > 0]
            if not candidates:
                continue
            picks = rng.choice(
                len(candidates),
                size=min(SITES_PER_TERTILE, len(candidates)),
                replace=False,
            )
            for i in sorted(picks):
                dyn = candidates[i]
                bit = int(rng.integers(0, trace[dyn][1]))
                buckets[name].append(FaultSite(thread, dyn, bit))
    # (thread, dyn) execution order — what the campaign ordering stage does.
    for sites in buckets.values():
        sites.sort(key=lambda s: (s.thread, s.dyn_index))
    return buckets


def _time_tertiles(injector, buckets) -> tuple[dict[str, float], dict[str, list]]:
    """ms/injection and outcomes per tertile, shallow -> deep."""
    ms: dict[str, float] = {}
    outcomes: dict[str, list] = {}
    for name in TERTILES:
        sites = buckets[name]
        t0 = time.perf_counter()
        outcomes[name] = [injector.inject(s) for s in sites]
        ms[name] = 1000 * (time.perf_counter() - t0) / max(len(sites), 1)
    return ms, outcomes


def run_comparison() -> str:
    lines = []
    best_deep_speedup = 0.0
    for key in KEYS:
        rng = np.random.default_rng(2018)
        base = FaultInjector(
            load_instance(key), backend=BACKEND, checkpoint_interval=0
        )
        ck = FaultInjector(
            load_instance(key), backend=BACKEND, checkpoint_interval=INTERVAL
        )
        buckets = _tertile_sites(base, rng)
        base_ms, base_out = _time_tertiles(base, buckets)
        ck_ms, ck_out = _time_tertiles(ck, buckets)
        assert base_out == ck_out, f"{key}: checkpointed outcomes diverge"
        counters = ck.checkpoints.counters()
        lines.append(
            f"{key}: interval {INTERVAL}, "
            f"{sum(len(b) for b in buckets.values())} sites, "
            f"store {counters['entries']} snapshots / {counters['nbytes']:,} B"
        )
        for name in TERTILES:
            speedup = base_ms[name] / ck_ms[name] if ck_ms[name] else float("inf")
            lines.append(
                f"  {name:7s}: full prefix {base_ms[name]:7.2f} ms/inj   "
                f"checkpointed {ck_ms[name]:7.2f} ms/inj   "
                f"speed-up {speedup:5.2f}x"
            )
        best_deep_speedup = max(
            best_deep_speedup, base_ms["deep"] / ck_ms["deep"]
        )
        append_history(
            "checkpoint", "deep_speedup", base_ms["deep"] / ck_ms["deep"],
            kernel=key, unit="x", direction="higher",
        )
        append_history(
            "checkpoint", "deep_ms_per_injection", ck_ms["deep"],
            kernel=key, unit="ms", direction="lower",
        )
    lines.append(f"best deep-tertile speed-up: {best_deep_speedup:.2f}x")
    assert best_deep_speedup >= 3.0, (
        f"deep-tertile speed-up {best_deep_speedup:.2f}x below the 3x bar"
    )
    return "\n".join(lines)


def test_checkpoint_speedup(benchmark):
    text = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    emit("checkpoint_speedup", text)
    assert "speed-up" in text
