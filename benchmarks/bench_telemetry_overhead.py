"""Engineering bench — instrumentation overhead on a small campaign.

The telemetry hooks live on the injection hot path, so their cost must be
provably negligible.  Three configurations classify the same random
sites:

* **raw**  — the uninstrumented ladder entry (``_run_spec`` directly:
  site validation and the slice ladder, no telemetry wrapper);
* **null** — the default ``NULL_TELEMETRY`` path every uninstrumented
  campaign takes (one ``enabled`` check per injection);
* **live** — full telemetry (events to a memory sink, counters and
  histograms).

The bench asserts the null path stays within 5 % of raw (the acceptance
bar) and reports the live overhead, which should also be small: event
construction is microseconds against millisecond injections.

A second part measures what the live plane itself adds.  On
pathfinder.k1, on the interpreter and vectorized backends, the same
seeded sites run on one injector with enabled telemetry (a discarding
sink, as the CLI's live flags set up), with and without a begun
:class:`~repro.observe.live.LiveAggregator` listening, and on a
``NULL_TELEMETRY`` injector.  The three arms alternate injection by
injection (rotating which runs first), so host noise hits all three
alike; whole-campaign rounds swung by up to 30 % on a shared 2-core VM.
The overhead is the median of per-injection time ratios.  The attached
arm must stay within 5 % of the unattached one; its overhead against
``NULL_TELEMETRY`` is reported, not asserted.
"""

import statistics
import time

import numpy as np

from benchmarks.common import BACKEND, append_history, emit
from repro import FaultInjector, load_instance, random_campaign
from repro.faults.model import InjectionSpec
from repro.observe.live import LiveAggregator
from repro.telemetry import MemorySink, NullSink, Telemetry

N_SITES = 40
ROUNDS = 3
MAX_NULL_OVERHEAD = 0.05

LIVE_KEY = "pathfinder.k1"
LIVE_SITES = 60
LIVE_ROUNDS = 5
LIVE_SEED = 7
LIVE_BACKENDS = ("interpreter", "vectorized")
MAX_LIVE_OVERHEAD = 0.05


def _time_rounds(fn, sites) -> float:
    """Best-of-``ROUNDS`` wall clock for classifying every site."""
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for site in sites:
            fn(site)
        best = min(best, time.perf_counter() - t0)
    return best


def run_overhead(key: str = "gaussian.k1") -> str:
    injector = FaultInjector(load_instance(key), backend=BACKEND)
    live = FaultInjector(
        load_instance(key), backend=BACKEND, telemetry=Telemetry(sink=MemorySink())
    )
    sites = injector.space.sample(N_SITES, np.random.default_rng(0))

    def raw_inject(site):
        return injector._run_spec(
            site.thread, InjectionSpec(site.dyn_index, site.bit), str(site)
        )

    raw_inject(sites[0])  # warm caches before timing
    injector.inject(sites[0])
    live.inject(sites[0])

    t_raw = _time_rounds(raw_inject, sites)
    t_null = _time_rounds(injector.inject, sites)
    t_live = _time_rounds(live.inject, sites)

    null_overhead = t_null / t_raw - 1.0
    live_overhead = t_live / t_raw - 1.0
    lines = [
        f"{key}: {N_SITES} sites, best of {ROUNDS} rounds",
        f"  raw (pre-instrumentation): {1000 * t_raw / N_SITES:8.3f} ms/injection",
        f"  null telemetry (default) : {1000 * t_null / N_SITES:8.3f} ms/injection "
        f"({100 * null_overhead:+.2f}%)",
        f"  live telemetry (memory)  : {1000 * t_live / N_SITES:8.3f} ms/injection "
        f"({100 * live_overhead:+.2f}%)",
        f"  events recorded (live)   : {len(live.telemetry.sink.events)}",
    ]
    assert null_overhead < MAX_NULL_OVERHEAD, (
        f"null-telemetry overhead {100 * null_overhead:.2f}% exceeds "
        f"{100 * MAX_NULL_OVERHEAD:.0f}%"
    )
    append_history(
        "telemetry_overhead", "null_ms_per_injection", 1000 * t_null / N_SITES,
        kernel=key, unit="ms", direction="lower",
    )
    append_history(
        "telemetry_overhead", "live_ms_per_injection", 1000 * t_live / N_SITES,
        kernel=key, unit="ms", direction="lower",
    )
    return "\n".join(lines)


def _time_live_arms(backend: str) -> dict[str, list[float]]:
    """Per-injection wall clock of each arm, interleaved site by site."""
    null = FaultInjector(load_instance(LIVE_KEY), backend=backend)
    enabled = FaultInjector(
        load_instance(LIVE_KEY), backend=backend, telemetry=Telemetry(sink=NullSink())
    )
    sites = null.space.sample(LIVE_SITES, np.random.default_rng(LIVE_SEED))
    for injector in (null, enabled):  # warm golden caches and checkpoints
        random_campaign(injector, LIVE_SITES, rng=LIVE_SEED)
    live = LiveAggregator()
    live.begin(total=LIVE_SITES * LIVE_ROUNDS, telemetry=enabled.telemetry)
    arms = ["null", "telemetry", "live"]
    times: dict[str, list[float]] = {arm: [] for arm in arms}
    for step, site in enumerate(sites * LIVE_ROUNDS):
        shift = step % len(arms)  # rotate which arm runs first
        for arm in arms[shift:] + arms[:shift]:
            # Attached means the listener begin() set; detached, none.
            enabled.telemetry.listener = live.fold if arm == "live" else None
            injector = null if arm == "null" else enabled
            t0 = time.perf_counter()
            injector.inject(site)
            times[arm].append(time.perf_counter() - t0)
    live.finish()
    assert live.done == LIVE_SITES * LIVE_ROUNDS
    return times


def _median_overhead(times: list[float], base: list[float]) -> float:
    return statistics.median(t / b for t, b in zip(times, base)) - 1.0


def run_live_overhead() -> str:
    lines = [
        f"{LIVE_KEY}: {LIVE_SITES} random sites x {LIVE_ROUNDS} rounds, arms "
        "interleaved (median ms/injection; overheads are medians of "
        "per-injection ratios)"
    ]
    failures = []
    for backend in LIVE_BACKENDS:
        times = _time_live_arms(backend)
        plane = _median_overhead(times["live"], times["telemetry"])
        versus_null = _median_overhead(times["live"], times["null"])
        ms = {arm: 1000 * statistics.median(samples) for arm, samples in times.items()}
        lines.append(
            f"  {backend:12s} null: {ms['null']:7.3f}  telemetry: "
            f"{ms['telemetry']:7.3f}  live: {ms['live']:7.3f}   "
            f"plane {100 * plane:+.2f}%  live vs null {100 * versus_null:+.2f}%"
        )
        if plane >= MAX_LIVE_OVERHEAD:
            failures.append(f"{backend} {100 * plane:.2f}%")
        for arm in ("telemetry", "live"):
            append_history(
                "telemetry_overhead", f"{arm}_plane_ms_per_injection", ms[arm],
                kernel=f"{LIVE_KEY}[{backend}]", unit="ms", direction="lower",
            )
    assert not failures, (
        f"live-plane overhead exceeds {100 * MAX_LIVE_OVERHEAD:.0f}%: "
        + ", ".join(failures)
    )
    return "\n".join(lines)


def test_telemetry_overhead(benchmark):
    text = benchmark.pedantic(
        lambda: run_overhead() + "\n" + run_live_overhead(), rounds=1, iterations=1
    )
    emit("telemetry_overhead", text)
    assert "null telemetry" in text
