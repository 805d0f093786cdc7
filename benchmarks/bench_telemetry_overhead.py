"""Engineering bench — instrumentation overhead on a small campaign.

The telemetry hooks live on the injection hot path, so their cost must be
provably negligible.  Three configurations classify the same random
sites:

* **raw**  — the uninstrumented ladder entry (``_run_spec`` directly:
  site validation and the slice ladder, no telemetry wrapper);
* **null** — the default ``NULL_TELEMETRY`` path every uninstrumented
  campaign takes (one ``enabled`` check per injection);
* **live** — full telemetry (events to a memory sink, counters,
  histograms, spans).

The bench asserts the null path stays within 5 % of raw (the acceptance
bar) and reports the live overhead, which should also be small: event
construction is microseconds against millisecond injections.
"""

import time

import numpy as np

from benchmarks.common import BACKEND, append_history, emit
from repro import FaultInjector, load_instance
from repro.faults.model import InjectionSpec
from repro.telemetry import MemorySink, Telemetry

N_SITES = 40
ROUNDS = 3
MAX_NULL_OVERHEAD = 0.05


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


def test_telemetry_overhead(benchmark):
    text = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    emit("telemetry_overhead", text)
    assert "null telemetry" in text
