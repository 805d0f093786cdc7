"""Engineering bench — compiled closure-chain backend vs the interpreter.

The compiled backend (``repro.gpu.compiler``, see ``docs/performance.md``)
specialises each static instruction into a pre-bound closure at launch
time, eliminating per-dynamic-instruction decode and operand dispatch.
Injections stay exact through an arming layer: only the single dynamic
instruction carrying the flip runs through the interpreter's slow path.

This bench drives the *real* injection stack (``FaultInjector`` +
``random_campaign``) on both backends and asserts:

* outcome sequences and profile weights are byte-identical;
* equivalence also holds with checkpointed fast-forwarding enabled and
  across a 2-worker process pool (golden state shipped to workers);
* end-to-end injection throughput on ``pathfinder.k1`` improves by at
  least 2x.

``pathfinder.k1`` is the headline kernel (deep traces, barrier-heavy CTA
slicing); ``k-means.k1`` bounds the short-trace regime where per-launch
overhead — amortised by the context pool — dominates.
"""

import time

from benchmarks.common import append_history, emit
from repro import FaultInjector, load_instance, random_campaign
from repro.parallel import ParallelCampaignRunner

HEADLINE_KEY = "pathfinder.k1"
SHORT_KEY = "k-means.k1"
N_SITES = 300
WARMUP_SITES = 20
SEED = 2018
MIN_SPEEDUP = 2.0


def _campaign_rate(injector, n_sites, executor=None):
    """(injections/s, CampaignResult) after a cache-warming campaign."""
    random_campaign(injector, WARMUP_SITES, rng=SEED + 1, executor=executor)
    t0 = time.perf_counter()
    result = random_campaign(injector, n_sites, rng=SEED, executor=executor)
    return n_sites / (time.perf_counter() - t0), result


def _assert_identical(key, a, b):
    assert a.outcomes == b.outcomes, f"{key}: backend outcomes diverge"
    assert a.profile.weights == b.profile.weights, f"{key}: weights diverge"


def run_comparison() -> str:
    lines = []
    headline_speedup = 0.0
    for key in (HEADLINE_KEY, SHORT_KEY):
        interp = FaultInjector(load_instance(key), backend="interpreter")
        compiled = FaultInjector(load_instance(key), backend="compiled")
        interp_rate, interp_result = _campaign_rate(interp, N_SITES)
        compiled_rate, compiled_result = _campaign_rate(compiled, N_SITES)
        _assert_identical(key, interp_result, compiled_result)
        speedup = compiled_rate / interp_rate
        lines.append(
            f"{key}: interpreter {interp_rate:7.1f} inj/s   "
            f"compiled {compiled_rate:7.1f} inj/s   speed-up {speedup:5.2f}x   "
            f"(auto checkpoint interval {interp.checkpoint_interval})"
        )
        lines.append(f"  profile (identical both backends): {interp_result.profile}")
        append_history(
            "compiled", "speedup", speedup,
            kernel=key, unit="x", direction="higher",
        )
        append_history(
            "compiled", "compiled_inj_per_s", compiled_rate,
            kernel=key, unit="inj/s", direction="higher",
        )
        if key == HEADLINE_KEY:
            headline_speedup = speedup

    # Composition checks: the backends must also agree when the golden
    # prefix is fast-forwarded from checkpoints and when the campaign fans
    # out over a worker pool (workers rebuild from shipped golden state).
    reference = random_campaign(
        FaultInjector(
            load_instance(HEADLINE_KEY), backend="interpreter", checkpoint_interval=0
        ),
        N_SITES,
        rng=SEED,
    )
    checkpointed = random_campaign(
        FaultInjector(
            load_instance(HEADLINE_KEY), backend="compiled", checkpoint_interval=16
        ),
        N_SITES,
        rng=SEED,
    )
    _assert_identical(HEADLINE_KEY, reference, checkpointed)
    lines.append("compiled + checkpoint interval 16 == full-prefix interpreter: OK")
    pooled = random_campaign(
        FaultInjector(load_instance(HEADLINE_KEY), backend="compiled"),
        N_SITES,
        rng=SEED,
        executor=ParallelCampaignRunner(2, chunk_size=16),
    )
    _assert_identical(HEADLINE_KEY, reference, pooled)
    lines.append("compiled across 2 pool workers == serial interpreter: OK")

    lines.append(f"headline ({HEADLINE_KEY}) speed-up: {headline_speedup:.2f}x")
    assert headline_speedup >= MIN_SPEEDUP, (
        f"compiled-backend speed-up {headline_speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.0f}x bar"
    )
    return "\n".join(lines)


def test_compiled_backend_speedup(benchmark):
    text = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    emit("compiled_backend", text)
    assert "speed-up" in text
