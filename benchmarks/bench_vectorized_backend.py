"""Engineering bench — vectorized lane-parallel backend vs compiled.

The vectorized backend (``repro.gpu.vector``, see ``docs/performance.md``)
replaces per-thread register dicts with a numpy register file per CTA and
steps whole CTAs per static instruction under active-lane masks, so its
cost scales with *static* steps instead of dynamic per-thread
instructions.  Injections stay exact by demoting only the flip-carrying
thread to the compiled scalar path.

This bench drives the real injection stack and asserts:

* outcome sequences and profile weights are byte-identical to the
  interpreter on a registry kernel (``pathfinder.k1``);
* on a deep-loop kernel at 1024 threads (256-lane CTAs), end-to-end
  injection throughput beats the compiled backend by at least 5x;
* the paper's actual Table I grid for GEMM — 16384 threads, beyond what
  the scalar backends can golden-run in reasonable time — completes
  end-to-end: golden run, site enumeration, and a sampled campaign, with
  the measured site count recorded next to the paper's 6.23e8.
"""

import time

from benchmarks.common import FULL, append_history, emit
from repro import FaultInjector, get_kernel, load_instance, random_campaign
from repro.kernels import deeploop

EQUIV_KEY = "pathfinder.k1"
PAPER_KEY = "gemm.k1"
N_SITES = 60 if FULL else 30
DEEP_SITES = 24 if FULL else 12  # compiled pays ~1s per 1024-lane injection
WARMUP_SITES = 4
PAPER_SITES = 40 if FULL else 16
SEED = 2018
MIN_SPEEDUP = 5.0


def _campaign_rate(injector, n_sites, rng_seed=SEED):
    """(injections/s, CampaignResult) after a cache-warming campaign."""
    random_campaign(injector, WARMUP_SITES, rng=rng_seed + 1)
    t0 = time.perf_counter()
    result = random_campaign(injector, n_sites, rng=rng_seed)
    return n_sites / (time.perf_counter() - t0), result


def run_comparison() -> str:
    lines = []

    # Registry-kernel equivalence: same outcomes as the interpreter.
    interp = random_campaign(
        FaultInjector(load_instance(EQUIV_KEY), backend="interpreter"),
        N_SITES,
        rng=SEED,
    )
    vec = random_campaign(
        FaultInjector(load_instance(EQUIV_KEY), backend="vectorized"),
        N_SITES,
        rng=SEED,
    )
    assert interp.outcomes == vec.outcomes, f"{EQUIV_KEY}: outcomes diverge"
    assert interp.profile.weights == vec.profile.weights
    lines.append(f"{EQUIV_KEY}: vectorized == interpreter on {N_SITES} sites: OK")

    # Throughput at paper-representative width: deep loop, 1024-lane CTAs.
    compiled = FaultInjector(deeploop.build(), backend="compiled")
    vectorized = FaultInjector(deeploop.build(), backend="vectorized")
    compiled_rate, compiled_result = _campaign_rate(compiled, DEEP_SITES)
    vectorized_rate, vectorized_result = _campaign_rate(vectorized, DEEP_SITES)
    assert compiled_result.outcomes == vectorized_result.outcomes
    speedup = vectorized_rate / compiled_rate
    lines.append(
        f"deeploop ({deeploop.N_THREADS} threads, {deeploop.ITERS}-deep loop): "
        f"compiled {compiled_rate:7.2f} inj/s   "
        f"vectorized {vectorized_rate:7.2f} inj/s   speed-up {speedup:5.2f}x"
    )
    append_history(
        "vectorized", "speedup_vs_compiled", speedup,
        kernel="deeploop", unit="x", direction="higher",
    )
    append_history(
        "vectorized", "vectorized_inj_per_s", vectorized_rate,
        kernel="deeploop", unit="inj/s", direction="higher",
    )

    # Paper-grid GEMM: the 16384-thread Table I grid, end to end.
    spec = get_kernel(PAPER_KEY)
    t0 = time.perf_counter()
    paper = FaultInjector(load_instance(PAPER_KEY, scale="paper"), backend="vectorized")
    golden_s = time.perf_counter() - t0
    threads = paper.instance.geometry.n_threads
    sites = paper.space.total_sites
    assert threads == spec.paper_threads == 16384
    paper_rate, paper_result = _campaign_rate(paper, PAPER_SITES)
    lines.append(
        f"{PAPER_KEY} paper grid: {threads} threads, {sites:.3e} fault sites "
        f"(paper: {spec.paper_fault_sites:.2e}), golden {golden_s:.1f}s, "
        f"campaign {paper_rate:.2f} inj/s, profile {paper_result.profile}"
    )
    append_history(
        "vectorized", "paper_gemm_fault_sites", float(sites),
        kernel=PAPER_KEY, unit="sites", direction="higher",
    )
    append_history(
        "vectorized", "paper_gemm_golden_s", golden_s,
        kernel=PAPER_KEY, unit="s", direction="lower",
    )
    append_history(
        "vectorized", "paper_gemm_inj_per_s", paper_rate,
        kernel=PAPER_KEY, unit="inj/s", direction="higher",
    )

    lines.append(f"deeploop speed-up over compiled: {speedup:.2f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized-backend speed-up {speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.0f}x bar"
    )
    return "\n".join(lines)


def test_vectorized_backend_speedup(benchmark):
    text = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    emit("vectorized_backend", text)
    assert "speed-up" in text
