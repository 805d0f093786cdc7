"""Checkpointed fast-forward injection: equivalence and store behaviour.

The contract under test (see ``docs/performance.md``): for the same seed,
a campaign with checkpointing enabled — any interval, any memory budget,
serial or parallel — produces byte-identical
outcomes, profile weights, ``fallback_count`` and ``injections.*`` /
``outcome.*`` telemetry counters to the full-prefix reference path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import FaultInjector, FaultSite, load_instance, random_campaign
from repro.gpu import GPUSimulator
from repro.gpu.checkpoint import CheckpointPlan, CheckpointStore, ThreadCheckpoint
from repro.parallel import ParallelCampaignRunner
from repro.telemetry import InjectionEvent, MemorySink, Telemetry, event_to_dict

from ..helpers import build_loop_sum_instance

#: CI exercises both fork and spawn via this env var.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

N_SITES = 48
SEED = 11


def _campaign(key, interval, workers=1, budget_mb=None):
    """One instrumented campaign; returns (injector, result, counters).

    ``budget_mb`` installs a checkpoint store of that budget on the
    injector in place of its default one.
    """
    telemetry = Telemetry(sink=MemorySink())
    injector = FaultInjector(
        load_instance(key),
        telemetry=telemetry,
        checkpoint_interval=interval,
    )
    if budget_mb is not None:
        injector.checkpoints = CheckpointStore(int(budget_mb * (1 << 20)))
    executor = (
        ParallelCampaignRunner(workers, chunk_size=8, start_method=START_METHOD)
        if workers > 1
        else None
    )
    result = random_campaign(injector, N_SITES, rng=SEED, executor=executor)
    counters = {
        name: value
        for name, value in telemetry.metrics.snapshot()["counters"].items()
        if name.startswith(("injections.", "outcome."))
    }
    return injector, result, counters


@pytest.fixture(scope="module")
def conv2d_reference():
    """Full-prefix reference on the thread-sliced path (2dconv.k1)."""
    return _campaign("2dconv.k1", interval=0)


@pytest.fixture(scope="module")
def pathfinder_reference():
    """Full-prefix reference on the CTA-sliced path (pathfinder.k1)."""
    return _campaign("pathfinder.k1", interval=0)


def _assert_equivalent(reference, candidate):
    ref_injector, ref_result, ref_counters = reference
    injector, result, counters = candidate
    assert result.outcomes == ref_result.outcomes
    assert result.profile.weights == ref_result.profile.weights
    assert result.profile.n_injections == ref_result.profile.n_injections
    assert injector.fallback_count == ref_injector.fallback_count
    assert counters == ref_counters


class TestEquivalence:
    @pytest.mark.parametrize("interval", [1, 64, 1024])
    def test_thread_path_intervals(self, conv2d_reference, interval):
        candidate = _campaign("2dconv.k1", interval=interval)
        _assert_equivalent(conv2d_reference, candidate)
        if interval == 1:  # coarser grids may exceed every trace length
            assert candidate[0].checkpoints.stored > 0

    def test_cta_path(self, pathfinder_reference):
        candidate = _campaign("pathfinder.k1", interval=16)
        _assert_equivalent(pathfinder_reference, candidate)
        assert candidate[0].checkpoints.stored > 0

    def test_two_workers(self, conv2d_reference):
        # Workers rebuild checkpointing injectors from the payload; the
        # parent's in-order drain must match the serial full-prefix
        # reference byte for byte.
        candidate = _campaign("2dconv.k1", interval=64, workers=2)
        _assert_equivalent(conv2d_reference, candidate)

    def test_tiny_budget_evicts_but_stays_equivalent(self, pathfinder_reference):
        # A budget that holds only a couple of CTA snapshots: the LRU must
        # evict (and stay under budget) without perturbing any outcome.
        budget_mb = 0.125
        candidate = _campaign("pathfinder.k1", interval=16, budget_mb=budget_mb)
        _assert_equivalent(pathfinder_reference, candidate)
        store = candidate[0].checkpoints
        assert store.evicted > 0
        assert store.nbytes <= budget_mb * (1 << 20)


class TestExtendedModels:
    def test_store_address_and_register_file_equivalent(self):
        base = FaultInjector(load_instance("k-means.k1"))
        ck = FaultInjector(load_instance("k-means.k1"), checkpoint_interval=8)
        thread = max(range(len(base.traces)), key=lambda t: len(base.traces[t]))
        for site in base.store_address_sites(thread)[:24]:
            spec = site.spec()
            assert base.inject_spec(site.thread, spec) == ck.inject_spec(
                site.thread, spec
            )
        for site in base.sample_register_file_sites(24, np.random.default_rng(5)):
            spec = site.spec()
            assert base.inject_spec(site.thread, spec) == ck.inject_spec(
                site.thread, spec
            )

    def test_store_address_cta_path_equivalent(self):
        base = FaultInjector(load_instance("pathfinder.k1"))
        ck = FaultInjector(load_instance("pathfinder.k1"), checkpoint_interval=16)
        sites = base.store_address_sites(0)[:8] + base.store_address_sites(70)[:8]
        for site in sites:
            spec = site.spec()
            assert base.inject_spec(site.thread, spec) == ck.inject_spec(
                site.thread, spec
            )


class TestEffectiveAccounting:
    def test_checkpoint_only_events_report_skips(self):
        # CTA-path kernel: barrier-boundary snapshots are shared by every
        # thread of the CTA, so a random campaign actually hits the store.
        sink = MemorySink()
        injector = FaultInjector(
            load_instance("pathfinder.k1"),
            telemetry=Telemetry(sink=sink),
            checkpoint_interval=16,
        )
        random_campaign(injector, 24, rng=SEED)
        events = sink.of_type(InjectionEvent)
        assert events
        assert all("spliced_instructions" not in event_to_dict(e) for e in events)
        assert any(
            e.effective_instructions > e.suffix_instructions for e in events
        )

    def test_full_rerun_after_resumed_cta_slice_counts_every_rung(self):
        """A CTA slice that resumed from a warm checkpoint and then fell
        back to the full re-run still counts its skipped prefix: the
        event reads what the same ladder runs with checkpoints off."""
        sink = MemorySink()
        injector = FaultInjector(
            load_instance("pathfinder.k1"),
            telemetry=Telemetry(sink=sink),
            backend="compiled",
            checkpoint_interval=16,
        )
        random_campaign(injector, 40, rng=5)  # warm the CTA snapshots
        injector.inject(FaultSite(6, 217, 8))
        event = sink.of_type(InjectionEvent)[-1]
        assert not event.fast_path
        assert event.effective_instructions == 35_360


def test_rf_sampling_draw_order_unchanged():
    """Checkpointing must not shift any RNG draw: site samples
    from a warmed checkpointing injector match a pristine reference."""
    base = FaultInjector(load_instance("k-means.k1"))
    ck = FaultInjector(load_instance("k-means.k1"), checkpoint_interval=8)
    random_campaign(ck, 16, rng=3)  # warm the store and prefix caches
    assert base.sample_register_file_sites(
        20, np.random.default_rng(42)
    ) == ck.sample_register_file_sites(20, np.random.default_rng(42))
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    assert base.space.sample(20, rng_a) == ck.space.sample(20, rng_b)


def test_launch_capture_then_resume_executes_suffix_only():
    """Direct simulator-level round trip: a resumed thread run starts at
    the snapshot's dynamic index and reproduces the exact write log."""
    instance = build_loop_sum_instance(n_threads=2, iters=8)
    sim = GPUSimulator()
    captured: dict[int, ThreadCheckpoint] = {}

    def sink(dyn, pc, regs):
        captured[dyn] = ThreadCheckpoint.capture(dyn, pc, regs, write_count=0)

    full_mem = instance.initial_memory.snapshot()
    full_log: list = []
    full_mem.write_log = full_log
    full = sim.launch(
        instance.program,
        instance.geometry,
        instance.param_bytes,
        memory=full_mem,
        only_thread=0,
        checkpoint=CheckpointPlan(interval=10, sink=sink, limit=1 << 30),
    )
    full_mem.write_log = None
    assert captured, "no snapshots were captured"
    deepest = captured[max(captured)]

    resumed_mem = instance.initial_memory.snapshot()
    resumed_log: list = []
    resumed_mem.write_log = resumed_log
    resumed = sim.launch(
        instance.program,
        instance.geometry,
        instance.param_bytes,
        memory=resumed_mem,
        only_thread=0,
        checkpoint=CheckpointPlan(interval=0, resume=deepest),
    )
    resumed_mem.write_log = None
    # loop_sum's only store happens after the loop, so the suffix write
    # log equals the full one; the instruction count drops by the skip.
    assert resumed_log == full_log
    assert resumed.instructions == full.instructions - deepest.dyn_index


class TestCheckpointStore:
    def _cp(self, dyn: int) -> ThreadCheckpoint:
        return ThreadCheckpoint.capture(dyn, 0, {"r1": dyn}, write_count=0)

    def test_best_is_deepest_at_or_below(self):
        store = CheckpointStore(1 << 20)
        for dyn in (8, 16, 32):
            store.put_thread(0, self._cp(dyn))
        assert store.best_thread(0, 31).dyn_index == 16
        assert store.best_thread(0, 32).dyn_index == 32
        assert store.best_thread(0, 7) is None
        assert store.best_thread(1, 100) is None

    def test_lru_evicts_least_recently_used(self):
        snapshot = self._cp(8)
        budget = 2 * snapshot.nbytes + 1  # room for exactly two
        store = CheckpointStore(budget)
        store.put_thread(0, self._cp(8))
        store.put_thread(0, self._cp(16))
        assert store.best_thread(0, 8).dyn_index == 8  # refresh 8's recency
        store.put_thread(0, self._cp(24))
        assert store.evicted == 1
        assert store.has_thread(0, 8)
        assert not store.has_thread(0, 16)
        assert store.has_thread(0, 24)
        assert store.nbytes <= budget
        # The evicted interval must also leave the lookup index.
        assert store.best_thread(0, 17).dyn_index == 8

    def test_oversized_snapshot_rejected(self):
        store = CheckpointStore(16)
        store.put_thread(0, self._cp(8))
        assert store.rejected == 1
        assert len(store) == 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckpointStore(0)

    def test_counters_shape(self):
        store = CheckpointStore(1 << 20)
        store.put_thread(3, self._cp(8))
        store.best_thread(3, 100)
        assert store.counters() == {
            "stored": 1,
            "evicted": 0,
            "rejected": 0,
            "entries": 1,
            "nbytes": store.nbytes,
            "capture_s": store.capture_s,
        }
