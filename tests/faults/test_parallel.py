"""Parallel campaign execution: equivalence, fallbacks, failure surfacing.

The contract under test (see ``docs/performance.md``): for the same seed,
a campaign fanned over N worker processes produces a byte-identical
:class:`ResilienceProfile`, identical per-site outcomes, and the same
``fallback_count`` total as the serial in-process path, for any N.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import FaultInjector, load_instance, random_campaign, run_campaign
from repro.errors import FaultInjectionError
from repro.faults.site import FaultSite
from repro.parallel import ParallelCampaignRunner, SerialExecutor, resolve_executor
from repro.telemetry import MemorySink, Telemetry

from ..helpers import build_saxpy_instance

#: CI exercises both fork and spawn via this env var.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None


def make_runner(workers: int, chunk_size: int = 8) -> ParallelCampaignRunner:
    return ParallelCampaignRunner(
        workers, chunk_size=chunk_size, start_method=START_METHOD
    )


@pytest.fixture(scope="module")
def conv2d_serial():
    """Serial reference campaign on a registered kernel (key payload)."""
    injector = FaultInjector(load_instance("2dconv.k1"))
    result = random_campaign(injector, 48, rng=11)
    return injector, result


@pytest.fixture(scope="module")
def saxpy_serial():
    """Serial reference on an unregistered instance (pickled payload)."""
    injector = FaultInjector(build_saxpy_instance())
    result = random_campaign(injector, 48, rng=11)
    return injector, result


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_registered_kernel_profiles_identical(self, conv2d_serial, workers):
        serial_injector, serial = conv2d_serial
        injector = FaultInjector(load_instance("2dconv.k1"))
        parallel = random_campaign(
            injector, 48, rng=11, executor=make_runner(workers)
        )
        assert parallel.outcomes == serial.outcomes
        assert parallel.profile.weights == serial.profile.weights
        assert parallel.profile.n_injections == serial.profile.n_injections
        assert injector.fallback_count == serial_injector.fallback_count

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pickled_instance_profiles_identical(self, saxpy_serial, workers):
        serial_injector, serial = saxpy_serial
        injector = FaultInjector(build_saxpy_instance())
        parallel = random_campaign(
            injector, 48, rng=11, executor=make_runner(workers)
        )
        assert parallel.outcomes == serial.outcomes
        assert parallel.profile.weights == serial.profile.weights
        assert injector.fallback_count == serial_injector.fallback_count

    def test_weighted_campaign_identical(self, conv2d_serial):
        _, serial = conv2d_serial
        injector = FaultInjector(load_instance("2dconv.k1"))
        sites = serial.sites
        weights = [1.0 + (i % 5) for i in range(len(sites))]
        serial_result = run_campaign(injector, sites, weights=weights)
        parallel_result = run_campaign(
            injector, sites, weights=weights, executor=make_runner(2)
        )
        assert parallel_result.profile.weights == serial_result.profile.weights

    def test_fallback_totals_survive_fan_out(self):
        # Seed 2 on 2dconv.k1 is known to contain at least one write-escape
        # fallback in 80 sites, so the delta-summing path is exercised.
        serial_injector = FaultInjector(load_instance("2dconv.k1"))
        serial = random_campaign(serial_injector, 80, rng=2)
        assert serial_injector.fallback_count > 0
        injector = FaultInjector(load_instance("2dconv.k1"))
        parallel = random_campaign(injector, 80, rng=2, executor=make_runner(2))
        assert parallel.outcomes == serial.outcomes
        assert injector.fallback_count == serial_injector.fallback_count


class TestTelemetryMerge:
    def test_worker_counters_match_serial(self):
        serial_tel = Telemetry(sink=MemorySink())
        serial_injector = FaultInjector(
            load_instance("2dconv.k1"), telemetry=serial_tel
        )
        random_campaign(serial_injector, 32, rng=7)

        parallel_tel = Telemetry(sink=MemorySink())
        injector = FaultInjector(load_instance("2dconv.k1"), telemetry=parallel_tel)
        random_campaign(injector, 32, rng=7, executor=make_runner(2))

        serial_counts = serial_tel.metrics.snapshot()["counters"]
        parallel_counts = parallel_tel.metrics.snapshot()["counters"]
        for name in serial_counts:
            if name.startswith(("injections.", "outcome.")):
                assert parallel_counts[name] == serial_counts[name], name
        assert parallel_counts["parallel.chunks"] > 1
        assert parallel_tel.metrics.snapshot()["gauges"]["parallel.workers"] == 2
        # Timings are flat histograms: both runs record the same ones
        # under the same names; the pool adds only its own.
        serial_timings = serial_tel.metrics.snapshot()["histograms"]
        parallel_timings = parallel_tel.metrics.snapshot()["histograms"]
        for timings in (serial_timings, parallel_timings):
            assert timings["injection_s"]["count"] == 32
            assert timings["campaign.random_s"]["count"] == 1
        pool_only = {
            name
            for name in parallel_timings
            if name == "golden_restore_s" or name.startswith("parallel.")
        }
        assert "golden_restore_s" in pool_only
        assert set(parallel_timings) - pool_only == set(serial_timings)


class TestCheckpointCounterMerge:
    """Regression: checkpoint store metrics from pool workers must *sum*.

    Counters always added across snapshots, but the store gauges
    (``checkpoint.bytes`` etc.) were last-write-wins, so a 4-worker
    campaign reported only the last worker's store.  They are now scoped
    per worker and summed (see ``SUMMED_GAUGES``).
    """

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_lookup_totals_invariant_across_worker_counts(self, workers):
        serial_tel = Telemetry(sink=MemorySink())
        serial = FaultInjector(
            load_instance("2dconv.k1"), telemetry=serial_tel, checkpoint_interval=8
        )
        random_campaign(serial, 48, rng=11)
        serial_counts = serial_tel.metrics.snapshot()["counters"]

        parallel_tel = Telemetry(sink=MemorySink())
        injector = FaultInjector(
            load_instance("2dconv.k1"),
            telemetry=parallel_tel,
            checkpoint_interval=8,
        )
        random_campaign(injector, 48, rng=11, executor=make_runner(workers))
        counts = parallel_tel.metrics.snapshot()["counters"]

        # Which lookups hit depends on each worker's private store, but the
        # number of lookups per kind is execution-path invariant.
        for kind in ("thread", "cta"):
            serial_lookups = serial_counts.get(
                f"checkpoint.{kind}_hits", 0
            ) + serial_counts.get(f"checkpoint.{kind}_misses", 0)
            lookups = counts.get(f"checkpoint.{kind}_hits", 0) + counts.get(
                f"checkpoint.{kind}_misses", 0
            )
            assert lookups == serial_lookups, kind

    @pytest.mark.parametrize("workers", [2, 4])
    def test_store_gauges_sum_across_workers(self, workers):
        telemetry = Telemetry(sink=MemorySink())
        injector = FaultInjector(
            load_instance("2dconv.k1"), telemetry=telemetry, checkpoint_interval=8
        )
        random_campaign(injector, 48, rng=11, executor=make_runner(workers))
        gauges = telemetry.metrics.snapshot()["gauges"]
        scoped = {
            name: value
            for name, value in gauges.items()
            if name.startswith("checkpoint.bytes[")
        }
        # Slow pool start-up (spawn) can let one worker drain every chunk,
        # so only a lower bound on participating workers is deterministic.
        assert 1 <= len(scoped) <= workers
        assert all(value > 0 for value in scoped.values())
        # The headline gauge is the fleet total, not one worker's store.
        assert gauges["checkpoint.bytes"] == pytest.approx(sum(scoped.values()))
        if len(scoped) > 1:
            assert gauges["checkpoint.bytes"] > max(scoped.values())


class TestFailureSurfacing:
    def test_worker_exception_propagates(self):
        injector = FaultInjector(load_instance("2dconv.k1"))
        bogus = FaultSite(thread=10**6, dyn_index=0, bit=0)
        with pytest.raises(FaultInjectionError):
            run_campaign(injector, [bogus], executor=make_runner(2))


class TestDegradation:
    def test_resolve_executor_serial_cases(self):
        assert resolve_executor(None) is None
        assert resolve_executor(0) is None
        assert resolve_executor(1) is None
        runner = resolve_executor(3)
        assert isinstance(runner, ParallelCampaignRunner)
        assert runner.workers == 3

    def test_single_worker_runner_stays_in_process(self, saxpy_serial):
        injector, serial = saxpy_serial
        runner = ParallelCampaignRunner(1)
        pairs = [(site, 1.0) for site in serial.sites]
        streamed = list(runner.imap(injector, pairs))
        assert [o for _, _, o in streamed] == serial.outcomes

    def test_unpicklable_instance_falls_back_to_serial(self, saxpy_serial):
        _reference_injector, serial = saxpy_serial
        telemetry = Telemetry(sink=MemorySink())
        injector = FaultInjector(build_saxpy_instance(), telemetry=telemetry)
        # Poison the instance so the payload builder cannot pickle it.
        injector.instance.reference = {"cb": lambda: None}  # lambdas don't pickle
        pairs = [(site, 1.0) for site in serial.sites]
        streamed = list(make_runner(2).imap(injector, pairs))
        assert [o for _, _, o in streamed] == serial.outcomes
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["parallel.serial_fallback"] == 1

    def test_unpicklable_golden_state_falls_back_to_serial(self, saxpy_serial):
        _reference_injector, serial = saxpy_serial
        telemetry = Telemetry(sink=MemorySink())
        injector = FaultInjector(build_saxpy_instance(), telemetry=telemetry)
        # Workers never run golden themselves: no golden state, no pool.
        injector.golden_state = lambda: (lambda: None)
        pairs = [(site, 1.0) for site in serial.sites]
        streamed = list(make_runner(2).imap(injector, pairs))
        assert [o for _, _, o in streamed] == serial.outcomes
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["parallel.serial_fallback"] == 1

    def test_serial_executor_streams_in_order(self, saxpy_serial):
        injector, serial = saxpy_serial
        pairs = [(site, 2.0) for site in serial.sites]
        streamed = list(SerialExecutor().imap(injector, pairs))
        assert [s for s, _, _ in streamed] == serial.sites
        assert all(w == 2.0 for _, w, _ in streamed)


class TestChunking:
    def test_chunk_sizes(self):
        runner = ParallelCampaignRunner(2, chunk_size=3)
        chunks = list(runner._chunked(iter([(i, 1.0) for i in range(8)])))
        assert [len(c) for c in chunks] == [3, 3, 2]

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            ParallelCampaignRunner(2, chunk_size=0)


def test_sites_equal_under_differing_worker_counts():
    """Site sampling must not depend on the executor at all."""
    injector = FaultInjector(build_saxpy_instance())
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    a = random_campaign(injector, 20, rng=rng1)
    b = random_campaign(injector, 20, rng=rng2, executor=make_runner(2))
    assert a.sites == b.sites
