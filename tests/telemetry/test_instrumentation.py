"""End-to-end instrumentation: events/metrics from real campaigns, and
the regression pinning that the null sink changes nothing."""


import numpy as np
import pytest

from repro import FaultInjector, ProgressivePruner, exhaustive_campaign, run_campaign
from repro.telemetry import (
    CampaignEvent,
    InjectionEvent,
    MemorySink,
    SimRunEvent,
    StageEvent,
    Telemetry,
)

from ..helpers import build_saxpy_instance


@pytest.fixture()
def live():
    telemetry = Telemetry(sink=MemorySink())
    injector = FaultInjector(build_saxpy_instance(n=6, block=3), telemetry=telemetry)
    return injector, telemetry


class TestInjectorInstrumentation:
    def test_golden_run_emits_sim_run_event(self, live):
        injector, telemetry = live
        runs = telemetry.sink.of_type(SimRunEvent)
        assert len(runs) == 1
        assert runs[0].kind == "golden"
        assert runs[0].instructions > 0
        assert telemetry.metrics.counter("sim.launches").value == 1
        assert telemetry.metrics.histogram("golden_s").count == 1

    def test_each_injection_emits_one_event(self, live):
        injector, telemetry = live
        sites = injector.space.sample(5, np.random.default_rng(0))
        outcomes = [injector.inject(site) for site in sites]
        events = telemetry.sink.of_type(InjectionEvent)
        assert len(events) == 5
        for site, outcome, event in zip(sites, outcomes, events):
            assert (event.thread, event.dyn_index, event.bit) == (
                site.thread, site.dyn_index, site.bit,
            )
            assert event.outcome == outcome.value
            assert event.model == "iov"
            assert event.duration_s > 0
        assert telemetry.metrics.counter("injections.total").value == 5
        assert telemetry.metrics.histogram("injection_s").count == 5

    def test_fast_path_vs_full_rerun_counters(self, live):
        injector, telemetry = live
        site = injector.space.sample(1, np.random.default_rng(1))[0]
        injector.inject(site)
        injector.inject_full(site)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["injections.total"] == 2
        assert counters["injections.fast_path"] == 1
        assert counters["injections.full_rerun"] == 1
        fast, full = telemetry.sink.of_type(InjectionEvent)
        assert fast.fast_path is True
        assert full.fast_path is False

    def test_outcome_counters_sum_to_total(self, live):
        injector, telemetry = live
        for site in injector.space.sample(8, np.random.default_rng(2)):
            injector.inject(site)
        counters = telemetry.metrics.snapshot()["counters"]
        outcome_total = sum(
            v for k, v in counters.items() if k.startswith("outcome.")
        )
        assert outcome_total == counters["injections.total"] == 8


class TestCampaignInstrumentation:
    def test_campaign_events_bracket_the_run(self, live):
        injector, telemetry = live
        sites = injector.space.sample(4, np.random.default_rng(3))
        run_campaign(injector, sites)  # telemetry defaults to the injector's
        start, end = telemetry.sink.of_type(CampaignEvent)
        assert (start.phase, start.campaign, start.n_sites) == ("start", "explicit", 4)
        assert (end.phase, end.n_sites) == ("end", 4)
        assert sum(end.profile.values()) == pytest.approx(4.0)

    def test_progress_called_once_per_injection(self, live):
        injector, _ = live
        calls = []
        sites = injector.space.sample(6, np.random.default_rng(4))
        run_campaign(injector, sites, progress=lambda done, total:
                     calls.append((done, total)))
        assert calls == [(i, 6) for i in range(1, 7)]

    def test_streaming_generator_input(self, live):
        injector, _ = live
        calls = []
        result = exhaustive_campaign(
            injector,
            threads=[0],
            progress=lambda done, total: calls.append((done, total)),
        )
        expected = injector.space.thread_sites(0)
        assert result.n_runs == expected
        assert calls[-1] == (expected, expected)

    def test_keep_sites_false_drops_lists_but_keeps_profile(self, live):
        injector, _ = live
        sites = injector.space.sample(5, np.random.default_rng(5))
        slim = run_campaign(injector, sites, keep_sites=False)
        fat = run_campaign(injector, sites)
        assert slim.sites == [] and slim.outcomes == []
        assert slim.n_runs == 5
        assert slim.profile.weights == fat.profile.weights


class TestPrunerInstrumentation:
    def test_stage_events_and_gauges(self, live):
        injector, telemetry = live
        pruner = ProgressivePruner(num_loop_iters=2, n_bits=4)
        space = pruner.prune(injector)
        events = telemetry.sink.of_type(StageEvent)
        assert [e.stage for e in events] == [
            "thread-wise", "instruction-wise", "loop-wise", "bit-wise",
        ]
        assert events[0].sites_before == injector.space.total_sites
        for previous, current in zip(events, events[1:]):
            assert current.sites_before == previous.sites_after
        assert events[-1].sites_after == space.n_injections
        gauges = telemetry.metrics.snapshot()["gauges"]
        assert gauges["prune.bit-wise.sites_after"] == space.n_injections
        # Each stage's one duration, on its event and in its histogram.
        timings = telemetry.metrics.snapshot()["histograms"]
        for event in events:
            timing = timings[f"prune.{event.stage}_s"]
            assert timing["count"] == 1
            assert timing["total"] == event.duration_s

    def test_prune_progress_fires_per_stage(self, live):
        injector, _ = live
        calls = []
        ProgressivePruner(num_loop_iters=2, n_bits=4).prune(
            injector, progress=lambda done, total: calls.append((done, total))
        )
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_estimate_profile_emits_per_injection(self, live):
        injector, telemetry = live
        space = ProgressivePruner(num_loop_iters=2, n_bits=4).prune(injector)
        before = len(telemetry.sink.of_type(InjectionEvent))
        space.estimate_profile(injector)
        emitted = len(telemetry.sink.of_type(InjectionEvent)) - before
        assert emitted == space.n_injections


class TestNullSinkRegression:
    def test_null_telemetry_result_is_byte_identical(self):
        """The default (null) telemetry must not perturb campaign results."""
        bare = FaultInjector(build_saxpy_instance(n=6, block=3))
        instrumented = FaultInjector(
            build_saxpy_instance(n=6, block=3),
            telemetry=Telemetry(sink=MemorySink()),
        )
        sites = bare.space.sample(12, np.random.default_rng(6))
        result_bare = run_campaign(bare, sites)
        result_live = run_campaign(instrumented, sites)
        assert result_bare.sites == result_live.sites
        assert result_bare.outcomes == result_live.outcomes
        assert result_bare.profile == result_live.profile

    def test_null_telemetry_pruned_profile_identical(self):
        bare = FaultInjector(build_saxpy_instance(n=6, block=3))
        instrumented = FaultInjector(
            build_saxpy_instance(n=6, block=3),
            telemetry=Telemetry(sink=MemorySink()),
        )
        pruner = ProgressivePruner(num_loop_iters=2, n_bits=4)
        profile_bare = pruner.prune(bare).estimate_profile(bare)
        profile_live = pruner.prune(instrumented).estimate_profile(instrumented)
        assert profile_bare.weights == profile_live.weights
        assert profile_bare.n_injections == profile_live.n_injections
