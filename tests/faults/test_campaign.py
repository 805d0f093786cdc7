"""Campaign-driver tests."""

import numpy as np
import pytest

from repro import FaultInjector, exhaustive_campaign, random_campaign, run_campaign
from repro.faults import FaultSite
from repro.telemetry import CampaignEvent, InjectionEvent, MemorySink, Telemetry

from ..helpers import build_saxpy_instance


@pytest.fixture(scope="module")
def injector():
    return FaultInjector(build_saxpy_instance(n=6, block=3))


class TestRunCampaign:
    def test_counts_match_sites(self, injector):
        sites = injector.space.sample(10, np.random.default_rng(0))
        result = run_campaign(injector, sites)
        assert result.n_runs == 10
        assert result.profile.n_injections == 10

    def test_weights_flow_into_profile(self, injector):
        sites = injector.space.sample(4, np.random.default_rng(0))
        result = run_campaign(injector, sites, weights=[1.0, 2.0, 3.0, 4.0])
        assert result.profile.total_weight == pytest.approx(10.0)

    def test_weights_and_static_weight_reach_the_events(self):
        telemetry = Telemetry(sink=MemorySink())
        injector = FaultInjector(
            build_saxpy_instance(n=6, block=3), telemetry=telemetry
        )
        sites = injector.space.sample(3, np.random.default_rng(0))
        result = run_campaign(
            injector, sites, weights=[1.0, 2.5, 4.0], static_masked_weight=3.0
        )
        start, end = telemetry.sink.of_type(CampaignEvent)
        assert start.profile == {"masked": 3.0}
        assert [e.weight for e in telemetry.sink.of_type(InjectionEvent)] == [
            1.0, 2.5, 4.0,
        ]
        assert result.profile.total_weight == pytest.approx(10.5)
        assert end.profile == result.profile.weights

    @pytest.mark.parametrize(
        "weighting", [{"weights": [2.0] * 4}, {"static_masked_weight": 1.0}]
    )
    def test_until_ci_refuses_a_weighted_campaign(self, injector, weighting):
        sites = injector.space.sample(4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="weighted"):
            run_campaign(injector, sites, until_ci=0.5, **weighting)


class TestRandomCampaign:
    def test_seed_reproducibility(self, injector):
        a = random_campaign(injector, 15, rng=7)
        b = random_campaign(injector, 15, rng=7)
        assert a.sites == b.sites
        assert a.outcomes == b.outcomes

    def test_different_seeds_differ(self, injector):
        a = random_campaign(injector, 15, rng=1)
        b = random_campaign(injector, 15, rng=2)
        assert a.sites != b.sites

    def test_accepts_generator(self, injector):
        result = random_campaign(injector, 5, rng=np.random.default_rng(3))
        assert result.n_runs == 5


class TestExhaustiveCampaign:
    def test_single_thread_exhaustive(self, injector):
        result = exhaustive_campaign(injector, threads=[0])
        assert result.n_runs == injector.space.thread_sites(0)
        # Every site of thread 0, in order.
        assert result.sites[0] == FaultSite(0, 0, 0)

    def test_exhaustive_is_superset_of_thread_runs(self, injector):
        full = exhaustive_campaign(injector)
        assert full.n_runs == injector.space.total_sites

    def test_exhaustive_profile_is_the_ground_truth(self, injector):
        """The full-space campaign is self-consistent: re-running any site
        reproduces its recorded outcome."""
        full = exhaustive_campaign(injector, threads=[1])
        rng = np.random.default_rng(9)
        picks = rng.choice(full.n_runs, size=5, replace=False)
        for index in picks:
            assert injector.inject(full.sites[int(index)]) == full.outcomes[int(index)]
