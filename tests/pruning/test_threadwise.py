"""Stage-1 (thread-wise) pruning tests."""

import numpy as np
import pytest

from repro.errors import PruningError
from repro.gpu import LaunchGeometry, TraceTable
from repro.pruning import prune_threads
from tests.conftest import injector_for


def synthetic_traces():
    """2 CTAs x 4 threads; CTA0 has iCnt mix {3,3,5,5}, CTA1 {3,3,3,3}."""
    t3 = [(0, 32)] * 3
    t5 = [(0, 32)] * 5
    traces = TraceTable.from_lists([t3, t3, t5, t5, t3, t3, t3, t3])
    return traces, LaunchGeometry(grid=(2, 1), block=(4, 1))


class TestSynthetic:
    def test_cta_groups_split_on_mean(self):
        traces, geo = synthetic_traces()
        tw = prune_threads(traces, geo)
        assert len(tw.cta_groups) == 2

    def test_thread_groups_by_exact_icnt(self):
        traces, geo = synthetic_traces()
        tw = prune_threads(traces, geo)
        icnts = sorted(g.icnt for g in tw.thread_groups)
        assert icnts == [3, 3, 5]  # {3,5} in CTA0, {3} in CTA1

    def test_weights_cover_exhaustive_space(self):
        traces, geo = synthetic_traces()
        tw = prune_threads(traces, geo)
        assert tw.weight_check() == pytest.approx(tw.total_sites)

    def test_group_weight_proportional_to_population(self):
        traces, geo = synthetic_traces()
        tw = prune_threads(traces, geo)
        # CTA1's single group stands for 4 threads x 3 instrs x 32 bits.
        cta1_group = next(g for g in tw.thread_groups if g.cta_group == 1)
        assert cta1_group.site_weight == pytest.approx(4 * 3 * 32)

    def test_per_site_weight(self):
        traces, geo = synthetic_traces()
        tw = prune_threads(traces, geo)
        cta1_group = next(g for g in tw.thread_groups if g.cta_group == 1)
        assert cta1_group.per_site_weight == pytest.approx(4.0)

    def test_representative_is_member(self):
        traces, geo = synthetic_traces()
        tw = prune_threads(traces, geo)
        for g in tw.thread_groups:
            assert g.representative in g.threads

    def test_rng_choice_stays_in_group(self):
        traces, geo = synthetic_traces()
        tw = prune_threads(traces, geo, rng=np.random.default_rng(0))
        for g in tw.thread_groups:
            assert g.representative in g.threads

    def test_signature_method_splits_different_mixes(self):
        # Same mean, different multiset: {3,5} vs {4,4}.
        t3, t4, t5 = [(0, 32)] * 3, [(0, 32)] * 4, [(0, 32)] * 5
        traces = TraceTable.from_lists([t3, t5, t4, t4])
        geo = LaunchGeometry(grid=(2, 1), block=(2, 1))
        mean_groups = prune_threads(traces, geo, method="mean")
        sig_groups = prune_threads(traces, geo, method="signature")
        assert len(mean_groups.cta_groups) == 1
        assert len(sig_groups.cta_groups) == 2

    def test_unknown_method_rejected(self):
        traces, geo = synthetic_traces()
        with pytest.raises(PruningError):
            prune_threads(traces, geo, method="vibes")

    def test_trace_count_must_match_geometry(self):
        traces, geo = synthetic_traces()
        with pytest.raises(PruningError):
            prune_threads(TraceTable.from_lists(list(traces)[:-1]), geo)


class TestRealKernels:
    def test_gemm_collapses_to_one_representative(self):
        inj = injector_for("gemm.k1")
        tw = prune_threads(inj.traces, inj.instance.geometry)
        assert len(tw.thread_groups) == 1
        assert tw.sites_after == inj.space.thread_sites(tw.representatives[0])

    def test_pathfinder_two_representatives(self):
        inj = injector_for("pathfinder.k1")
        tw = prune_threads(inj.traces, inj.instance.geometry)
        assert len(tw.thread_groups) == 2

    def test_2dconv_three_cta_groups(self):
        inj = injector_for("2dconv.k1")
        tw = prune_threads(inj.traces, inj.instance.geometry)
        assert len(tw.cta_groups) == 3  # corner / edge / centre

    def test_hotspot_three_cta_groups(self):
        inj = injector_for("hotspot.k1")
        tw = prune_threads(inj.traces, inj.instance.geometry)
        assert len(tw.cta_groups) == 3

    def test_weights_cover_space_on_all_kernels(self):
        for key in ["2dconv.k1", "hotspot.k1", "gemm.k1", "lud.k46", "k-means.k2"]:
            inj = injector_for(key)
            tw = prune_threads(inj.traces, inj.instance.geometry)
            assert tw.weight_check() == pytest.approx(inj.space.total_sites)

    def test_huge_reduction_on_wide_kernels(self):
        inj = injector_for("2dconv.k1")
        tw = prune_threads(inj.traces, inj.instance.geometry)
        assert tw.sites_after < tw.total_sites / 50
