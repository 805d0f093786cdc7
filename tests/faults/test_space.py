"""Unit + property tests for fault-space enumeration and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FaultInjectionError
from repro.faults import FaultSite, FaultSpace
from repro.gpu import TraceTable


def make_space():
    # Two threads: thread 0 has widths [32, 0, 4], thread 1 has [16, 32].
    traces = [
        [(0, 32), (1, 0), (2, 4)],
        [(0, 16), (3, 32)],
    ]
    return FaultSpace(TraceTable.from_lists(traces))


class TestCounting:
    def test_total_sites(self):
        assert make_space().total_sites == 32 + 4 + 16 + 32

    def test_thread_sites(self):
        space = make_space()
        assert space.thread_sites(0) == 36
        assert space.thread_sites(1) == 48

    def test_icnt(self):
        space = make_space()
        assert space.thread_icnt(0) == 3
        assert space.thread_icnt(1) == 2


class TestIndexing:
    def test_first_site(self):
        assert make_space().site_at(0) == FaultSite(0, 0, 0)

    def test_skips_zero_width_entries(self):
        # Index 32 is the first bit of thread 0's dyn instr 2 (width 4);
        # dyn instr 1 has width 0 and owns no sites.
        assert make_space().site_at(32) == FaultSite(0, 2, 0)

    def test_crosses_thread_boundary(self):
        assert make_space().site_at(36) == FaultSite(1, 0, 0)

    def test_last_site(self):
        assert make_space().site_at(83) == FaultSite(1, 1, 31)

    def test_out_of_range(self):
        with pytest.raises(FaultInjectionError):
            make_space().site_at(84)
        with pytest.raises(FaultInjectionError):
            make_space().site_at(-1)

    @given(st.integers(min_value=0, max_value=83))
    def test_indexing_is_bijective(self, index):
        space = make_space()
        site = space.site_at(index)
        # Reconstruct the flat index from the site.
        flat = 0
        for t in range(site.thread):
            flat += space.thread_sites(t)
        for i in range(site.dyn_index):
            flat += space.width_of(site.thread, i)
        flat += site.bit
        assert flat == index

    @given(st.integers(min_value=0, max_value=83))
    def test_sites_are_valid(self, index):
        space = make_space()
        site = space.site_at(index)
        assert 0 <= site.bit < space.width_of(site.thread, site.dyn_index)


class TestSampling:
    def test_sample_deterministic_with_seed(self):
        space = make_space()
        a = space.sample(10, np.random.default_rng(1))
        b = space.sample(10, np.random.default_rng(1))
        assert a == b

    def test_sample_covers_space_roughly_uniformly(self):
        space = make_space()
        rng = np.random.default_rng(0)
        sites = space.sample(2000, rng)
        thread1 = sum(1 for s in sites if s.thread == 1)
        # Thread 1 owns 48/84 of the space.
        assert 0.5 < thread1 / 2000 < 0.65


class TestEnumeration:
    def test_sites_of_instruction(self):
        sites = make_space().sites_of_instruction(0, 2)
        assert sites == [FaultSite(0, 2, b) for b in range(4)]

    def test_iter_thread_sites(self):
        sites = list(make_space().iter_thread_sites(0))
        assert len(sites) == 36
        assert sites[0] == FaultSite(0, 0, 0)
        assert sites[-1] == FaultSite(0, 2, 3)


class TestFaultSiteType:
    def test_ordering_and_str(self):
        assert FaultSite(0, 1, 2) < FaultSite(1, 0, 0)
        assert str(FaultSite(3, 4, 5)) == "t3/i4/b5"

    def test_hashable(self):
        assert len({FaultSite(0, 0, 0), FaultSite(0, 0, 0)}) == 1
