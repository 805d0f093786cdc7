"""Unit + property tests for the columnar trace table and read-log arrays."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.tracing import TraceTable, ThreadTrace, read_log_arrays

entries = st.tuples(
    st.integers(min_value=0, max_value=40_000), st.sampled_from([0, 1, 16, 32, 64])
)
thread_lists = st.lists(st.lists(entries, max_size=12), max_size=20)


def lists_of(table):
    return [list(trace) for trace in table]


class TestFromLists:
    @settings(max_examples=60, deadline=None)
    @given(thread_lists)
    def test_roundtrip_and_aggregates(self, traces):
        table = TraceTable.from_lists(traces)
        assert lists_of(table) == traces
        assert table.icnt.tolist() == [len(t) for t in traces]
        assert table.sites.tolist() == [sum(w for _, w in t) for t in traces]

    def test_narrow_dtypes(self):
        table = TraceTable.from_lists([[(0, 64), (7, 0)], [(3, 32)]])
        assert table.widths.dtype == np.uint8
        assert table.pcs.dtype == np.int16
        wide = TraceTable.from_lists([[(40_000, 32)]])
        assert wide.pcs.dtype == np.int32
        assert list(wide[0]) == [(40_000, 32)]

    def test_sites_across_blocks_with_empty_threads(self):
        # Empty threads sit between, before and after the segmented sums'
        # block boundaries: reduceat must never see a zero-length segment.
        rng = np.random.default_rng(3)
        traces = []
        for t in range(700):
            n = 0 if t % 7 in (0, 3) or t == 699 else t % 5 + 1
            traces.append(
                [(int(rng.integers(50)), int(rng.choice([0, 8, 32]))) for _ in range(n)]
            )
        table = TraceTable.from_lists(traces)
        assert table.sites.tolist() == [sum(w for _, w in t) for t in traces]


class TestViews:
    def test_list_read_api(self):
        table = TraceTable.from_lists([[(0, 32), (1, 0), (2, 4)], [(5, 16)]])
        view = table[0]
        assert isinstance(view, ThreadTrace)
        assert len(view) == 3
        assert view[2] == (2, 4)
        assert view[-1] == (2, 4)
        assert view[1:] == [(1, 0), (2, 4)]
        assert list(view) == [(0, 32), (1, 0), (2, 4)]
        assert table[-1][0] == (5, 16)
        with pytest.raises(IndexError):
            table[2]

    def test_equality(self):
        a = TraceTable.from_lists([[(0, 32)], [(1, 8), (2, 0)]])
        b = TraceTable.from_lists([[(0, 32)], [(1, 8), (2, 0)]])
        moved = TraceTable.from_lists([[(0, 32), (1, 8)], [(2, 0)]])
        assert a == b
        assert a != moved  # same columns, different thread boundaries
        assert a[1] == b[1]
        assert a[0] != a[1]

    def test_pickle_roundtrip(self):
        table = TraceTable.from_lists([[(0, 32), (4, 0)], [], [(9, 64)]])
        assert pickle.loads(pickle.dumps(table)) == table
        assert pickle.loads(pickle.dumps(table[2])) == table[2]

    @settings(max_examples=40, deadline=None)
    @given(thread_lists, thread_lists)
    def test_concat_matches_one_table(self, first, second):
        joined = TraceTable.concat(
            [TraceTable.from_lists(first), TraceTable.from_lists(second)]
        )
        assert joined == TraceTable.from_lists(first + second)


class TestReadLogArrays:
    def test_columns_keep_order(self):
        addresses, sizes = read_log_arrays([(4096, 4), (8192, 8), (4100, 2)])
        assert addresses.tolist() == [4096, 8192, 4100]
        assert sizes.tolist() == [4, 8, 2]
        assert addresses.dtype == np.int64
        assert sizes.dtype == np.uint8

    def test_empty(self):
        addresses, sizes = read_log_arrays([])
        assert addresses.size == sizes.size == 0
