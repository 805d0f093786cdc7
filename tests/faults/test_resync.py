"""Golden-resync early exit: equivalence, memo and monitor behaviour.

The contract under test (see ``docs/performance.md``): for the same
seed, a campaign with resync enabled — any backend, any checkpoint
interval, serial or pooled — produces byte-identical outcomes, profile
weights, ``fallback_count`` and ``injections.*`` / ``outcome.*``
telemetry counters to the plain reference path, while splicing golden
suffixes instead of executing them wherever the faulty run provably
reconverges.
"""

from __future__ import annotations

import math
import os

import pytest

from repro import FaultInjector, load_instance, random_campaign
from repro.errors import ResyncReached
from repro.faults.resync import (
    ResyncMemo,
    _exact,
    _has_special,
    _strict_match,
    control_pcs,
)
from repro.parallel import ParallelCampaignRunner
from repro.telemetry import InjectionEvent, MemorySink, Telemetry

from ..helpers import build_loop_sum_instance

#: CI exercises both fork and spawn via this env var (matrix tests below
#: additionally pin both explicitly).
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

N_SITES = 48
SEED = 11

BACKENDS = ("interpreter", "compiled", "vectorized")
INTERVALS = (0, 16, "auto")


def _campaign(
    key,
    *,
    resync,
    backend="interpreter",
    interval=0,
    workers=1,
    start_method=None,
):
    """One instrumented campaign; returns (injector, result, counters)."""
    telemetry = Telemetry(sink=MemorySink())
    injector = FaultInjector(
        load_instance(key),
        telemetry=telemetry,
        backend=backend,
        checkpoint_interval=interval,
        resync=resync,
    )
    executor = None
    if workers > 1:
        executor = ParallelCampaignRunner(
            workers, chunk_size=8, start_method=start_method or START_METHOD
        )
    result = random_campaign(injector, N_SITES, rng=SEED, executor=executor)
    counters = {
        name: value
        for name, value in telemetry.metrics.snapshot()["counters"].items()
        if name.startswith(("injections.", "outcome.", "resync."))
    }
    return injector, result, counters


@pytest.fixture(scope="module")
def conv2d_reference():
    """Resync-off reference on the thread-sliced path (2dconv.k1)."""
    return _campaign("2dconv.k1", resync=False)


@pytest.fixture(scope="module")
def pathfinder_reference():
    """Resync-off reference on the CTA-sliced path (pathfinder.k1)."""
    return _campaign("pathfinder.k1", resync=False)


def _assert_equivalent(reference, candidate):
    ref_injector, ref_result, ref_counters = reference
    injector, result, counters = candidate
    assert result.outcomes == ref_result.outcomes
    assert result.profile.weights == ref_result.profile.weights
    assert result.profile.n_injections == ref_result.profile.n_injections
    assert injector.fallback_count == ref_injector.fallback_count
    for name, value in ref_counters.items():
        assert counters.get(name, 0) == value, name


class TestEquivalenceMatrix:
    """backends x checkpoint intervals, resync on vs the plain reference."""

    @pytest.mark.parametrize("interval", INTERVALS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_thread_path(self, conv2d_reference, backend, interval):
        candidate = _campaign(
            "2dconv.k1", resync=True, backend=backend, interval=interval
        )
        _assert_equivalent(conv2d_reference, candidate)
        counters = candidate[2]
        assert counters.get("resync.hits", 0) + counters.get(
            "resync.misses", 0
        ) > 0

    @pytest.mark.parametrize("interval", INTERVALS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cta_path(self, pathfinder_reference, backend, interval):
        candidate = _campaign(
            "pathfinder.k1", resync=True, backend=backend, interval=interval
        )
        _assert_equivalent(pathfinder_reference, candidate)
        assert candidate[2].get("resync.hits", 0) > 0  # some sites splice


class TestWorkerPools:
    def test_serial_matches_reference(self, conv2d_reference):
        candidate = _campaign("2dconv.k1", resync=True, workers=1)
        _assert_equivalent(conv2d_reference, candidate)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_two_workers(self, conv2d_reference, start_method):
        # Workers rebuild resync-enabled injectors from the payload; the
        # parent's in-order drain must match the serial reference.  Pool
        # counters are absorbed from worker deltas, so resync.* totals
        # survive the process boundary too.
        candidate = _campaign(
            "2dconv.k1", resync=True, workers=2, start_method=start_method
        )
        ref_injector, ref_result, _ = conv2d_reference
        injector, result, counters = candidate
        assert result.outcomes == ref_result.outcomes
        assert result.profile.weights == ref_result.profile.weights
        assert counters.get("resync.hits", 0) + counters.get(
            "resync.misses", 0
        ) > 0


class TestExtendedModels:
    def test_store_address_and_register_file_equivalent(self):
        import numpy as np

        base = FaultInjector(load_instance("k-means.k1"), backend="interpreter")
        rs = FaultInjector(load_instance("k-means.k1"), resync=True)
        thread = max(range(len(base.traces)), key=lambda t: len(base.traces[t]))
        for site in base.store_address_sites(thread)[:16]:
            spec = site.spec()
            assert base.inject_spec(site.thread, spec) == rs.inject_spec(
                site.thread, spec
            ), site
        for site in base.sample_register_file_sites(16, np.random.default_rng(5)):
            spec = site.spec()
            assert base.inject_spec(site.thread, spec) == rs.inject_spec(
                site.thread, spec
            ), site


class TestPropagationComposition:
    def test_signatures_identical_with_resync(self):
        """Traced campaigns keep identical PropagationRecord signatures
        on sites that splice (resync shares the golden stream cache with
        the tracer instead of short-circuiting it)."""
        base = FaultInjector(
            load_instance("pathfinder.k1"), backend="interpreter", propagation=True
        )
        rs = FaultInjector(
            load_instance("pathfinder.k1"), propagation=True, resync=True
        )
        r1 = random_campaign(base, 24, rng=7)
        r2 = random_campaign(rs, 24, rng=7)
        assert r1.outcomes == r2.outcomes
        sigs = [rec.signature() for rec in base.propagation_records]
        assert [rec.signature() for rec in rs.propagation_records] == sigs


class TestMemo:
    def test_lru_bounds_and_recency(self):
        memo = ResyncMemo(capacity=2)
        memo.put(("t", 0, 1, "a"), ("none",))
        memo.put(("t", 0, 2, "b"), ("none",))
        assert memo.get(("t", 0, 1, "a")) == ("none",)  # refresh recency
        memo.put(("t", 0, 3, "c"), ("splice", 9, ()))
        assert memo.evicted == 1
        assert memo.get(("t", 0, 2, "b")) is None  # LRU victim
        assert memo.get(("t", 0, 1, "a")) == ("none",)
        assert memo.get(("t", 0, 3, "c")) == ("splice", 9, ())
        assert len(memo) == 2

    def test_reput_replaces_without_eviction(self):
        memo = ResyncMemo(capacity=1)
        memo.put("k", ("none",))
        memo.put("k", ("splice", 3, ()))
        assert memo.evicted == 0
        assert memo.get("k") == ("splice", 3, ())

    def test_repeat_campaign_reuses_verdicts(self):
        """Sibling sites collapsing to the same divergent state reuse
        the suffix verdict: a second identical pass is answered almost
        entirely from the memo, with identical outcomes."""
        telemetry = Telemetry(sink=MemorySink())
        injector = FaultInjector(
            load_instance("2dconv.k1"), telemetry=telemetry, resync=True
        )
        first = random_campaign(injector, N_SITES, rng=SEED)
        counters = telemetry.metrics.snapshot()["counters"]
        misses_before = counters.get("resync.memo_misses", 0)
        assert misses_before > 0
        second = random_campaign(injector, N_SITES, rng=SEED)
        assert second.outcomes == first.outcomes
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters.get("resync.memo_hits", 0) >= misses_before // 2
        # The repeat pass added (almost) no fresh memo misses.
        assert counters.get("resync.memo_misses", 0) <= misses_before + 1


class TestEffectiveAccounting:
    def test_events_carry_effective_and_spliced_counts(self):
        sink = MemorySink()
        injector = FaultInjector(
            load_instance("pathfinder.k1"),
            telemetry=Telemetry(sink=sink),
            resync=True,
            checkpoint_interval=16,
        )
        random_campaign(injector, N_SITES, rng=SEED)
        events = sink.of_type(InjectionEvent)
        assert events
        spliced_events = [e for e in events if e.spliced_instructions > 0]
        assert spliced_events  # some sites must have spliced
        for event in events:
            assert event.effective_instructions >= event.suffix_instructions
            assert event.spliced_instructions >= 0
        for event in spliced_events:
            # effective = executed suffix + checkpoint-skipped prefix
            #           + resync-spliced golden remainder.
            assert (
                event.effective_instructions
                >= event.suffix_instructions + event.spliced_instructions
            )

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
        assert all(e.spliced_instructions == 0 for e in events)
        assert any(
            e.effective_instructions > e.suffix_instructions for e in events
        )


class TestMonitorPrimitives:
    def test_exact_distinguishes_zero_signs_and_types(self):
        assert _exact(0.0) != _exact(-0.0)
        assert _exact(0) != _exact(0.0)
        assert _exact(1) == _exact(1)
        nan = float("nan")
        assert _exact(nan) == _exact(nan)  # same payload image

    def test_has_special_flags_zero_and_nan(self):
        assert not _has_special({"r1": 3, "f1": 2.5})
        assert _has_special({"r1": 0})
        assert _has_special({"f1": -0.0})
        assert _has_special({"f1": float("nan")})

    def test_strict_match_is_sign_of_zero_aware(self):
        assert _strict_match({"f": 0.0}, {"f": 0.0})
        assert not _strict_match({"f": -0.0}, {"f": 0.0})
        assert not _strict_match({"f": 0.0}, {"f": -0.0})
        assert _strict_match({"f": -0.0}, {"f": -0.0})

    def test_strict_match_rejects_int_float_confusion(self):
        assert not _strict_match({"r": 0}, {"r": 0.0})
        assert not _strict_match({"r": 0.0}, {"r": 0})
        assert _strict_match({"r": 0}, {"r": 0})

    def test_strict_match_is_nan_conservative(self):
        nan = float("nan")
        assert not _strict_match({"f": nan}, {"f": nan})

    def test_strict_match_requires_same_keys(self):
        assert not _strict_match({"a": 1}, {"a": 1, "b": 2})
        assert not _strict_match({"a": 1, "b": 2}, {"a": 1})
        assert not _strict_match({"b": 1}, {"a": 1})

    def test_control_pcs_finds_barriers_and_shared_stores(self):
        instance = build_loop_sum_instance(n_threads=2, iters=2)
        bars, shared = control_pcs(instance.program)
        golden = {
            pc
            for pc, insn in enumerate(instance.program.instructions)
            if insn.op == "bar.sync"
        }
        assert bars == golden
        for pc in shared:
            insn = instance.program.instructions[pc]
            assert insn.op == "st" and insn.srcs[0].space == "shared"

    def test_resync_reached_is_not_a_repro_error(self):
        from repro.errors import ReproError

        exc = ResyncReached(12, 4)
        assert not isinstance(exc, ReproError)
        assert exc.resync_dyn == 12
        assert exc.flip_dyn == 4
        assert exc.from_memo is False

    def test_nan_inf_heavy_kernel_stays_equivalent(self):
        """A stream full of specials (NaN/zero registers) must never
        splice unsoundly: outcomes match the reference bit-for-bit."""
        instance = build_loop_sum_instance(n_threads=4, iters=6)
        base = FaultInjector(instance, verify_golden=False, backend="interpreter")
        rs = FaultInjector(instance, verify_golden=False, resync=True)
        import numpy as np

        for site in base.space.sample(32, np.random.default_rng(3)):
            assert base.inject(site) == rs.inject(site), site
        assert math.isfinite(rs.golden_streams().capture_s)
