"""Compiled-backend injection equivalence on the real kernel registry.

The fuzz harness (``tests/gpu/test_compiled_backend.py``) covers ISA
breadth on synthetic programs; these tests pin the end-to-end contract on
registry kernels: a ``backend="compiled"`` injector produces byte-identical
campaign outcomes, profile weights and fallback counts to the interpreter —
including composed with checkpointed fast-forwarding, golden-state worker
handoff, and a process pool.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import BACKENDS, FaultInjector, all_kernels, load_instance, random_campaign
from repro.errors import SimulatorError
from repro.gpu import (
    GPUSimulator,
    LaunchGeometry,
    TraceTable,
    derive_checkpoint_interval,
    resolve_backend,
)
from repro.gpu.simulator import VECTORIZED_MIN_LANES
from repro.kernels import deeploop
from repro.parallel import ParallelCampaignRunner
from repro.telemetry import InjectionEvent, MemorySink, SimRunEvent, Telemetry

START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

N_SITES = 40
SEED = 17

#: One kernel per injector slicing regime: CTA-sliced barrier-heavy
#: (pathfinder), thread-sliced (2dconv), short-trace (k-means).
KEYS = ("pathfinder.k1", "2dconv.k1", "k-means.k1")


@pytest.fixture(scope="module", params=KEYS)
def backend_pair(request):
    key = request.param
    interp = FaultInjector(load_instance(key), backend="interpreter")
    compiled = FaultInjector(load_instance(key), backend="compiled")
    return key, interp, compiled


class TestBackendEquivalence:
    def test_campaign_outcomes_identical(self, backend_pair):
        key, interp, compiled = backend_pair
        a = random_campaign(interp, N_SITES, rng=SEED)
        b = random_campaign(compiled, N_SITES, rng=SEED)
        assert a.outcomes == b.outcomes, key
        assert a.profile.weights == b.profile.weights
        assert interp.fallback_count == compiled.fallback_count

    def test_store_address_and_register_file_identical(self, backend_pair):
        key, interp, compiled = backend_pair
        thread = max(range(len(interp.traces)), key=lambda t: len(interp.traces[t]))
        for site in interp.store_address_sites(thread)[:12]:
            spec = site.spec()
            assert interp.inject_spec(site.thread, spec) == compiled.inject_spec(
                site.thread, spec
            ), (key, site)
        for site in interp.sample_register_file_sites(12, np.random.default_rng(3)):
            spec = site.spec()
            assert interp.inject_spec(site.thread, spec) == compiled.inject_spec(
                site.thread, spec
            ), (key, site)

    def test_full_reexecution_identical(self, backend_pair):
        key, interp, compiled = backend_pair
        for site in interp.space.sample(6, np.random.default_rng(SEED)):
            assert interp.inject_full(site) == compiled.inject_full(site), (key, site)


def test_compiled_with_checkpoints_matches_full_prefix_interpreter():
    reference = random_campaign(
        FaultInjector(
            load_instance("pathfinder.k1"),
            backend="interpreter",
            checkpoint_interval=0,
        ),
        N_SITES,
        rng=SEED,
    )
    candidate = random_campaign(
        FaultInjector(
            load_instance("pathfinder.k1"), backend="compiled", checkpoint_interval=16
        ),
        N_SITES,
        rng=SEED,
    )
    assert candidate.outcomes == reference.outcomes
    assert candidate.profile.weights == reference.profile.weights


def test_compiled_two_workers_matches_serial_interpreter():
    serial = random_campaign(
        FaultInjector(load_instance("2dconv.k1"), backend="interpreter"),
        N_SITES,
        rng=SEED,
    )
    pooled = random_campaign(
        FaultInjector(load_instance("2dconv.k1"), backend="compiled"),
        N_SITES,
        rng=SEED,
        executor=ParallelCampaignRunner(2, chunk_size=8, start_method=START_METHOD),
    )
    assert pooled.outcomes == serial.outcomes
    assert pooled.profile.weights == serial.profile.weights


def test_golden_state_handoff_skips_golden_run():
    parent = FaultInjector(load_instance("2dconv.k1"), backend="interpreter")
    child = FaultInjector(
        load_instance("2dconv.k1"),
        backend="compiled",
        golden=parent.golden_state(),
    )
    assert child._golden_output == parent._golden_output
    a = random_campaign(parent, N_SITES, rng=SEED)
    b = random_campaign(child, N_SITES, rng=SEED)
    assert a.outcomes == b.outcomes


def test_unknown_backend_rejected():
    with pytest.raises(SimulatorError):
        GPUSimulator(backend="jit")
    with pytest.raises(SimulatorError):
        FaultInjector(load_instance("k-means.k1"), backend="jit")


class TestAutoBackend:
    def test_registry_kernels_resolve_to_compiled(self):
        for spec in all_kernels():
            geometry = spec.build().geometry
            assert resolve_backend("auto", geometry) == "compiled", spec.key

    def test_wide_ctas_resolve_to_vectorized(self):
        # Geometry alone decides: staging the instance runs nothing.
        paper_gemm = load_instance("gemm.k1", scale="paper").geometry
        assert resolve_backend("auto", paper_gemm) == "vectorized"
        assert resolve_backend("auto", deeploop.build().geometry) == "vectorized"

    def test_threshold_is_the_cta_width(self):
        narrow = LaunchGeometry(grid=(64, 1), block=(VECTORIZED_MIN_LANES - 1, 1))
        wide = LaunchGeometry(grid=(1, 1), block=(VECTORIZED_MIN_LANES, 1))
        assert resolve_backend("auto", narrow) == "compiled"
        assert resolve_backend("auto", wide) == "vectorized"

    def test_explicit_names_pass_through(self):
        geometry = load_instance("gemm.k1", scale="paper").geometry
        for name in BACKENDS:
            assert resolve_backend(name, geometry) == name

    def test_unknown_name_lists_auto(self):
        geometry = load_instance("k-means.k1").geometry
        with pytest.raises(SimulatorError, match="'auto'"):
            resolve_backend("jit", geometry)

    def test_default_injector_reports_a_concrete_backend(self):
        telemetry = Telemetry(sink=MemorySink())
        narrow = FaultInjector(load_instance("k-means.k1"), telemetry=telemetry)
        assert narrow.backend == "compiled"
        assert narrow._launcher.backend == "compiled"
        random_campaign(narrow, 4, rng=SEED)
        events = telemetry.sink.of_type(InjectionEvent)
        golden = [e for e in telemetry.sink.of_type(SimRunEvent) if e.kind == "golden"]
        assert events and golden
        assert {e.backend for e in events} | {e.backend for e in golden} == {
            "compiled"
        }
        wide = FaultInjector(deeploop.build(n_threads=256, block_threads=128, iters=4))
        assert wide.backend == "vectorized"

    def test_pool_ships_the_resolved_backend(self):
        telemetry = Telemetry(sink=MemorySink())
        injector = FaultInjector(load_instance("2dconv.k1"), telemetry=telemetry)
        assert injector.backend == "compiled"
        random_campaign(
            injector,
            16,
            rng=SEED,
            executor=ParallelCampaignRunner(2, chunk_size=4, start_method=START_METHOD),
        )
        events = telemetry.sink.of_type(InjectionEvent)
        assert len(events) == 16
        assert all(e.worker for e in events)  # classified in the workers
        assert {e.backend for e in events} == {"compiled"}


class TestAutoCheckpointInterval:
    def test_shallow_traces_disable_the_layer(self):
        assert derive_checkpoint_interval(TraceTable.from_lists([])) == 0
        shallow = TraceTable.from_lists([[(0, 32)] * 50] * 8)
        assert derive_checkpoint_interval(shallow) == 0

    def test_deep_traces_get_power_of_two_interval(self):
        traces = TraceTable.from_lists([[(0, 32)] * 1600] * 8)
        interval = derive_checkpoint_interval(traces)
        assert interval >= 16
        assert interval & (interval - 1) == 0  # power of two

    def test_injector_defaults(self):
        deep = FaultInjector(load_instance("pathfinder.k1"))
        assert deep.checkpoint_interval > 0
        assert deep.checkpoints is not None
        shallow = FaultInjector(load_instance("k-means.k1"))
        assert shallow.checkpoint_interval == 0
        assert shallow.checkpoints is None
        explicit = FaultInjector(load_instance("pathfinder.k1"), checkpoint_interval=0)
        assert explicit.checkpoints is None
