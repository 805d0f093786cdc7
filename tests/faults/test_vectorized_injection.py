"""Vectorized-backend injection equivalence on the real kernel registry.

The fuzz harness (``tests/gpu/test_compiled_backend.py``) covers ISA
breadth on synthetic programs; these tests pin the end-to-end contract on
registry kernels: a ``backend="vectorized"`` injector produces
byte-identical campaign outcomes, profile weights and fallback counts to
the interpreter — including composed with checkpointed fast-forwarding,
golden-state worker handoff, and a process pool.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import FaultInjector, load_instance, random_campaign
from repro.errors import SimulatorError
from repro.gpu import GPUSimulator
from repro.gpu.checkpoint import CheckpointPlan
from repro.parallel import ParallelCampaignRunner
from repro.telemetry import MemorySink, SimRunEvent, Telemetry

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
    vectorized = FaultInjector(load_instance(key), backend="vectorized")
    return key, interp, vectorized


class TestBackendEquivalence:
    def test_campaign_outcomes_identical(self, backend_pair):
        key, interp, vectorized = backend_pair
        a = random_campaign(interp, N_SITES, rng=SEED)
        b = random_campaign(vectorized, N_SITES, rng=SEED)
        assert a.outcomes == b.outcomes, key
        assert a.profile.weights == b.profile.weights
        assert interp.fallback_count == vectorized.fallback_count

    def test_store_address_and_register_file_identical(self, backend_pair):
        key, interp, vectorized = backend_pair
        thread = max(range(len(interp.traces)), key=lambda t: len(interp.traces[t]))
        for site in interp.store_address_sites(thread)[:12]:
            spec = site.spec()
            assert interp.inject_spec(site.thread, spec) == vectorized.inject_spec(
                site.thread, spec
            ), (key, site)
        for site in interp.sample_register_file_sites(12, np.random.default_rng(3)):
            spec = site.spec()
            assert interp.inject_spec(site.thread, spec) == vectorized.inject_spec(
                site.thread, spec
            ), (key, site)

    def test_full_reexecution_identical(self, backend_pair):
        key, interp, vectorized = backend_pair
        for site in interp.space.sample(6, np.random.default_rng(SEED)):
            assert interp.inject_full(site) == vectorized.inject_full(site), (
                key,
                site,
            )


def test_vectorized_with_checkpoints_matches_full_prefix_interpreter():
    reference = random_campaign(
        FaultInjector(
            load_instance("pathfinder.k1"),
            backend="interpreter",
            checkpoint_interval=0,
        ),
        N_SITES,
        rng=SEED,
    )
    telemetry = Telemetry(sink=MemorySink())
    candidate = random_campaign(
        FaultInjector(
            load_instance("pathfinder.k1"),
            backend="vectorized",
            checkpoint_interval=16,
            telemetry=telemetry,
        ),
        N_SITES,
        rng=SEED,
    )
    assert candidate.outcomes == reference.outcomes
    assert candidate.profile.weights == reference.profile.weights
    # Vectorized CTA slices take no checkpoint plan: no CTA lookup, and
    # nothing skipped, on a kernel whose every injection is CTA-sliced.
    counters = telemetry.metrics.snapshot()["counters"]
    assert not [name for name in counters if name.startswith("checkpoint.cta_")]
    assert counters.get("checkpoint.skipped_instructions", 0) == 0
    launches = telemetry.sink.of_type(SimRunEvent)
    assert launches and all(e.skipped_instructions == 0 for e in launches)

    instance = load_instance("pathfinder.k1")
    with pytest.raises(SimulatorError):
        GPUSimulator(backend="vectorized").launch(
            instance.program,
            instance.geometry,
            instance.param_bytes,
            memory=instance.golden_memory(),
            only_cta=0,
            checkpoint=CheckpointPlan(interval=16),
        )


#: One kernel per launch shape: barrier-heavy CTA slices (pathfinder,
#: lud), thread slices (2dconv), and CTA slices of a kernel without shared
#: memory whose golden reads touch its golden writes (gaussian.k2).
PARITY_KEYS = ("pathfinder.k1", "gaussian.k2", "lud.k46", "2dconv.k1")


def _launch_events(key: str, backend: str) -> list[SimRunEvent]:
    """Every launch of a 30-site campaign plus two full re-executions."""
    telemetry = Telemetry(sink=MemorySink())
    injector = FaultInjector(
        load_instance(key),
        backend=backend,
        checkpoint_interval=0,
        telemetry=telemetry,
    )
    random_campaign(injector, 30, rng=SEED)
    for site in injector.space.sample(2, np.random.default_rng(SEED)):
        injector.inject_full(site)
    return telemetry.sink.of_type(SimRunEvent)


@pytest.mark.parametrize("key", PARITY_KEYS)
def test_compiled_and_vectorized_launches_match(key):
    """The one launch loop reports the same launches on both backends.

    ``instructions`` is compared only for launches that completed: after
    an abort, lockstep lanes have advanced past the point where the
    sequential schedule stops.
    """
    compiled = _launch_events(key, "compiled")
    vectorized = _launch_events(key, "vectorized")
    kinds = {e.kind for e in compiled}
    assert {"golden", "full"} <= kinds and kinds & {"sliced", "thread-sliced"}
    assert len(compiled) == len(vectorized)
    for a, b in zip(compiled, vectorized):
        shape = ("kind", "n_ctas", "barrier_rounds", "hang", "memory_fault")
        assert [getattr(a, f) for f in shape] == [getattr(b, f) for f in shape]
        assert a.skipped_instructions == b.skipped_instructions == 0
        if not (a.hang or a.memory_fault):
            assert a.instructions == b.instructions, (key, a.kind)


def test_vectorized_two_workers_matches_serial_interpreter():
    """Pooled vectorized campaigns equal the serial interpreter, and the
    workers' injectors thread-slice from the golden state they were
    handed: every injection tries the thread slice first — on gemm.k1
    too, whose threads read their own output."""
    for key in ("2dconv.k1", "gemm.k1"):
        serial = random_campaign(
            FaultInjector(load_instance(key), backend="interpreter"),
            N_SITES,
            rng=SEED,
        )
        telemetry = Telemetry()
        pooled = random_campaign(
            FaultInjector(load_instance(key), backend="vectorized", telemetry=telemetry),
            N_SITES,
            rng=SEED,
            executor=ParallelCampaignRunner(2, chunk_size=8, start_method=START_METHOD),
        )
        assert pooled.outcomes == serial.outcomes, key
        assert pooled.profile.weights == serial.profile.weights
        metrics = telemetry.metrics
        sliced = metrics.counter_value("injections.thread_sliced")
        demoted = metrics.counter_value("injections.thread_sliced_fallback")
        assert sliced > 0, key
        assert sliced + demoted == N_SITES, key


def test_golden_state_handoff_skips_golden_run():
    parent = FaultInjector(load_instance("2dconv.k1"), backend="interpreter")
    child = FaultInjector(
        load_instance("2dconv.k1"),
        backend="vectorized",
        golden=parent.golden_state(),
    )
    assert child._golden_output == parent._golden_output
    a = random_campaign(parent, N_SITES, rng=SEED)
    b = random_campaign(child, N_SITES, rng=SEED)
    assert a.outcomes == b.outcomes


def test_vectorized_golden_traces_pickle_roundtrip():
    """The trace table and read-log arrays survive pickling (spawn-pool
    golden-state handoff)."""
    import pickle

    inj = FaultInjector(load_instance("k-means.k1"), backend="vectorized")
    state = pickle.loads(pickle.dumps(inj.golden_state()))
    child = FaultInjector(
        load_instance("k-means.k1"),
        backend="vectorized",
        golden=state,
    )
    a = random_campaign(inj, 12, rng=SEED)
    b = random_campaign(child, 12, rng=SEED)
    assert a.outcomes == b.outcomes
