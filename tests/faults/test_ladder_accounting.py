"""Pins the injection ladder's accounting on fixed-seed campaigns.

The ladder (thread slice -> CTA slice -> full run, see
``repro.faults.injector``) must classify and account for every injection
identically however its code is arranged.  Each case is one
``random_campaign`` with a fixed seed on the compiled backend; the pinned
record (``data/ladder_accounting.json``) holds, per case:

* the outcome of every site and the injector's ``fallback_count``;
* the ``injections.*``, ``checkpoint.*`` and ``outcome.*`` counters;
* per :class:`InjectionEvent`: ``fast_path``, suffix and effective
  instruction counts, and the names of its phases in the order they
  were first entered;
* the kind of every :class:`SimRunEvent`, golden run included.

The record was produced by :func:`_account` and is re-recorded only for
an intended change of ladder behaviour.  The 2-worker arm runs under the
start method named by ``REPRO_TEST_START_METHOD`` (CI runs fork and
spawn) and checks what a pool preserves: outcomes, ``fallback_count``,
``injections.*`` and ``outcome.*``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import FaultInjector, load_instance, random_campaign
from repro.parallel import ParallelCampaignRunner
from repro.telemetry import InjectionEvent, MemorySink, SimRunEvent, Telemetry

#: CI exercises both fork and spawn via this env var.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

PINNED = json.loads(
    (Path(__file__).parent / "data" / "ladder_accounting.json").read_text()
)

#: name -> (kernel, checkpoint interval, seed, sites)
CASES = {
    "2dconv-auto": ("2dconv.k1", "auto", 2, 80),
    "2dconv-interval1": ("2dconv.k1", 1, 2, 80),
    "pathfinder-interval16": ("pathfinder.k1", 16, 5, 40),
    "gaussian.k126": ("gaussian.k126", "auto", 3, 60),
    "lud.k46": ("lud.k46", "auto", 4, 40),
}

_PREFIXES = ("injections.", "checkpoint.", "outcome.")


def _account(case: str, workers: int = 1) -> dict:
    """Run one case's campaign and summarise its ladder accounting."""
    key, interval, seed, n_sites = CASES[case]
    telemetry = Telemetry(sink=MemorySink())
    injector = FaultInjector(
        load_instance(key),
        telemetry=telemetry,
        backend="compiled",
        checkpoint_interval=interval,
    )
    executor = (
        ParallelCampaignRunner(workers, chunk_size=8, start_method=START_METHOD)
        if workers > 1
        else None
    )
    result = random_campaign(injector, n_sites, rng=seed, executor=executor)
    counters = telemetry.metrics.snapshot()["counters"]
    return {
        "outcomes": [outcome.value for outcome in result.outcomes],
        "fallback_count": injector.fallback_count,
        "counters": {
            name: value
            for name, value in sorted(counters.items())
            if name.startswith(_PREFIXES)
        },
        "events": [
            [
                event.fast_path,
                event.suffix_instructions,
                event.effective_instructions,
                list(event.phases or ()),
            ]
            for event in telemetry.sink.of_type(InjectionEvent)
        ],
        "sim_runs": [event.kind for event in telemetry.sink.of_type(SimRunEvent)],
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_serial_accounting_pinned(case):
    assert _account(case) == PINNED[case]


def test_anchor_values():
    """The headline numbers of the pinned record, readable at a glance."""
    conv = PINNED["2dconv-auto"]["counters"]
    assert conv["injections.thread_sliced"] == 77
    assert conv["injections.thread_sliced_fallback"] == 3
    assert conv["injections.cta_sliced"] == 3
    assert conv["injections.full_rerun"] == 1
    assert PINNED["2dconv-auto"]["fallback_count"] == 1
    path = PINNED["pathfinder-interval16"]["counters"]
    assert path["injections.cta_sliced"] == 40
    assert (path["checkpoint.cta_hits"], path["checkpoint.cta_misses"]) == (25, 15)
    assert path["checkpoint.skipped_instructions"] == 92_628
    assert path["injections.full_rerun"] == 1
    assert PINNED["2dconv-interval1"]["counters"]["checkpoint.thread_hits"] > 0


@pytest.mark.parametrize("case", ["2dconv-auto", "pathfinder-interval16"])
def test_two_workers(case):
    got = _account(case, workers=2)
    want = PINNED[case]
    assert got["outcomes"] == want["outcomes"]
    assert got["fallback_count"] == want["fallback_count"]
    pooled = ("injections.", "outcome.")
    assert {k: v for k, v in got["counters"].items() if k.startswith(pooled)} == {
        k: v for k, v in want["counters"].items() if k.startswith(pooled)
    }
