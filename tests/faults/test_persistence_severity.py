"""Tests for SDC-severity analysis."""

import numpy as np
import pytest

from repro import FaultInjector, Outcome, random_campaign
from repro import load_instance
from repro.faults import FaultSite, InjectionRecord, SeverityInjector

from ..helpers import build_saxpy_instance


@pytest.fixture(scope="module")
def injector():
    return FaultInjector(build_saxpy_instance())


class TestSeverity:
    def test_masked_site_has_zero_deviation(self, injector):
        severity = SeverityInjector(injector)
        # A predicate upper-flag flip is provably masked.
        trace = injector.traces[0]
        pred_index = next(i for i, (_pc, w) in enumerate(trace) if w == 4)
        record = severity.inject(FaultSite(0, pred_index, 1))
        assert record.outcome is Outcome.MASKED
        assert record.corrupted_elements == 0
        assert record.max_rel_error == 0.0

    def test_sdc_site_quantified(self, injector):
        severity = SeverityInjector(injector)
        trace = injector.traces[0]
        mad_index = max(
            i for i, (pc, w) in enumerate(trace)
            if w == 32 and injector.instance.program.instructions[pc].op == "mad"
        )
        record = severity.inject(FaultSite(0, mad_index, 23))
        assert record.outcome is Outcome.SDC
        assert record.corrupted_elements >= 1
        assert record.total_elements == 12
        assert record.max_rel_error > 0.0
        assert 0 < record.corruption_fraction <= 1.0

    def test_low_mantissa_bit_smaller_error_than_exponent_bit(self, injector):
        severity = SeverityInjector(injector)
        trace = injector.traces[0]
        mad_index = max(
            i for i, (pc, w) in enumerate(trace)
            if w == 32 and injector.instance.program.instructions[pc].op == "mad"
        )
        low = severity.inject(FaultSite(0, mad_index, 1))
        high = severity.inject(FaultSite(0, mad_index, 30))
        if low.outcome is Outcome.SDC and high.outcome is Outcome.SDC:
            assert low.max_rel_error < high.max_rel_error

    def test_severity_matches_outcome_classification(self, injector):
        """SeverityInjector must never disagree with the plain injector."""
        severity = SeverityInjector(injector)
        rng = np.random.default_rng(5)
        for site in injector.space.sample(20, rng):
            record = severity.inject(site)
            assert record.outcome == injector.inject(site)
            if record.outcome is not Outcome.SDC:
                assert record.corrupted_elements == 0

    def test_every_sdc_record_is_corrupted_including_escapes(self):
        """2dconv.k1 at seed 2 holds a write escaping its CTA (the run
        falls back to the full grid); every SDC must show corruption."""
        injector = FaultInjector(load_instance("2dconv.k1"))
        sites = random_campaign(injector, 80, rng=2).sites
        assert injector.fallback_count == 1
        severity = SeverityInjector(injector)
        records = [severity.inject(site) for site in sites]
        sdc = [r for r in records if r.outcome is Outcome.SDC]
        assert sdc
        assert all(r.corrupted_elements >= 1 for r in sdc), [
            r.site for r in sdc if not r.corrupted_elements
        ]
