"""Resilience-report rendering tests."""

import pytest

from repro import FaultInjector, ProgressivePruner, load_instance
from repro.analysis import instruction_vulnerabilities, render_report
from repro.telemetry import InjectionEvent, Telemetry

from ..helpers import build_saxpy_instance


@pytest.fixture(scope="module")
def bundle():
    telemetry = Telemetry()
    injector = FaultInjector(build_saxpy_instance(), telemetry=telemetry)
    space = ProgressivePruner(n_bits=4).prune(injector)
    profile = space.estimate_profile(injector)
    events = telemetry.sink.of_type(InjectionEvent)
    return injector, space, profile, events


class TestVulnerabilityRanking:
    def test_rows_sorted_by_impact(self, bundle):
        injector, _, _, events = bundle
        rows = instruction_vulnerabilities(injector, events)
        impacts = [r.impact for r in rows]
        assert impacts == sorted(impacts, reverse=True)

    def test_weights_cover_pruned_space(self, bundle):
        injector, space, _, events = bundle
        rows = instruction_vulnerabilities(injector, events)
        total = sum(r.weighted_sites for r in rows)
        assert total == pytest.approx(sum(ws.weight for ws in space.sites))

    def test_fractions_in_range(self, bundle):
        injector, _, _, events = bundle
        for row in instruction_vulnerabilities(injector, events):
            assert 0.0 <= row.unsafe_fraction <= 1.0


class TestRenderReport:
    def test_contains_all_sections(self, bundle):
        text = render_report(*bundle)
        for heading in ("# Resilience report", "## Pruning",
                        "## Estimated error-resilience profile",
                        "## Hardening priorities"):
            assert heading in text

    def test_profile_numbers_rendered(self, bundle):
        _, _, profile, _ = bundle
        text = render_report(*bundle)
        assert f"{profile.pct_masked:.2f}%" in text

    def test_reduction_and_stage_rows(self, bundle):
        _, space, _, _ = bundle
        text = render_report(*bundle)
        for stage in space.stages:
            assert stage.name in text

    def test_cli_report(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "r.md"
        assert main(["report", "gaussian.k125", "--bits", "4",
                     "--loop-iters", "2", "--out", str(out)]) == 0
        assert "# Resilience report" in out.read_text()

    def test_cli_report_injects_the_pruned_space_once(self, tmp_path, monkeypatch):
        """The hardening ranking folds the campaign's own events instead of
        injecting every pruned site a second time."""
        from repro.__main__ import main

        calls = []
        inject = FaultInjector.inject

        def counting(self, site, *args, **kwargs):
            calls.append(site)
            return inject(self, site, *args, **kwargs)

        monkeypatch.setattr(FaultInjector, "inject", counting)
        assert main(["report", "gaussian.k125", "--bits", "4", "--loop-iters", "2",
                     "--out", str(tmp_path / "r.md")]) == 0
        monkeypatch.undo()
        space = ProgressivePruner(num_loop_iters=2, n_bits=4).prune(
            FaultInjector(load_instance("gaussian.k125"))
        )
        assert len(calls) == space.n_injections
