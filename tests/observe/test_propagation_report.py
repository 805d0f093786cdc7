"""Propagation report sections: aggregation math, rendering, golden file.

The fixture was produced by a real traced campaign on the 3-CTA saxpy
helper kernel (threads 0 and 7, nine bit/site combinations each) followed
by a coherence audit with one seeded disagreement, then re-stamped with
deterministic timestamps and durations.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.observe import (
    build_propagation_section,
    build_report,
    load_campaign,
    render_json,
    render_markdown,
    render_text,
)

FIXTURES = Path(__file__).parent / "fixtures"
EVENTS = FIXTURES / "propagation.jsonl"
GOLDEN = FIXTURES / "propagation.report.txt"


@pytest.fixture(scope="module")
def campaign():
    return load_campaign([EVENTS])


@pytest.fixture(scope="module")
def report(campaign):
    return build_report(campaign, propagation=True)


class TestSection:
    def test_absent_unless_requested(self, campaign):
        assert build_report(campaign)["propagation"] is None

    def test_pc_map_covers_every_traced_injection(self, report):
        section = report["propagation"]
        assert section["n_traced"] == 30
        pc_map = section["pc_map"]
        assert pc_map["n_pcs"] == len(pc_map["rows"]) == 5
        assert sum(r["n"] for r in pc_map["rows"]) == 30
        # Sorted most-vulnerable first.
        sdc_rates = [r["sdc_rate"] for r in pc_map["rows"]]
        assert sdc_rates == sorted(sdc_rates, reverse=True)
        for row in pc_map["rows"]:
            assert 0.0 <= row["sdc_rate"] <= 1.0
            assert 0.0 <= row["diverged_rate"] <= 1.0
            assert 0.0 <= row["escaped_rate"] <= 1.0
            assert sum(row["outcomes"].values()) == row["n"]

    def test_masking_buckets_are_log2(self, report):
        masking = report["propagation"]["masking"]
        assert set(masking) == {"iov"}
        row = masking["iov"]
        assert row["n"] == 30
        assert row["unmasked"] + sum(row["buckets"].values()) == 30
        assert all("-" in b or b.isdigit() for b in row["buckets"])

    def test_sdc_signatures_sum_to_sdc_count(self, report):
        signatures = report["propagation"]["signatures"]
        assert signatures["n_sdc"] == sum(r["count"] for r in signatures["rows"])
        counts = [r["count"] for r in signatures["rows"]]
        assert counts == sorted(counts, reverse=True)
        for row in signatures["rows"]:
            assert row["share"] == pytest.approx(row["count"] / signatures["n_sdc"])

    def test_coherence_reports_the_seeded_disagreement(self, report):
        coherence = report["propagation"]["coherence"]
        assert coherence["n_groups"] == 1
        group = coherence["rows"][0]
        assert group["group"] == "g0"
        assert group["members"] == 3
        assert group["probes"] == 12
        assert 0.0 < group["agreement"] < 1.0
        assert coherence["overall"] == pytest.approx(group["agreement"])
        assert len(group["disagreements"]) == 1
        site = group["disagreements"][0]
        assert len(site["signatures"]) == 2

    def test_campaign_sections_count_no_audit_probes(self, report):
        """The 12 audit probes feed only the propagation section; the
        header and the campaign sections count the 18 injections the
        outcome table counts."""
        meta = report["meta"]
        assert (meta["n_injections"], meta["n_probes"]) == (18, 12)
        assert sum(row["count"] for row in report["outcomes"]) == 18
        assert report["latency"]["count"] == 18
        assert sum(row["count"] for row in report["tertiles"]["rows"]) == 18
        assert report["propagation"]["n_traced"] == 30

    def test_section_is_none_without_traces(self):
        from repro.observe.loader import CampaignLog
        from repro.telemetry import InjectionEvent

        event = InjectionEvent(
            1.0, thread=0, dyn_index=0, bit=0, model="iov",
            outcome="masked", fast_path=True, duration_s=0.01,
        )
        log = CampaignLog(events=[event], injections=[event])
        assert build_propagation_section(log) is None
        assert build_report(log, propagation=True)["propagation"] is None


class TestRendering:
    def test_text_matches_committed_golden(self, report):
        assert render_text(report) == GOLDEN.read_text()

    def test_json_round_trips(self, report):
        payload = json.loads(render_json(report))
        assert payload["propagation"]["n_traced"] == 30

    def test_markdown_has_propagation_headings(self, report):
        text = render_markdown(report)
        for heading in ("## PC vulnerability map",
                        "## Masking depth by fault model",
                        "## SDC signatures",
                        "## Pruning-group coherence"):
            assert heading in text


class TestReportCli:
    def test_propagation_flag_renders_golden(self, capsys):
        from repro.__main__ import main

        assert main(["report", str(EVENTS), "--propagation"]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_without_flag_sections_are_omitted(self, capsys):
        from repro.__main__ import main

        assert main(["report", str(EVENTS)]) == 0
        out = capsys.readouterr().out
        assert "PC vulnerability map" not in out
        assert "coherence" not in out
