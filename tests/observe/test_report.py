"""Campaign report engine: loading, section math, rendering, golden file."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.observe import (
    build_report,
    load_campaign,
    render_json,
    render_markdown,
    render_text,
)
from repro import FaultInjector, ProgressivePruner, load_instance
from repro.telemetry import InjectionEvent, JsonlSink, Telemetry

FIXTURES = Path(__file__).parent / "fixtures"
EVENTS = FIXTURES / "campaign.jsonl"
MANIFEST = FIXTURES / "run.json"
GOLDEN = FIXTURES / "campaign.report.txt"


@pytest.fixture(scope="module")
def campaign():
    return load_campaign([EVENTS, MANIFEST])


@pytest.fixture(scope="module")
def report(campaign):
    return build_report(campaign)


class TestLoader:
    def test_files_are_sniffed_and_bucketed(self, campaign):
        assert len(campaign.injections) == 12
        assert len(campaign.stages) == 4
        assert len(campaign.sim_runs) == 1
        assert [c.phase for c in campaign.campaigns] == ["start", "end"]
        assert campaign.kernel == "pathfinder.k1"

    def test_manifest_metrics_are_merged(self, campaign):
        counters = campaign.merged_metrics()["counters"]
        assert counters["checkpoint.cta_hits"] == 7
        assert counters["compiled.chain_hits"] == 380

    def test_missing_file_fails_loudly(self):
        with pytest.raises(ReproError):
            load_campaign(["/nonexistent/evts.jsonl"])

    def test_empty_input_fails_loudly(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        JsonlSink(empty).close()  # header only, zero events
        with pytest.raises(ReproError):
            load_campaign([empty])


class TestSections:
    def test_outcome_rows_have_wilson_cis(self, report):
        rows = {r["outcome"]: r for r in report["outcomes"]}
        assert rows["masked"]["count"] == 6
        assert rows["masked"]["share"] == pytest.approx(0.5)
        assert 0.0 < rows["masked"]["ci_low"] < 0.5 < rows["masked"]["ci_high"] < 1.0
        assert rows["hang"]["count"] == 1

    def test_phase_shares_sum_to_attribution(self, report):
        phases = report["phases"]
        assert {r["phase"] for r in phases["rows"]} == {
            "checkpoint_restore", "prefix_replay", "suffix_exec",
            "heap_repair", "classify",
        }
        assert phases["attributed_s"] == pytest.approx(
            sum(r["total_s"] for r in phases["rows"])
        )
        assert phases["unattributed_s"] == pytest.approx(
            max(0.0, phases["duration_total_s"] - phases["attributed_s"])
        )

    def test_tertiles_split_by_depth_and_slow_down_with_it(self, report):
        rows = report["tertiles"]["rows"]
        assert [r["tertile"] for r in rows] == ["shallow", "middle", "deep"]
        assert sum(r["count"] for r in rows) == 12
        means = [r["mean_s"] for r in rows]
        assert means == sorted(means)  # fixture: deeper faults run longer

    def test_checkpoint_and_compiled_cache_rates(self, report):
        checkpoint = report["checkpoint"]
        assert checkpoint["interval"] == 16
        assert checkpoint["hit_rate"] == pytest.approx(7 / 12)
        assert checkpoint["skipped_instructions"] == 5200
        compiled = report["compiled"]
        assert compiled["hit_rate"] == pytest.approx(380 / 400)

    def test_compiled_section_needs_chain_counters(self):
        """Only logs of releases that bound per-thread chains carry them."""
        from repro.observe.loader import CampaignLog

        event = InjectionEvent(
            1.0, thread=0, dyn_index=0, bit=0, model="value",
            outcome="masked", fast_path=True, duration_s=0.01, backend="compiled",
        )
        report = build_report(CampaignLog(events=[event], injections=[event]))
        assert report["compiled"] is None
        assert "chain-cache" not in render_text(report)

    def test_worker_imbalance_from_busy_counters(self, report):
        workers = report["workers"]
        assert [r["worker"] for r in workers["rows"]] == ["w1", "w2"]
        assert workers["imbalance"] == pytest.approx(0.30 / 0.245)
        assert workers["queue_wait"]["count"] == 2

    def test_funnel_factors(self, report):
        funnel = report["funnel"]
        assert [f["stage"] for f in funnel] == [
            "thread-wise", "instruction-wise", "loop-wise", "bit-wise",
        ]
        assert funnel[0]["factor"] == pytest.approx(8.0)

    def test_stragglers_exceed_p99(self):
        # 120 fast injections and one 10x outlier: the straggler section
        # must single it out with its phase split attached.
        events = [
            InjectionEvent(
                float(i), thread=0, dyn_index=i, bit=0, model="value",
                outcome="masked", fast_path=True,
                duration_s=0.1 if i == 60 else 0.01,
                phases={"suffix_exec": 0.09 if i == 60 else 0.009},
            )
            for i in range(121)
        ]
        from repro.observe.loader import CampaignLog

        log = CampaignLog(events=list(events), injections=list(events))
        section = build_report(log)["stragglers"]
        assert len(section["rows"]) == 1
        assert section["rows"][0]["dyn_index"] == 60
        assert section["rows"][0]["phases"]["suffix_exec"] == 0.09

    def test_sections_absent_on_minimal_log(self):
        from repro.observe.loader import CampaignLog

        event = InjectionEvent(
            1.0, thread=0, dyn_index=0, bit=0, model="value",
            outcome="masked", fast_path=True, duration_s=0.01,
        )
        log = CampaignLog(events=[event], injections=[event])
        report = build_report(log)
        assert report["phases"] is None
        assert report["checkpoint"] is None
        assert report["compiled"] is None
        assert report["workers"] is None
        assert report["funnel"] is None


class TestRendering:
    def test_text_matches_committed_golden(self, report):
        assert render_text(report) == GOLDEN.read_text()

    def test_json_round_trips(self, report):
        assert json.loads(render_json(report))["meta"]["n_injections"] == 12

    def test_markdown_has_all_section_headings(self, report):
        text = render_markdown(report)
        for heading in ("# Campaign report", "## Outcomes", "## Phases",
                        "## Checkpoints", "## Compiled backend",
                        "## Pruning funnel"):
            assert heading in text


class TestReportCli:
    def test_campaign_mode_renders_golden(self, capsys):
        from repro.__main__ import main

        assert main(["report", str(EVENTS), str(MANIFEST)]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_format_and_out_flags(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "report.md"
        assert main([
            "report", str(EVENTS), "--manifest", str(MANIFEST),
            "--format", "markdown", "--out", str(out),
        ]) == 0
        assert out.read_text().startswith("# Campaign report — pathfinder.k1")

    def test_mixed_missing_files_fail_loudly(self):
        from repro.__main__ import main

        with pytest.raises(ReproError):
            main(["report", str(EVENTS), "/nonexistent.jsonl"])

    def test_manifest_only_report_reads_the_recorded_interval(
        self, tmp_path, capsys
    ):
        """No injection events to read the interval from: the report
        takes the one the profile recorded in its manifest."""
        from repro.__main__ import main

        manifest = tmp_path / "m.json"
        assert main([
            "profile", "pathfinder.k1", "--loop-iters", "2", "--bits", "2",
            "--manifest", str(manifest),
        ]) == 0
        assert json.loads(manifest.read_text())["config"]["checkpoint_interval"] == 16
        capsys.readouterr()
        assert main(["report", str(manifest)]) == 0
        assert "checkpoints (interval 16):" in capsys.readouterr().out

    def test_manifest_only_report_shows_the_recorded_profile(
        self, tmp_path, capsys
    ):
        """Without injection events the report renders the profile and the
        injection total the manifest recorded."""
        from repro.__main__ import main

        manifest = tmp_path / "m.json"
        assert main([
            "profile", "pathfinder.k1", "--loop-iters", "2", "--bits", "2",
            "--manifest", str(manifest),
        ]) == 0
        recorded = json.loads(manifest.read_text())
        capsys.readouterr()
        assert main(["report", str(manifest), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["meta"]["n_injections"] == 89
        assert report["meta"]["n_injections"] == (
            recorded["metrics"]["counters"]["injections.total"]
        )
        shares = {row["outcome"]: 100 * row["share"] for row in report["outcomes"]}
        assert shares == pytest.approx(recorded["profile"]["percentages"], abs=1e-9)
        assert all(row["count"] is None for row in report["outcomes"])
        assert main(["report", str(manifest)]) == 0
        text = capsys.readouterr().out
        assert "injections=89" in text
        assert "outcomes (weighted):" in text


@pytest.mark.parametrize("kernel", ["gaussian.k125", "mvt.k1", "lud.k46"])
def test_pruned_report_prints_the_profile(kernel, tmp_path):
    """The report folds each injection's weight and the start record's
    static weight: its shares are the profile ``estimate_profile`` built."""
    path = tmp_path / "events.jsonl"
    telemetry = Telemetry(sink=JsonlSink(path))
    injector = FaultInjector(load_instance(kernel), telemetry=telemetry)
    space = ProgressivePruner(num_loop_iters=4, n_bits=4, seed=2018).prune(injector)
    profile = space.estimate_profile(injector)
    telemetry.close()
    report = build_report(load_campaign([path]))
    shares = {row["outcome"]: 100 * row["share"] for row in report["outcomes"]}
    pct = profile.as_percentages()
    assert shares["masked"] == pytest.approx(pct["masked"], abs=1e-9)
    assert shares["sdc"] == pytest.approx(pct["sdc"], abs=1e-9)
    assert shares["crash"] + shares["hang"] == pytest.approx(pct["other"], abs=1e-9)
    assert report["meta"]["n_injections"] == space.n_injections
    # A weighted extrapolation is not a binomial sample: no Wilson CI.
    assert all(row["ci_low"] is None for row in report["outcomes"])
    text = render_text(report)
    assert "outcomes (weighted):" in text and "Wilson" not in text
