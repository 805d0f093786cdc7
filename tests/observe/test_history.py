"""Benchmark history: normalized records, snapshots, regression checks."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.observe.history import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    check_history,
    load_history,
    write_suite_snapshot,
)
from repro.telemetry.manifest import git_revision


def _seed(results_dir, values, metric="wall_s", direction="lower"):
    for value in values:
        append_history(
            results_dir, "suiteA", "gemm.k1", metric, value,
            unit="s", direction=direction, config={"bits": 4},
        )


class TestRecords:
    def test_append_writes_normalized_jsonl(self, tmp_path):
        record = append_history(
            tmp_path, "suiteA", "gemm.k1", "wall_s", 1.5,
            unit="s", direction="lower", config={"bits": 4},
        )
        assert record["schema"] == HISTORY_SCHEMA_VERSION
        assert record["git_rev"] == git_revision()  # None outside a checkout
        lines = (tmp_path / "history.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["value"] == 1.5
        assert json.loads(lines[0])["config"] == {"bits": 4}

    def test_load_round_trips_and_filters_by_suite(self, tmp_path):
        _seed(tmp_path, [1.0, 2.0])
        append_history(tmp_path, "suiteB", "mvt.k1", "wall_s", 9.0)
        assert len(load_history(tmp_path)) == 3
        assert len(load_history(tmp_path, "suiteA")) == 2
        assert load_history(tmp_path / "nowhere") == []

    def test_bad_direction_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            append_history(tmp_path, "s", "k", "m", 1.0, direction="sideways")

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({
            "schema": HISTORY_SCHEMA_VERSION + 1, "suite": "s",
            "kernel": "k", "metric": "m", "value": 1.0,
        }) + "\n")
        with pytest.raises(ReproError):
            load_history(tmp_path)


class TestSnapshots:
    def test_snapshot_keeps_latest_per_series(self, tmp_path):
        _seed(tmp_path, [1.0, 3.0, 2.0])
        snapshot = json.loads((tmp_path / "BENCH_suiteA.json").read_text())
        assert snapshot["suite"] == "suiteA"
        (entry,) = snapshot["entries"]
        assert entry["value"] == 2.0  # latest, not best
        assert entry["observations"] == 3

    def test_snapshot_rewritable_standalone(self, tmp_path):
        _seed(tmp_path, [1.0])
        (tmp_path / "BENCH_suiteA.json").unlink()
        write_suite_snapshot(tmp_path, "suiteA")
        assert (tmp_path / "BENCH_suiteA.json").exists()


class TestCheck:
    def test_empty_history_is_an_error_not_a_pass(self, tmp_path):
        with pytest.raises(ReproError):
            check_history(tmp_path)

    def test_single_observation_has_no_baseline(self, tmp_path):
        _seed(tmp_path, [1.0])
        (finding,) = check_history(tmp_path)
        assert finding["status"] == "no-baseline"
        assert finding["baseline"] is None

    def test_within_tolerance_is_ok(self, tmp_path):
        _seed(tmp_path, [1.0, 1.1, 0.9, 1.05])
        (finding,) = check_history(tmp_path, tolerance=0.25)
        assert finding["status"] == "ok"
        assert finding["baseline"] == 1.0  # median of the priors

    def test_lower_is_better_flags_slowdown(self, tmp_path):
        _seed(tmp_path, [1.0, 1.0, 1.6])
        (finding,) = check_history(tmp_path, tolerance=0.25)
        assert finding["status"] == "regression"
        assert finding["ratio"] == pytest.approx(1.6)

    def test_lower_is_better_flags_speedup_as_improved(self, tmp_path):
        _seed(tmp_path, [1.0, 1.0, 0.5])
        (finding,) = check_history(tmp_path, tolerance=0.25)
        assert finding["status"] == "improved"

    def test_higher_is_better_inverts_the_band(self, tmp_path):
        _seed(tmp_path, [4.0, 4.0, 2.0], metric="speedup", direction="higher")
        (finding,) = check_history(tmp_path, tolerance=0.25)
        assert finding["status"] == "regression"
        _seed(tmp_path, [6.0], metric="speedup", direction="higher")
        (finding,) = check_history(tmp_path, tolerance=0.25)
        assert finding["status"] == "improved"

    def test_series_check_independently(self, tmp_path):
        _seed(tmp_path, [1.0, 1.0, 5.0])  # regression in suiteA
        append_history(tmp_path, "suiteB", "mvt.k1", "wall_s", 1.0)
        statuses = {
            (f["suite"], f["status"]) for f in check_history(tmp_path)
        }
        assert statuses == {
            ("suiteA", "regression"), ("suiteB", "no-baseline"),
        }


class TestHostKeying:
    def test_records_are_stamped_with_this_host(self, tmp_path):
        import platform

        record = append_history(tmp_path, "s", "k", "m", 1.0)
        assert record["host"] == platform.node()
        explicit = append_history(tmp_path, "s", "k", "m", 1.0, host="ci-pool")
        assert explicit["host"] == "ci-pool"

    def test_other_hosts_records_are_ignored(self, tmp_path):
        # Fast history on a beefy machine must not flag this host's runs.
        for value in (1.0, 1.0):
            append_history(tmp_path, "s", "k", "wall_s", value, host="beefy")
        append_history(tmp_path, "s", "k", "wall_s", 5.0, host="beefy")
        _seed(tmp_path, [5.0])  # this host's only (slower) observation
        (finding,) = check_history(tmp_path)
        assert finding["status"] == "no-baseline"
        (finding,) = check_history(tmp_path, host="beefy")
        assert finding["status"] == "regression"

    def test_legacy_records_without_host_are_wildcards(self, tmp_path):
        path = tmp_path / "history.jsonl"
        legacy = {
            "schema": HISTORY_SCHEMA_VERSION, "suite": "s", "kernel": "k",
            "metric": "wall_s", "value": 1.0, "unit": "s",
            "direction": "lower",
        }
        path.write_text(json.dumps(legacy) + "\n" + json.dumps(legacy) + "\n")
        # A new host-stamped run joins the legacy series as its baseline.
        append_history(tmp_path, "s", "k", "wall_s", 1.05)
        (finding,) = check_history(tmp_path, tolerance=0.25)
        assert finding["status"] == "ok"
        assert finding["observations"] == 3

    def test_unknown_host_fails_loudly_with_known_hosts(self, tmp_path):
        append_history(tmp_path, "s", "k", "m", 1.0, host="runner-a")
        append_history(tmp_path, "s", "k", "m", 1.0, host="runner-b")
        with pytest.raises(ReproError, match="runner-a, runner-b"):
            check_history(tmp_path, host="laptop")

    def test_host_flag_on_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        append_history(tmp_path, "s", "k", "wall_s", 1.0, host="ci-pool")
        append_history(tmp_path, "s", "k", "wall_s", 1.0, host="ci-pool")
        assert main([
            "bench-check", "--results-dir", str(tmp_path),
            "--host", "ci-pool",
        ]) == 0
        capsys.readouterr()
        assert main([
            "bench-check", "--results-dir", str(tmp_path),
            "--host", "ci-pool", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["status"] == "ok"
        with pytest.raises(ReproError):
            main([
                "bench-check", "--results-dir", str(tmp_path),
                "--host", "nowhere",
            ])


class TestBenchCheckCli:
    def test_exit_codes_and_advisory(self, tmp_path, capsys):
        from repro.__main__ import main

        _seed(tmp_path, [1.0, 1.0, 1.0, 5.0])
        assert main(["bench-check", "--results-dir", str(tmp_path)]) == 1
        assert "regression" in capsys.readouterr().out
        assert main(
            ["bench-check", "--results-dir", str(tmp_path), "--advisory"]
        ) == 0
        assert main(
            ["bench-check", "--results-dir", str(tmp_path),
             "--tolerance", "10.0"]
        ) == 0

    def test_thin_baseline_regression_is_advisory(self, tmp_path, capsys):
        """A regression backed by fewer than MIN_BLOCKING_SAMPLES prior
        observations reports but does not gate."""
        from repro.__main__ import main

        _seed(tmp_path, [1.0, 1.0, 5.0])  # two baseline samples only
        assert main(["bench-check", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "advisory" in out
        assert "WARNING" in out
        assert main(
            ["bench-check", "--results-dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 1
        assert payload["blocking"] == 0
        (finding,) = payload["findings"]
        assert finding["status"] == "regression"
        assert finding["advisory"] is True
        assert finding["baseline_samples"] == 2

    def test_json_output(self, tmp_path, capsys):
        from repro.__main__ import main

        _seed(tmp_path, [1.0, 1.0])
        assert main(
            ["bench-check", "--results-dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 0
        assert payload["findings"][0]["metric"] == "wall_s"

    def test_committed_history_passes(self, capsys):
        """The repo ships real history under benchmarks/results; the
        advisory CI job must be able to run against it as committed."""
        from repro.__main__ import main

        assert main(["bench-check", "--advisory"]) == 0
