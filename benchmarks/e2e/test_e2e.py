"""Self-test of the end-to-end benchmark on a gaussian.k125-only workload.

    python -m pytest benchmarks/e2e
"""

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import ROOT, harness

GAUSSIAN = harness.Workload("gaussian-k125", "self-test", ("gaussian.k125",))


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced():
    return harness.run_workload(GAUSSIAN, seed=2018, seconds=0, trace=True)


def test_every_metric_is_emitted_with_its_unit(benchmark_json, traced):
    untraced = harness.run_workload(GAUSSIAN, seed=7, seconds=0)
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        line = json.loads(result.result_line())
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        emitted = {name: m["unit"] for name, m in line["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in benchmark_json[section]}


def test_benchmark_json_matches_the_harness(benchmark_json):
    assert benchmark_json["run_seconds"] == harness.RUN_SECONDS
    assert [w["name"] for w in benchmark_json["workloads"]] == list(
        harness.WORKLOADS_BY_NAME
    )
    for workload in benchmark_json["workloads"]:
        assert workload["why"] == harness.WORKLOADS_BY_NAME[workload["name"]].why
    for metric in benchmark_json["end_to_end"]:
        assert (metric["unit"], metric["better"]) == harness.END_TO_END[metric["name"]]


def test_corrupted_expected_profile_fails_every_pipeline():
    expected = copy.deepcopy(harness.load_expected())
    entry = expected[harness.config_key(GAUSSIAN, "gaussian.k125")]
    entry["profile"]["weights"]["masked"] += 1.0
    result = harness.run_workload(GAUSSIAN, seed=2018, seconds=0, expected=expected)
    assert result.attempted >= 1
    assert result.failed / result.attempted == 1
    assert result.exit_code != 0
    assert json.loads(result.result_line())["correct"] is False


def test_traced_and_untraced_profiles_are_identical(traced):
    assert traced.failed == 0
    untraced = {k.kernel: k.profile for k in traced.passes[0].kernels}
    assert untraced == {k.kernel: k.profile for k in traced.traced.kernels}
    rows = harness.time_rows(traced.traced)
    assert [r["kernel"] for r in rows] == ["gaussian.k125", "(workload)"]
    assert "where the time went" in harness.render_result(traced)


def _figure_rows(name: str) -> dict[str, list[float]]:
    path = ROOT / "benchmarks" / "results" / name
    if not path.exists():
        pytest.skip(f"{name} is not in this checkout")
    rows = {}
    for line in path.read_text().splitlines():
        match = re.match(r"(\S+\.k\d+)\s*\|?\s+(.*)", line)
        if match:
            rows[match[1]] = [float(x) for x in re.findall(r"\d+\.?\d*", match[2])]
    return rows


def test_expected_agrees_with_pinned_figures():
    expected = harness.load_expected()
    fig9 = _figure_rows("fig9_accuracy.txt")
    fig10 = _figure_rows("fig10_reduction.txt")
    registry = harness.WORKLOADS_BY_NAME["registry-pruned"]
    for kernel in (*registry.kernels, "hotspot.k1"):
        entry = expected[harness.config_key(registry, kernel)]
        weights = entry["profile"]["weights"]
        total = sum(weights.values())
        pct = [round(100 * weights[c] / total, 2) for c in ("masked", "sdc", "other")]
        assert pct == fig9[kernel][:3], kernel
        funnel = [entry["funnel"][s] for s in ("exhaustive", *harness.STAGES)]
        assert funnel == fig10[kernel][:5], kernel
        assert entry["injections"] == entry["funnel"]["bit-wise"]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "registry-pruned",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
