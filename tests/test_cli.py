"""CLI smoke tests."""

import json

import pytest

from repro.__main__ import main
from repro.telemetry import (
    CampaignEvent,
    InjectionEvent,
    SimRunEvent,
    StageEvent,
    load_manifest,
    read_events,
)


def test_stages_command(capsys):
    assert main(["stages", "gaussian.k1", "--bits", "4"]) == 0
    out = capsys.readouterr().out
    assert "thread-wise" in out
    assert "bit-wise" in out


def test_profile_command(capsys):
    assert main(["profile", "gaussian.k125", "--bits", "4", "--loop-iters", "2"]) == 0
    out = capsys.readouterr().out
    assert "masked=" in out
    assert "x)" in out  # reduction factor


def test_baseline_command(capsys):
    assert main(["baseline", "gaussian.k1", "--margin", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "random injections" in out


def test_list_json_is_machine_readable(capsys):
    assert main(["list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert isinstance(rows, list) and rows
    first = rows[0]
    assert {"key", "suite", "kernel", "threads", "fault_sites"} <= set(first)
    assert any(row["key"] == "gemm.k1" for row in rows)


def test_metrics_command(capsys):
    assert main(["metrics", "gaussian.k125", "--runs", "5"]) == 0
    out = capsys.readouterr().out
    assert "injections.total" in out
    assert "sim.launches" in out
    assert "spans:" in out


def test_profile_with_full_instrumentation(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    manifest_path = tmp_path / "run.json"
    assert main([
        "profile", "gaussian.k125", "--bits", "4", "--loop-iters", "2",
        "--telemetry-out", str(events_path),
        "--manifest", str(manifest_path),
        "--progress",
    ]) == 0
    out = capsys.readouterr().out

    events = read_events(events_path)
    injections = [e for e in events if isinstance(e, InjectionEvent)]
    stages = [e for e in events if isinstance(e, StageEvent)]
    sim_runs = [e for e in events if isinstance(e, SimRunEvent)]
    campaigns = [e for e in events if isinstance(e, CampaignEvent)]
    assert len(stages) == 4
    assert len(injections) >= 1
    # One sliced/full run per injection plus the golden run.
    assert len(sim_runs) >= len(injections) + 1
    assert [c.phase for c in campaigns] == ["start", "end"]

    manifest = load_manifest(manifest_path)
    assert manifest.kernel == "gaussian.k125"
    assert manifest.events_path == str(events_path)
    assert manifest.config == {
        "loop_iters": 2, "bits": 4, "seed": 2018, "workers": 1,
        "checkpoint_interval": "auto",
        # The flag defaults to "auto"; the manifest records what ran.
        "backend": "compiled", "propagation": False, "audit_groups": 0,
    }
    # The recorded profile matches the percentages printed to stdout.
    pct = manifest.profile["percentages"]
    assert f"masked={pct['masked']:.2f}%" in out
    assert f"sdc={pct['sdc']:.2f}%" in out
    assert manifest.metrics["counters"]["injections.total"] == len(injections)
    assert manifest.wall_clock_s > 0


def test_auto_backend_output_matches_interpreter(tmp_path, capsys):
    args = ["profile", "gaussian.k125", "--bits", "4", "--loop-iters", "2"]
    assert main(args) == 0
    auto_out = capsys.readouterr().out
    manifest_path = tmp_path / "run.json"
    assert main(
        [*args, "--backend", "interpreter", "--manifest", str(manifest_path)]
    ) == 0
    interp_out = capsys.readouterr().out
    assert interp_out == auto_out + f"wrote manifest {manifest_path}\n"
    assert load_manifest(manifest_path).config["backend"] == "interpreter"


def test_baseline_with_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "baseline.json"
    assert main([
        "baseline", "gaussian.k1", "--margin", "0.2",
        "--manifest", str(manifest_path),
    ]) == 0
    out = capsys.readouterr().out
    manifest = load_manifest(manifest_path)
    assert manifest.command == "baseline"
    assert manifest.profile is not None
    assert "random injections" in out


def test_stages_with_telemetry_out(tmp_path, capsys):
    events_path = tmp_path / "stages.jsonl"
    assert main([
        "stages", "gaussian.k1", "--bits", "4",
        "--telemetry-out", str(events_path),
    ]) == 0
    stages = [e for e in read_events(events_path) if isinstance(e, StageEvent)]
    assert [s.stage for s in stages] == [
        "thread-wise", "instruction-wise", "loop-wise", "bit-wise",
    ]


def test_unknown_kernel_fails_loudly():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        main(["profile", "bogus.k1"])


def test_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])
