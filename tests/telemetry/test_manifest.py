"""Run-manifest creation, environment capture and round-trip."""

import json

import pytest

from repro.errors import ReproError
from repro.faults import ResilienceProfile
from repro.faults.outcome import Outcome
from repro.telemetry import (
    RunManifest,
    Telemetry,
    git_revision,
    library_versions,
    load_manifest,
)


class TestEnvironmentCapture:
    def test_library_versions_keys(self):
        versions = library_versions()
        assert set(versions) >= {"python", "numpy", "repro"}
        assert all(isinstance(v, str) and v for v in versions.values())

    def test_git_revision_in_this_repo(self):
        rev = git_revision()
        assert rev is None or (len(rev) == 40 and all(c in "0123456789abcdef"
                                                      for c in rev))

    def test_git_revision_outside_repo(self, tmp_path):
        assert git_revision(cwd=tmp_path) is None


class TestRoundTrip:
    def test_create_write_load(self, tmp_path):
        manifest = RunManifest.create(
            kernel="gemm.k1",
            command="profile",
            config={"bits": 4},
            seed=7,
            events_path=tmp_path / "ev.jsonl",
        )
        profile = ResilienceProfile()
        profile.add(Outcome.MASKED, 3.0)
        profile.add(Outcome.SDC, 1.0)
        manifest.record_profile(profile)
        manifest.finalize(wall_clock_s=1.25)
        path = tmp_path / "run.json"
        manifest.write(path)

        loaded = load_manifest(path)
        assert loaded.kernel == "gemm.k1"
        assert loaded.config == {"bits": 4}
        assert loaded.seed == 7
        assert loaded.profile["weights"]["masked"] == 3.0
        assert loaded.profile["n_injections"] == 2
        assert loaded.profile["percentages"]["masked"] == pytest.approx(75.0)
        assert loaded.wall_clock_s == 1.25
        assert loaded.versions == manifest.versions

    def test_finalize_captures_telemetry_snapshots(self):
        telemetry = Telemetry()
        telemetry.count("injections.total", 5)
        with telemetry.span("phase_s"):
            pass
        manifest = RunManifest.create(kernel="x")
        manifest.finalize(telemetry, wall_clock_s=0.5)
        assert manifest.metrics["counters"]["injections.total"] == 5
        assert manifest.metrics["histograms"]["phase_s"]["count"] == 1

    def test_unsupported_version_rejected(self, tmp_path):
        manifest = RunManifest.create(kernel="x")
        path = tmp_path / "run.json"
        manifest.write(path)
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ReproError):
            load_manifest(path)

    def test_manifest_json_is_plain_data(self, tmp_path):
        manifest = RunManifest.create(kernel="x", config={"a": 1})
        path = tmp_path / "run.json"
        manifest.write(path)
        data = json.loads(path.read_text())
        assert data["kernel"] == "x"
        assert data["version"] == 1
