"""End-to-end live smoke: a real CLI campaign polled over HTTP.

Two arms, mirroring the CI live-smoke job:

* a ``repro profile`` subprocess on a 2-worker spawn pool with
  ``--live-port 0`` + ``--live-status`` — poll ``/status`` while it
  runs, then assert the terminal snapshot's fields and that its weighted
  shares are the profile the CLI printed;
* a crashing pooled campaign with a flight recorder attached — assert
  the post-mortem dump exists, parses, and carries the worker's ring.

These spawn real processes and bind real (ephemeral) ports, so they are
the slowest observe tests; everything unit-sized lives in
``test_live.py``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or "spawn"


def repro_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def poll_status(port: int, deadline_s: float = 60.0) -> dict | None:
    """Last ``/status`` snapshot fetched before the server goes away."""
    url = f"http://127.0.0.1:{port}/status"
    last = None
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url, timeout=2) as response:
                last = json.loads(response.read())
        except (urllib.error.URLError, OSError, ValueError):
            if last is not None:
                break  # server served, then shut down: campaign over
            time.sleep(0.1)
            continue
        if last.get("state") in ("done", "converged", "crashed"):
            break
        time.sleep(0.2)
    return last


@pytest.mark.slow
def test_live_campaign_over_http(tmp_path):
    status_path = tmp_path / "status.json"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "profile", "pathfinder.k1",
            "--workers", "2", "--start-method", START_METHOD,
            "--live-port", "0", "--live-status", str(status_path),
        ],
        cwd=REPO,
        env=repro_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # The CLI announces the ephemeral port on stderr before starting.
        line = process.stderr.readline()
        match = re.search(r"live status: http://127\.0\.0\.1:(\d+)", line)
        assert match, f"no live-status announcement, got {line!r}"
        port = int(match.group(1))

        polled = poll_status(port)
        stdout, stderr = process.communicate(timeout=180)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()

    assert process.returncode == 0, stderr
    printed = re.search(r"masked=([\d.]+)% sdc=([\d.]+)% other=([\d.]+)%", stdout)
    assert printed, stdout

    # At least one mid-flight (or terminal) snapshot came over HTTP.
    assert polled is not None, "never fetched /status over HTTP"
    assert {"state", "outcomes", "workers", "throughput"} <= set(polled)

    # The status file records the terminal state after exit.
    final = json.loads(status_path.read_text())
    assert final["state"] == "done"
    assert final["done"] == final["total"] > 0
    shares = {row["outcome"]: row for row in final["outcomes"]}
    assert shares["masked"]["count"] > 0
    # A pruned profile is a weighted extrapolation: its live view carries
    # the profile's shares and no sampling CI or convergence signal.
    assert shares["masked"]["ci_low"] is None
    assert shares["masked"]["half_width"] is None
    assert final["convergence"]["max_half_width"] is None
    live = (
        shares["masked"]["share"],
        shares["sdc"]["share"],
        shares["crash"]["share"] + shares["hang"]["share"],
    )
    assert [f"{100 * share:.2f}" for share in live] == list(printed.groups())
    assert final["throughput"]["injections_per_s"] > 0
    assert final["throughput"]["effective_instructions"] > 0
    workers = {row["worker"]: row for row in final["workers"]}
    assert len(workers) >= 1  # slow spawn can let one worker drain all chunks
    assert all(row["done"] > 0 for row in workers.values())
    assert sum(row["done"] for row in workers.values()) == final["done"]


CRASH_ARM = """
import sys
import numpy as np
from repro import FaultInjector, load_instance, run_campaign
from repro.errors import FaultInjectionError
from repro.faults.site import FaultSite
from repro.observe.live import FlightRecorder, LiveAggregator
from repro.parallel import ParallelCampaignRunner
from repro.telemetry import NullSink, Telemetry

dump_path, start_method = sys.argv[1], sys.argv[2]
injector = FaultInjector(
    load_instance("pathfinder.k1"), telemetry=Telemetry(sink=NullSink())
)
live = LiveAggregator()
live.flight_recorder = FlightRecorder(dump_path)
sites = injector.space.sample(8, np.random.default_rng(1))
sites.append(FaultSite(thread=10**6, dyn_index=0, bit=0))
runner = ParallelCampaignRunner(2, chunk_size=4, start_method=start_method)
try:
    run_campaign(injector, sites, executor=runner, live=live)
except FaultInjectionError:
    sys.exit(42)
sys.exit(1)
"""


@pytest.mark.slow
def test_worker_crash_leaves_flight_dump(tmp_path):
    dump_path = tmp_path / "flight.json"
    process = subprocess.run(
        [sys.executable, "-c", CRASH_ARM, str(dump_path), START_METHOD],
        cwd=REPO,
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert process.returncode == 42, process.stderr
    assert dump_path.exists(), "flight recorder wrote no dump"

    from repro.observe.live import load_flight_dump

    dump = load_flight_dump(dump_path)
    assert dump["kind"] == "flight-recorder"
    assert dump["status"]["state"] == "crashed"
    assert "FaultInjectionError" in (dump["error"] or "")
    assert dump["traceback"]
    assert dump["crashes"], "worker crash record missing"
    crash = dump["crashes"][0]
    assert crash["worker"]
    assert crash["traceback"]
