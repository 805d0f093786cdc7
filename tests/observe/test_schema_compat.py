"""Event-log schema back-compat matrix.

The reader contract (``docs/observability.md``): every schema version
ever shipped stays loadable — missing fields fall back to their
dataclass defaults — while logs from a *newer* writer are rejected
loudly rather than silently dropping fields.  The checked-in
``events_v{2,3,4,5}.jsonl`` fixtures are frozen copies of real-era logs;
regenerating them to match a new schema would defeat the test.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.observe.loader import load_campaign
from repro.telemetry import EVENTS_SCHEMA_VERSION, read_events

FIXTURES = Path(__file__).parent / "fixtures"

#: Every schema version with a checked-in fixture, and what each era
#: introduced (the loader must surface the era's fields and default the
#: later ones).
ERAS = {
    2: FIXTURES / "events_v2.jsonl",
    3: FIXTURES / "events_v3.jsonl",
    4: FIXTURES / "events_v4.jsonl",
    5: FIXTURES / "events_v5.jsonl",
}


@pytest.mark.parametrize("version", sorted(ERAS))
def test_old_schemas_load(version):
    events = read_events(ERAS[version])
    assert events, f"v{version} fixture produced no events"
    log = load_campaign([ERAS[version]])
    assert log.injections, f"v{version} fixture has no injections"
    assert log.campaigns[0].phase == "start"
    assert log.campaigns[-1].profile  # the end record carries the profile


def test_v2_era_fields_default():
    log = load_campaign([ERAS[2]])
    injection = log.injections[0]
    # Fields that postdate v2 fall back to their dataclass defaults.
    assert injection.propagation is None
    assert injection.group is None
    assert injection.effective_instructions == 0
    assert injection.weight == 1.0
    # v2-era fields survive.
    assert injection.model == "iov"
    assert log.injections[2].worker == "ForkPoolWorker-1"
    assert log.heartbeats == []


def test_v3_era_carries_propagation():
    log = load_campaign([ERAS[3]])
    injection = log.injections[0]
    assert injection.group == "cta0/pc12"
    assert injection.propagation["first_divergence"] == 10
    assert injection.effective_instructions == 0  # postdates v3


def test_v4_era_carries_effective_instructions():
    log = load_campaign([ERAS[4]])
    injection = log.injections[0]
    assert injection.effective_instructions == 900
    # The removed splicing's count is dropped on read; its phases load.
    assert not hasattr(injection, "spliced_instructions")
    assert {"resync_scan", "suffix_splice"} <= set(injection.phases)
    assert log.heartbeats == []  # heartbeats postdate v4


def test_v5_era_carries_heartbeats_and_unit_weights():
    log = load_campaign([ERAS[5]])
    assert [h.state for h in log.heartbeats] == ["online", "beat"]
    assert log.heartbeats[1].done == 1
    assert [e.worker for e in log.injections] == ["ForkPoolWorker-1", "ForkPoolWorker-2"]
    # Weights and the start record's static weight postdate v5.
    assert all(e.weight == 1.0 for e in log.injections)
    assert log.campaigns[0].profile is None


def test_matrix_covers_every_prior_schema():
    # When the schema bumps, freeze a fixture for the outgoing version
    # and extend ERAS — this assertion is the reminder.
    assert sorted(ERAS) == list(range(2, EVENTS_SCHEMA_VERSION))


def test_newer_schema_rejected_loudly(tmp_path):
    path = tmp_path / "future.jsonl"
    header = {"schema": EVENTS_SCHEMA_VERSION + 1, "writer": "repro.telemetry"}
    record = {
        "event": "heartbeat", "ts": 1.0, "worker": "w", "state": "beat",
        "done": 1, "rate": 2.0, "effective_instructions": 3,
    }
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ReproError, match="schema"):
        read_events(path)
    with pytest.raises(ReproError, match="schema"):
        load_campaign([path])


def test_unknown_event_record_rejected(tmp_path):
    path = tmp_path / "alien.jsonl"
    path.write_text(
        json.dumps({"schema": EVENTS_SCHEMA_VERSION}) + "\n"
        + json.dumps({"event": "teleport", "ts": 1.0}) + "\n"
    )
    with pytest.raises(ReproError, match="teleport"):
        read_events(path)
