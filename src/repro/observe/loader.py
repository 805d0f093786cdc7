"""Load campaign telemetry artifacts into one typed handle.

A campaign leaves up to two kinds of files behind: the JSONL event log
(``--telemetry-out``) and the run manifest (``--manifest``).
:func:`load_campaign` accepts any mix of them — multiple event logs
concatenate (a campaign sharded over several invocations), manifests are
matched up by their ``events_path`` when possible — and returns a
:class:`CampaignLog` with the events pre-bucketed by type.

Schema safety lives one layer down: :func:`~repro.telemetry.read_events`
rejects logs written by a newer :data:`~repro.telemetry.EVENTS_SCHEMA_VERSION`
and tolerates older, headerless logs (missing fields fall back to their
dataclass defaults).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ReproError
from ..telemetry import (
    CampaignEvent,
    HeartbeatEvent,
    InjectionEvent,
    MetricsRegistry,
    RunManifest,
    SimRunEvent,
    StageEvent,
    TelemetryEvent,
    load_manifest,
    read_events,
)


@dataclass
class CampaignLog:
    """Everything recorded about one campaign, ready to analyse."""

    sources: list[str] = field(default_factory=list)
    events: list[TelemetryEvent] = field(default_factory=list)
    injections: list[InjectionEvent] = field(default_factory=list)
    sim_runs: list[SimRunEvent] = field(default_factory=list)
    stages: list[StageEvent] = field(default_factory=list)
    campaigns: list[CampaignEvent] = field(default_factory=list)
    heartbeats: list[HeartbeatEvent] = field(default_factory=list)
    manifests: list[RunManifest] = field(default_factory=list)

    @property
    def kernel(self) -> str:
        for manifest in self.manifests:
            if manifest.kernel:
                return manifest.kernel
        return ""

    def merged_metrics(self) -> dict:
        """Metric totals across every attached manifest, folded by
        :meth:`~repro.telemetry.MetricsRegistry.merge` (counters and
        histogram stats add, gauges last-write-win)."""
        registry = MetricsRegistry()
        for manifest in self.manifests:
            if manifest.metrics:
                registry.merge(manifest.metrics)
        return registry.snapshot()


def _looks_like_manifest(path: Path) -> bool:
    """Manifest files are single JSON objects with a ``version`` key;
    event logs are JSONL.  Sniff the first non-blank character run."""
    if path.suffix == ".jsonl":
        return False
    try:
        head = path.read_text()[:4096].lstrip()
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from None
    if not head.startswith("{"):
        return False
    try:
        first_line = json.loads(head.splitlines()[0])
    except (json.JSONDecodeError, IndexError):
        # Pretty-printed JSON spans lines: a manifest, not JSONL.
        return True
    # One JSON object per line with an "event"/"schema" key = event log.
    return "event" not in first_line and "schema" not in first_line


def load_campaign(
    paths: list[str | Path],
    manifest_paths: list[str | Path] | None = None,
) -> CampaignLog:
    """Load event logs and manifests into one :class:`CampaignLog`.

    ``paths`` may mix event logs and manifests — each file is sniffed.
    Manifests that name an ``events_path`` which was not already given are
    pulled in automatically when that file still exists.
    """
    log = CampaignLog()
    event_paths: list[Path] = []
    seen: set[str] = set()
    for raw in list(paths) + list(manifest_paths or []):
        path = Path(raw)
        if not path.exists():
            raise ReproError(f"no such telemetry file: {path}")
        if _looks_like_manifest(path):
            manifest = load_manifest(path)
            log.manifests.append(manifest)
            if manifest.events_path:
                sibling = Path(manifest.events_path)
                if sibling.exists() and str(sibling) not in seen:
                    seen.add(str(sibling))
                    event_paths.append(sibling)
        elif str(path) not in seen:
            seen.add(str(path))
            event_paths.append(path)
    for path in event_paths:
        log.sources.append(str(path))
        for event in read_events(path):
            log.events.append(event)
            if isinstance(event, InjectionEvent):
                log.injections.append(event)
            elif isinstance(event, SimRunEvent):
                log.sim_runs.append(event)
            elif isinstance(event, StageEvent):
                log.stages.append(event)
            elif isinstance(event, CampaignEvent):
                log.campaigns.append(event)
            elif isinstance(event, HeartbeatEvent):
                log.heartbeats.append(event)
    if not log.events and not log.manifests:
        raise ReproError("no events or manifests found in the given files")
    return log
