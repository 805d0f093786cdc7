"""Campaign observatory: turn telemetry artifacts into answers.

The injection stack *records* richly — JSONL event logs, metric
snapshots, run manifests — but raw JSONL answers no questions.  This
package is the read side:

* :mod:`~repro.observe.loader` — load one or more event logs (plus
  optional manifests) into a typed :class:`CampaignLog`;
* :mod:`~repro.observe.report` — build a campaign report: outcome
  profile with Wilson CIs, per-phase latency attribution, depth-tertile
  splits, checkpoint and compiled-chain cache efficiency, per-worker
  load balance and straggler sites, pruning funnel;
* :mod:`~repro.observe.propagation` — aggregate per-injection
  propagation records into the PC vulnerability map, masking-depth
  histograms, SDC signatures and pruning-group coherence sections
  (``repro report --propagation``, ``repro trace-fault``);
* :mod:`~repro.observe.render` — render a report as text, markdown or
  JSON (the ``repro report`` CLI command);
* :mod:`~repro.observe.diff` — compare two report JSONs side by side
  (``repro report --diff A B``);
* :mod:`~repro.observe.history` — machine-readable benchmark history
  with host-keyed, tolerance-band regression checking
  (``repro bench-check``);
* :mod:`~repro.observe.live` — streaming telemetry plane for *in-flight*
  campaigns: a rolling :class:`LiveAggregator` folding the campaign's
  injection events, with a Wilson-CI convergence signal and a crash
  flight recorder;
* :mod:`~repro.observe.statusd` — live front-ends: the ``--live-port``
  HTTP ``/status`` endpoint, the atomic status-file and ``--progress``
  line writers, and the ``repro watch`` dashboard loop.
"""

from .diff import diff_reports, load_report_json, render_diff_text
from .history import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    check_history,
    load_history,
    write_suite_snapshot,
)
from .live import (
    LIVE_STATUS_VERSION,
    FlightRecorder,
    LiveAggregator,
    check_convergence,
    load_flight_dump,
    max_half_width,
    render_live,
    render_progress_line,
)
from .loader import CampaignLog, load_campaign
from .propagation import build_propagation_section, render_trace_text
from .render import render_json, render_markdown, render_text
from .report import build_report
from .statusd import ProgressWriter, StatusFileWriter, StatusServer, watch

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "LIVE_STATUS_VERSION",
    "CampaignLog",
    "FlightRecorder",
    "LiveAggregator",
    "ProgressWriter",
    "StatusFileWriter",
    "StatusServer",
    "append_history",
    "build_propagation_section",
    "build_report",
    "check_convergence",
    "check_history",
    "diff_reports",
    "load_campaign",
    "load_flight_dump",
    "load_history",
    "load_report_json",
    "max_half_width",
    "render_diff_text",
    "render_json",
    "render_live",
    "render_markdown",
    "render_progress_line",
    "render_text",
    "render_trace_text",
    "watch",
    "write_suite_snapshot",
]
