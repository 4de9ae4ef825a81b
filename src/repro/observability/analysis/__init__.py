"""repro.observability.analysis — trace analytics over the event stream.

PR 1 taught every layer to *emit* structured events; this package reads
them back out: span-tree reconstruction (:mod:`.spans`), the campaign
performance report — critical path, wait-time attribution, stragglers,
retry hotspots, utilization timeline — (:mod:`.report`), baseline/candidate
diffing with a CI regression gate (:mod:`.diff`), the report file
format (:mod:`.io`), and the streaming builder that folds a live stream
into the same reports without buffering it (:mod:`.streaming`).

Entry points:

- ``analyze_events(recorder.events)`` — reports for a live capture;
- ``StreamingCampaignReport().attach(bus)`` — the same reports folded
  incrementally off the live bus (O(1) memory per event, mid-run
  ``progress()`` snapshots), no event buffer;
- ``analyze_events(events_from_trace("fig6.trace.json"))`` — the same for
  a saved Chrome trace;
- ``python -m repro.observability report <trace.json>`` /
  ``... diff <baseline> <candidate> --fail-on-regression <pct>`` — the CLI;
- ``savanna`` drive with ``report=True`` — a live analyzer that emits a
  ``campaign.report`` event and records the report in the campaign
  directory's store (``directory.read_report()``).

The report schema and CLI are documented in ``docs/observability.md``
("Reading traces back").
"""

from repro.observability.analysis.diff import CampaignDiff, ReportDiff, diff_reports
from repro.observability.analysis.io import load_reports, reports_to_dict, write_reports
from repro.observability.analysis.report import (
    REPORT_SCHEMA,
    CampaignReport,
    analyze_events,
    mad,
    report_for_campaign,
    robust_threshold,
)
from repro.observability.analysis.spans import AllocSpan, CampaignSpan, SpanTrace, TaskSpan
from repro.observability.analysis.streaming import StreamingCampaignReport

__all__ = [
    "REPORT_SCHEMA",
    "AllocSpan",
    "CampaignDiff",
    "CampaignReport",
    "CampaignSpan",
    "ReportDiff",
    "SpanTrace",
    "StreamingCampaignReport",
    "TaskSpan",
    "analyze_events",
    "diff_reports",
    "load_reports",
    "mad",
    "report_for_campaign",
    "reports_to_dict",
    "robust_threshold",
    "write_reports",
]
