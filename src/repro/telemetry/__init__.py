"""repro.telemetry — structured observability for heat-stroke runs.

A low-overhead event bus plus metrics registry threaded through the
simulator, the DTM policies, the sedation controller, and the pipeline:

* :class:`TelemetrySession` — attach one to a
  :class:`~repro.sim.simulator.Simulator` (``telemetry=session``) to record
  typed :class:`Event` records (threshold crossings, sedations/releases,
  stop-and-go engagements, DVFS steps, EWMA snapshots, idle skips) into a
  bounded ring buffer, optionally streaming JSONL to disk or packing a
  compressed columnar ``.npz`` archive (:class:`ColumnarSink`), with
  per-channel enable + stride control (:class:`CaptureConfig`);
* :class:`MetricsRegistry` — counters/gauges/histograms (sedation latency
  and duration, stall duration, time above emergency, per-thread duty
  cycle) whose snapshot lands on ``RunResult.telemetry``;
* :mod:`repro.telemetry.summary` — filtering, episode extraction, and the
  narrative renderer behind ``repro events``;
* :mod:`repro.telemetry.reducers` — streaming folds (summary, stall
  totals, bounded traces) for campaign-scale logs.

The full observability contract — taxonomy, formats, capture costs,
rollup layout — is documented in ``docs/telemetry.md``.

The default simulator path attaches no session and pays no overhead; the
legacy ``(cycle, hottest_k, int_rf_k)`` trace is a thin adapter
(:func:`trace_rows`) over SENSOR_SAMPLE events.
"""

from .bus import DEFAULT_CAPACITY, EventBus, JsonlSink
from .capture import FULL_CAPTURE, CaptureConfig
from .columnar import (
    ColumnarSink,
    columnar_meta,
    load_columnar,
    read_columnar,
    write_columnar,
)
from .events import (
    NARRATIVE_TYPES,
    Event,
    EventType,
    load_events,
    read_events,
    trace_row,
    trace_rows,
    write_events,
)
from .metrics import Histogram, MetricsRegistry, merge_metric_snapshots
from .reducers import StreamingStallFold, StreamingSummary, StreamingTrace
from .session import NULL_TELEMETRY, NullTelemetry, TelemetrySession
from .summary import (
    FAULT_EVENT_TYPES,
    batch_narrative,
    counts_by_type,
    durable_narrative,
    fault_injection_counts,
    filter_events,
    iter_filtered,
    narrative,
    ring_narrative,
    sedation_episodes,
    stall_episodes,
    stream_narrative,
    summarize,
)

__all__ = [
    "CaptureConfig",
    "ColumnarSink",
    "DEFAULT_CAPACITY",
    "Event",
    "EventBus",
    "EventType",
    "FULL_CAPTURE",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NARRATIVE_TYPES",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "StreamingStallFold",
    "StreamingSummary",
    "StreamingTrace",
    "TelemetrySession",
    "batch_narrative",
    "columnar_meta",
    "counts_by_type",
    "durable_narrative",
    "FAULT_EVENT_TYPES",
    "fault_injection_counts",
    "filter_events",
    "iter_filtered",
    "load_columnar",
    "load_events",
    "merge_metric_snapshots",
    "narrative",
    "read_columnar",
    "read_events",
    "ring_narrative",
    "sedation_episodes",
    "stall_episodes",
    "stream_narrative",
    "summarize",
    "trace_row",
    "trace_rows",
    "write_columnar",
    "write_events",
]
