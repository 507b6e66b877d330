"""Telemetry for the BIST fault-simulation pipeline.

Hierarchical wall-time spans, typed metrics (counters, gauges,
histograms) and pluggable sinks, plus the paper-specific test-zone
tracer.  The pipeline is instrumented throughout (`faultsim`, `gates`,
`rtl`, `generators`, `bist`, `experiments`); all of it is a no-op until
a collector is installed, so grading throughput is unaffected by
default.

Enable for a region::

    from repro.telemetry import telemetry_session

    with telemetry_session() as tel:
        result = run_fault_coverage(design, gen, 4096)
        print(tel.render())          # span tree + metric summary

or from the CLI with ``python -m repro --profile ...``,
``--trace-out trace.jsonl``, or the dedicated ``profile`` command.

See ``docs/telemetry.md`` for naming conventions and how to add a sink.
"""

from .collector import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
    traced,
    use_telemetry,
)
from .export import (
    chrome_trace_document,
    chrome_trace_events,
    prometheus_exposition,
    write_chrome_trace,
)
from .metrics import NULL_INSTRUMENT, Counter, Gauge, Histogram
from .progress import ProgressState, ProgressStream, progress_eta
from .propagate import TraceContext, child_collector, collector_payload
from .report import load_trace, render_run_report, write_run_report
from .sinks import (
    InMemorySink,
    JsonlSink,
    LoggingSummarySink,
    RequestLogSink,
    TelemetrySink,
    reconstruct_spans,
    summarize_metrics,
)
from .spans import Span, format_duration, format_span_tree, new_trace_id
from .zones import ZoneTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "LoggingSummarySink",
    "NULL_INSTRUMENT",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "ProgressState",
    "ProgressStream",
    "RequestLogSink",
    "Span",
    "Telemetry",
    "TelemetrySink",
    "TraceContext",
    "ZoneTracer",
    "child_collector",
    "chrome_trace_document",
    "chrome_trace_events",
    "collector_payload",
    "format_duration",
    "format_span_tree",
    "get_telemetry",
    "load_trace",
    "new_trace_id",
    "progress_eta",
    "prometheus_exposition",
    "reconstruct_spans",
    "render_run_report",
    "set_telemetry",
    "summarize_metrics",
    "telemetry_session",
    "traced",
    "use_telemetry",
    "write_chrome_trace",
    "write_run_report",
]
