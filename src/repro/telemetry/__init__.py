"""Always-on, per-rank I/O observability (Darshan-style monitoring).

Two layers, one for counting and one for timing:

1. **Typed metric families** (:mod:`.metrics`) — mpmetrics-style
   ``Counter``/``Gauge``/``Histogram`` with fixed log2 buckets and
   well-defined cross-rank aggregation (:func:`merged_metrics`).  Every
   count a rank keeps lives here: :func:`record` bumps a named ``Counter``,
   and an access-size or latency histogram's count/sum are its op and
   byte/ns totals, so nothing is counted twice.
2. **Structured spans** (:mod:`.spans`) — causal, timed trees over every
   store/load, exported as Chrome/Perfetto trace JSON or a Darshan-style
   record table (:mod:`.export`), bounded by the ``REPRO_TRACE`` knob.

Both live on the rank's :class:`~repro.sim.trace.RankTrace` so they
survive the SPMD run: aggregate a finished run with
:func:`merged_metrics` / :func:`spans_of` over ``result.traces``, or read
one store's view via ``PMEM.stats()["metrics"]``.
``python -m repro.telemetry`` renders the profile report.
"""

from __future__ import annotations

from .metrics import (
    LANE_BOUNDS,
    LOG2_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from .critpath import (
    CRITPATH_SCHEMA,
    CriticalPath,
    capture_analysis,
    critical_path_replay,
    critical_path_spans,
    critical_path_spmd,
    critpath_culprits,
    critpath_doc,
    critpath_dumps,
    critpath_summary,
    narrate_culprits,
    offer_capture,
    validate_critpath,
    whatif_report,
)
from .flame import (
    folded_stacks,
    render_folded,
    validate_folded,
    write_folded,
)
from .flight import (
    FLIGHT_SCHEMA,
    FlightRecord,
    FlightRecorder,
    flight_chrome_trace,
    flight_darshan,
    validate_flight_dump,
)
from .prometheus import (
    prometheus_text,
    sanitize_metric_name,
    validate_prometheus_text,
)
from .spans import (
    SAMPLE_EVERY,
    TRACE_ENV,
    TRACE_MODES,
    Span,
    Tracer,
    as_span_list,
    exclusive_ns_by_family,
    family_of,
    span,
    spans_of,
    trace_mode,
    tracer_for,
)

__all__ = [
    "record", "Counter", "Gauge", "Histogram", "MetricRegistry",
    "LOG2_BOUNDS", "LANE_BOUNDS", "metrics_for", "merged_metrics",
    "Span", "Tracer", "span", "tracer_for", "spans_of",
    "as_span_list", "exclusive_ns_by_family", "family_of",
    "trace_mode", "TRACE_ENV", "TRACE_MODES", "SAMPLE_EVERY",
    "CRITPATH_SCHEMA", "CriticalPath", "critical_path_replay",
    "critical_path_spans", "critical_path_spmd", "critpath_doc",
    "critpath_dumps", "critpath_summary", "critpath_culprits",
    "narrate_culprits", "validate_critpath", "whatif_report",
    "capture_analysis", "offer_capture",
    "folded_stacks", "render_folded", "validate_folded", "write_folded",
    "FLIGHT_SCHEMA", "FlightRecord", "FlightRecorder",
    "flight_chrome_trace", "flight_darshan", "validate_flight_dump",
    "prometheus_text", "sanitize_metric_name", "validate_prometheus_text",
]


def record(ctx, name: str, amount: float = 1.0) -> None:
    """Add ``amount`` to the rank's ``name`` counter."""
    metrics_for(ctx).counter(name).add(amount)


def metrics_for(ctx) -> MetricRegistry:
    """The calling rank's typed metric registry (created on first use)."""
    trace = ctx.trace
    reg = trace.metrics
    if reg is None:
        reg = trace.metrics = MetricRegistry()
    return reg


def merged_metrics(traces) -> MetricRegistry:
    """Merge the per-rank metric registries of a finished run's traces."""
    return MetricRegistry.merged(
        getattr(t, "metrics", None) for t in traces
    )
