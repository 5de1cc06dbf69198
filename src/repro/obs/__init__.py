"""Observability over the serving event stream: metrics, traces, profiling.

The serving simulator narrates every run as a stream of frozen
:class:`~repro.serving.events.ServerEvent` objects; this package turns that
stream into answers.  :mod:`repro.obs.metrics` folds events into sim-time
windowed counters, gauges and mergeable log-binned histograms (arrival
rate, drop rate, cache hit rate, queue depth, batch occupancy, per-window
p50/p99).  :mod:`repro.obs.tracing` reassembles each request's events into
a span tree with per-stage durations and a run-level stage breakdown.
:mod:`repro.obs.profiling` measures the simulator itself — events per
wall-clock second and per-component self time.  :mod:`repro.obs.exporters`
joins all three into a kind-tagged :class:`~repro.obs.exporters.TelemetryReport`
plus JSONL dumps, and packages them as the :class:`~repro.obs.exporters.TelemetryPipeline`
the engine attaches to a server (and :class:`~repro.serving.fleet.ShardedFleet`
merges shard-wise; a fleet with an elastic feature refuses telemetry).

Telemetry is strictly read-only: with a pipeline attached, the simulator's
own reports are byte-for-byte identical to a run without one.
"""

from repro.obs.exporters import (
    TelemetryPipeline,
    TelemetryReport,
    load_telemetry,
)
from repro.obs.metrics import (
    MetricsCollector,
    MetricsRegistry,
    StreamingHistogram,
    WindowStats,
)
from repro.obs.profiling import Profiler, ProfileStats
from repro.obs.tracing import (
    RequestTrace,
    RequestTracer,
    Span,
    StageBreakdown,
    StageStats,
    sampled,
)

__all__ = [
    "MetricsCollector",
    "MetricsRegistry",
    "Profiler",
    "ProfileStats",
    "RequestTrace",
    "RequestTracer",
    "Span",
    "StageBreakdown",
    "StageStats",
    "StreamingHistogram",
    "TelemetryPipeline",
    "TelemetryReport",
    "WindowStats",
    "load_telemetry",
    "sampled",
]
