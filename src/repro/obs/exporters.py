"""Telemetry exporters: the unified report, JSONL dumps, and the pipeline.

Three output shapes, one source of truth:

* :class:`TelemetryReport` — a kind-tagged
  :class:`~repro.api.reports.Report` joining the unified report hierarchy
  (``Report.from_dict`` round-trips it like every other report), holding
  the windowed time series, run-total counters, the span-stage breakdown
  and the simulator profile;
* JSONL dumps — ``metrics.jsonl`` (one window per line) and
  ``spans.jsonl`` (one sampled span tree per line), the machine-readable
  feeds a dashboard or notebook consumes;
* :class:`TelemetryPipeline` — the bundle the engine attaches to a server:
  a :class:`~repro.obs.metrics.MetricsCollector`, a
  :class:`~repro.obs.tracing.RequestTracer` and a
  :class:`~repro.obs.profiling.Profiler`, each individually switchable.
  Pipelines merge shard-wise (:meth:`TelemetryPipeline.merge`), which is
  how :class:`~repro.serving.fleet.ShardedFleet` produces one fleet-wide
  telemetry view from per-shard streams.

Attaching a pipeline never changes what the simulator computes: observers
only watch the event stream and the profiler only reads the wall clock,
so SLO/fleet reports are byte-for-byte identical with telemetry on or off.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

from repro.api.reports import Report, report_type

from repro.obs.metrics import MetricsCollector, WindowStats
from repro.obs.profiling import Profiler, ProfileStats
from repro.obs.tracing import RequestTracer, StageBreakdown

#: File names written by :meth:`TelemetryPipeline.write` under the out dir.
METRICS_FILE = "metrics.jsonl"
SPANS_FILE = "spans.jsonl"
REPORT_FILE = "telemetry.json"


@report_type("telemetry")
@dataclass(frozen=True)
class TelemetryReport(Report):
    """One run's telemetry: window series, counters, stages, profile.

    ``windows`` is gap-filled between the first and last touched window of
    simulated time; ``counters`` are run totals over the event stream;
    ``stages`` is ``None`` when tracing was disabled, ``profile`` when
    profiling was.  ``sampled_traces`` counts the span trees retained at
    ``sample_rate`` (the stage breakdown covers *all* completed requests
    regardless).
    """

    window_s: float
    windows: tuple[WindowStats, ...]
    counters: dict
    stages: StageBreakdown | None
    profile: ProfileStats | None
    sample_rate: float
    sampled_traces: int

    @property
    def num_windows(self) -> int:
        return len(self.windows)

    @property
    def duration_s(self) -> float:
        """Span of simulated time the windows cover."""
        if not self.windows:
            return 0.0
        return self.windows[-1].end_s - self.windows[0].start_s

    def format(self) -> str:
        """Deterministic plain-text rendering (except wall-clock figures)."""
        lines = [
            f"telemetry windows      {self.num_windows} x {self.window_s:g} s "
            f"({self.duration_s:.4f} s of sim time)",
        ]
        for name in sorted(self.counters):
            lines.append(f"  {name:<21}{self.counters[name]:g}")
        if self.windows:
            lines.append(
                "window series          idx  arr/s  drop%   hit%  depth  "
                "batch  p50 ms  p99 ms"
            )
            for window in self.windows:
                lines.append(
                    "                       "
                    f"{window.index:>3} "
                    f"{window.arrival_rate_rps:>6.0f} "
                    f"{100.0 * window.drop_rate:>6.1f} "
                    + (
                        f"{100.0 * window.cache_hit_rate:>6.1f} "
                        if window.cache_hit_rate is not None
                        else "     - "
                    )
                    + (
                        f"{window.mean_queue_depth:>6.1f} "
                        if window.mean_queue_depth is not None
                        else "     - "
                    )
                    + (
                        f"{window.mean_batch_size:>6.2f} "
                        if window.mean_batch_size is not None
                        else "     - "
                    )
                    + (
                        f"{window.p50_latency_ms:>7.2f} "
                        if window.p50_latency_ms is not None
                        else "      - "
                    )
                    + (
                        f"{window.p99_latency_ms:>7.2f}"
                        if window.p99_latency_ms is not None
                        else "      -"
                    )
                )
        if self.stages is not None and self.stages.total_latency_s > 0:
            lines.append("stage breakdown        stage       count  mean ms  share")
            for stage in self.stages.stages:
                marker = " *" if stage.name == self.stages.critical_stage else ""
                lines.append(
                    "                       "
                    f"{stage.name:<11} {stage.count:>5} {stage.mean_ms:>8.3f} "
                    f"{100.0 * stage.share:>5.1f} %{marker}"
                )
            lines.append(
                f"critical stage         {self.stages.critical_stage}"
            )
        lines.append(
            f"sampled span trees     {self.sampled_traces} "
            f"(rate {self.sample_rate:g})"
        )
        if self.profile is not None and self.profile.events_per_sec is not None:
            profile = self.profile
            lines.append(
                f"simulator speed        {profile.events:,} events in "
                f"{profile.wall_seconds:.3f} s wall "
                f"({profile.events_per_sec:,.0f} events/s, "
                f"{profile.requests_per_sec:,.0f} req/s)"
            )
            for name, seconds in profile.self_seconds.items():
                lines.append(f"  self time {name:<17} {seconds:.4f} s")
        return "\n".join(lines)


def _drop_nones(data: dict) -> dict:
    return {key: value for key, value in data.items() if value is not None}


def _bind_metrics(server, registry) -> None:
    """Hand ``registry`` (None to unbind) to each policy defining ``bind_metrics``."""
    for policy in (server.admission, server.prefetch, server.policy):
        bind = getattr(policy, "bind_metrics", None)
        if bind is not None:
            bind(registry)


class TelemetryPipeline:
    """The observability bundle one server run feeds.

    Construction mirrors :class:`~repro.api.config.ObservabilityConfig`:
    each of metrics / tracing / profiling can be disabled independently;
    ``sample_rate`` and ``seed`` make trace retention deterministic.
    :meth:`attach` subscribes the observers, attaches the profiler, and
    binds the metrics registry to the server's control-plane policies (so
    a policy can read ``registry.latest(...)`` instead of keeping shadow
    state); :meth:`detach` undoes all of it, leaving the server reusable.
    """

    def __init__(
        self,
        window_s: float = 0.01,
        sample_rate: float = 1.0,
        seed: int = 0,
        metrics: bool = True,
        tracing: bool = True,
        profiling: bool = True,
        max_batch_size: int | None = None,
    ) -> None:
        if not (metrics or tracing or profiling):
            raise ValueError("telemetry pipeline with everything disabled is useless")
        self.window_s = window_s
        self.sample_rate = sample_rate
        self.seed = seed
        self.collector = (
            MetricsCollector(window_s=window_s, max_batch_size=max_batch_size)
            if metrics
            else None
        )
        self.tracer = (
            RequestTracer(sample_rate=sample_rate, seed=seed) if tracing else None
        )
        self.profiler = Profiler() if profiling else None

    @classmethod
    def from_config(cls, section, max_batch_size: int | None = None) -> "TelemetryPipeline":
        """Build from an :class:`~repro.api.config.ObservabilityConfig`."""
        return cls(
            window_s=section.window_s,
            sample_rate=section.sample_rate,
            seed=section.seed,
            metrics=section.metrics,
            tracing=section.tracing,
            profiling=section.profiling,
            max_batch_size=max_batch_size,
        )

    @property
    def observers(self) -> list:
        return [
            observer
            for observer in (self.collector, self.tracer)
            if observer is not None
        ]

    # -- server lifecycle --------------------------------------------------------
    def attach(self, server) -> None:
        """Subscribe to ``server``'s stream, bind the registry, attach the profiler."""
        for observer in self.observers:
            server.subscribe(observer)
        if self.collector is not None:
            _bind_metrics(server, self.collector.registry)
        if self.profiler is not None:
            self.profiler.attach(server)

    def detach(self, server) -> None:
        """Undo :meth:`attach`, leaving the server clean for other runs."""
        for observer in self.observers:
            server.unsubscribe(observer)
        if self.collector is not None:
            _bind_metrics(server, None)
        if self.profiler is not None:
            self.profiler.detach(server)

    # -- merge -------------------------------------------------------------------
    def merge(self, other: "TelemetryPipeline") -> None:
        """Fold another shard's pipeline into this one component-wise."""
        if self.collector is not None and other.collector is not None:
            self.collector.merge(other.collector)
        if self.tracer is not None and other.tracer is not None:
            self.tracer.merge(other.tracer)
        if self.profiler is not None and other.profiler is not None:
            self.profiler.merge(other.profiler)

    # -- outputs -----------------------------------------------------------------
    def report(self) -> TelemetryReport:
        """Fold the collected telemetry into one :class:`TelemetryReport`."""
        windows: tuple[WindowStats, ...] = ()
        counters: dict = {}
        if self.collector is not None:
            windows = self.collector.series()
            counters = {
                name: value
                for name, value in sorted(self.collector.registry.counters.items())
            }
        stages = self.tracer.breakdown() if self.tracer is not None else None
        profile = self.profiler.stats() if self.profiler is not None else None
        return TelemetryReport(
            window_s=self.window_s,
            windows=windows,
            counters=counters,
            stages=stages,
            profile=profile,
            sample_rate=self.sample_rate,
            sampled_traces=len(self.tracer.traces) if self.tracer is not None else 0,
        )

    def write(self, directory: str) -> dict[str, str]:
        """Dump ``metrics.jsonl``, ``spans.jsonl`` and ``telemetry.json``.

        Returns the written paths by file kind.  Metrics lines are the
        window series (one JSON object per window); span lines are the
        sampled trees (one per request).  Files for disabled components
        are still written, empty, so consumers can rely on their presence.
        """
        os.makedirs(directory, exist_ok=True)
        paths = {
            "metrics": os.path.join(directory, METRICS_FILE),
            "spans": os.path.join(directory, SPANS_FILE),
            "report": os.path.join(directory, REPORT_FILE),
        }
        report = self.report()
        with open(paths["metrics"], "w", encoding="utf-8") as handle:
            for window in report.windows:
                row = _drop_nones(dataclasses.asdict(window))
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        with open(paths["spans"], "w", encoding="utf-8") as handle:
            if self.tracer is not None:
                for trace in self.tracer.traces:
                    handle.write(json.dumps(trace.to_dict(), sort_keys=True) + "\n")
        with open(paths["report"], "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        return paths


def load_telemetry(directory: str) -> TelemetryReport:
    """Read back the :class:`TelemetryReport` a pipeline wrote to ``directory``."""
    path = os.path.join(directory, REPORT_FILE)
    with open(path, "r", encoding="utf-8") as handle:
        report = Report.from_json(handle.read())
    if not isinstance(report, TelemetryReport):
        raise ValueError(f"{path} holds a {report.kind!r} report, not telemetry")
    return report
