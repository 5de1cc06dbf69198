"""Pipeline/report tests: round-trips, dumps, invariance, fleet merge.

This file also carries two acceptance checks from the telemetry issue:
attaching telemetry must leave every serving report byte-identical, and
the per-window drop-rate series over ``serving_diurnal.json`` must
visibly track the configured sinusoid (peak-phase windows drop more than
trough-phase windows).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import Engine, EngineConfig
from repro.api.config import (
    ArrivalsConfig,
    BackboneConfig,
    FleetConfig,
    ObservabilityConfig,
    PolicyConfig,
    ServingConfig,
    StoreConfig,
)
from repro.api.reports import Report
from repro.obs.exporters import (
    METRICS_FILE,
    REPORT_FILE,
    SPANS_FILE,
    TelemetryPipeline,
    TelemetryReport,
    load_telemetry,
)
from repro.obs.tracing import RequestTrace
from repro.serving.control import EwmaAdmissionController
from repro.serving.fleet import FleetReport

REPO_ROOT = Path(__file__).resolve().parents[2]
CONFIG_DIR = REPO_ROOT / "examples" / "configs"


def engine_config(observability=None, fleet=None, num_requests=24):
    """A small engine scenario mirroring tests/api/test_engine.py."""
    return EngineConfig(
        resolutions=(24, 32, 48),
        scale_resolution=24,
        store=StoreConfig(
            profile="imagenet-like",
            overrides={
                "name": "obs-test",
                "num_classes": 4,
                "storage_resolution_mean": 96,
                "storage_resolution_std": 10,
            },
            num_images=8,
            seed=3,
        ),
        backbone=BackboneConfig(
            name="resnet-tiny", options={"num_classes": 4, "base_width": 4, "seed": 0}
        ),
        policy=PolicyConfig(name="static", resolution=32),
        ssim_thresholds={24: 0.9, 32: 0.92, 48: 0.95},
        serving=ServingConfig(
            arrivals=ArrivalsConfig(
                name="poisson",
                options={"rate_rps": 500.0, "seed": 5, "zipf_alpha": 1.0},
            ),
            num_requests=num_requests,
            observability=observability,
            fleet=fleet,
        ),
    )


def example_config(name, observability):
    """Load an example config and switch its telemetry section on."""
    with open(CONFIG_DIR / name, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    data["serving"]["observability"] = observability
    return EngineConfig.from_dict(data)


class TestPipeline:
    def test_everything_disabled_is_rejected(self):
        with pytest.raises(ValueError):
            TelemetryPipeline(metrics=False, tracing=False, profiling=False)

    def test_components_are_individually_switchable(self):
        pipeline = TelemetryPipeline(tracing=False, profiling=False)
        assert pipeline.collector is not None
        assert pipeline.tracer is None
        assert pipeline.profiler is None
        assert pipeline.observers == [pipeline.collector]
        report = pipeline.report()
        assert report.stages is None
        assert report.profile is None
        assert report.sampled_traces == 0

    def test_from_config_mirrors_the_section(self):
        section = ObservabilityConfig(
            profiling=False, window_s=0.02, sample_rate=0.5, seed=9
        )
        pipeline = TelemetryPipeline.from_config(section, max_batch_size=4)
        assert pipeline.window_s == 0.02
        assert pipeline.tracer.sample_rate == 0.5
        assert pipeline.tracer.seed == 9
        assert pipeline.profiler is None
        assert pipeline.collector.max_batch_size == 4

    def test_detach_leaves_the_server_clean(self, make_server, make_trace):
        pipeline = TelemetryPipeline()
        admission = EwmaAdmissionController(alpha=0.3, depth_threshold=10.0)
        server = make_server(admission=admission)
        pipeline.attach(server)
        server.run(make_trace(n=16))
        pipeline.detach(server)
        assert "run" not in vars(server)
        assert pipeline.collector not in server._observers
        assert pipeline.tracer not in server._observers
        assert admission._metrics is None
        # A detached pipeline stops accumulating.
        arrivals = pipeline.collector.registry.counter("arrivals")
        profile = pipeline.profiler.stats()
        server.run(make_trace(n=16))
        assert pipeline.collector.registry.counter("arrivals") == arrivals
        assert pipeline.profiler.stats() == profile

    def test_ewma_gauge_matches_the_controller_state(self, make_server, make_trace):
        """bind_metrics publishes the controller's own smoothed depth."""
        pipeline = TelemetryPipeline(tracing=False, profiling=False)
        admission = EwmaAdmissionController(alpha=0.3, depth_threshold=4.0)
        server = make_server(admission=admission)
        pipeline.attach(server)
        server.run(make_trace(n=32, rate_rps=3000.0))
        registry = pipeline.collector.registry
        latest = registry.latest("admission.smoothed_queue_depth")
        assert latest is not None
        assert latest == pytest.approx(admission.smoothed_depth)
        # The gauge is windowed like everything else, and the EWMA smooths
        # the raw queue-depth signal (its max never exceeds the raw max).
        observed = [
            window.gauges["admission.smoothed_queue_depth"]
            for index in registry.window_indices()
            if (window := registry.window(index)) is not None
            and "admission.smoothed_queue_depth" in window.gauges
        ]
        assert observed  # published at least once
        raw_max = max(
            window.gauges["queue_depth"].max
            for index in registry.window_indices()
            if (window := registry.window(index)) is not None
            and "queue_depth" in window.gauges
        )
        assert max(gauge.max for gauge in observed) <= raw_max + 1e-9


class TestReport:
    @pytest.fixture
    def run_pipeline(self, make_server, make_trace):
        pipeline = TelemetryPipeline(window_s=0.005)
        server = make_server()
        pipeline.attach(server)
        slo = server.run(make_trace(n=24))
        pipeline.detach(server)
        return pipeline, slo

    def test_report_joins_the_unified_hierarchy(self, run_pipeline):
        pipeline, slo = run_pipeline
        report = pipeline.report()
        assert report.kind == "telemetry"
        decoded = Report.from_json(report.to_json())
        assert isinstance(decoded, TelemetryReport)
        assert decoded == report
        assert decoded.num_windows == report.num_windows
        assert decoded.duration_s == pytest.approx(
            report.windows[-1].end_s - report.windows[0].start_s
        )
        assert report.counters["completions"] == slo.num_requests
        assert report.stages.critical_stage is not None
        assert report.profile.events > 0

    def test_format_renders_every_section(self, run_pipeline):
        pipeline, _ = run_pipeline
        text = pipeline.report().format()
        for needle in (
            "telemetry windows",
            "window series",
            "stage breakdown",
            "critical stage",
            "sampled span trees",
            "simulator speed",
            "self time",
        ):
            assert needle in text, needle

    def test_write_and_load_round_trip(self, run_pipeline, tmp_path):
        pipeline, slo = run_pipeline
        out = tmp_path / "telemetry"
        paths = pipeline.write(str(out))
        assert set(paths) == {"metrics", "spans", "report"}
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [METRICS_FILE, SPANS_FILE, REPORT_FILE]
        )
        windows = [
            json.loads(line)
            for line in (out / METRICS_FILE).read_text().splitlines()
        ]
        assert len(windows) == pipeline.report().num_windows
        assert sum(row["arrivals"] for row in windows) == slo.num_requests
        spans = [
            RequestTrace.from_dict(json.loads(line))
            for line in (out / SPANS_FILE).read_text().splitlines()
        ]
        assert len(spans) == len(pipeline.tracer.traces)
        loaded = load_telemetry(str(out))
        assert loaded == pipeline.report()

    def test_load_rejects_non_telemetry_reports(self, run_pipeline, tmp_path):
        _, slo = run_pipeline
        (tmp_path / REPORT_FILE).write_text(slo.to_json())
        with pytest.raises(ValueError, match="telemetry"):
            load_telemetry(str(tmp_path))


class TestEngineIntegration:
    def test_serve_populates_last_telemetry_and_leaves_the_report_alone(self):
        baseline = Engine(engine_config()).serve()
        engine = Engine(engine_config(observability=ObservabilityConfig()))
        report = engine.serve()
        assert report.to_json() == baseline.to_json()  # byte identity
        telemetry = engine.last_telemetry
        assert telemetry is not None
        assert telemetry.collector.registry.counter("completions") == (
            report.num_requests
        )
        assert Engine(engine_config()).last_telemetry is None

    def test_fleet_serve_merges_shard_telemetry(self):
        config = engine_config(
            observability=ObservabilityConfig(),
            fleet=FleetConfig(num_shards=3),
            num_requests=30,
        )
        engine = Engine(config)
        report = engine.serve()
        assert isinstance(report, FleetReport)
        telemetry = engine.last_telemetry
        assert telemetry is not None
        registry = telemetry.collector.registry
        assert registry.counter("arrivals") == 30
        assert registry.counter("completions") == report.fleet.num_requests
        assert telemetry.tracer.completed_requests == report.fleet.num_requests
        assert telemetry.tracer.orphans() == []
        # Shards simulate one shared timeline; merged windows stay contiguous.
        series = telemetry.collector.series()
        assert [w.index for w in series] == list(
            range(series[0].index, series[-1].index + 1)
        )
        # The profile folds all shards' event loops.
        assert telemetry.profiler.completed_requests == report.fleet.num_requests

    def test_fleet_report_is_unchanged_by_telemetry(self):
        trace_config = engine_config(fleet=FleetConfig(num_shards=2))
        baseline = Engine(trace_config).serve()
        observed = Engine(
            engine_config(
                observability=ObservabilityConfig(), fleet=FleetConfig(num_shards=2)
            )
        ).serve()
        assert baseline.to_json() == observed.to_json()


class TestDiurnalAcceptance:
    def test_drop_rate_tracks_the_sinusoid(self):
        """Peak-phase windows of serving_diurnal.json drop, troughs do not.

        The config's arrival rate follows a ``period_s=0.05`` sinusoid and
        telemetry windows are 0.01 s wide, so windows with
        ``index % 5 in (1, 2)`` sit on the rate peak and ``(3, 4)`` in the
        trough; the drop-rate series must separate the two phases.
        """
        engine = Engine(
            example_config("serving_diurnal.json", {"window_s": 0.01})
        )
        report = engine.serve()
        assert report.dropped_requests > 0  # overload is the scenario's point
        series = engine.last_telemetry.collector.series()
        peak = [w.drop_rate for w in series if w.index % 5 in (1, 2)]
        trough = [w.drop_rate for w in series if w.index % 5 in (3, 4)]
        assert peak and trough
        peak_mean = sum(peak) / len(peak)
        trough_mean = sum(trough) / len(trough)
        assert peak_mean > 0.2
        assert peak_mean > trough_mean + 0.1
        # Arrival rate itself must swing visibly window to window too.
        rates = [w.arrival_rate_rps for w in series]
        assert max(rates) > 2.0 * (min(rates) + 1.0)

    def test_window_rows_survive_the_jsonl_dump(self, tmp_path):
        engine = Engine(
            example_config("serving_diurnal.json", {"window_s": 0.01})
        )
        engine.serve()
        paths = engine.last_telemetry.write(str(tmp_path / "out"))
        rows = [
            json.loads(line)
            for line in Path(paths["metrics"]).read_text().splitlines()
        ]
        fields = {field.name for field in dataclasses.fields(type(
            engine.last_telemetry.collector.series()[0]
        ))}
        for row in rows:
            assert set(row) <= fields
        assert sum(row["drops"] for row in rows) > 0
