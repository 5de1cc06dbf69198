"""Trace realism — synthetic vs diurnal vs replayed-diurnal load.

Not a figure from the paper: the serving SLO numbers of PRs 1–4 were all
measured under memoryless synthetic traffic, so this harness asks how the
control plane behaves once the load looks like production.  One identical
serving tier (EWMA admission + next-scan prefetch over a scan-granular
cache) is driven by four traffic shapes at the same mean offered rate:

* ``poisson`` — the steady synthetic baseline;
* ``onoff`` — synthetic bursts (what PR 4 tuned against);
* ``diurnal`` — the *same Poisson base* modulated by a sinusoid-plus-
  envelope day/night swing, with Zipf popularity calibrated to the
  bundled web-proxy CDF;
* ``diurnal-replay`` — the diurnal run *recorded* through
  :class:`TraceRecorder` and *replayed* from the trace schema.

Reproduced claims: modulating the Poisson base — same mean rate, same
seed, same keys — pushes drop rate and tail latency well above the
unmodulated baseline (rate swing, not mean load, is what stresses
admission), and the replayed trace reproduces the diurnal run's report
byte-for-byte — record → replay is lossless, so any external trace in
the same schema is a first-class workload.
"""

from conftest import emit

from repro.analysis.report import format_table
from repro.api import Engine, EngineConfig
from repro.api.config import (
    AdmissionConfig,
    ArrivalsConfig,
    BackboneConfig,
    BatchCostConfig,
    CacheConfig,
    DiurnalConfig,
    PolicyConfig,
    PopularityConfig,
    PrefetchConfig,
    ServingConfig,
    StoreConfig,
)
from repro.serving.traces import TraceRecorder
from repro.serving.workload import TraceReplayArrivals

NUM_REQUESTS = 160
MEAN_RATE = 2200.0

POPULARITY = PopularityConfig(
    name="cdn-calibrated", options={"dataset": "web-proxy-breslau99"}
)

ARRIVALS = {
    "poisson": ArrivalsConfig(
        name="poisson",
        options=dict(rate_rps=MEAN_RATE, seed=11),
        popularity=POPULARITY,
    ),
    "onoff": ArrivalsConfig(
        name="onoff",
        options=dict(
            on_rate_rps=2.0 * MEAN_RATE, mean_on_s=0.05, mean_off_s=0.05, seed=11
        ),
        popularity=POPULARITY,
    ),
    "diurnal": ArrivalsConfig(
        name="poisson",
        options=dict(rate_rps=MEAN_RATE, seed=11),
        popularity=POPULARITY,
        diurnal=DiurnalConfig(
            period_s=0.06, amplitude=0.9, envelope=(1.8, 1.0, 0.35, 1.2)
        ),
    ),
}


def make_config(arrivals: ArrivalsConfig) -> EngineConfig:
    return EngineConfig(
        resolutions=(24, 32, 48),
        scale_resolution=24,
        store=StoreConfig(
            profile="imagenet-like",
            overrides=dict(
                name="realism-bench",
                num_classes=4,
                storage_resolution_mean=96,
                storage_resolution_std=10,
                object_scale_mean=0.55,
                object_scale_std=0.2,
                texture_weight=0.6,
                detail_sensitivity=1.0,
            ),
            num_images=16,
            seed=5,
            quality=85,
        ),
        backbone=BackboneConfig(
            name="resnet-tiny", options={"num_classes": 4, "base_width": 4, "seed": 0}
        ),
        policy=PolicyConfig(name="static", resolution=32),
        ssim_thresholds={24: 0.90, 32: 0.92, 48: 0.95},
        serving=ServingConfig(
            arrivals=arrivals,
            num_requests=NUM_REQUESTS,
            num_workers=2,
            max_batch_size=4,
            max_wait_s=0.004,
            cache=CacheConfig(capacity_bytes=200_000),
            batch_cost=BatchCostConfig(name="hwsim", machine="4790K"),
            admission=AdmissionConfig(
                name="ewma", options=dict(alpha=0.3, depth_threshold=10.0)
            ),
            prefetch=PrefetchConfig(
                name="next-scan",
                options=dict(idle_threshold_s=0.02, max_keys_per_gap=4, seed=7),
            ),
        ),
    )


def run_scenarios():
    base = Engine(make_config(ARRIVALS["poisson"]))
    store = base.build_store()
    backbone = base.build_backbone()
    reports = {}
    diurnal_trace = None
    for label, arrivals in ARRIVALS.items():
        engine = Engine(make_config(arrivals), store=store, backbone=backbone)
        if label == "diurnal":
            # Record the diurnal run so the replay scenario can reproduce it.
            recorder = TraceRecorder()
            server = engine.build_server()
            server.subscribe(recorder)
            reports[label] = server.run(engine.build_trace())
            diurnal_trace = tuple(recorder.records)
        else:
            reports[label] = engine.serve()
    replay_engine = Engine(
        make_config(ARRIVALS["poisson"]), store=store, backbone=backbone
    )
    replay = TraceReplayArrivals(records=diurnal_trace)
    reports["diurnal-replay"] = replay_engine.serve(
        replay.stream(store.keys(), len(diurnal_trace))
    )
    return reports


def test_trace_realism(benchmark):
    reports = benchmark.pedantic(run_scenarios, rounds=1, iterations=1)

    rows = [
        [
            label,
            report.num_requests,
            100.0 * report.drop_rate,
            report.p50_latency_ms,
            report.p99_latency_ms,
            report.prefetch_hits,
            report.bytes_from_store / 1e3,
        ]
        for label, report in reports.items()
    ]
    emit(
        "trace_realism",
        format_table(
            ["traffic", "served", "drop %", "p50 ms", "p99 ms", "pf hits", "store KB"],
            rows,
            float_format="{:.1f}",
        ),
    )

    diurnal = reports["diurnal"]
    poisson = reports["poisson"]
    # Offered load is conserved: served + dropped covers every arrival.
    for label, report in reports.items():
        assert report.num_requests + report.dropped_requests == NUM_REQUESTS, label
    # Rate modulation, not the mean rate, is what stresses admission: the
    # diurnal peaks shed load the unmodulated base never does.
    assert diurnal.drop_rate > poisson.drop_rate
    assert diurnal.p99_latency_ms > poisson.p99_latency_ms
    # Record → replay is lossless: the replayed report is byte-identical.
    assert reports["diurnal-replay"] == diurnal
