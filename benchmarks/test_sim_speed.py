"""Simulator speed: how fast the event loop itself runs, wall-clock.

Every other benchmark measures the *simulated* system; this one profiles
the *simulator* over a fixed serving scenario — events per wall-second,
served requests per wall-second, the sim-time speedup ratio, and where the
wall clock goes (storage reads, batch pricing, backbone execution,
observer dispatch).  Besides the usual text table it records the numbers
to ``benchmarks/output/sim_speed.json`` (host wall-clock output, rewritten
on every run and not tracked).

Two committed references frame the results:

* ``benchmarks/baseline_pr6.json`` — the frozen pre-fast-core loop, the
  denominator of the fast core's speedup claims (never re-record it);
* ``benchmarks/baseline.json`` — the current expected speed.  With
  ``PERF_GATE=1`` in the environment (the CI perf-gate job sets it) the
  benchmark *fails* when a traffic mix drops below
  ``PERF_GATE_RATIO`` x its committed events/sec — the regression gate.
  Re-record it (copy a fresh ``output/sim_speed.json`` over it) after an
  intentional simulator-speed change, on an otherwise idle machine.

The gate is opt-in via the environment because wall-clock speed on a
loaded development machine (e.g. mid-way through the full suite) is too
noisy to fail tier-1 on.
"""

import json
import os

from conftest import OUTPUT_DIR, emit

from repro.api import Engine, EngineConfig
from repro.api.config import (
    ArrivalsConfig,
    BackboneConfig,
    BatchCostConfig,
    CacheConfig,
    ObservabilityConfig,
    PolicyConfig,
    ServingConfig,
    StoreConfig,
)

RESOLUTIONS = (24, 32, 48)
NUM_REQUESTS = 120

#: Committed expected-speed reference and the regression threshold.
BASELINE_PATH = OUTPUT_DIR.parent / "baseline.json"
PERF_GATE_RATIO = 0.8

TRAFFICS = {
    "poisson-800rps": ArrivalsConfig(
        name="poisson", options=dict(rate_rps=800.0, seed=11, zipf_alpha=1.0)
    ),
    "bursty-2000rps": ArrivalsConfig(
        name="onoff",
        options=dict(
            on_rate_rps=2000.0, mean_on_s=0.04, mean_off_s=0.15, seed=11, zipf_alpha=1.0
        ),
    ),
}


def make_config(arrivals: ArrivalsConfig) -> EngineConfig:
    return EngineConfig(
        resolutions=RESOLUTIONS,
        scale_resolution=24,
        store=StoreConfig(
            profile="imagenet-like",
            overrides=dict(
                name="sim-speed-bench",
                num_classes=4,
                storage_resolution_mean=96,
                storage_resolution_std=10,
            ),
            num_images=12,
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
            cache=CacheConfig(capacity_bytes=300_000),
            batch_cost=BatchCostConfig(name="hwsim", machine="4790K"),
            # Metrics and tracing off: measure the bare loop, not telemetry.
            observability=ObservabilityConfig(metrics=False, tracing=False),
        ),
    )


def test_sim_speed_baseline():
    store = None
    backbone = None
    rows = []
    baseline = {}
    for name, arrivals in TRAFFICS.items():
        engine = Engine(make_config(arrivals), store=store, backbone=backbone)
        report = engine.serve()
        store, backbone = engine.build_store(), engine.build_backbone()
        stats = engine.last_telemetry.profiler.stats()
        # A real run, measurably profiled.
        assert report.num_requests > 0
        assert stats.events > report.num_requests
        assert stats.events_per_sec is not None and stats.events_per_sec > 0
        assert stats.requests_per_sec is not None and stats.requests_per_sec > 0
        for component in ("storage-read", "batch-pricing", "backbone-execute"):
            assert component in stats.self_seconds, component
        baseline[name] = {
            "num_requests": report.num_requests,
            "events": stats.events,
            "wall_seconds": round(stats.wall_seconds, 6),
            "events_per_sec": round(stats.events_per_sec, 1),
            "requests_per_sec": round(stats.requests_per_sec, 1),
            "sim_seconds": round(stats.sim_seconds, 6),
            "sim_time_ratio": round(stats.sim_time_ratio, 3),
            "self_seconds": {
                key: round(value, 6) for key, value in stats.self_seconds.items()
            },
        }
        rows.append(
            f"{name:<16} {stats.events:>7,} events  "
            f"{stats.events_per_sec:>10,.0f} ev/s  "
            f"{stats.requests_per_sec:>8,.0f} req/s  "
            f"{stats.sim_time_ratio:>7.2f}x sim time"
        )
    OUTPUT_DIR.mkdir(exist_ok=True)
    with open(OUTPUT_DIR / "sim_speed.json", "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit("sim_speed", "\n".join(rows))

    if os.environ.get("PERF_GATE"):
        with open(BASELINE_PATH, encoding="utf-8") as handle:
            committed = json.load(handle)
        for name, reference in committed.items():
            floor = PERF_GATE_RATIO * reference["events_per_sec"]
            measured = baseline[name]["events_per_sec"]
            assert measured >= floor, (
                f"{name}: {measured:,.0f} ev/s is below the regression gate "
                f"({PERF_GATE_RATIO}x the committed {reference['events_per_sec']:,.0f} "
                f"ev/s in {BASELINE_PATH.name}); either fix the slowdown or "
                "re-record the baseline deliberately"
            )
