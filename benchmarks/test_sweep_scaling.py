"""Sweep scaling: serial vs. pooled wall-clock over the same grid.

Runs one 2x2 override grid twice through the sweep runner — ``workers=1``
(the historical in-process path) and a multiprocessing pool sized to the
machine — asserts the combined results tables are identical, and records
both wall-clocks plus the speedup ratio to
``benchmarks/output/sweep_scaling.json``.  That file is host wall-clock
output, rewritten on every run and not tracked; the committed speed
references are ``benchmarks/baseline.json`` and the ``benchmarks/perf/``
harness.  ``cpu_count`` is recorded alongside because
the ratio is only meaningful relative to the cores available: on a
single-core container the pool cannot beat serial and the ratio documents
that, it does not fail the run.
"""

import json
import os
import time

from conftest import OUTPUT_DIR, emit

from repro.api import Engine, EngineConfig
from repro.api.config import (
    ArrivalsConfig,
    BackboneConfig,
    BatchCostConfig,
    CacheConfig,
    PolicyConfig,
    ServingConfig,
    StoreConfig,
)
from repro.sweep.results import combine_output_dir

GRID = {
    "serving.cache.capacity_bytes": [50_000, 300_000],
    "serving.num_workers": [1, 2],
}


def make_config() -> EngineConfig:
    return EngineConfig(
        resolutions=(24, 32, 48),
        scale_resolution=24,
        store=StoreConfig(
            profile="imagenet-like",
            overrides=dict(
                name="sweep-scaling-bench",
                num_classes=4,
                storage_resolution_mean=96,
                storage_resolution_std=10,
            ),
            num_images=10,
            seed=5,
            quality=85,
        ),
        backbone=BackboneConfig(
            name="resnet-tiny", options={"num_classes": 4, "base_width": 4, "seed": 0}
        ),
        policy=PolicyConfig(name="static", resolution=32),
        ssim_thresholds={24: 0.90, 32: 0.92, 48: 0.95},
        serving=ServingConfig(
            arrivals=ArrivalsConfig(
                name="poisson", options=dict(rate_rps=800.0, seed=11, zipf_alpha=1.0)
            ),
            num_requests=64,
            num_workers=2,
            max_batch_size=4,
            max_wait_s=0.004,
            cache=CacheConfig(capacity_bytes=300_000),
            batch_cost=BatchCostConfig(name="hwsim", machine="4790K"),
        ),
    )


def _timed_sweep(workers: int, output_dir) -> tuple[float, list]:
    engine = Engine(make_config())
    start = time.perf_counter()
    points = engine.sweep(GRID, workers=workers, output_dir=output_dir)
    return time.perf_counter() - start, points


def test_sweep_scaling_baseline(tmp_path):
    # At least 2 so the multiprocessing path itself is exercised even on a
    # single-core machine (where the recorded speedup will sit around 1x).
    pool_workers = max(2, min(4, os.cpu_count() or 1))
    serial_seconds, serial_points = _timed_sweep(1, tmp_path / "serial")
    pool_seconds, pool_points = _timed_sweep(pool_workers, tmp_path / "pool")

    # Identity first, speed second: any worker count yields the same points
    # and (order-normalized) the same combined table.
    assert pool_points == serial_points
    serial_table = combine_output_dir(tmp_path / "serial")
    pool_table = combine_output_dir(tmp_path / "pool")
    assert pool_table == serial_table
    assert serial_table.num_rows == 4

    speedup = serial_seconds / pool_seconds if pool_seconds > 0 else float("inf")
    baseline = {
        "grid_cells": serial_table.num_rows,
        "cpu_count": os.cpu_count(),
        "pool_workers": pool_workers,
        "serial_seconds": round(serial_seconds, 4),
        "pool_seconds": round(pool_seconds, 4),
        "speedup": round(speedup, 3),
        "tables_identical": True,
    }
    OUTPUT_DIR.mkdir(exist_ok=True)
    with open(OUTPUT_DIR / "sweep_scaling.json", "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    emit(
        "sweep_scaling",
        "\n".join(
            [
                f"grid cells       {serial_table.num_rows}",
                f"cpu count        {os.cpu_count()}",
                f"serial           {serial_seconds:7.3f} s",
                f"pool ({pool_workers} proc)    {pool_seconds:7.3f} s",
                f"speedup          {speedup:7.3f}x",
            ]
        ),
    )
