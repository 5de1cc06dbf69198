"""SweepRunner: serial parity, pool equivalence, resume, shared-store rebuild."""

import itertools
import json
import multiprocessing
import os

import pytest

from repro.api import Engine, EngineConfig
from repro.api.config import (
    ArrivalsConfig,
    BackboneConfig,
    CacheConfig,
    PolicyConfig,
    ServingConfig,
    StoreConfig,
)
from repro.api.engine import SweepPoint
from repro.sweep import runner
from repro.sweep.results import cell_path, combine_output_dir, load_cells
from repro.sweep.runner import SweepRunner, _init_worker, _openblas_threads


def sweep_config(**engine_kwargs) -> EngineConfig:
    """A small, fast serving scenario for sweep orchestration tests."""
    return EngineConfig(
        resolutions=(24, 32, 48),
        scale_resolution=24,
        store=StoreConfig(
            profile="imagenet-like",
            overrides={
                "name": "sweep-test",
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
                name="poisson", options={"rate_rps": 500.0, "seed": 5, "zipf_alpha": 1.0}
            ),
            num_requests=24,
            cache=CacheConfig(capacity_bytes=120_000),
        ),
        **engine_kwargs,
    )


GRID = {"serving.cache.capacity_bytes": [5_000, 120_000]}


def legacy_sweep(engine: Engine, grid: dict) -> list[SweepPoint]:
    """The pre-runner serial loop, verbatim, as the parity oracle."""
    paths = sorted(grid)
    shared_store = (
        None if any(path.split(".")[0] == "store" for path in paths)
        else engine.build_store()
    )
    shared_backbone = (
        None if any(path.split(".")[0] == "backbone" for path in paths)
        else engine.build_backbone()
    )
    points = []
    for values in itertools.product(*(grid[path] for path in paths)):
        overrides = dict(zip(paths, values))
        cell = Engine(
            engine.config.with_overrides(overrides),
            store=shared_store,
            backbone=shared_backbone,
        )
        points.append(SweepPoint(overrides=overrides, report=cell.serve()))
    return points


class TestSerialParity:
    def test_matches_legacy_loop_exactly(self):
        engine = Engine(sweep_config())
        assert engine.sweep(GRID) == legacy_sweep(Engine(sweep_config()), GRID)

    def test_engine_sweep_defaults_to_config_section(self):
        config = sweep_config(sweep=dict(GRID))
        points = Engine(config).sweep()
        assert [point.overrides for point in points] == [
            {"serving.cache.capacity_bytes": 5_000},
            {"serving.cache.capacity_bytes": 120_000},
        ]

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="no sweep grid"):
            Engine(sweep_config()).sweep({})

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(Engine(sweep_config()), GRID, workers=0)


class TestPoolEquivalence:
    def test_parallel_points_equal_serial_points(self):
        serial = Engine(sweep_config()).sweep(GRID, workers=1)
        parallel = Engine(sweep_config()).sweep(GRID, workers=2)
        assert parallel == serial

    def test_store_sweep_rebuilds_inside_workers(self):
        # Sweeping store.* paths disables the shared-store fast path; under
        # the pool the store must be rebuilt per cell inside the workers
        # (never pickled from the parent), and each cell must reflect its
        # own store.
        grid = {"store.num_images": [6, 8]}
        serial = Engine(sweep_config()).sweep(grid, workers=1)
        parallel = Engine(sweep_config()).sweep(grid, workers=2)
        assert parallel == serial
        sizes = {point.report.baseline_bytes for point in parallel}
        assert len(sizes) == 2  # different stores produce different bytes

    def test_parallel_combined_table_matches_serial(self, tmp_path):
        Engine(sweep_config()).sweep(GRID, workers=1, output_dir=tmp_path / "serial")
        Engine(sweep_config()).sweep(GRID, workers=2, output_dir=tmp_path / "pool")
        serial = combine_output_dir(tmp_path / "serial")
        pool = combine_output_dir(tmp_path / "pool")
        assert pool == serial


def _worker_blas_threads(_: int) -> int:
    """Pool task: the BLAS thread count of the worker that runs it."""
    return _openblas_threads()[1]()


class _FakeSystemOpenBlas:
    """A system OpenBLAS as ``ctypes`` opens it: the plain symbol names only."""

    def __init__(self) -> None:
        self.threads = 1
        self.openblas_set_num_threads = lambda count: setattr(self, "threads", count)
        self.openblas_get_num_threads = lambda: self.threads


class TestWorkerBlasThreads:
    def test_helper_finds_numpys_openblas(self):
        # A miss would leave every pool worker oversubscribed, which shows
        # only as a slower sweep; fail here instead.
        assert _openblas_threads() is not None

    def test_pool_workers_get_their_share_of_the_cpus(self):
        get_threads = _openblas_threads()[1]
        before = get_threads()
        with multiprocessing.Pool(
            processes=2,
            initializer=_init_worker,
            initargs=(sweep_config().to_dict(), True, True, 2),
        ) as pool:
            counts = pool.map(_worker_blas_threads, range(4), chunksize=1)
        assert counts == [max(1, os.cpu_count() // 2)] * 4
        assert get_threads() == before

    def test_helper_falls_back_to_a_system_openblas_by_soname(self, monkeypatch):
        system = _FakeSystemOpenBlas()
        opened = []

        def cdll(path, mode):
            opened.append((path, mode))
            if path != "libopenblas.so.0":
                raise OSError(path)
            return system

        monkeypatch.setattr(runner.glob, "glob", lambda pattern: [])
        monkeypatch.setattr(runner.ctypes, "CDLL", cdll)
        set_threads, get_threads = _openblas_threads()
        assert (set_threads, get_threads) == (
            system.openblas_set_num_threads,
            system.openblas_get_num_threads,
        )
        # Only a library already in the process is opened, never a second BLAS.
        assert opened == [("libopenblas.so.0", getattr(os, "RTLD_NOLOAD", 0))]
        set_threads(3)
        assert get_threads() == 3

    def test_without_a_known_openblas_the_worker_still_builds(self, monkeypatch):
        def cdll(path, mode):
            raise OSError(path)

        monkeypatch.setattr(runner.glob, "glob", lambda pattern: [])
        monkeypatch.setattr(runner.ctypes, "CDLL", cdll)
        monkeypatch.setattr(runner, "_WORKER_STATE", {})
        assert _openblas_threads() is None
        config = sweep_config()
        _init_worker(config.to_dict(), True, True, 2)
        assert runner._WORKER_STATE["engine"].config == config
        assert runner._WORKER_STATE["share_store"] is runner._WORKER_STATE["share_backbone"] is True


class TestResume:
    def test_cells_persisted_once_per_grid_point(self, tmp_path):
        Engine(sweep_config()).sweep(GRID, output_dir=tmp_path)
        payloads = load_cells(tmp_path)
        assert [payload["cell_index"] for payload in payloads] == [0, 1]

    def test_resume_skips_completed_cells(self, tmp_path):
        first = Engine(sweep_config()).sweep(GRID, output_dir=tmp_path)
        kept = cell_path(tmp_path, 0)
        stamp = kept.stat().st_mtime_ns
        cell_path(tmp_path, 1).unlink()
        second = Engine(sweep_config()).sweep(GRID, output_dir=tmp_path)
        assert second == first
        # The surviving cell was reused, not recomputed.
        assert kept.stat().st_mtime_ns == stamp
        assert cell_path(tmp_path, 1).exists()

    def test_resume_from_fully_complete_directory_runs_nothing(self, tmp_path):
        first = Engine(sweep_config()).sweep(GRID, output_dir=tmp_path)
        runner = SweepRunner(Engine(sweep_config()), GRID, output_dir=tmp_path)
        runner._run_serial = runner._run_pool = None  # any execution would blow up
        assert runner.run() == first

    def test_foreign_cells_rejected(self, tmp_path):
        Engine(sweep_config()).sweep(GRID, output_dir=tmp_path)
        path = cell_path(tmp_path, 0)
        payload = json.loads(path.read_text())
        payload["overrides"] = {"serving.num_workers": 4}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="different grid"):
            Engine(sweep_config()).sweep(GRID, output_dir=tmp_path)

    def test_corrupt_cell_file_is_recomputed(self, tmp_path):
        first = Engine(sweep_config()).sweep(GRID, output_dir=tmp_path)
        cell_path(tmp_path, 0).write_text("{truncated")
        second = Engine(sweep_config()).sweep(GRID, output_dir=tmp_path)
        assert second == first
