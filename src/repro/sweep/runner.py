"""Parallel sweep orchestration: fan grid cells across a process pool.

:class:`SweepRunner` executes every cell of a dotted-path override grid —
the same cells, in the same stable order, as the original serial
``Engine.sweep`` — with three orthogonal upgrades:

* **parallelism** — ``workers > 1`` fans cells across a seeded,
  deterministic ``multiprocessing`` pool.  Each worker receives only the
  *config dict* (plain JSON data), never pickled live objects: the shared
  store/backbone fast path is re-established *inside* each worker process
  by rebuilding the pieces once per worker from the base config (memoized
  on the worker's own engine), so grids that sweep ``store.*`` or
  ``backbone.*`` paths simply skip the sharing and build per cell, exactly
  like the serial path.  Cells are pure functions of the config, so the
  result set is identical for any worker count;
* **crash tolerance** — with an ``output_dir``, every completed cell is
  atomically persisted as ``cells/cell_<index>.json`` the moment it
  finishes.  A re-invoked sweep loads existing cell files, verifies they
  belong to this grid (index + overrides must match), and runs only the
  missing cells;
* **byte-identical serial fallback** — ``workers=1`` runs in-process with
  the exact sharing semantics the serial ``Engine.sweep`` always had (the
  parent engine's memoized store/backbone are reused directly), so a
  single-worker sweep is indistinguishable from the pre-runner facade.

The runner returns :class:`~repro.api.engine.SweepPoint` objects; the
combine and Pareto stages (:mod:`repro.sweep.results`,
:mod:`repro.sweep.analysis`) operate on the persisted cells.
"""

from __future__ import annotations

import ctypes
import glob
import json
import multiprocessing
import os
from typing import TYPE_CHECKING, Callable

from repro.api.reports import Report
from repro.sweep.grid import SweepCell, expand_grid
from repro.sweep.results import cell_path, cell_payload, load_cell, write_cell

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine lazy-imports us)
    from repro.api.engine import Engine, SweepPoint


def _shares(grid_paths, section: str) -> bool:
    """True when no grid path touches ``section`` (so the piece can be shared)."""
    return not any(path.split(".")[0] == section for path in grid_paths)


# -- worker-process plumbing --------------------------------------------------
# The pool initializer stores the *base config* (plain data over IPC) and a
# per-worker engine whose memoized build_store()/build_backbone() realize
# the shared pieces once per worker process — rebuilt, never pickled.

_WORKER_STATE: dict = {}

# OpenBLAS's (set, get) thread-count calls: numpy's wheels bundle a build
# whose symbols carry a ``scipy_`` prefix and a ``64_`` suffix; a system
# OpenBLAS exports the plain names.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_threads() -> tuple[Callable[[int], None], Callable[[], int]] | None:
    """The (set, get) thread-count calls of the OpenBLAS numpy loaded, or None.

    Looks for the copy numpy's wheel bundles in ``numpy.libs``, then for a
    system OpenBLAS by its soname.  Opens only a library already in the
    process, so it never loads a second BLAS.
    """
    import numpy

    bundled = os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")
    candidates = sorted(glob.glob(bundled)) + ["libopenblas.so.0"]
    for path in candidates:
        try:
            library = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(library, set_name):
                set_threads = getattr(library, set_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads = getattr(library, get_name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


def _init_worker(
    config_data: dict, share_store: bool, share_backbone: bool, processes: int
) -> None:
    """Pool initializer: cap BLAS threads, then rebuild the base engine.

    A forked or spawned worker's OpenBLAS sizes its thread pool to every CPU,
    so ``processes`` workers would run ``processes × cpu_count`` BLAS threads
    that spin against each other.  Each worker gets its share instead, before
    its first BLAS call; without a known OpenBLAS it runs unchanged.
    """
    blas = _openblas_threads()
    if blas is not None:
        set_threads, _ = blas
        set_threads(max(1, (os.cpu_count() or 1) // processes))

    from repro.api.config import EngineConfig
    from repro.api.engine import Engine

    _WORKER_STATE["engine"] = Engine(EngineConfig.from_dict(config_data))
    _WORKER_STATE["share_store"] = share_store
    _WORKER_STATE["share_backbone"] = share_backbone


def _run_cell(task: tuple) -> dict:
    """Serve one cell inside a worker; returns (and maybe persists) its payload."""
    from repro.api.engine import Engine

    index, seed, overrides, output_dir = task
    base = _WORKER_STATE["engine"]
    engine = Engine(
        base.config.with_overrides(overrides),
        store=base.build_store() if _WORKER_STATE["share_store"] else None,
        backbone=base.build_backbone() if _WORKER_STATE["share_backbone"] else None,
    )
    payload = cell_payload(index, seed, overrides, engine.serve())
    if output_dir is not None:
        write_cell(output_dir, payload)
    return payload


class SweepRunner:
    """Run a sweep grid over an engine: serial, pooled, and resumable.

    ``engine`` supplies the base config *and* (in serial mode) its memoized
    shared pieces, so ``SweepRunner(engine, grid).run()`` with the default
    ``workers=1`` behaves byte-for-byte like the historical in-process
    sweep, prebuilt caller-supplied stores included.
    """

    def __init__(
        self,
        engine: "Engine",
        grid: dict[str, list],
        *,
        workers: int = 1,
        output_dir: str | None = None,
        base_seed: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"sweep workers must be >= 1, got {workers}")
        self.engine = engine
        self.grid = dict(grid)
        self.workers = workers
        self.output_dir = output_dir
        self.base_seed = base_seed
        self.cells: list[SweepCell] = expand_grid(self.grid, base_seed=base_seed)
        self._share_store = _shares(self.grid, "store")
        self._share_backbone = _shares(self.grid, "backbone")

    # -- resume ----------------------------------------------------------------
    def _load_completed(self) -> dict[int, dict]:
        """Valid cell payloads already on disk, keyed by cell index.

        A payload from a *different* grid (mismatched overrides for the
        same index) is a corrupted-resume hazard, not a cache hit — raise
        rather than silently mixing two sweeps in one directory.
        """
        if self.output_dir is None:
            return {}
        completed: dict[int, dict] = {}
        for cell in self.cells:
            payload = load_cell(cell_path(self.output_dir, cell.index))
            if payload is None:
                continue
            expected = json.loads(json.dumps(cell.overrides))
            if payload.get("overrides") != expected:
                raise ValueError(
                    f"{cell_path(self.output_dir, cell.index)} was written by a "
                    f"different grid (found overrides {payload.get('overrides')!r}, "
                    f"expected {expected!r}); point --out at a fresh directory"
                )
            completed[cell.index] = payload
        return completed

    # -- execution -------------------------------------------------------------
    def _run_serial(self, pending: list[SweepCell]) -> dict[int, dict]:
        from repro.api.engine import Engine

        shared_store = self.engine.build_store() if self._share_store else None
        shared_backbone = (
            self.engine.build_backbone() if self._share_backbone else None
        )
        payloads: dict[int, dict] = {}
        for cell in pending:
            engine = Engine(
                self.engine.config.with_overrides(cell.overrides),
                store=shared_store,
                backbone=shared_backbone,
            )
            payload = cell_payload(cell.index, cell.seed, cell.overrides, engine.serve())
            if self.output_dir is not None:
                write_cell(self.output_dir, payload)
            payloads[cell.index] = payload
        return payloads

    def _run_pool(self, pending: list[SweepCell]) -> dict[int, dict]:
        tasks = [
            (cell.index, cell.seed, cell.overrides, self.output_dir)
            for cell in pending
        ]
        payloads: dict[int, dict] = {}
        processes = min(self.workers, len(pending))
        with multiprocessing.Pool(
            processes=processes,
            initializer=_init_worker,
            initargs=(
                self.engine.config.to_dict(),
                self._share_store,
                self._share_backbone,
                processes,
            ),
        ) as pool:
            # Completion order is nondeterministic; cell indices restore it.
            for payload in pool.imap_unordered(_run_cell, tasks, chunksize=1):
                payloads[payload["cell_index"]] = payload
        return payloads

    def run(self) -> list["SweepPoint"]:
        """Execute (or resume) the sweep; points come back in stable cell order."""
        from repro.api.engine import SweepPoint

        completed = self._load_completed()
        pending = [cell for cell in self.cells if cell.index not in completed]
        if pending:
            if self.workers == 1:
                completed.update(self._run_serial(pending))
            else:
                completed.update(self._run_pool(pending))
        points = []
        for cell in self.cells:
            payload = completed[cell.index]
            points.append(
                SweepPoint(
                    overrides=dict(cell.overrides),
                    report=Report.from_dict(payload["report"]),
                )
            )
        return points
