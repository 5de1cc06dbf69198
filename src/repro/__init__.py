"""repro — reproduction of "Characterizing and Taming Resolution in CNNs" (IISWC 2021).

The package is organized around the three axes the paper characterizes plus
the dynamic-resolution pipeline built on top of them:

* :mod:`repro.nn` — numpy CNN substrate (ResNet-18/50, MobileNetV2, FLOPs);
* :mod:`repro.imaging` — resize/crop/color transforms, PSNR/SSIM, synthetic scenes;
* :mod:`repro.codec` — progressive DCT (JPEG-like) codec with per-scan byte accounting;
* :mod:`repro.data` — synthetic dataset generators (ImageNet-like, Cars-like);
* :mod:`repro.storage` — progressive image store, read accounting, bandwidth/cost model;
* :mod:`repro.hwsim` — CPU machine models, conv kernel config space, vendor library,
  autotuner, end-to-end latency model;
* :mod:`repro.surrogate` — empirical accuracy surfaces calibrated to the paper;
* :mod:`repro.core` — the paper's contribution: scale-model training, storage
  calibration, and the dynamic, static and oracle resolution policies;
* :mod:`repro.serving` — online serving: deterministic discrete-event
  simulator with scan-granular caching, dynamic batching, a bounded worker
  pool, and load-adaptive resolution policies; its ``InferenceServer`` is
  the paper's two-model pipeline (Fig 4), which the quickstart runs at zero
  load;
* :mod:`repro.analysis` — Pareto frontiers and paper-style table/figure builders;
* :mod:`repro.api` — the unified facade: component registries, declarative
  JSON configs, the :class:`~repro.api.engine.Engine`, and the
  ``python -m repro`` CLI.

The facade is re-exported here (``repro.Engine``, ``repro.EngineConfig``,
``repro.registry``) and resolved lazily so that ``import repro`` stays
cheap and the component modules can self-register without import cycles.

Two unrelated kinds of "sharding" exist in the codebase and are re-exported
here under unambiguous names so neither shadows the other:

* ``repro.ShardedBackbones`` / ``repro.train_sharded_backbones`` —
  cross-validation **training-data** sharding (:mod:`repro.core.sharding`,
  paper Fig 5), which trains complementary backbones for unbiased
  scale-model labels;
* ``repro.ShardedFleet`` / ``repro.ConsistentHashRouter`` /
  ``repro.FleetReport`` — **request** sharding for online serving
  (:mod:`repro.serving.fleet`), which routes traffic across server nodes
  with a consistent-hash ring; the same fleet also runs replica groups,
  autoscaling and fault injection.
"""

from typing import Any

__version__ = "1.2.0"

PAPER_RESOLUTIONS = (112, 168, 224, 280, 336, 392, 448)
"""The seven inference resolutions evaluated throughout the paper."""

PAPER_CROP_RATIOS = (0.25, 0.56, 0.75, 1.00)
"""The center-crop area ratios used in the paper's accuracy/FLOPs study."""

_API_EXPORTS = ("Engine", "EngineConfig", "Report", "registry")

#: Lazy re-exports living outside ``repro.api``: name -> defining module.
_LAZY_EXPORTS = {
    # Training-data sharding (cross-validated backbones, paper Fig 5).
    "ShardedBackbones": "repro.core.sharding",
    "train_sharded_backbones": "repro.core.sharding",
    # Request sharding (the online serving fleet).
    "ShardedFleet": "repro.serving.fleet",
    "ConsistentHashRouter": "repro.serving.fleet",
    "FleetReport": "repro.serving.fleet",
    # Sweep orchestration (parallel grids, columnar results, Pareto).
    "SweepRunner": "repro.sweep.runner",
    "ResultsTable": "repro.sweep.results",
}

__all__ = [
    "PAPER_RESOLUTIONS",
    "PAPER_CROP_RATIOS",
    "__version__",
    *_API_EXPORTS,
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name: str) -> Any:
    if name in _API_EXPORTS:
        import repro.api

        return getattr(repro.api, name)
    if name in _LAZY_EXPORTS:
        import importlib

        return getattr(importlib.import_module(_LAZY_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
