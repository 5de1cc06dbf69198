"""The paper's contribution: dynamic-resolution inference.

* :mod:`repro.core.trainer` — minibatch training/evaluation loops for the
  numpy models on synthetic datasets;
* :mod:`repro.core.sharding` — the cross-validation sharded backbone
  training scheme of Fig 5;
* :mod:`repro.core.scale_model` — multilabel (per-resolution) target
  construction and scale-model training/inference (§IV.a);
* :mod:`repro.core.calibration` — SSIM-threshold storage calibration via
  binary search (§V);
* :mod:`repro.core.policies` — static, dynamic and oracle resolution
  selection policies.

The end-to-end two-model pipeline of Fig 4 (prefix read, scale model,
top-up, backbone) is :class:`~repro.serving.server.InferenceServer`;
``examples/quickstart.py`` runs it at zero load.
"""

from repro.core.trainer import Trainer, TrainingConfig, evaluate_accuracy
from repro.core.sharding import ShardedBackbones, train_sharded_backbones
from repro.core.scale_model import (
    ScaleModelPredictor,
    ScaleModelTrainer,
    build_multilabel_targets,
)
from repro.core.calibration import (
    CalibrationCurve,
    CalibrationResult,
    StorageCalibrator,
)
from repro.core.policies import (
    DynamicResolutionPolicy,
    OracleResolutionPolicy,
    ResolutionPolicy,
    StaticResolutionPolicy,
)

__all__ = [
    "Trainer",
    "TrainingConfig",
    "evaluate_accuracy",
    "ShardedBackbones",
    "train_sharded_backbones",
    "build_multilabel_targets",
    "ScaleModelTrainer",
    "ScaleModelPredictor",
    "StorageCalibrator",
    "CalibrationResult",
    "CalibrationCurve",
    "ResolutionPolicy",
    "StaticResolutionPolicy",
    "DynamicResolutionPolicy",
    "OracleResolutionPolicy",
]
