"""Scale-model training and inference (paper §IV.a).

The scale model is a small, low-resolution classifier trained with a
*multilabel* binary cross-entropy objective: for each candidate inference
resolution it predicts whether the backbone would classify the image
correctly at that resolution.  At inference time the resolution with the
highest predicted likelihood is chosen (optionally preferring the cheapest
resolution among near-ties, which is what realizes the FLOP savings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sharding import ShardedBackbones
from repro.data.dataset import SyntheticDataset
from repro.imaging.transforms import InferencePreprocessor
from repro.nn.losses import BinaryCrossEntropyLoss, sigmoid
from repro.nn.module import Module
from repro.nn.optim import Adam


def build_multilabel_targets(
    sharded: ShardedBackbones,
    resolutions: tuple[int, ...],
    crop_ratio: float = 0.75,
) -> tuple[np.ndarray, np.ndarray]:
    """Multilabel targets from sharded backbones (thin wrapper, see Fig 5)."""
    return sharded.correctness_targets(resolutions, crop_ratio=crop_ratio)


@dataclass(frozen=True)
class ScaleModelConfig:
    """Hyperparameters for scale-model training."""

    scale_resolution: int = 32
    crop_ratio: float = 0.75
    epochs: int = 6
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0


class ScaleModelTrainer:
    """Train a scale model against per-resolution correctness targets."""

    def __init__(
        self,
        model: Module,
        dataset: SyntheticDataset,
        resolutions: tuple[int, ...],
        config: ScaleModelConfig = ScaleModelConfig(),
    ) -> None:
        if len(resolutions) < 2:
            raise ValueError("the scale model needs at least two candidate resolutions")
        self.model = model
        self.dataset = dataset
        self.resolutions = tuple(resolutions)
        self.config = config
        self.preprocessor = InferencePreprocessor(crop_ratio=config.crop_ratio)
        self.optimizer = Adam(model.parameters(), lr=config.learning_rate)
        self.loss_fn = BinaryCrossEntropyLoss()
        self.history: list[dict] = []

    def _make_batch(self, indices: np.ndarray) -> np.ndarray:
        inputs = [
            self.preprocessor(
                self.dataset[int(index)].render(), self.config.scale_resolution
            )[0]
            for index in indices
        ]
        return np.stack(inputs, axis=0)

    def fit(self, indices: np.ndarray, targets: np.ndarray) -> list[dict]:
        """Train on ``indices`` with multilabel ``targets`` aligned row-for-row."""
        indices = np.asarray(indices)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (len(indices), len(self.resolutions)):
            raise ValueError(
                f"targets must have shape ({len(indices)}, {len(self.resolutions)})"
            )
        rng = np.random.default_rng(self.config.seed)
        for epoch in range(self.config.epochs):
            order = rng.permutation(len(indices))
            self.model.train()
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, len(order), self.config.batch_size):
                rows = order[start : start + self.config.batch_size]
                inputs = self._make_batch(indices[rows])
                logits = self.model(inputs)
                loss = self.loss_fn(logits, targets[rows])
                self.optimizer.zero_grad()
                self.model.backward(self.loss_fn.backward())
                self.optimizer.step()
                epoch_loss += loss
                num_batches += 1
            self.history.append({"epoch": epoch, "train_loss": epoch_loss / max(num_batches, 1)})
        return self.history

    def predictor(self) -> "ScaleModelPredictor":
        return ScaleModelPredictor(
            self.model,
            self.resolutions,
            scale_resolution=self.config.scale_resolution,
            crop_ratio=self.config.crop_ratio,
        )


class ScaleModelPredictor:
    """Run a trained scale model and select inference resolutions."""

    def __init__(
        self,
        model: Module,
        resolutions: tuple[int, ...],
        scale_resolution: int = 32,
        crop_ratio: float = 0.75,
        tie_tolerance: float = 0.02,
    ) -> None:
        outputs = model.output_shape((1, 3, scale_resolution, scale_resolution))[-1]
        if outputs != len(resolutions):
            raise ValueError(
                f"the scale model has {outputs} outputs but there are "
                f"{len(resolutions)} candidate resolutions; it needs one per resolution"
            )
        self.model = model
        self.resolutions = tuple(resolutions)
        self.scale_resolution = scale_resolution
        self.crop_ratio = crop_ratio
        self.tie_tolerance = tie_tolerance
        self.preprocessor = InferencePreprocessor(crop_ratio=crop_ratio)

    def predict_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Per-resolution predicted correctness likelihoods for one HWC image."""
        self.model.eval()
        inputs = self.preprocessor(image, self.scale_resolution)
        logits = self.model(inputs)
        return sigmoid(logits[0])

    def choose_resolution(
        self, image: np.ndarray, prefer_cheaper: bool = True
    ) -> tuple[int, np.ndarray]:
        """Pick the inference resolution for one image.

        Returns ``(resolution, probabilities)``.  With ``prefer_cheaper``,
        the lowest resolution whose likelihood is within ``tie_tolerance``
        of the maximum wins (the paper's practical refinement, §VIII.d);
        otherwise the arg-max resolution is used.
        """
        probabilities = self.predict_probabilities(image)
        best = float(probabilities.max())
        if prefer_cheaper:
            for column in np.argsort(self.resolutions):
                if probabilities[column] >= best - self.tie_tolerance:
                    return self.resolutions[int(column)], probabilities
        column = int(np.argmax(probabilities))
        return self.resolutions[column], probabilities
