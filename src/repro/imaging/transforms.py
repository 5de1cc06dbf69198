"""Model-input preprocessing.

Implements the crop -> resize -> normalize path of Fig 1 and packages it as
an :class:`InferencePreprocessor` that the trainers, the scale model and the
Fig-4 inference path (:class:`~repro.serving.server.InferenceServer`) share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.crop import center_crop_ratio
from repro.imaging.resize import resize

#: ImageNet channel statistics used by the reference models.
IMAGENET_MEAN = np.array([0.485, 0.456, 0.406])
IMAGENET_STD = np.array([0.229, 0.224, 0.225])


def to_model_input(
    image: np.ndarray,
    normalize: bool = True,
    mean: np.ndarray = IMAGENET_MEAN,
    std: np.ndarray = IMAGENET_STD,
) -> np.ndarray:
    """Convert an HWC [0,1] image into a ``(1, 3, H, W)`` model input tensor."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected HWC RGB image, got shape {image.shape}")
    if normalize:
        image = (image - mean) / std
    chw = np.transpose(image, (2, 0, 1))
    return chw[None, ...]


def batch_to_model_input(
    images: list[np.ndarray],
    normalize: bool = True,
) -> np.ndarray:
    """Stack equally-sized HWC images into an ``(N, 3, H, W)`` batch."""
    tensors = [to_model_input(image, normalize=normalize) for image in images]
    return np.concatenate(tensors, axis=0)


@dataclass(frozen=True)
class InferencePreprocessor:
    """Crop-then-resize preprocessing used for every inference request.

    Parameters
    ----------
    crop_ratio:
        Center-crop area ratio applied before resizing (paper Figs 8/9 sweep
        25%, 56%, 75%, 100%).
    resize_method:
        Interpolation used to reach the inference resolution.
    normalize:
        Whether to apply ImageNet channel normalization.
    """

    crop_ratio: float = 0.75
    resize_method: str = "bilinear"
    normalize: bool = True

    def __call__(self, image: np.ndarray, resolution: int) -> np.ndarray:
        """Produce the ``(1, 3, resolution, resolution)`` input for one image."""
        cropped = center_crop_ratio(image, self.crop_ratio)
        resized = resize(cropped, (resolution, resolution), method=self.resize_method)
        return to_model_input(resized, normalize=self.normalize)

    def preprocess_hwc(self, image: np.ndarray, resolution: int) -> np.ndarray:
        """Same as ``__call__`` but returns the HWC image before tensor packing."""
        cropped = center_crop_ratio(image, self.crop_ratio)
        return resize(cropped, (resolution, resolution), method=self.resize_method)
