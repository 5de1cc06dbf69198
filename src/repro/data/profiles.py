"""Dataset profiles.

A :class:`DatasetProfile` captures the statistics of a dataset that matter
for the paper's study: how large the stored images are, how large objects
appear in them, and whether class evidence lives in coarse shape or fine
texture.  Two presets mirror the paper's two datasets:

* ``IMAGENET_LIKE`` — many classes, moderate-resolution storage
  (average 472x405 in the paper), wide object-scale spread, and
  texture-dominant class evidence (fine detail matters, so accuracy decays
  faster when image data is dropped — Fig 6a/b).
* ``CARS_LIKE`` — fewer classes, higher-resolution storage (average
  699x482), larger and more centered objects, and shape-dominant class
  evidence (abstract shape matters more than texture, so far more of the
  image data can be skipped — Fig 6c/d and Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

from repro.api.registry import PROFILES
from repro.api.schema import Range, check


@dataclass(frozen=True)
class DatasetProfile:
    """Statistical description of a synthetic dataset.

    Attributes
    ----------
    name:
        Human-readable dataset name used in reports.
    num_classes:
        Number of object classes.
    storage_resolution_mean, storage_resolution_std:
        Mean/std of the stored (native) square-equivalent resolution in
        pixels.  The paper reports average dimensions of 472x405 for
        ImageNet and 699x482 for Cars; the square-equivalent mean preserves
        the per-image byte-count relationship between the datasets.
    object_scale_mean, object_scale_std:
        Mean/std of the fraction of the frame occupied by the object.
    texture_weight:
        How much class evidence is carried by fine texture (0..1); the
        remainder is carried by coarse shape/palette.
    detail_sensitivity:
        How quickly model accuracy degrades as image fidelity (SSIM) drops;
        used by the accuracy surrogate.  Higher means more sensitive
        (ImageNet-like), lower means more tolerant (Cars-like).
    base_quality:
        Default JPEG quality the synthetic "photographs" are stored at.
    """

    name: str
    num_classes: Annotated[int, Range(ge=2)]  # a classification needs two
    storage_resolution_mean: Annotated[int, Range(ge=32)]  # smaller means nothing
    storage_resolution_std: int
    object_scale_mean: float
    object_scale_std: float
    texture_weight: Annotated[float, Range(ge=0, le=1)]
    detail_sensitivity: float
    base_quality: int = 85

    def __post_init__(self) -> None:
        check(self)


IMAGENET_LIKE = DatasetProfile(
    name="imagenet-like",
    num_classes=10,
    storage_resolution_mean=437,  # sqrt(472 * 405)
    storage_resolution_std=80,
    object_scale_mean=0.55,
    object_scale_std=0.18,
    texture_weight=0.75,
    detail_sensitivity=1.0,
)

CARS_LIKE = DatasetProfile(
    name="cars-like",
    num_classes=8,
    storage_resolution_mean=580,  # sqrt(699 * 482)
    storage_resolution_std=90,
    object_scale_mean=0.68,
    object_scale_std=0.12,
    texture_weight=0.35,
    detail_sensitivity=0.45,
)

for _profile in (IMAGENET_LIKE, CARS_LIKE):
    PROFILES.register(_profile.name, _profile)


def get_profile(name: str) -> DatasetProfile:
    """Look up a preset profile by name (``"imagenet-like"`` or ``"cars-like"``)."""
    return PROFILES.get(name)
