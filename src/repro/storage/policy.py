"""Scan-read policies.

A read policy answers the question the storage tier asks for every request:
"the model wants to run at resolution ``r`` — how many scans of this image
do I read?"  The calibrated policy is built from per-resolution SSIM
thresholds produced by :mod:`repro.core.calibration`; per image it reads
the smallest scan prefix whose decoded-and-resized version reaches the
threshold (the paper's mechanism in §V, applied per image in Tables III/IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.schema import Fraction, PositiveInt, check
from repro.codec.progressive import ProgressiveImage
from repro.imaging.metrics import ssim
from repro.imaging.resize import resize


@dataclass
class ScanReadPolicy:
    """Map (image, inference resolution) to a number of scans to read.

    Parameters
    ----------
    ssim_thresholds:
        Per-resolution minimum SSIM (relative to the full-data image resized
        to that resolution).  Resolutions absent from the mapping fall back
        to reading everything.
    cache:
        Optional per-(image key, resolution) cache of scan decisions so a
        serving loop does not recompute SSIM for repeated requests.  Each
        count is kept with the encoded object it was computed from, so a
        key whose object has since been replaced is computed again.
    """

    ssim_thresholds: dict[PositiveInt, Fraction] = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check(self)

    def scans_for(
        self,
        encoded: ProgressiveImage,
        resolution: int,
        key: str | None = None,
    ) -> int:
        """Smallest scan prefix whose decoded image meets the resolution's threshold."""
        threshold = self.ssim_thresholds.get(resolution)
        if threshold is None or threshold >= 1.0:
            return encoded.num_scans
        if key is not None:
            cached = self.cache.get((key, resolution))
            if cached is not None and cached[0] is encoded:
                return cached[1]

        reference = resize(
            encoded.decode(encoded.num_scans), (resolution, resolution), method="bilinear"
        )
        chosen = encoded.num_scans
        for num_scans in range(1, encoded.num_scans + 1):
            candidate = resize(
                encoded.decode(num_scans), (resolution, resolution), method="bilinear"
            )
            if ssim(reference, candidate) >= threshold:
                chosen = num_scans
                break
        if key is not None:
            self.cache[(key, resolution)] = (encoded, chosen)
        return chosen

    def expected_relative_read(
        self, encoded_images: list[ProgressiveImage], resolution: int
    ) -> float:
        """Mean relative read size over a set of images at one resolution."""
        if not encoded_images:
            raise ValueError("need at least one encoded image")
        fractions = []
        for encoded in encoded_images:
            scans = self.scans_for(encoded, resolution)
            fractions.append(encoded.relative_read_size(scans))
        return float(np.mean(fractions))
