"""Resolution selection policies.

A policy answers "what resolution should the backbone run at for this
image?".  Three policies cover the paper's comparison:

* :class:`StaticResolutionPolicy` — the baseline: one fixed resolution for
  every image (the paper additionally grants this baseline oracle knowledge
  of the best fixed resolution for the dataset/crop);
* :class:`DynamicResolutionPolicy` — the paper's contribution: a scale-model
  predictor picks the resolution per image;
* :class:`OracleResolutionPolicy` — an upper bound that consults the true
  per-image correctness (useful for analysis/ablations, not deployable).
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import RESOLUTION_POLICIES
from repro.core.scale_model import ScaleModelPredictor


class ResolutionPolicy:
    """Interface: map an image (HWC array) to an inference resolution."""

    name = "base"

    def select(self, image: np.ndarray) -> int:
        raise NotImplementedError

    def select_cached(self, image: np.ndarray, token: object) -> int:
        """Like :meth:`select`, with a memoization hint from the caller.

        ``token`` is an opaque hashable key under which the *image* is
        reproducible — the serving event loop passes ``(key, scans_read)``,
        because decoding the same scan prefix of the same stored object
        always yields the same pixels.  Policies whose per-image choice is
        a pure function of the pixels may cache per token; policies with
        request-dependent state (e.g. load-adaptive degradation) must keep
        that state out of the memo.  The default just delegates, so the
        event loop can call this unconditionally on any policy.
        """
        return self.select(image)


@RESOLUTION_POLICIES.register("static")
class StaticResolutionPolicy(ResolutionPolicy):
    """Always use one fixed resolution."""

    def __init__(self, resolution: int) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self.name = f"static-{resolution}"

    def select(self, image: np.ndarray) -> int:
        return self.resolution


@RESOLUTION_POLICIES.register("dynamic")
class DynamicResolutionPolicy(ResolutionPolicy):
    """Use a trained scale model to pick the resolution per image."""

    def __init__(self, predictor: ScaleModelPredictor, prefer_cheaper: bool = True) -> None:
        self.predictor = predictor
        self.prefer_cheaper = prefer_cheaper
        self.name = "dynamic"
        self._select_memo: dict = {}

    def select(self, image: np.ndarray) -> int:
        resolution, _ = self.predictor.choose_resolution(
            image, prefer_cheaper=self.prefer_cheaper
        )
        return resolution

    def select_cached(self, image: np.ndarray, token: object) -> int:
        """Memoized :meth:`select`: the scale model is a pure function of the
        pixels, and the pixels are a pure function of the caller's token, so
        repeated requests for the same stored prefix skip the forward pass."""
        resolution = self._select_memo.get(token)
        if resolution is None:
            resolution, _ = self.predictor.choose_resolution(
                image, prefer_cheaper=self.prefer_cheaper
            )
            self._select_memo[token] = resolution
        return resolution


@RESOLUTION_POLICIES.register("oracle")
class OracleResolutionPolicy(ResolutionPolicy):
    """Pick the cheapest resolution at which the backbone is actually correct.

    Requires ground-truth correctness per (image, resolution); used only for
    upper-bound analysis.
    """

    def __init__(self, resolutions: tuple[int, ...]) -> None:
        self.resolutions = tuple(sorted(resolutions))
        self.name = "oracle"
        self._correctness: dict[int, np.ndarray] = {}
        self._cursor = 0

    def register(self, image_index: int, correctness: np.ndarray) -> None:
        """Record the per-resolution correctness vector for one image index."""
        correctness = np.asarray(correctness)
        if correctness.shape != (len(self.resolutions),):
            raise ValueError("correctness vector must align with the policy's resolutions")
        self._correctness[image_index] = correctness

    def select_for_index(self, image_index: int) -> int:
        """Resolution choice for a registered image index."""
        correctness = self._correctness.get(image_index)
        if correctness is None:
            return self.resolutions[-1]
        for column, resolution in enumerate(self.resolutions):
            if correctness[column] > 0.5:
                return resolution
        return self.resolutions[-1]

    def select(self, image: np.ndarray) -> int:
        raise NotImplementedError(
            "OracleResolutionPolicy selects by image index; use select_for_index"
        )
