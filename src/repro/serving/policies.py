"""Load-adaptive resolution selection for the serving tier.

``core/policies.py`` answers "what resolution does this *image* deserve?";
under heavy traffic the server also has to ask "what resolution can the
*system* afford right now?".  :class:`LoadAdaptiveResolutionPolicy` wraps
any per-image policy and degrades its choice down the resolution ladder
when the serving queue is deep — trading accuracy for latency exactly the
way the paper's FLOPs/bytes-vs-accuracy curves say is cheap to do.  Because
the degraded resolution is chosen *before* the stage-2 read, shedding load
also sheds bytes off storage, not just backbone FLOPs.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.api.registry import RESOLUTION_POLICIES
from repro.api.schema import NonNegativeInt, PositiveInt, Resolutions, checked
from repro.core.policies import ResolutionPolicy


@RESOLUTION_POLICIES.register("load-adaptive")
class LoadAdaptiveResolutionPolicy(ResolutionPolicy):
    """Wrap a policy and step down the resolution ladder under queue pressure.

    Parameters
    ----------
    inner:
        The per-image policy (static, dynamic, ...) whose choice is the
        starting point.
    resolutions:
        The candidate ladder; degradation moves toward its minimum.
    queue_threshold:
        Queue depths at or below this leave the inner choice untouched.
        Every further full multiple of the threshold degrades one more
        ladder step (depth in ``(t, 2t]`` → 1 step, ``(2t, 3t]`` → 2, ...).
    max_degradation_steps:
        Cap on how many ladder steps a single request may be degraded.
    """

    @checked
    def __init__(
        self,
        inner: ResolutionPolicy,
        resolutions: Resolutions,
        queue_threshold: PositiveInt = 8,
        max_degradation_steps: NonNegativeInt | None = None,
    ) -> None:
        self.inner = inner
        self.resolutions = tuple(sorted(resolutions))
        self.queue_threshold = queue_threshold
        self.max_degradation_steps = (
            len(self.resolutions) - 1
            if max_degradation_steps is None
            else max_degradation_steps
        )
        self.name = f"adaptive({inner.name})"
        self.queue_depth = 0
        self.degraded_requests = 0
        self.total_steps_shed = 0

    def observe_queue_depth(self, depth: int) -> None:
        """Called by the server before each selection with the current depth."""
        self.queue_depth = depth

    def reset_counters(self) -> None:
        """Zero the degradation tallies (the server calls this per run)."""
        self.degraded_requests = 0
        self.total_steps_shed = 0

    def _degradation_steps(self) -> int:
        if self.queue_depth <= self.queue_threshold:
            return 0
        overload = (self.queue_depth - 1) // self.queue_threshold
        return min(overload, self.max_degradation_steps)

    def select(self, image: np.ndarray) -> int:
        return self._degrade(self.inner.select(image))

    def select_cached(self, image: np.ndarray, token: object) -> int:
        """Memoize only the inner per-image choice; the degradation step
        depends on the live queue depth and runs fresh for every request."""
        return self._degrade(self.inner.select_cached(image, token))

    def _degrade(self, choice: int) -> int:
        steps = self._degradation_steps()
        if steps == 0:
            return choice
        # Clamp the inner choice onto the ladder, then walk down.  Shedding
        # load must never *raise* the resolution, so a choice already below
        # the ladder floor passes through untouched.
        index = bisect_left(self.resolutions, choice)
        index = min(index, len(self.resolutions) - 1)
        degraded_index = max(0, index - steps)
        degraded = min(choice, self.resolutions[degraded_index])
        if degraded < choice:
            self.degraded_requests += 1
            self.total_steps_shed += index - degraded_index
        return degraded
