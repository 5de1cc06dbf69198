"""Dynamic batching of queued requests by chosen resolution.

Requests that selected the same inference resolution are grouped into one
backbone batch; a group is flushed when it reaches ``max_batch_size`` or
when its oldest member has waited ``max_wait_s`` (the standard
size-or-deadline batching rule of serving systems).  The batcher is a pure
data structure — the event loop in :mod:`repro.serving.server` owns the
clock and schedules the timeout events the batcher asks for.

Batch execution cost comes from a :class:`BatchCostModel`.  The
hwsim-backed model prices a batch with the same analytical latency
estimator the paper's Table II uses (:class:`ModelLatencyEstimator`), so
larger batches amortize per-operator overhead exactly as the perf model
predicts; the linear model is a cheap stand-in for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.api.registry import BATCH_COSTS, BATCHERS
from repro.api.schema import NonNegative, PositiveInt, check, checked
from repro.hwsim.latency import ModelLatencyEstimator
from repro.hwsim.machine import MachineModel
from repro.nn.module import Module


# -- batch cost models ------------------------------------------------------------


class BatchCostModel:
    """Interface: seconds to execute one batch at one resolution."""

    def batch_seconds(self, resolution: int, batch_size: int) -> float:
        raise NotImplementedError


@BATCH_COSTS.register("linear")
@dataclass(frozen=True)
class LinearBatchCost(BatchCostModel):
    """Affine cost ``fixed + per_item * batch_size`` (fast; used in tests)."""

    per_item_seconds: NonNegative = 0.001
    fixed_seconds: NonNegative = 0.002

    def __post_init__(self) -> None:
        check(self)

    def batch_seconds(self, resolution: int, batch_size: int) -> float:
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        return self.fixed_seconds + self.per_item_seconds * batch_size


@BATCH_COSTS.register("hwsim")
class HwSimBatchCost(BatchCostModel):
    """Price batches with the analytical hardware model of ``repro.hwsim``.

    Estimates are cached per ``(resolution, batch_size)`` — the serving loop
    asks for the same few shapes thousands of times.  The default library
    kernel source skips autotuning so server construction stays cheap; pass
    ``kernel_source="tuned"`` to serve with autotuned schedules.
    """

    def __init__(
        self,
        model: Module,
        machine: MachineModel,
        kernel_source: str = "library",
        model_name: str | None = None,
    ) -> None:
        self.model = model
        self.machine = machine
        self.kernel_source = kernel_source
        self.model_name = model_name
        self._estimator = ModelLatencyEstimator(machine)
        self._cache: dict[tuple[int, int], float] = {}

    def batch_seconds(self, resolution: int, batch_size: int) -> float:
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        shape = (resolution, batch_size)
        if shape not in self._cache:
            breakdown = self._estimator.estimate(
                self.model,
                resolution,
                kernel_source=self.kernel_source,
                batch_size=batch_size,
                model_name=self.model_name,
            )
            self._cache[shape] = breakdown.total_seconds
        return self._cache[shape]


# -- the batcher itself --------------------------------------------------------------


@dataclass(frozen=True)
class BatchTimer:
    """A timeout the event loop must schedule for a newly started group."""

    deadline: float
    resolution: int
    epoch: int


@dataclass
class _Group:
    items: list = field(default_factory=list)
    epoch: int = 0


@BATCHERS.register("dynamic")
class DynamicBatcher:
    """Group opaque items by resolution under a size-or-deadline rule."""

    @checked
    def __init__(self, max_batch_size: PositiveInt, max_wait_s: NonNegative) -> None:
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self._groups: dict[int, _Group] = {}

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in some group."""
        return sum(len(group.items) for group in self._groups.values())

    def pending_resolutions(self) -> list[int]:
        return [resolution for resolution, group in self._groups.items() if group.items]

    def _flush(self, group: _Group) -> list:
        batch = group.items
        group.items = []
        group.epoch += 1  # invalidates any timer scheduled for this group
        return batch

    def add(self, resolution: int, item: Any, now: float) -> tuple[list | None, BatchTimer | None]:
        """Queue ``item``; returns ``(batch_to_dispatch, timer_to_schedule)``.

        At most one of the two is non-None: a full group flushes
        immediately, while the first item of a fresh group asks the event
        loop to schedule its deadline.
        """
        group = self._groups.get(resolution)
        if group is None:  # not setdefault: that builds a _Group per call
            group = self._groups[resolution] = _Group()
        group.items.append(item)
        if len(group.items) >= self.max_batch_size:
            return self._flush(group), None
        if len(group.items) == 1:
            return None, BatchTimer(now + self.max_wait_s, resolution, group.epoch)
        return None, None

    def on_timeout(self, resolution: int, epoch: int) -> list | None:
        """Flush the group a timer was armed for, unless it already flushed."""
        group = self._groups.get(resolution)
        if group is None or group.epoch != epoch or not group.items:
            return None
        return self._flush(group)
