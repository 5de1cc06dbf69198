"""Autoscale policies: turn fleet load signals into shard add/remove steps.

A fleet with an autoscaler (:class:`~repro.serving.fleet.ShardedFleet`,
stepping through :mod:`repro.serving.elastic`) evaluates its policy at
fixed sim-time epochs.  At each epoch it folds the interval's
traffic into one :class:`LoadSignal` — offered/completed/dropped counts,
the in-flight backlog, the live shard count — and asks the policy for a
shard delta.  The fleet clamps the answer toward the configured bound on
its own side (``max_shards`` for a scale-out, ``min_shards`` for a
scale-in) and applies it through the consistent-hash ring, so a policy
only ever reasons about load, never about ring membership mechanics.

Policies live in the :data:`~repro.api.registry.AUTOSCALE_POLICIES`
registry beside admission and prefetch; scenarios pick one by name in the
``serving.fleet.autoscale`` config section.  Everything is deterministic:
policies see only the signal and their own state, and
:meth:`AutoscalePolicy.reset` restores the initial state so reruns of the
same configuration scale identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.registry import AUTOSCALE_POLICIES
from repro.api.schema import Fraction, Positive, PositiveInt, checked


@dataclass(frozen=True)
class LoadSignal:
    """One autoscale epoch's view of fleet load.

    ``offered``/``completed``/``dropped`` count the interval's routed
    arrivals, completions and admission drops; ``backlog`` is the in-flight
    request count at the epoch boundary (routed minus completed minus
    dropped minus crash-failed, cumulatively) — the queue-depth proxy the
    EWMA policy smooths.  ``num_shards`` is the *live* shard count the
    delta applies to.
    """

    time: float
    interval_s: float
    offered: int
    completed: int
    dropped: int
    backlog: int
    num_shards: int

    @property
    def offered_rps_per_shard(self) -> float:
        """The interval's offered arrival rate, per live shard."""
        if self.interval_s <= 0 or self.num_shards <= 0:
            return 0.0
        return self.offered / (self.interval_s * self.num_shards)


class AutoscalePolicy:
    """Interface: propose a shard delta for one epoch's load signal.

    :meth:`decide` returns the desired change in shard count (positive =
    scale out, negative = scale in, 0 = hold); the fleet clamps it toward
    the configured bound on its side and never moves against its sign.
    :meth:`reset` restores any smoothing state — the fleet calls it once
    per run, which is what keeps same-seed reruns byte-identical.
    """

    def decide(self, signal: LoadSignal) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the initial policy state (called once per run)."""


@AUTOSCALE_POLICIES.register("none")
class NoAutoscale(AutoscalePolicy):
    """The no-op default: the fleet holds its configured shard count."""

    def decide(self, signal: LoadSignal) -> int:
        return 0


@AUTOSCALE_POLICIES.register("threshold")
class ThresholdAutoscaler(AutoscalePolicy):
    """Scale on offered-rate watermarks: out above high, in below low.

    The classic reactive controller: when the interval's offered rate per
    live shard exceeds ``high_rps_per_shard`` the fleet grows by ``step``;
    when it falls below ``low_rps_per_shard`` the fleet shrinks by
    ``step``.  The dead band between the watermarks prevents flapping on
    steady load; sizing it to the diurnal swing makes scale follow the
    sinusoid one step behind the traffic.
    """

    @checked
    def __init__(
        self,
        high_rps_per_shard: Positive = 500.0,
        low_rps_per_shard: Positive = 100.0,
        step: PositiveInt = 1,
    ) -> None:
        if low_rps_per_shard >= high_rps_per_shard:
            raise ValueError(
                "low_rps_per_shard must sit below high_rps_per_shard "
                "(the dead band prevents flapping)"
            )
        self.high_rps_per_shard = high_rps_per_shard
        self.low_rps_per_shard = low_rps_per_shard
        self.step = step

    def decide(self, signal: LoadSignal) -> int:
        rate = signal.offered_rps_per_shard
        if rate > self.high_rps_per_shard:
            return self.step
        if rate < self.low_rps_per_shard:
            return -self.step
        return 0


@AUTOSCALE_POLICIES.register("ewma-queue")
class EwmaQueueAutoscaler(AutoscalePolicy):
    """Scale on EWMA-smoothed in-flight backlog per shard.

    The raw backlog at an epoch boundary is noisy under bursty arrivals;
    this controller smooths it (``s ← α·backlog + (1-α)·s``, seeded with
    the first observation — the same estimator the EWMA admission
    controller uses for queue depth) and compares the smoothed value *per
    live shard* against watermarks: above ``high_backlog_per_shard`` the
    fleet grows, below ``low_backlog_per_shard`` it shrinks.  Backlog
    reacts to service-time pressure (slow storage, large batches) that a
    pure arrival-rate threshold cannot see.
    """

    @checked
    def __init__(
        self,
        alpha: Fraction = 0.5,
        high_backlog_per_shard: Positive = 4.0,
        low_backlog_per_shard: Positive = 0.5,
        step: PositiveInt = 1,
    ) -> None:
        if low_backlog_per_shard >= high_backlog_per_shard:
            raise ValueError(
                "low_backlog_per_shard must sit below high_backlog_per_shard "
                "(the dead band prevents flapping)"
            )
        self.alpha = alpha
        self.high_backlog_per_shard = high_backlog_per_shard
        self.low_backlog_per_shard = low_backlog_per_shard
        self.step = step
        self.smoothed_backlog: float | None = None

    def decide(self, signal: LoadSignal) -> int:
        if self.smoothed_backlog is None:
            self.smoothed_backlog = float(signal.backlog)
        else:
            self.smoothed_backlog = (
                self.alpha * signal.backlog
                + (1.0 - self.alpha) * self.smoothed_backlog
            )
        per_shard = (
            self.smoothed_backlog / signal.num_shards if signal.num_shards else 0.0
        )
        if per_shard > self.high_backlog_per_shard:
            return self.step
        if per_shard < self.low_backlog_per_shard:
            return -self.step
        return 0

    def reset(self) -> None:
        self.smoothed_backlog = None
