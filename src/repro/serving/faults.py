"""Seeded fault injectors: crash/recovery schedules and degraded storage.

A chaos run is a normal fleet run plus a deterministic *fault
schedule*: a sorted list of :class:`FaultEvent` edges saying when a shard
crashes, when it recovers, and when its storage link degrades or heals.
Injectors — registered in :data:`~repro.api.registry.FAULTS` and selected
by name in the ``serving.fleet.faults`` config list — produce that
schedule up front from the run horizon and the initial shard count, so the
whole chaos scenario is a pure function of the config: same seed, same
faults, byte-identical report.

The fleet applies the edges at segment boundaries, in
:func:`sort_schedule` order (:mod:`repro.serving.elastic` holds the
steps): a crash kills the shard's in-flight work (re-routed to
survivors), a recovery re-adds the shard with a cold cache, and a degraded
window scales the shard's
:class:`~repro.storage.bandwidth.StorageBandwidthModel` link down by the
window's factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Iterable, Literal, get_args

import numpy as np

from repro.api.registry import FAULTS
from repro.api.schema import (
    Fraction,
    NonEmpty,
    NonNegative,
    NonNegativeInt,
    Positive,
    PositiveInt,
    check,
    checked,
    decode,
)

CRASH = "crash"
RECOVER = "recover"
DEGRADE_START = "degrade-start"
DEGRADE_END = "degrade-end"

#: FaultEvent.kind values, in the order edges at one instant apply.  A
#: shard recovers before a window starting at that instant is applied to
#: it (a window applied to a down shard would be lost), and a window ends
#: before the next one on the same shard starts.
FaultKind = Literal["crash", "recover", "degrade-end", "degrade-start"]
_KINDS = get_args(FaultKind)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault edge: ``kind`` happens to ``shard_id`` at ``time``.

    ``factor`` only applies to ``degrade-start`` edges: the shard's storage
    link bandwidth is multiplied by it (0 < factor <= 1) until the matching
    ``degrade-end``.
    """

    time: NonNegative
    kind: FaultKind
    shard_id: int
    factor: Fraction = 1.0

    def __post_init__(self) -> None:
        check(self)


class FaultInjector:
    """Interface: produce a deterministic fault schedule for one run.

    ``horizon_s`` is the last arrival time of the trace and ``num_shards``
    the initial fleet size; the returned edges may target any initial shard
    and may extend past the horizon (a recovery scheduled after the last
    arrival still matters to requests waiting out a full outage).
    """

    def schedule(self, horizon_s: float, num_shards: int) -> list[FaultEvent]:
        raise NotImplementedError


def sort_schedule(events: Iterable[FaultEvent]) -> list[FaultEvent]:
    """Schedule order: time, then kind in :data:`_KINDS` order, then shard."""
    return sorted(
        events, key=lambda e: (e.time, _KINDS.index(e.kind), e.shard_id)
    )


@dataclass(frozen=True)
class Crash:
    """One ``crash-schedule`` descriptor: a shard, a crash time, an outage."""

    shard: NonNegativeInt
    at_s: NonNegative
    down_s: Positive | None = None

    def __post_init__(self) -> None:
        check(self)


@FAULTS.register("crash-schedule")
class CrashSchedule(FaultInjector):
    """Explicit shard crashes: ``crashes`` is a list of crash descriptors.

    Each descriptor is a mapping with ``shard`` (initial shard index),
    ``at_s`` (crash time) and optional ``down_s`` (outage length; omitted
    means the shard never recovers).  This is the injector chaos configs
    use to place a crash exactly where the traffic makes it hurt.
    """

    def __init__(self, crashes: list[dict]) -> None:
        self.crashes = decode(Annotated[tuple[Crash, ...], NonEmpty], crashes, "crashes")

    def schedule(self, horizon_s: float, num_shards: int) -> list[FaultEvent]:
        events: list[FaultEvent] = []
        for crash in self.crashes:
            if crash.shard >= num_shards:
                continue  # shard index beyond this run's fleet: nothing to kill
            events.append(FaultEvent(time=float(crash.at_s), kind=CRASH, shard_id=crash.shard))
            if crash.down_s is not None:
                events.append(
                    FaultEvent(
                        time=float(crash.at_s + crash.down_s),
                        kind=RECOVER,
                        shard_id=crash.shard,
                    )
                )
        return sort_schedule(events)


@FAULTS.register("random-crashes")
class RandomCrashes(FaultInjector):
    """Seeded random crashes: ``num_crashes`` outages at uniform times.

    Crash times draw uniformly over the run horizon, victims uniformly over
    the initial shards, and outage lengths from an exponential with mean
    ``mean_down_s`` — all from one ``numpy`` generator seeded with
    ``seed``, so a chaos sweep replays the exact same outages every run.
    """

    @checked
    def __init__(
        self, num_crashes: PositiveInt = 1, mean_down_s: Positive = 0.02, seed: int = 0
    ) -> None:
        self.num_crashes = num_crashes
        self.mean_down_s = mean_down_s
        self.seed = seed

    def schedule(self, horizon_s: float, num_shards: int) -> list[FaultEvent]:
        rng = np.random.default_rng(self.seed)
        events: list[FaultEvent] = []
        for _ in range(self.num_crashes):
            at_s = float(rng.uniform(0.0, max(horizon_s, 0.0)))
            shard = int(rng.integers(0, num_shards))
            down_s = float(rng.exponential(self.mean_down_s))
            events.append(FaultEvent(time=at_s, kind=CRASH, shard_id=shard))
            events.append(
                FaultEvent(time=at_s + max(down_s, 1e-9), kind=RECOVER, shard_id=shard)
            )
        return sort_schedule(events)


@dataclass(frozen=True)
class StorageWindow:
    """One ``degraded-storage`` descriptor: a shard's slowed-link window."""

    shard: NonNegativeInt
    at_s: NonNegative
    duration_s: Positive
    factor: Fraction = 0.5

    def __post_init__(self) -> None:
        check(self)


@FAULTS.register("degraded-storage")
class DegradedStorage(FaultInjector):
    """Degraded storage-bandwidth windows on individual shards.

    ``windows`` is a list of mappings with ``shard``, ``at_s``,
    ``duration_s`` and ``factor``: during the window the shard's
    :class:`~repro.storage.bandwidth.StorageBandwidthModel` link runs at
    ``factor`` times its configured bandwidth, so reads take longer,
    ready times slip, and the SLO impact shows up in the disrupted-window
    percentiles of the fleet report.
    """

    def __init__(self, windows: list[dict]) -> None:
        self.windows = decode(
            Annotated[tuple[StorageWindow, ...], NonEmpty], windows, "windows"
        )

    def schedule(self, horizon_s: float, num_shards: int) -> list[FaultEvent]:
        events: list[FaultEvent] = []
        for window in self.windows:
            if window.shard >= num_shards:
                continue
            at_s = float(window.at_s)
            events.append(
                FaultEvent(
                    time=at_s,
                    kind=DEGRADE_START,
                    shard_id=window.shard,
                    factor=float(window.factor),
                )
            )
            events.append(
                FaultEvent(
                    time=at_s + float(window.duration_s),
                    kind=DEGRADE_END,
                    shard_id=window.shard,
                )
            )
        return sort_schedule(events)
