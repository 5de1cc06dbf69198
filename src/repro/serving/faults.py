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
from typing import Iterable

import numpy as np

from repro.api.registry import FAULTS
from repro.api.schema import is_finite as _is_finite

CRASH = "crash"
RECOVER = "recover"
DEGRADE_START = "degrade-start"
DEGRADE_END = "degrade-end"

#: FaultEvent.kind values, in the order edges at one instant apply.  A
#: shard recovers before a window starting at that instant is applied to
#: it (a window applied to a down shard would be lost), and a window ends
#: before the next one on the same shard starts.
_KINDS = (CRASH, RECOVER, DEGRADE_END, DEGRADE_START)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault edge: ``kind`` happens to ``shard_id`` at ``time``.

    ``factor`` only applies to ``degrade-start`` edges: the shard's storage
    link bandwidth is multiplied by it (0 < factor <= 1) until the matching
    ``degrade-end``.
    """

    time: float
    kind: str
    shard_id: int
    factor: float = 1.0

    def __post_init__(self) -> None:
        if not _is_finite(self.time) or self.time < 0:
            raise ValueError("fault time must be a finite non-negative number")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {_KINDS}")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("fault factor must be in (0, 1]")


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


@FAULTS.register("crash-schedule")
class CrashSchedule(FaultInjector):
    """Explicit shard crashes: ``crashes`` is a list of crash descriptors.

    Each descriptor is a mapping with ``shard`` (initial shard index),
    ``at_s`` (crash time) and optional ``down_s`` (outage length; omitted
    means the shard never recovers).  This is the injector chaos configs
    use to place a crash exactly where the traffic makes it hurt.
    """

    def __init__(self, crashes: list[dict]) -> None:
        if not isinstance(crashes, list) or not crashes:
            raise ValueError("crash-schedule needs a non-empty list of crashes")
        self.crashes = []
        for index, crash in enumerate(crashes):
            if not isinstance(crash, dict):
                raise ValueError(f"crashes[{index}] must be a mapping")
            unknown = sorted(set(crash) - {"shard", "at_s", "down_s"})
            if unknown:
                raise ValueError(
                    f"crashes[{index}] has unknown key(s) {unknown}; "
                    "known keys: shard, at_s, down_s"
                )
            shard = crash.get("shard")
            at_s = crash.get("at_s")
            down_s = crash.get("down_s")
            if not isinstance(shard, int) or shard < 0:
                raise ValueError(f"crashes[{index}].shard must be a shard index")
            if not _is_finite(at_s) or at_s < 0:
                raise ValueError(
                    f"crashes[{index}].at_s must be a finite non-negative number"
                )
            if down_s is not None and (not _is_finite(down_s) or down_s <= 0):
                raise ValueError(f"crashes[{index}].down_s must be a finite positive number")
            self.crashes.append({"shard": shard, "at_s": at_s, "down_s": down_s})

    def schedule(self, horizon_s: float, num_shards: int) -> list[FaultEvent]:
        events: list[FaultEvent] = []
        for crash in self.crashes:
            if crash["shard"] >= num_shards:
                continue  # shard index beyond this run's fleet: nothing to kill
            events.append(
                FaultEvent(time=float(crash["at_s"]), kind=CRASH, shard_id=crash["shard"])
            )
            if crash["down_s"] is not None:
                events.append(
                    FaultEvent(
                        time=float(crash["at_s"] + crash["down_s"]),
                        kind=RECOVER,
                        shard_id=crash["shard"],
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

    def __init__(
        self, num_crashes: int = 1, mean_down_s: float = 0.02, seed: int = 0
    ) -> None:
        if not isinstance(num_crashes, int) or num_crashes <= 0:
            raise ValueError("num_crashes must be a positive integer")
        if not _is_finite(mean_down_s) or mean_down_s <= 0:
            raise ValueError("mean_down_s must be a finite positive number")
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
        if not isinstance(windows, list) or not windows:
            raise ValueError("degraded-storage needs a non-empty list of windows")
        self.windows = []
        for index, window in enumerate(windows):
            if not isinstance(window, dict):
                raise ValueError(f"windows[{index}] must be a mapping")
            unknown = sorted(set(window) - {"shard", "at_s", "duration_s", "factor"})
            if unknown:
                raise ValueError(
                    f"windows[{index}] has unknown key(s) {unknown}; "
                    "known keys: shard, at_s, duration_s, factor"
                )
            shard = window.get("shard")
            at_s = window.get("at_s")
            duration_s = window.get("duration_s")
            factor = window.get("factor", 0.5)
            if not isinstance(shard, int) or shard < 0:
                raise ValueError(f"windows[{index}].shard must be a shard index")
            if not _is_finite(at_s) or at_s < 0:
                raise ValueError(
                    f"windows[{index}].at_s must be a finite non-negative number"
                )
            if not _is_finite(duration_s) or duration_s <= 0:
                raise ValueError(
                    f"windows[{index}].duration_s must be a finite positive number"
                )
            if not isinstance(factor, (int, float)) or not 0.0 < factor <= 1.0:
                raise ValueError(f"windows[{index}].factor must be in (0, 1]")
            self.windows.append(
                {
                    "shard": shard,
                    "at_s": float(at_s),
                    "duration_s": float(duration_s),
                    "factor": float(factor),
                }
            )

    def schedule(self, horizon_s: float, num_shards: int) -> list[FaultEvent]:
        events: list[FaultEvent] = []
        for window in self.windows:
            if window["shard"] >= num_shards:
                continue
            events.append(
                FaultEvent(
                    time=window["at_s"],
                    kind=DEGRADE_START,
                    shard_id=window["shard"],
                    factor=window["factor"],
                )
            )
            events.append(
                FaultEvent(
                    time=window["at_s"] + window["duration_s"],
                    kind=DEGRADE_END,
                    shard_id=window["shard"],
                )
            )
        return sort_schedule(events)
