"""Fleet topology: per-shard tallies and the steps applied at segment boundaries.

:class:`~repro.serving.fleet.ShardedFleet` serves every fleet through one
*epoch-batched* loop: it splits the trace at every fault edge and autoscale
epoch, each live shard serves its routed slice of a segment on its own
event loop, and topology changes apply at the boundary.  A fleet with no
autoscaler, no fault injector and one replica has no boundary, so its run
is a single segment.  This module holds what lives across segments:

* :class:`_ShardState` — one shard's running tallies.  ``server.run``
  resets its per-run counters at every call, so each segment's counters are
  banked here and the shard's report is folded once from the totals;
* :class:`Topology` — one run's shard membership and the boundary steps
  that change it: **crashes** (the shard's in-flight work fails and goes
  back to the runner to be re-routed), **recoveries** (the shard rejoins
  with a cold cache), **autoscale** resizes (scale-outs get fresh cold
  shards under never-reused ids; scale-ins drain gracefully and strand
  their cache residency as re-warm cost), and **degraded** storage-
  bandwidth windows.

A request caught in flight by a crash is re-injected at the crash time and
routed by the post-crash ring; a request arriving while no shard is live
waits for the next recovery, or is dropped as ``fleet-down`` when none ever
comes.  Everything stays a pure function of the configuration — seeded
rings, seeded injectors, seeded replica picks — so a chaos run is exactly
as reproducible as a static one, which is what the conservation-law test
harness (``tests/serving/test_chaos_invariants.py``) pins: every arrival
ends in exactly one of completed / dropped-with-reason / crash-failed-and-
re-routed, with no duplicate completions and byte-identical same-seed
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.serving.autoscale import AutoscalePolicy, LoadSignal
from repro.serving.cache import CacheStats
from repro.serving.events import (
    ShardAdded,
    ShardCrashed,
    ShardRecovered,
    ShardRemoved,
)
from repro.serving.faults import CRASH, DEGRADE_END, DEGRADE_START, RECOVER, FaultEvent
from repro.serving.metrics import RequestRecords, SLOReport, build_report
from repro.serving.server import InferenceServer
from repro.serving.workload import ArrivalStream

#: Drop reason for arrivals that never found a live shard to serve them.
FLEET_DOWN = "fleet-down"

#: The SLOReport counters a shard banks after every segment run and the
#: fleet sums across shards.
COUNTERS = (
    "degraded_requests",
    "dropped_requests",
    "prefetch_bytes",
    "prefetch_hits",
    "prefetch_wasted_bytes",
)


def merge_cache_stats(stats: Sequence[CacheStats]) -> CacheStats | None:
    """Field-wise sum of cache tallies (None when there are none)."""
    if not stats:
        return None
    return CacheStats(
        **{
            stat_field.name: sum(getattr(item, stat_field.name) for item in stats)
            for stat_field in fields(CacheStats)
        }
    )


@dataclass
class _ShardState:
    """One shard's running tallies across the segments it serves."""

    server: InferenceServer
    offered: int = 0
    store_requests: int = 0

    def __post_init__(self) -> None:
        self.served = RequestRecords()
        self.counts = dict.fromkeys(COUNTERS, 0)
        # One CacheStats per segment run: the cache replaces its stats
        # object at every run, so each banked object stays as that run left it.
        self.cache_stats: list[CacheStats] = []
        self.base_bandwidth = self.server.bandwidth

    def serve(self, trace: ArrivalStream, pipeline=None) -> None:
        """Serve one segment's slice through ``server.run`` and bank its tallies.

        The first segment's records are adopted rather than copied, so a
        shard of a static fleet holds its one run's records exactly once.
        """
        server = self.server
        if pipeline is not None:
            pipeline.attach(server)
        try:
            report = server.run(trace)
        finally:
            if pipeline is not None:
                pipeline.detach(server)
        self.offered += len(trace)
        if len(self.served):
            self.served.extend(server.last_records)
        else:
            self.served = server.last_records
        self.store_requests += server.store_requests
        for name in COUNTERS:
            self.counts[name] += getattr(report, name)
        if server.cache is not None:
            self.cache_stats.append(server.cache.stats)

    def report(self) -> SLOReport | None:
        """The shard's SLOs over every segment (None if it was never offered work).

        Priced at the shard's undegraded bandwidth, like the fleet row.
        """
        if not self.offered:
            return None
        return build_report(
            self.served,
            bandwidth=self.base_bandwidth,
            store_requests=self.store_requests,
            cache_stats=merge_cache_stats(self.cache_stats),
            **self.counts,
        )


class Topology:
    """One fleet run's shard membership and the boundary steps that change it.

    ``servers`` are the initial shards (ids ``0..n-1``, as ``router``
    covers them); ``server_factory`` builds every later one — scale-outs
    and post-crash recoveries, both with a cold cache.  The steps mutate
    ``router`` and record their :class:`ShardAdded` & co. events in
    :attr:`events`; the counters and :attr:`fault_windows` feed the elastic
    report columns.
    """

    def __init__(
        self,
        servers: Sequence[InferenceServer],
        router,
        server_factory: Callable[[int], InferenceServer] | None,
    ) -> None:
        self.router = router
        self.server_factory = server_factory
        self.live = {shard_id: _ShardState(server) for shard_id, server in enumerate(servers)}
        self.parked: dict[int, _ShardState] = {}  # crashed or retired shards' tallies
        self.next_shard_id = len(servers)
        self.crashed_at: dict[int, float] = {}
        self.open_windows: dict[tuple[str, int], int] = {}  # (kind, shard) -> window idx
        self.fault_windows: list[list[float]] = []  # [start, end] downtime/degrade spans
        self.seen_keys: set[str] = set()
        self.events: list = []
        self.shards_added = self.shards_removed = 0
        self.crashes = self.recoveries = 0
        self.crash_rerouted = self.rewarm_bytes = 0
        self.downtimes: list[float] = []
        self.routed = 0
        self._prev_epoch = (0.0, 0, 0, 0)  # time, routed, completed, dropped

    def states(self) -> dict[int, _ShardState]:
        """Every shard that was ever live, by id."""
        return {**self.parked, **self.live}

    # -- remap accounting --------------------------------------------------------
    def _routes(self) -> dict[str, Any]:
        """Current primary owner of every seen key (empty off an empty ring)."""
        if self.router.num_shards == 0:
            return {}
        return {key: self.router.route(key) for key in sorted(self.seen_keys)}

    def _stranded_bytes(self, old_routes: dict[str, Any]) -> int:
        """Resident bytes a remap stranded: the new owners must re-fetch them."""
        new_routes = self._routes()
        total = 0
        for key, old_shard in old_routes.items():
            if new_routes.get(key) == old_shard:
                continue
            state = self.live.get(old_shard) or self.parked.get(old_shard)
            if state is not None and state.server.cache is not None:
                total += state.server.cache.cached_bytes(key)
        return total

    # -- boundary steps ------------------------------------------------------------
    def apply(self, event: FaultEvent) -> RequestRecords | None:
        """Apply one fault edge; a crash returns the in-flight work it killed."""
        shard_id = event.shard_id
        if event.kind == CRASH and shard_id in self.live:
            return self.crash(event.time, shard_id)
        if event.kind == RECOVER and shard_id in self.crashed_at:
            self.recover(event.time, shard_id)
        elif event.kind == DEGRADE_START and shard_id in self.live:
            state = self.live[shard_id]
            state.server.bandwidth = replace(
                state.base_bandwidth,
                link_gbps=state.base_bandwidth.link_gbps * event.factor,
            )
            if ("degrade", shard_id) not in self.open_windows:
                self.open_windows[("degrade", shard_id)] = len(self.fault_windows)
                self.fault_windows.append([event.time, math.inf])
        elif event.kind == DEGRADE_END:
            state = self.live.get(shard_id)
            if state is not None:
                state.server.bandwidth = state.base_bandwidth
            index = self.open_windows.pop(("degrade", shard_id), None)
            if index is not None:
                self.fault_windows[index][1] = event.time
        return None

    def crash(self, time: float, shard_id: int) -> RequestRecords:
        """Take a shard down; its work still in flight at ``time`` fails."""
        state = self.live.pop(shard_id)
        self.router.remove_shard(shard_id)
        self.crashed_at[shard_id] = time
        in_flight = state.served.column("completion_times") > time
        doomed = state.served.take(in_flight)
        state.served = state.served.take(~in_flight)
        self.parked[shard_id] = state
        self.crash_rerouted += len(doomed)
        self.crashes += 1
        self.open_windows[("crash", shard_id)] = len(self.fault_windows)
        self.fault_windows.append([time, math.inf])
        self.events.append(
            ShardCrashed(
                time=time,
                shard_id=shard_id,
                num_shards=len(self.live),
                failed_requests=len(doomed),
            )
        )
        return doomed

    def recover(self, time: float, shard_id: int) -> None:
        """Bring a crashed shard back with a fresh, cold-cache server."""
        downtime = time - self.crashed_at.pop(shard_id)
        old_routes = self._routes()
        state = self.parked.pop(shard_id)
        state.server = self.server_factory(shard_id)
        state.base_bandwidth = state.server.bandwidth
        self.live[shard_id] = state
        self.router.add_shard(shard_id)
        self.rewarm_bytes += self._stranded_bytes(old_routes)
        self.recoveries += 1
        self.downtimes.append(downtime)
        self.fault_windows[self.open_windows.pop(("crash", shard_id))][1] = time
        self.events.append(
            ShardRecovered(
                time=time,
                shard_id=shard_id,
                num_shards=len(self.live),
                downtime_s=downtime,
            )
        )

    def scale(self, time: float, target: int) -> None:
        """Grow or shrink the live set to ``target`` shards."""
        while len(self.live) < target:
            old_routes = self._routes()
            shard_id = self.next_shard_id
            self.next_shard_id += 1
            self.live[shard_id] = _ShardState(self.server_factory(shard_id))
            self.router.add_shard(shard_id)
            added = self._stranded_bytes(old_routes)
            self.rewarm_bytes += added
            self.shards_added += 1
            self.events.append(
                ShardAdded(
                    time=time,
                    shard_id=shard_id,
                    num_shards=len(self.live),
                    rewarm_bytes=added,
                )
            )
        while len(self.live) > target:
            shard_id = max(self.live)  # retire the youngest live shard
            old_routes = self._routes()
            # Graceful drain: the retired shard keeps its served work.
            self.parked[shard_id] = self.live.pop(shard_id)
            self.router.remove_shard(shard_id)
            stranded = self._stranded_bytes(old_routes)
            self.rewarm_bytes += stranded
            self.shards_removed += 1
            self.events.append(
                ShardRemoved(
                    time=time,
                    shard_id=shard_id,
                    num_shards=len(self.live),
                    rewarm_bytes=stranded,
                )
            )

    def autoscale_epoch(
        self, time: float, policy: AutoscalePolicy, min_shards: int, max_shards: int
    ) -> None:
        """Fold the epoch's load into a :class:`LoadSignal` and apply the delta.

        The delta is clamped only toward the bound on its own side: a crash
        can leave the live count below ``min_shards`` and a recovery can
        lift it above ``max_shards``, and from there a two-sided clamp
        would move the fleet against the policy's decision.
        """
        prev_time, prev_routed, prev_completed, prev_dropped = self._prev_epoch
        states = self.states().values()
        completed = sum(
            int(np.count_nonzero(state.served.column("completion_times") <= time))
            for state in states
        )
        dropped = sum(state.counts["dropped_requests"] for state in states)
        backlog = max(0, self.routed - completed - dropped - self.crash_rerouted)
        signal = LoadSignal(
            time=time,
            interval_s=time - prev_time,
            offered=self.routed - prev_routed,
            completed=completed - prev_completed,
            dropped=dropped - prev_dropped,
            backlog=backlog,
            num_shards=len(self.live),
        )
        self._prev_epoch = (time, self.routed, completed, dropped)
        delta = policy.decide(signal)
        live = len(self.live)
        if delta > 0 and 0 < live < max_shards:
            self.scale(time, min(max_shards, live + delta))
        elif delta < 0 and live > min_shards:
            self.scale(time, max(min_shards, live + delta))
