"""Elastic, fault-tolerant fleets: autoscaling, replicas and chaos injection.

:class:`~repro.serving.fleet.ShardedFleet` fixes its membership for a whole
run; this module adds the dynamic layer on top of the same building blocks:

* **replica groups** — a :class:`~repro.serving.fleet.ReplicaRouter` maps
  each key onto R shards, and the fleet routes *per request* inside the
  group, so hot keys spread and a shard loss leaves every key servable;
* **autoscaling** — an :class:`~repro.serving.autoscale.AutoscalePolicy`
  evaluates fleet load at fixed epochs and grows or shrinks the ring
  mid-run (new shards get fresh cold-cache servers; removed shards drain
  gracefully and strand their cache residency as re-warm cost);
* **chaos** — :class:`~repro.serving.faults.FaultInjector` schedules crash
  faults (a crashed shard's in-flight work fails and re-routes to the
  survivors), recoveries (the shard rejoins cold), and per-shard degraded
  storage-bandwidth windows.

Execution is *epoch-batched*: the run splits the trace at every fault edge
and autoscale epoch, each live shard serves its routed slice of the segment
on its own event loop, and topology changes apply at the boundary.  A
request caught in flight by a crash is re-injected at the crash time and
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

from repro.api.reports import report_type
from repro.serving.arrivals import Request
from repro.serving.autoscale import AutoscalePolicy, LoadSignal, NoAutoscale
from repro.serving.cache import CacheStats
from repro.serving.events import (
    ServerObserver,
    ShardAdded,
    ShardCrashed,
    ShardRecovered,
    ShardRemoved,
)
from repro.serving.faults import (
    CRASH,
    DEGRADE_END,
    DEGRADE_START,
    RECOVER,
    FaultEvent,
    FaultInjector,
)
from repro.serving.fleet import (
    ConsistentHashRouter,
    FleetReport,
    ShardReport,
    _merge_cache_stats,
    load_imbalance_factor,
)
from repro.serving.metrics import RequestRecords, ServedRequest, build_report
from repro.serving.server import InferenceServer

#: Drop reason for arrivals that never found a live shard to serve them.
FLEET_DOWN = "fleet-down"


@report_type("elastic-fleet")
@dataclass(frozen=True)
class ElasticFleetReport(FleetReport):
    """A :class:`~repro.serving.fleet.FleetReport` plus elasticity columns.

    The inherited fields aggregate exactly as in the static fleet (per
    ever-live shard, fleet-wide merge, offered-load imbalance) — here
    ``num_shards`` counts every shard that was ever live.  The extra
    columns describe the run's dynamics: topology churn
    (``shards_added``/``shards_removed``), chaos impact (``crashes``,
    ``recoveries``, ``crash_rerouted_requests``,
    ``mean_time_to_recover_s``), the remap re-warm bill (``rewarm_bytes``),
    and the SLO split between requests arriving inside a fault window —
    a shard's downtime or degraded-bandwidth span — (``disrupted_p99_ms``)
    and outside every window (``steady_p99_ms``); the split percentiles are
    ``None`` when their population is empty, and ``mean_time_to_recover_s``
    is ``None`` when nothing recovered.
    """

    replicas: int = 1
    final_num_shards: int = 0
    shards_added: int = 0
    shards_removed: int = 0
    crashes: int = 0
    recoveries: int = 0
    crash_rerouted_requests: int = 0
    rewarm_bytes: int = 0
    mean_time_to_recover_s: float | None = None
    disrupted_p99_ms: float | None = None
    steady_p99_ms: float | None = None

    def format(self) -> str:
        """An elasticity block on top of the static-fleet rendering."""
        mttr = (
            f"{self.mean_time_to_recover_s * 1e3:.2f} ms"
            if self.mean_time_to_recover_s is not None
            else "-"
        )
        disrupted = (
            f"{self.disrupted_p99_ms:.2f}" if self.disrupted_p99_ms is not None else "-"
        )
        steady = f"{self.steady_p99_ms:.2f}" if self.steady_p99_ms is not None else "-"
        lines = [
            f"replicas               {self.replicas}",
            f"final shards           {self.final_num_shards} "
            f"(+{self.shards_added}/-{self.shards_removed} autoscale)",
            f"crashes                {self.crashes} "
            f"({self.recoveries} recovered, mttr {mttr})",
            f"crash re-routed        {self.crash_rerouted_requests}",
            f"rewarm bytes           {self.rewarm_bytes}",
            f"p99 disrupted/steady   {disrupted} / {steady} ms",
        ]
        return "\n".join(lines) + "\n" + super().format()


@dataclass
class _ShardState:
    """Mutable per-shard bookkeeping across the segments a shard serves."""

    server: InferenceServer
    offered: int = 0
    store_requests: int = 0
    degraded: int = 0
    dropped: int = 0
    prefetch_bytes: int = 0
    prefetch_hits: int = 0
    prefetch_wasted: int = 0

    def __post_init__(self) -> None:
        self.served = RequestRecords()
        self.cache_stats = CacheStats() if self.server.cache is not None else None
        self.base_bandwidth = self.server.bandwidth

    def absorb_run(self, report) -> None:
        """Fold one segment run's counters into the cumulative tallies.

        ``server.run`` resets its per-run counters at every call, so the
        fleet must bank them after each segment; cache *stats* reset per
        run too (residency does not), hence the field-wise accumulation.
        """
        server = self.server
        self.served.extend(server.last_records)
        self.store_requests += server.store_requests
        self.degraded += report.degraded_requests
        self.dropped += report.dropped_requests
        self.prefetch_bytes += report.prefetch_bytes
        self.prefetch_hits += report.prefetch_hits
        self.prefetch_wasted += report.prefetch_wasted_bytes
        if self.cache_stats is not None and server.cache is not None:
            for stat_field in fields(CacheStats):
                setattr(
                    self.cache_stats,
                    stat_field.name,
                    getattr(self.cache_stats, stat_field.name)
                    + getattr(server.cache.stats, stat_field.name),
                )


class ElasticFleet:
    """A sharded fleet whose membership changes mid-run.

    ``server_factory`` builds one fresh :class:`InferenceServer` per shard
    id — the fleet calls it for the initial shards, for every scale-out,
    and for every post-crash recovery (recovered shards come back with a
    cold cache).  ``router`` must cover exactly ``range(initial_shards)``;
    scale-outs extend it with monotonically increasing ids that are never
    reused.  ``autoscale`` (an :class:`AutoscalePolicy`) is evaluated every
    ``autoscale_interval_s`` of simulated time and its delta clamped to
    ``[min_shards, max_shards]``; ``injectors`` contribute the fault
    schedule.  ``observers`` receive the fleet-level topology events
    (:class:`ShardAdded` & co.); per-request events stay inside each
    shard's own loop.

    After :meth:`run`, :attr:`last_served` (all completions, id-sorted),
    :attr:`last_dropped` (``(request, reason)`` pairs) and
    :attr:`last_events` (topology events in order) expose the raw outcome
    of every arrival for the conservation-law invariant tests.
    """

    def __init__(
        self,
        server_factory: Callable[[int], InferenceServer],
        initial_shards: int,
        router: ConsistentHashRouter,
        *,
        autoscale: AutoscalePolicy | None = None,
        autoscale_interval_s: float = 0.05,
        min_shards: int = 1,
        max_shards: int = 16,
        injectors: Sequence[FaultInjector] = (),
        observers: Sequence[ServerObserver] = (),
        replicas: int = 1,
    ) -> None:
        if initial_shards <= 0:
            raise ValueError("a fleet needs at least one shard")
        if autoscale_interval_s <= 0:
            raise ValueError("autoscale_interval_s must be positive")
        if min_shards <= 0 or max_shards < min_shards:
            raise ValueError("need 0 < min_shards <= max_shards")
        if set(router.shard_ids) != set(range(initial_shards)):
            raise ValueError(
                f"router shards {router.shard_ids} do not match the initial "
                f"shard indices {list(range(initial_shards))}"
            )
        if isinstance(autoscale, NoAutoscale):
            autoscale = None  # the no-op policy never changes anything
        self.server_factory = server_factory
        self.initial_shards = initial_shards
        self.router = router
        self.autoscale = autoscale
        self.autoscale_interval_s = autoscale_interval_s
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.injectors = list(injectors)
        self.observers = list(observers)
        self.replicas = replicas
        self.last_served: list[ServedRequest] = []
        self.last_dropped: list[tuple[Request, str]] = []
        self.last_events: list = []

    # -- event plumbing ----------------------------------------------------------
    def _emit(self, event) -> None:
        self.last_events.append(event)
        for observer in self.observers:
            observer.on_event(event)

    # -- remap accounting --------------------------------------------------------
    def _routes(self, keys: set[str]) -> dict[str, Any]:
        """Current primary owner of every seen key (empty off an empty ring)."""
        if self.router.num_shards == 0:
            return {}
        return {key: self.router.route(key) for key in sorted(keys)}

    @staticmethod
    def _stranded_bytes(
        old_routes: dict[str, Any],
        new_routes: dict[str, Any],
        shards: dict[int, "_ShardState"],
    ) -> int:
        """Resident bytes a remap stranded: the new owners must re-fetch them."""
        total = 0
        for key, old_shard in old_routes.items():
            if new_routes.get(key) == old_shard:
                continue
            state = shards.get(old_shard)
            if state is not None and state.server.cache is not None:
                total += state.server.cache.cached_bytes(key)
        return total

    # -- the run -----------------------------------------------------------------
    def run(self, trace: Sequence[Request]) -> ElasticFleetReport:
        """Serve the trace through every topology change and merge the report."""
        pending = sorted(
            (
                Request(request.request_id, request.key, request.arrival_time)
                for request in trace
            ),
            key=lambda request: (request.arrival_time, request.request_id),
        )
        if not pending:
            raise ValueError("cannot serve an empty trace")
        horizon = pending[-1].arrival_time

        live: dict[int, _ShardState] = {
            shard_id: _ShardState(self.server_factory(shard_id))
            for shard_id in range(self.initial_shards)
        }
        parked: dict[int, _ShardState] = {}  # crashed or retired shards' tallies
        next_shard_id = self.initial_shards
        crashed_at: dict[int, float] = {}
        open_windows: dict[tuple[str, int], int] = {}  # (kind, shard) -> window idx
        fault_windows: list[list[float]] = []  # [start, end] downtime/degrade spans
        seen_keys: set[str] = set()
        if self.autoscale is not None:
            self.autoscale.reset()

        faults: list[FaultEvent] = []
        for injector in self.injectors:
            faults.extend(injector.schedule(horizon, self.initial_shards))
        faults.sort(key=lambda e: (e.time, e.kind, e.shard_id))

        epoch_times: list[float] = []
        if self.autoscale is not None:
            count = 1
            while count * self.autoscale_interval_s < horizon:
                epoch_times.append(count * self.autoscale_interval_s)
                count += 1
        boundaries = sorted({event.time for event in faults} | set(epoch_times))
        epoch_set = set(epoch_times)

        self.last_served = []
        self.last_dropped = []
        self.last_events = []
        shards_added = shards_removed = crashes = recoveries = 0
        crash_rerouted = 0
        rewarm_bytes = 0
        recovery_downtimes: list[float] = []
        routed_total = failed_total = 0
        fleet_down_drops = 0
        prev_epoch = (0.0, 0, 0, 0)  # time, routed, completed, dropped

        def all_states() -> dict[int, _ShardState]:
            merged = dict(parked)
            merged.update(live)
            return merged

        def run_segment(until: float | None) -> None:
            """Route and serve every pending arrival before ``until``."""
            nonlocal routed_total
            if not live:
                return  # nothing live: arrivals wait for a recovery
            if until is None:
                take = list(pending)
            else:
                take = [r for r in pending if r.arrival_time < until]
            if not take:
                return
            del pending[: len(take)]
            sub_traces: dict[int, list[Request]] = {}
            for request in take:
                seen_keys.add(request.key)
                shard_id = self.router.route_request(request.key, request.request_id)
                sub_traces.setdefault(shard_id, []).append(request)
            routed_total += len(take)
            for shard_id in sorted(sub_traces):
                state = live[shard_id]
                state.offered += len(sub_traces[shard_id])
                report = state.server.run(sub_traces[shard_id])
                state.absorb_run(report)
                self.last_dropped.extend(state.server.last_dropped)

        def crash_shard(time: float, shard_id: int) -> None:
            nonlocal crashes, crash_rerouted, failed_total
            state = live.pop(shard_id)
            self.router.remove_shard(shard_id)
            crashed_at[shard_id] = time
            in_flight = state.served.column("completion_times") > time
            doomed = state.served.take(in_flight)
            state.served = state.served.take(~in_flight)
            parked[shard_id] = state
            for request_id, key in zip(doomed.request_ids, doomed.keys):
                pending.append(Request(request_id, key, time))
            pending.sort(key=lambda r: (r.arrival_time, r.request_id))
            failed_total += len(doomed)
            crash_rerouted += len(doomed)
            crashes += 1
            open_windows[("crash", shard_id)] = len(fault_windows)
            fault_windows.append([time, math.inf])
            self._emit(
                ShardCrashed(
                    time=time,
                    shard_id=shard_id,
                    num_shards=len(live),
                    failed_requests=len(doomed),
                )
            )

        def recover_shard(time: float, shard_id: int) -> None:
            nonlocal recoveries, rewarm_bytes
            downtime = time - crashed_at.pop(shard_id)
            old_routes = self._routes(seen_keys)
            state = parked.pop(shard_id)
            state.server = self.server_factory(shard_id)  # cold cache
            state.base_bandwidth = state.server.bandwidth
            live[shard_id] = state
            self.router.add_shard(shard_id)
            rewarm_bytes += self._stranded_bytes(old_routes, self._routes(seen_keys), live)
            recoveries += 1
            recovery_downtimes.append(downtime)
            fault_windows[open_windows.pop(("crash", shard_id))][1] = time
            self._emit(
                ShardRecovered(
                    time=time,
                    shard_id=shard_id,
                    num_shards=len(live),
                    downtime_s=downtime,
                )
            )

        def scale(time: float, delta: int) -> None:
            nonlocal next_shard_id, shards_added, shards_removed, rewarm_bytes
            target = max(self.min_shards, min(self.max_shards, len(live) + delta))
            while len(live) < target:
                old_routes = self._routes(seen_keys)
                shard_id = next_shard_id
                next_shard_id += 1
                live[shard_id] = _ShardState(self.server_factory(shard_id))
                self.router.add_shard(shard_id)
                added = self._stranded_bytes(old_routes, self._routes(seen_keys), live)
                rewarm_bytes += added
                shards_added += 1
                self._emit(
                    ShardAdded(
                        time=time,
                        shard_id=shard_id,
                        num_shards=len(live),
                        rewarm_bytes=added,
                    )
                )
            while len(live) > target:
                shard_id = max(live)  # retire the youngest live shard
                old_routes = self._routes(seen_keys)
                state = live.pop(shard_id)  # graceful drain: served work is kept
                stranded = 0
                if state.server.cache is not None:
                    stranded = sum(
                        state.server.cache.cached_bytes(key)
                        for key in sorted(seen_keys)
                        if old_routes.get(key) == shard_id
                    )
                parked[shard_id] = state
                self.router.remove_shard(shard_id)
                rewarm_bytes += stranded
                shards_removed += 1
                self._emit(
                    ShardRemoved(
                        time=time,
                        shard_id=shard_id,
                        num_shards=len(live),
                        rewarm_bytes=stranded,
                    )
                )

        def autoscale_epoch(time: float) -> None:
            nonlocal prev_epoch
            prev_time, prev_routed, prev_completed, prev_dropped = prev_epoch
            states = all_states().values()
            completed = sum(
                int(np.count_nonzero(state.served.column("completion_times") <= time))
                for state in states
            )
            dropped = sum(state.dropped for state in states)
            backlog = max(0, routed_total - completed - dropped - failed_total)
            signal = LoadSignal(
                time=time,
                interval_s=time - prev_time,
                offered=routed_total - prev_routed,
                completed=completed - prev_completed,
                dropped=dropped - prev_dropped,
                backlog=backlog,
                num_shards=len(live),
            )
            prev_epoch = (time, routed_total, completed, dropped)
            delta = self.autoscale.decide(signal)
            if delta and live:
                scale(time, delta)

        fault_index = 0
        for boundary in boundaries:
            run_segment(boundary)
            while fault_index < len(faults) and faults[fault_index].time <= boundary:
                event = faults[fault_index]
                fault_index += 1
                if event.kind == CRASH and event.shard_id in live:
                    crash_shard(event.time, event.shard_id)
                elif event.kind == RECOVER and event.shard_id in crashed_at:
                    recover_shard(event.time, event.shard_id)
                elif event.kind == DEGRADE_START and event.shard_id in live:
                    state = live[event.shard_id]
                    state.server.bandwidth = replace(
                        state.base_bandwidth,
                        link_gbps=state.base_bandwidth.link_gbps * event.factor,
                    )
                    if ("degrade", event.shard_id) not in open_windows:
                        open_windows[("degrade", event.shard_id)] = len(fault_windows)
                        fault_windows.append([event.time, math.inf])
                elif event.kind == DEGRADE_END:
                    state = live.get(event.shard_id)
                    if state is not None:
                        state.server.bandwidth = state.base_bandwidth
                    index = open_windows.pop(("degrade", event.shard_id), None)
                    if index is not None:
                        fault_windows[index][1] = event.time
            if self.autoscale is not None and boundary in epoch_set:
                autoscale_epoch(boundary)

        run_segment(None)
        for request in pending:  # no shard ever came back: the fleet is down
            self.last_dropped.append((request, FLEET_DOWN))
            fleet_down_drops += 1
        pending.clear()

        return self._build_report(
            all_states(),
            final_live=len(live),
            shards_added=shards_added,
            shards_removed=shards_removed,
            crashes=crashes,
            recoveries=recoveries,
            crash_rerouted=crash_rerouted,
            rewarm_bytes=rewarm_bytes,
            recovery_downtimes=recovery_downtimes,
            fault_windows=fault_windows,
            fleet_down_drops=fleet_down_drops,
        )

    # -- reporting ---------------------------------------------------------------
    def _build_report(
        self,
        states: dict[int, _ShardState],
        *,
        final_live: int,
        shards_added: int,
        shards_removed: int,
        crashes: int,
        recoveries: int,
        crash_rerouted: int,
        rewarm_bytes: int,
        recovery_downtimes: list[float],
        fault_windows: list[list[float]],
        fleet_down_drops: int,
    ) -> ElasticFleetReport:
        base_bandwidth = states[min(states)].base_bandwidth

        shard_reports: list[ShardReport] = []
        merged = RequestRecords()
        cache_stats = []
        store_requests = degraded = dropped = 0
        prefetch_bytes = prefetch_hits = prefetch_wasted = 0
        for shard_id in sorted(states):
            state = states[shard_id]
            merged.extend(state.served)
            if state.offered == 0:
                shard_reports.append(ShardReport(shard_id, 0, None))
                continue
            shard_report = build_report(
                state.served,
                bandwidth=state.base_bandwidth,
                store_requests=state.store_requests,
                cache_stats=state.cache_stats,
                degraded_requests=state.degraded,
                dropped_requests=state.dropped,
                prefetch_bytes=state.prefetch_bytes,
                prefetch_hits=state.prefetch_hits,
                prefetch_wasted_bytes=state.prefetch_wasted,
            )
            shard_reports.append(
                ShardReport(shard_id, shard_report.num_requests, shard_report)
            )
            store_requests += state.store_requests
            degraded += state.degraded
            dropped += state.dropped
            prefetch_bytes += state.prefetch_bytes
            prefetch_hits += state.prefetch_hits
            prefetch_wasted += state.prefetch_wasted
            if state.cache_stats is not None:
                cache_stats.append(state.cache_stats)

        self.last_served = sorted(merged.materialize(), key=lambda r: r.request_id)
        fleet = build_report(
            merged,
            bandwidth=base_bandwidth,
            store_requests=store_requests,
            cache_stats=_merge_cache_stats(cache_stats),
            degraded_requests=degraded,
            dropped_requests=dropped + fleet_down_drops,
            prefetch_bytes=prefetch_bytes,
            prefetch_hits=prefetch_hits,
            prefetch_wasted_bytes=prefetch_wasted,
        )

        def in_window(time: float) -> bool:
            return any(start <= time <= end for start, end in fault_windows)

        disrupted = [
            1e3 * record.latency
            for record in self.last_served
            if in_window(record.arrival_time)
        ]
        steady = [
            1e3 * record.latency
            for record in self.last_served
            if not in_window(record.arrival_time)
        ]
        offered = [states[shard_id].offered for shard_id in sorted(states)]
        return ElasticFleetReport(
            num_shards=len(states),
            shards=tuple(shard_reports),
            fleet=fleet,
            load_imbalance=load_imbalance_factor(offered),
            idle_shards=sum(1 for count in offered if count == 0),
            replicas=self.replicas,
            final_num_shards=final_live,
            shards_added=shards_added,
            shards_removed=shards_removed,
            crashes=crashes,
            recoveries=recoveries,
            crash_rerouted_requests=crash_rerouted,
            rewarm_bytes=rewarm_bytes,
            mean_time_to_recover_s=(
                sum(recovery_downtimes) / len(recovery_downtimes)
                if recovery_downtimes
                else None
            ),
            disrupted_p99_ms=(
                float(np.percentile(np.asarray(disrupted), 99)) if disrupted else None
            ),
            steady_p99_ms=(
                float(np.percentile(np.asarray(steady), 99)) if steady else None
            ),
        )
