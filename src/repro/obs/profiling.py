"""Wall-clock profiling of the simulator itself.

Everything else in the telemetry layer measures the *simulated* system;
this module measures the *simulator* — how many events per second one
process actually executes, and which component (storage reads, batch
pricing, backbone execution, prefetch, observer dispatch) eats the wall
clock.  ``benchmarks/test_sim_speed.py`` records :class:`ProfileStats` to
the untracked, host-local ``benchmarks/output/sim_speed.json`` and gates it
against the committed ``benchmarks/baseline.json``; ``benchmarks/perf/``
times whole runs layer by layer.

The :class:`Profiler` works from outside the event loop.
:meth:`Profiler.attach` puts timing wrappers over a server's ``run`` and
over the collaborators its loop calls, as instance attributes, and
:meth:`Profiler.detach` puts back exactly what was there, so an
unprofiled run executes no profiling code.  Each wrapped call costs two
``perf_counter`` reads.  Wrapped calls nest — a child's elapsed time is
subtracted from its parent, so the per-component numbers are true *self*
times that sum to at most the total wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class ProfileStats:
    """One run's simulator-speed measurements.

    ``events`` counts arrivals and heap pops; ``self_seconds`` maps each
    instrumented component to its exclusive wall time; ``sim_seconds`` is
    the span of simulated time covered, so ``sim_time_ratio`` (sim seconds
    per wall second) says how much faster than real time the simulator
    runs.  Rates are ``None`` for a zero-length run.
    """

    wall_seconds: float
    events: int
    completed_requests: int
    events_per_sec: float | None
    requests_per_sec: float | None
    sim_seconds: float
    sim_time_ratio: float | None
    self_seconds: dict = field(default_factory=dict)

    @classmethod
    def from_profiler(cls, profiler: "Profiler") -> "ProfileStats":
        wall = profiler.wall_seconds
        return cls(
            wall_seconds=wall,
            events=profiler.events,
            completed_requests=profiler.completed_requests,
            events_per_sec=profiler.events / wall if wall > 0 else None,
            requests_per_sec=(
                profiler.completed_requests / wall if wall > 0 else None
            ),
            sim_seconds=profiler.sim_seconds,
            sim_time_ratio=profiler.sim_seconds / wall if wall > 0 else None,
            self_seconds=dict(sorted(profiler.self_seconds.items())),
        )


class Profiler:
    """Wall-clock timers plus event/request counters for one server's runs.

    Attached to a server, it times each of its runs: the counters cover the
    most recent run, whose event count and final clock the server leaves in
    ``last_event_count`` and ``last_clock``.  Profilers merge
    (:meth:`merge`) by summing, which is how a fleet's per-shard profilers
    fold into one fleet-wide view — shards simulate sequentially in wall
    time, so summed wall seconds stay meaningful.
    """

    def __init__(self) -> None:
        self.wall_seconds = 0.0
        self.events = 0
        self.completed_requests = 0
        self.sim_seconds = 0.0
        self.self_seconds: dict[str, float] = {}
        self._stack: list[float] = []
        self._server = None
        # (instance __dict__, attribute, what it held there before or None)
        self._replaced: list[tuple[dict, str, Callable | None]] = []

    # -- timing -----------------------------------------------------------------
    def wrap(self, name: str, call: Callable) -> Callable:
        """``call``, with the time of every call added to ``name``'s self time.

        A wrapped call made inside another is subtracted from the outer
        one, so each name is charged only for its own time.
        """
        stack, totals = self._stack, self.self_seconds

        def timed(*args, **kwargs):
            start = time.perf_counter()
            stack.append(0.0)
            try:
                return call(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[name] = totals.get(name, 0.0) + elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return timed

    # -- server lifecycle -------------------------------------------------------
    def attach(self, server) -> None:
        """Time ``server``'s runs and the collaborators its event loop calls.

        Each wrapper goes over whatever the attribute held before, another
        wrapper included, so profilers on servers sharing a collaborator (a
        fleet's store) must detach in reverse order, as a fleet's one shard
        at a time does.  Raises if this profiler is already attached.
        """
        if self._server is not None:
            raise RuntimeError("this profiler is already attached to a server")
        self._server = server
        for owner, attribute, name in (
            (server.store, "read", "storage-read"),
            (server.store, "read_additional", "storage-read"),
            (server.cache, "read_through", "storage-read"),
            (server.batch_cost, "batch_seconds", "batch-pricing"),
            (server, "_execute", "backbone-execute"),
            (server, "_execute_prefetch", "prefetch"),
            (server, "_emit", "observer-emit"),
        ):
            if owner is not None:  # a server without a cache tier
                self._replace(owner, attribute, self.wrap(name, getattr(owner, attribute)))
        run = server.run

        def profiled_run(traffic):
            self.self_seconds.clear()
            start = time.perf_counter()
            report = run(traffic)
            self.wall_seconds = time.perf_counter() - start
            self.events = server.last_event_count
            self.completed_requests = len(server.last_records)
            self.sim_seconds = server.last_clock
            return report

        self._replace(server, "run", profiled_run)

    def _replace(self, owner, attribute: str, value) -> None:
        # Through __dict__, which a frozen dataclass (LinearBatchCost) allows.
        attributes = vars(owner)
        self._replaced.append((attributes, attribute, attributes.get(attribute)))
        attributes[attribute] = value

    def detach(self, server) -> None:
        """Put back what :meth:`attach` replaced (no-op if not attached to ``server``)."""
        if server is not self._server:
            return
        for attributes, attribute, previous in reversed(self._replaced):
            if previous is None:
                del attributes[attribute]
            else:
                attributes[attribute] = previous
        self._replaced.clear()
        self._server = None

    # -- results ----------------------------------------------------------------
    def stats(self) -> ProfileStats:
        return ProfileStats.from_profiler(self)

    def merge(self, other: "Profiler") -> None:
        """Sum another profiler's counters and timers into this one."""
        self.wall_seconds += other.wall_seconds
        self.events += other.events
        self.completed_requests += other.completed_requests
        self.sim_seconds += other.sim_seconds
        for name, seconds in other.self_seconds.items():
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + seconds
