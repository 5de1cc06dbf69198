"""Wall-clock profiling of the simulator itself.

Everything else in the telemetry layer measures the *simulated* system;
this module measures the *simulator* — how many events per second one
process actually executes, and which component (storage reads, batch
pricing, backbone execution, observer dispatch) eats the wall clock.
``benchmarks/test_sim_speed.py`` records :class:`ProfileStats` to the
untracked, host-local ``benchmarks/output/sim_speed.json`` and gates it
against the committed ``benchmarks/baseline.json``; ``benchmarks/perf/``
times whole runs layer by layer.

The :class:`Profiler` is deliberately lightweight: the event loop holds a
``profiler`` reference that is ``None`` unless profiling is on, so the
disabled hot path pays one identity check per event; enabled, each
instrumented call costs two ``perf_counter`` reads.  :meth:`Profiler.scope`
timers nest — a child scope's elapsed time is subtracted from its parent,
so the per-component numbers are true *self* times that sum to at most the
total wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ProfileStats:
    """One run's simulator-speed measurements.

    ``events`` counts discrete-event heap pops; ``self_seconds`` maps each
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
    """Scoped wall-clock timers plus event/request counters for one run.

    The server calls :meth:`start_run`/:meth:`stop_run` around its event
    loop, bumps :attr:`events` per heap pop, and wraps component calls in
    :meth:`scope`.  Profilers merge (:meth:`merge`) by summing, which is
    how a fleet's per-shard profilers fold into one fleet-wide view —
    shards simulate sequentially in wall time, so summed wall seconds stay
    meaningful.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters and timers (the server calls this once per run)."""
        self.wall_seconds = 0.0
        self.events = 0
        self.completed_requests = 0
        self.sim_seconds = 0.0
        self.self_seconds: dict[str, float] = {}
        self._run_start: float | None = None
        self._stack: list[float] = []

    # -- run lifecycle ----------------------------------------------------------
    def start_run(self) -> None:
        self._run_start = time.perf_counter()

    def stop_run(self, sim_seconds: float = 0.0) -> None:
        if self._run_start is not None:
            self.wall_seconds += time.perf_counter() - self._run_start
            self._run_start = None
        self.sim_seconds += sim_seconds

    # -- scoped timers ----------------------------------------------------------
    @contextmanager
    def scope(self, name: str):
        """Time a block; nested scopes subtract from the parent (self-time)."""
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            child_time = self._stack.pop()
            self.self_seconds[name] = (
                self.self_seconds.get(name, 0.0) + elapsed - child_time
            )
            if self._stack:
                self._stack[-1] += elapsed

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
