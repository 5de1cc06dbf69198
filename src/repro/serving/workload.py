"""Workload realism and columnar arrival streams.

The synthetic processes in :mod:`repro.serving.arrivals` answer "what if
traffic were Poisson/bursty"; this module answers "what does *this*
production-like load do to the server":

* :class:`TraceReplayArrivals` replays an empirical trace file
  (:mod:`repro.serving.traces` schema) as an open-loop arrival sequence,
  with a time-warp ``speedup`` factor and ``loop``/``truncate`` modes for
  stretching a short capture over a long run;
* :class:`DiurnalArrivals` modulates *any* open-loop base process with a
  configurable-period sinusoid times a piecewise rate envelope — the
  classic day/night traffic swing — by warping the base trace's timeline
  through the inverse of the envelope's cumulative intensity, so the base
  process's seed is the only randomness and runs stay deterministic.

It also defines :class:`ArrivalStream`, the one form open-loop traffic
takes: one float64 array of arrival times, one key list, one int64 id
array, pre-generated with numpy instead of one ``Request`` object per
arrival.  Every process's ``stream()`` returns one, the fleet partitions
it by index, and the server's arrival cursor reads its arrays directly.

Everything here is registered in :data:`~repro.api.registry.ARRIVALS` and
wired through the ``serving.arrivals`` config section (``trace_path``,
``speedup``, ``diurnal``); see ``docs/serving.md`` for the full guide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Iterator, Literal, Sequence

import numpy as np

from repro.api.registry import ARRIVALS
from repro.api.schema import Amplitude, Finite, NonEmpty, Positive, Range, check, checked
from repro.serving.arrivals import ArrivalProcess, Request
from repro.serving.traces import TraceRecord, load_trace

#: Replay modes: stop at the end of the trace, or wrap around and keep going.
ReplayMode = Literal["truncate", "loop"]


class ArrivalStream:
    """A pre-generated open-loop trace in columnar form.

    ``times`` (float64) and ``request_ids`` (int64) are numpy arrays;
    ``keys`` is a list of store keys, index-aligned.  There are no client
    ids: closed-loop traffic cannot be pre-generated.
    """

    __slots__ = ("times", "keys", "request_ids")

    def __init__(
        self,
        times: np.ndarray,
        keys: Sequence[str],
        request_ids: np.ndarray | None = None,
    ) -> None:
        self.times = np.ascontiguousarray(times, dtype=np.float64)
        self.keys = list(keys)
        if len(self.keys) != len(self.times):
            raise ValueError(
                f"got {len(self.times)} arrival times but {len(self.keys)} keys"
            )
        if request_ids is None:
            self.request_ids = np.arange(len(self.keys), dtype=np.int64)
        else:
            self.request_ids = np.ascontiguousarray(request_ids, dtype=np.int64)
            if len(self.request_ids) != len(self.keys):
                raise ValueError(
                    f"got {len(self.keys)} arrivals but {len(self.request_ids)} ids"
                )

    def take(self, indices: np.ndarray) -> "ArrivalStream":
        """The sub-stream at ``indices`` (order preserved, ids kept)."""
        return ArrivalStream(
            self.times[indices],
            [self.keys[int(index)] for index in indices],
            self.request_ids[indices],
        )

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Request]:
        """The arrivals as ``Request`` objects, for inspection only: the
        server and the fleet read the columns."""
        return map(Request, self.request_ids.tolist(), self.keys, self.times.tolist())


@ARRIVALS.register("replay")
@dataclass(frozen=True)
class TraceReplayArrivals(ArrivalProcess):
    """Replay an empirical arrival trace as open-loop traffic.

    The trace comes from ``trace_path`` (JSONL or CSV, see
    :mod:`repro.serving.traces`) or, programmatically, from ``records``.
    Replay preserves each record's timestamp and key exactly at
    ``speedup=1`` — which is what makes record→replay round-trips exact —
    and divides every timestamp by ``speedup`` to time-warp a long capture
    into a short run (``speedup=60`` replays an hour in a minute).

    ``mode`` controls what happens when the run wants more requests than
    the trace holds: ``"truncate"`` (default) serves only what the trace
    contains; ``"loop"`` wraps around, shifting each pass by the trace's
    span plus its mean inter-arrival gap so arrivals keep strictly
    increasing.  Records are sorted by timestamp (stable), so slightly
    out-of-order logs replay deterministically.

    Every key in the trace must exist in the store being served — a trace
    recorded against one catalogue cannot silently replay against another.
    """

    trace_path: str | None = None
    speedup: Positive = 1.0
    mode: ReplayMode = "truncate"
    records: Annotated[tuple[TraceRecord, ...], NonEmpty] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check(self)
        if (self.trace_path is None) == (self.records is None):
            raise ValueError("provide exactly one of trace_path or records")

    def load_records(self) -> list[TraceRecord]:
        """The trace records, sorted by timestamp (stable for ties).

        File parsing is memoized on the instance: calling ``stream`` (or a
        CLI that needs the record count) repeatedly reads the file once.
        The cache lives outside the dataclass fields, so equality and repr
        are untouched.
        """
        cached = getattr(self, "_records_cache", None)
        if cached is None:
            records = (
                list(self.records)
                if self.records is not None
                else load_trace(self.trace_path)
            )
            cached = sorted(records, key=lambda record: record.timestamp)
            object.__setattr__(self, "_records_cache", cached)
        return list(cached)

    def _replay_plan(
        self, keys: Sequence[str], num_requests: int
    ) -> tuple[int, float, list[TraceRecord]]:
        """Validate and size a replay: (request count, loop period, records)."""
        if num_requests <= 0:
            raise ValueError("num_requests must be positive")
        records = self.load_records()
        known = set(keys)
        missing = sorted({record.key for record in records} - known)
        if missing:
            preview = ", ".join(missing[:5])
            raise ValueError(
                f"trace references {len(missing)} key(s) missing from the store "
                f"(e.g. {preview}); record and replay must share a catalogue"
            )
        span = records[-1].timestamp - records[0].timestamp
        if self.mode == "truncate":
            count = min(num_requests, len(records))
        else:
            count = num_requests
            if span <= 0 and len(records) > 1:
                raise ValueError("cannot loop a zero-span trace")
        # Each loop pass is shifted by span + the mean inter-arrival gap, so
        # the last arrival of one pass strictly precedes the first of the next.
        mean_gap = span / (len(records) - 1) if len(records) > 1 else 1.0
        return count, span + mean_gap, records

    def stream(self, keys: Sequence[str], num_requests: int) -> "ArrivalStream":
        count, period, records = self._replay_plan(keys, num_requests)
        cycles, offsets = np.divmod(np.arange(count, dtype=np.int64), len(records))
        base = np.array([record.timestamp for record in records], dtype=np.float64)
        times = (base[offsets] + cycles * period) / self.speedup
        record_keys = [record.key for record in records]
        return ArrivalStream(times, [record_keys[int(offset)] for offset in offsets])


@ARRIVALS.register("diurnal")
class DiurnalArrivals(ArrivalProcess):
    """Modulate an open-loop base process with a diurnal rate envelope.

    The instantaneous rate multiplier over simulated time ``u`` is::

        m(u) = (1 + amplitude * sin(2π * (u / period_s + phase))) * e(u)

    where ``e(u)`` is a piecewise-constant ``envelope`` over equal
    segments of the period (empty = flat 1.0) — the sinusoid gives the
    smooth day/night swing, the envelope adds staircase effects such as a
    lunchtime plateau or a nightly batch window.  ``amplitude`` must stay
    below 1 so the rate never reaches zero.

    The modulation is a deterministic time warp: if the base process's
    arrival ``i`` happens at ``t_i``, the modulated arrival happens at
    ``s_i = Λ⁻¹(t_i)`` where ``Λ(s) = ∫₀ˢ m(u) du``.  Where ``m`` is high
    the inverse compresses the timeline (arrivals crowd together, rate
    up); where ``m`` is low it stretches.  The base process's seed is the
    only randomness, so the same configuration always produces the same
    trace, and the modulated trace preserves the base trace's keys and
    request count exactly.

    ``Λ`` is inverted numerically on a midpoint grid of
    ``grid_per_period`` cells per period — deterministic, and accurate to
    a small fraction of a cell, which is far below any reported
    percentile's resolution.
    """

    @checked
    def __init__(
        self,
        base: ArrivalProcess,
        period_s: Positive = 86_400.0,
        amplitude: Amplitude = 0.5,
        phase: Finite = 0.0,
        envelope: tuple[Positive, ...] = (),
        grid_per_period: Annotated[int, Range(ge=16)] = 4096,
    ) -> None:
        if not hasattr(base, "stream"):
            raise ValueError(
                "diurnal modulation needs an open-loop base process with a "
                f".stream() method; got {type(base).__name__}"
            )
        self.base = base
        self.period_s = float(period_s)
        self.amplitude = float(amplitude)
        self.phase = float(phase)
        self.envelope = tuple(float(value) for value in envelope)
        self.grid_per_period = int(grid_per_period)

    def rate_multiplier(self, times: np.ndarray) -> np.ndarray:
        """The envelope ``m(u)`` evaluated at the given simulated times."""
        times = np.asarray(times, dtype=float)
        sinusoid = 1.0 + self.amplitude * np.sin(
            2.0 * np.pi * (times / self.period_s + self.phase)
        )
        if not self.envelope:
            return sinusoid
        position = np.mod(times, self.period_s) / self.period_s
        segment = np.minimum(
            (position * len(self.envelope)).astype(int), len(self.envelope) - 1
        )
        return sinusoid * np.asarray(self.envelope)[segment]

    #: Hard ceiling on warp-grid cells (~128 MB of float64 at the limit);
    #: beyond it the step is coarsened rather than the tail clamped.
    MAX_GRID_CELLS = 8_000_000

    def _warp(self, base_times: np.ndarray) -> np.ndarray:
        """Map base-process times through ``Λ⁻¹`` (numeric, deterministic).

        The multiplier is bounded below by ``(1-amplitude)·min(envelope)``,
        so a grid spanning ``target / that bound`` is guaranteed to cover
        the base span — no arrival is ever clamped to the grid end.  When
        an extreme envelope would need more than :data:`MAX_GRID_CELLS`
        cells, the step is coarsened (deterministically) instead.
        """
        target = float(base_times[-1])
        floor = (1.0 - self.amplitude) * (min(self.envelope) if self.envelope else 1.0)
        span = target / floor if target > 0 else self.period_s
        step = self.period_s / self.grid_per_period
        num_cells = max(self.grid_per_period, int(np.ceil(span / step)) + 1)
        if num_cells > self.MAX_GRID_CELLS:
            num_cells = self.MAX_GRID_CELLS
            step = span / (num_cells - 1)
        edges = np.arange(num_cells + 1) * step
        midpoints = edges[:-1] + step / 2.0
        cumulative = np.concatenate(
            ([0.0], np.cumsum(self.rate_multiplier(midpoints) * step))
        )
        return np.interp(base_times, cumulative, edges)

    def stream(self, keys: Sequence[str], num_requests: int) -> ArrivalStream:
        base_stream = self.base.stream(keys, num_requests)
        if len(base_stream) == 0:
            return base_stream
        return ArrivalStream(
            self._warp(base_stream.times), base_stream.keys, base_stream.request_ids
        )


__all__ = ["ArrivalStream", "DiurnalArrivals", "ReplayMode", "TraceReplayArrivals"]
