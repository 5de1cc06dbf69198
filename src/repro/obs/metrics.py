"""Sim-time metrics: counters, gauges, and mergeable streaming histograms.

The serving event loop narrates itself as a stream of frozen
:class:`~repro.serving.events.ServerEvent` objects; this module turns that
stream into *time series* instead of end-of-run aggregates.  The pieces:

* :class:`StreamingHistogram` — a fixed log-spaced-bin histogram with
  bounded per-quantile error (one bin's relative width), mergeable across
  shards, so fleet-wide per-window percentiles are exact merges rather
  than averages of averages;
* :class:`MetricsRegistry` — named counters, gauges and histograms, each
  also accumulated into fixed ``window_s``-wide windows of *simulated*
  time.  Registries merge (fleet shards share one sim timeline, so windows
  align by index), and :meth:`MetricsRegistry.latest` exposes the newest
  gauge observation to control-plane policies (the load signal a future
  ``AutoscalePolicy`` acts on);
* :class:`MetricsCollector` — the :class:`~repro.serving.events.ServerObserver`
  that maps server events onto the registry and derives the serving window
  series (arrival rate, drop rate, cache hit rate, queue depth, batch
  occupancy, p50/p99 latency per window) as :class:`WindowStats` rows.

Everything is deterministic: metrics are pure folds over the (already
deterministic) event stream, so two identical runs produce identical
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.api.registry import OBSERVERS
from repro.serving.events import (
    BatchFlushed,
    CacheProbed,
    PrefetchIssued,
    RequestAdmitted,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
    ServerEvent,
    ServerObserver,
    ShardAdded,
    ShardCrashed,
    ShardRecovered,
    ShardRemoved,
)


class StreamingHistogram:
    """A mergeable histogram over fixed log-spaced bins.

    Values land in geometric bins of ``bins_per_decade`` per factor of 10
    between ``min_value`` and ``max_value`` (stored sparsely, so an empty
    histogram costs nothing).  Quantiles return the geometric midpoint of
    the covering bin, which bounds the relative error by one bin's width —
    ``10**(1/bins_per_decade) - 1`` (about 3.7% at the default 64) — and
    results are clamped to the exact observed min/max.  Two histograms
    with the same layout merge by summing bin counts, which is what makes
    fleet-wide percentiles well-defined.
    """

    def __init__(
        self,
        min_value: float = 1e-7,
        max_value: float = 1e5,
        bins_per_decade: int = 64,
    ) -> None:
        if min_value <= 0 or max_value <= min_value:
            raise ValueError("need 0 < min_value < max_value")
        if bins_per_decade <= 0:
            raise ValueError("bins_per_decade must be positive")
        self.min_value = min_value
        self.max_value = max_value
        self.bins_per_decade = bins_per_decade
        self.num_bins = (
            int(math.ceil(math.log10(max_value / min_value) * bins_per_decade)) + 1
        )
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def _bin_index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        index = int(math.log10(value / self.min_value) * self.bins_per_decade)
        return min(index, self.num_bins - 1)

    def _bin_midpoint(self, index: int) -> float:
        return self.min_value * 10.0 ** ((index + 0.5) / self.bins_per_decade)

    def observe(self, value: float) -> None:
        """Record one (non-negative) observation."""
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        index = self._bin_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """The value at percentile ``q`` (0–100), or None when empty.

        Walks the cumulative bin counts to the bin covering the rank and
        returns its geometric midpoint, clamped to the observed range.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if self.count == 0:
            return None
        rank = (q / 100.0) * (self.count - 1)
        cumulative = 0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative > rank:
                midpoint = self._bin_midpoint(index)
                return min(max(midpoint, self.min), self.max)
        return self.max

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram (same bin layout) into this one."""
        if (
            other.min_value != self.min_value
            or other.max_value != self.max_value
            or other.bins_per_decade != self.bins_per_decade
        ):
            raise ValueError("cannot merge histograms with different bin layouts")
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)


@dataclass
class _GaugeWindow:
    """Per-window aggregates of one gauge (sum/count/max over observations)."""

    total: float = 0.0
    count: int = 0
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        self.max = max(self.max, value)

    def merge(self, other: "_GaugeWindow") -> None:
        self.total += other.total
        self.count += other.count
        self.max = max(self.max, other.max)


class _Window:
    """One ``window_s``-wide slice of sim time: raw, mergeable accumulators."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, _GaugeWindow] = {}
        self.histograms: dict[str, StreamingHistogram] = {}

    def merge(self, other: "_Window") -> None:
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, gauge in other.gauges.items():
            self.gauges.setdefault(name, _GaugeWindow()).merge(gauge)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = StreamingHistogram(
                    histogram.min_value, histogram.max_value, histogram.bins_per_decade
                )
                self.histograms[name] = mine
            mine.merge(histogram)


class MetricsRegistry:
    """Named counters, gauges and histograms over windowed simulated time.

    Every update carries the sim-time it happened at and lands both in the
    run-total structures and in the accumulator of window
    ``floor(time / window_s)``.  :meth:`merge` folds another registry in
    window-by-window (shards share one sim timeline, so aligning by index
    is the fleet-wide merge); :meth:`latest` returns the newest gauge
    observation, which is how control-plane policies read load signals
    without keeping shadow state.
    """

    def __init__(self, window_s: float = 0.01) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = window_s
        self.counters: dict[str, float] = {}
        self._latest: dict[str, float] = {}
        self._histograms: dict[str, StreamingHistogram] = {}
        self._windows: dict[int, _Window] = {}

    def _window(self, time: float) -> _Window:
        index = int(time / self.window_s)
        window = self._windows.get(index)
        if window is None:
            window = _Window()
            self._windows[index] = window
        return window

    # -- updates ----------------------------------------------------------------
    def inc(self, name: str, time: float, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount`` at sim-time ``time``."""
        self.counters[name] = self.counters.get(name, 0) + amount
        window = self._window(time)
        window.counters[name] = window.counters.get(name, 0) + amount

    def set_gauge(self, name: str, time: float, value: float) -> None:
        """Observe gauge ``name`` at ``value`` (kept as latest + window stats)."""
        self._latest[name] = value
        self._window(time).gauges.setdefault(name, _GaugeWindow()).observe(value)

    def observe(self, name: str, time: float, value: float) -> None:
        """Feed ``value`` into histogram ``name`` (run-total and its window)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = StreamingHistogram()
            self._histograms[name] = histogram
        histogram.observe(value)
        window = self._window(time)
        if name not in window.histograms:
            window.histograms[name] = StreamingHistogram()
        window.histograms[name].observe(value)

    # -- reads ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """The run-total of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    def latest(self, name: str) -> float | None:
        """The most recent observation of gauge ``name`` (None when unset)."""
        return self._latest.get(name)

    def histogram(self, name: str) -> StreamingHistogram | None:
        """The run-total histogram ``name`` (None when never observed)."""
        return self._histograms.get(name)

    @property
    def num_windows(self) -> int:
        """Touched windows only (the derived series fills interior gaps)."""
        return len(self._windows)

    def window_indices(self) -> list[int]:
        return sorted(self._windows)

    def window(self, index: int) -> _Window | None:
        return self._windows.get(index)

    # -- merge ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry (same ``window_s``) into this one."""
        if other.window_s != self.window_s:
            raise ValueError(
                f"cannot merge registries with different windows "
                f"({self.window_s} s vs {other.window_s} s)"
            )
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        # Latest across shards is ill-defined (shards end at different sim
        # times); keep the max, the conservative load signal.
        for name, value in other._latest.items():
            mine = self._latest.get(name)
            self._latest[name] = value if mine is None else max(mine, value)
        for name, histogram in other._histograms.items():
            if name not in self._histograms:
                self._histograms[name] = StreamingHistogram(
                    histogram.min_value, histogram.max_value, histogram.bins_per_decade
                )
            self._histograms[name].merge(histogram)
        for index, window in other._windows.items():
            if index in self._windows:
                self._windows[index].merge(window)
            else:
                merged = _Window()
                merged.merge(window)
                self._windows[index] = merged


@dataclass(frozen=True)
class WindowStats:
    """Derived serving metrics for one window of simulated time.

    Rates are per-window: ``arrival_rate_rps`` is arrivals over the window
    width, ``drop_rate`` is drops over arrivals (0.0 in an arrival-free
    window), ``cache_hit_rate`` counts probes that found *any* resident
    prefix (matching :attr:`~repro.serving.cache.CacheStats.hit_rate`'s
    at-least-partial definition).  Latency percentiles cover the requests
    that *completed* inside the window and are ``None`` when none did;
    ``batch_occupancy`` is mean batch size over the configured maximum
    (``None`` when the collector was not told the maximum).
    """

    index: int
    start_s: float
    end_s: float
    arrivals: int
    admitted: int
    drops: int
    completions: int
    arrival_rate_rps: float
    drop_rate: float
    cache_probes: int
    cache_hits: int
    cache_hit_rate: float | None
    mean_queue_depth: float | None
    max_queue_depth: float | None
    batch_flushes: int
    mean_batch_size: float | None
    batch_occupancy: float | None
    p50_latency_ms: float | None
    p99_latency_ms: float | None
    bytes_from_store: int
    bytes_from_cache: int
    prefetch_bytes: int


@OBSERVERS.register("metrics")
class MetricsCollector(ServerObserver):
    """Fold the server event stream into a :class:`MetricsRegistry`.

    Subscribe one per server (or pass through ``observers=``); after the
    run, :meth:`series` derives the :class:`WindowStats` time series and
    the registry holds the run-total counters and latency histograms.
    Collectors merge shard-wise via :meth:`merge` — the result is exactly
    the registry one fleet-wide collector would have built, because all
    updates are commutative folds over disjoint event streams.
    """

    def __init__(
        self,
        window_s: float = 0.01,
        max_batch_size: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_batch_size is not None and max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.registry = registry if registry is not None else MetricsRegistry(window_s)
        self.max_batch_size = max_batch_size

    @property
    def window_s(self) -> float:
        return self.registry.window_s

    def on_event(self, event: ServerEvent) -> None:
        registry = self.registry
        time = event.time
        if isinstance(event, RequestArrived):
            registry.inc("arrivals", time)
            registry.set_gauge("queue_depth", time, event.queue_depth)
        elif isinstance(event, CacheProbed):
            registry.inc("cache_probes", time)
            if event.resident_scans > 0:
                registry.inc("cache_hits", time)
        elif isinstance(event, RequestAdmitted):
            registry.inc("admitted", time)
            registry.inc("bytes_from_store", time, event.bytes_from_store)
            registry.inc("bytes_from_cache", time, event.bytes_from_cache)
        elif isinstance(event, RequestDropped):
            registry.inc("drops", time)
        elif isinstance(event, PrefetchIssued):
            registry.inc("prefetches", time)
            registry.inc("prefetch_bytes", time, event.bytes_fetched)
        elif isinstance(event, BatchFlushed):
            registry.inc("batch_flushes", time)
            registry.inc("batched_requests", time, event.batch_size)
            registry.observe("batch_size", time, event.batch_size)
        elif isinstance(event, RequestCompleted):
            registry.inc("completions", time)
            registry.observe("latency_s", time, event.record.latency)
            registry.observe("queue_wait_s", time, event.record.queue_wait)
        elif isinstance(
            event, (ShardAdded, ShardRemoved, ShardCrashed, ShardRecovered)
        ):
            # Fleet topology churn: one counter covers all four edges (the
            # elastic-fleet report carries the per-kind breakdown).
            registry.inc("topology_events", time)

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another shard's collector into this one (window-aligned)."""
        self.registry.merge(other.registry)
        if self.max_batch_size is None:
            self.max_batch_size = other.max_batch_size

    def series(self) -> tuple[WindowStats, ...]:
        """The derived window time series, gap-filled between first and last."""
        registry = self.registry
        indices = registry.window_indices()
        if not indices:
            return ()
        window_s = registry.window_s
        rows = []
        for index in range(indices[0], indices[-1] + 1):
            window = registry.window(index)
            counters = window.counters if window is not None else {}
            gauges = window.gauges if window is not None else {}
            histograms = window.histograms if window is not None else {}
            arrivals = int(counters.get("arrivals", 0))
            drops = int(counters.get("drops", 0))
            probes = int(counters.get("cache_probes", 0))
            hits = int(counters.get("cache_hits", 0))
            flushes = int(counters.get("batch_flushes", 0))
            batched = counters.get("batched_requests", 0)
            depth = gauges.get("queue_depth")
            latency = histograms.get("latency_s")
            mean_batch = batched / flushes if flushes else None
            p50 = latency.quantile(50) if latency is not None else None
            p99 = latency.quantile(99) if latency is not None else None
            rows.append(
                WindowStats(
                    index=index,
                    start_s=index * window_s,
                    end_s=(index + 1) * window_s,
                    arrivals=arrivals,
                    admitted=int(counters.get("admitted", 0)),
                    drops=drops,
                    completions=int(counters.get("completions", 0)),
                    arrival_rate_rps=arrivals / window_s,
                    drop_rate=drops / arrivals if arrivals else 0.0,
                    cache_probes=probes,
                    cache_hits=hits,
                    cache_hit_rate=hits / probes if probes else None,
                    mean_queue_depth=(
                        depth.total / depth.count if depth is not None else None
                    ),
                    max_queue_depth=depth.max if depth is not None else None,
                    batch_flushes=flushes,
                    mean_batch_size=mean_batch,
                    batch_occupancy=(
                        mean_batch / self.max_batch_size
                        if mean_batch is not None and self.max_batch_size
                        else None
                    ),
                    p50_latency_ms=p50 * 1e3 if p50 is not None else None,
                    p99_latency_ms=p99 * 1e3 if p99 is not None else None,
                    bytes_from_store=int(counters.get("bytes_from_store", 0)),
                    bytes_from_cache=int(counters.get("bytes_from_cache", 0)),
                    prefetch_bytes=int(counters.get("prefetch_bytes", 0)),
                )
            )
        return tuple(rows)
