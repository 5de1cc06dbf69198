"""Per-run SLO reporting for the serving simulator.

A serving run records every completed request with its full timeline
(arrival → ready → dispatch → completion) and byte provenance (store vs
cache).  :func:`build_report` folds those into an :class:`SLOReport`:
throughput, latency percentiles, batching behaviour, cache
effectiveness, admission drops, prefetch payoff, bytes read versus the
all-data baseline, and the dollar cost of the bytes actually moved
(via :class:`~repro.storage.bandwidth.StorageBandwidthModel`, the paper's
cloud-economics model).  Reports are plain frozen dataclasses so two
deterministic runs can be compared with ``==``; they are also
:class:`~repro.api.reports.Report` subclasses, so they serialize through
the unified ``to_dict``/``from_dict`` schema the CLI and sweeps share.

Million-request runs cannot afford one Python object per completion, so
the server accumulates the fourteen fields of a :class:`ServedRequest`
columnar in a :class:`RequestRecords` (typed ``array`` columns), and
:func:`build_report` folds the columns vectorized.  An object sequence is
columnarized on entry, so there is one fold.

An empty record list (every arrival dropped, or a zero-length run) is a
well-defined report — zero requests, ``None`` percentiles — not an error:
an admission policy that sheds all load is a legitimate outcome the
control plane must be able to describe.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields
from itertools import compress
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from repro.api.reports import Report, report_type
from repro.storage.bandwidth import StorageBandwidthModel

from repro.serving.cache import CacheStats


@dataclass(frozen=True)
class ServedRequest:
    """Timeline and accounting for one completed request."""

    request_id: int
    key: str
    arrival_time: float
    ready_time: float  # reads + resolution selection finished
    dispatch_time: float  # batch started executing on a worker
    completion_time: float
    resolution: int
    scans_read: int
    bytes_from_store: int
    bytes_from_cache: int
    total_bytes: int
    batch_size: int
    prediction: int
    label: int | None

    @property
    def latency(self) -> float:
        return self.completion_time - self.arrival_time

    @property
    def queue_wait(self) -> float:
        return self.dispatch_time - self.ready_time

    @property
    def correct(self) -> bool | None:
        if self.label is None:
            return None
        return self.prediction == self.label


class RequestRecords:
    """Columnar store of completed requests, the server's one record format.

    Holds the same fourteen fields as :class:`ServedRequest`, one typed
    ``array`` column per field instead of one frozen object per request, so
    a million-request run holds megabytes of flat buffers instead of a
    million dataclass instances.  The server buffers its completions as
    row tuples and columnarizes a buffer at a time with
    :meth:`extend_rows`: one C-level fill per column per buffer, not
    fourteen appends per completion.  ``label`` uses ``-1`` as the ``None``
    sentinel (class labels are non-negative).

    :func:`build_report` consumes the columns directly; indexing and
    :meth:`materialize` rebuild :class:`ServedRequest` objects for
    consumers that want them (events, tests, tracing assertions).
    """

    __slots__ = (
        "request_ids",
        "keys",
        "arrival_times",
        "ready_times",
        "dispatch_times",
        "completion_times",
        "resolutions",
        "scans_read",
        "bytes_from_store",
        "bytes_from_cache",
        "total_bytes",
        "batch_sizes",
        "predictions",
        "labels",
    )

    def __init__(self) -> None:
        self.request_ids = array("q")
        self.keys: list[str] = []
        self.arrival_times = array("d")
        self.ready_times = array("d")
        self.dispatch_times = array("d")
        self.completion_times = array("d")
        self.resolutions = array("q")
        self.scans_read = array("q")
        self.bytes_from_store = array("q")
        self.bytes_from_cache = array("q")
        self.total_bytes = array("q")
        self.batch_sizes = array("q")
        self.predictions = array("q")
        self.labels = array("q")

    @classmethod
    def from_served(cls, served: Iterable[ServedRequest]) -> "RequestRecords":
        """Columnarize object records, in iteration order."""
        records = cls()
        records.extend_rows(list(map(_SERVED_ROW, served)))
        return records

    def __len__(self) -> int:
        return len(self.request_ids)

    def __getitem__(self, index: int) -> ServedRequest:
        label = self.labels[index]
        return ServedRequest(
            request_id=self.request_ids[index],
            key=self.keys[index],
            arrival_time=self.arrival_times[index],
            ready_time=self.ready_times[index],
            dispatch_time=self.dispatch_times[index],
            completion_time=self.completion_times[index],
            resolution=self.resolutions[index],
            scans_read=self.scans_read[index],
            bytes_from_store=self.bytes_from_store[index],
            bytes_from_cache=self.bytes_from_cache[index],
            total_bytes=self.total_bytes[index],
            batch_size=self.batch_sizes[index],
            prediction=self.predictions[index],
            label=None if label < 0 else label,
        )

    def column(self, name: str) -> np.ndarray:
        """A zero-copy numpy view of one numeric column."""
        values = getattr(self, name)
        return np.frombuffer(values, dtype=np.float64 if values.typecode == "d" else np.int64)

    def append(
        self,
        request_id: int,
        key: str,
        arrival_time: float,
        ready_time: float,
        dispatch_time: float,
        completion_time: float,
        resolution: int,
        scans_read: int,
        bytes_from_store: int,
        bytes_from_cache: int,
        total_bytes: int,
        batch_size: int,
        prediction: int,
        label: int | None,
    ) -> None:
        """Record one completion (field-for-field a :class:`ServedRequest`)."""
        self.request_ids.append(request_id)
        self.keys.append(key)
        self.arrival_times.append(arrival_time)
        self.ready_times.append(ready_time)
        self.dispatch_times.append(dispatch_time)
        self.completion_times.append(completion_time)
        self.resolutions.append(resolution)
        self.scans_read.append(scans_read)
        self.bytes_from_store.append(bytes_from_store)
        self.bytes_from_cache.append(bytes_from_cache)
        self.total_bytes.append(total_bytes)
        self.batch_sizes.append(batch_size)
        self.predictions.append(prediction)
        self.labels.append(-1 if label is None else label)

    def extend_rows(self, rows: Sequence[tuple]) -> None:
        """Record completions given as rows in :class:`ServedRequest` field order.

        Equal to :meth:`append` per row, in order, with ``label=None``
        stored as ``-1``; each column is filled once for all the rows
        (``array.fromlist`` converts a list several times faster than
        ``extend`` walks a tuple).
        """
        if not rows:
            return
        ids, keys, *numbers, labels = zip(*rows)
        self.request_ids.fromlist(list(ids))
        self.keys.extend(keys)
        for name, column in zip(self.__slots__[2:], numbers):
            getattr(self, name).fromlist(list(column))
        self.labels.fromlist([-1 if label is None else label for label in labels])

    def extend(self, other: "RequestRecords") -> None:
        """Concatenate another store's columns onto this one."""
        for name in self.__slots__:
            getattr(self, name).extend(getattr(other, name))

    def take(self, mask: np.ndarray) -> "RequestRecords":
        """The records where ``mask`` is true, in append order."""
        taken = RequestRecords()
        for name in self.__slots__:
            getattr(taken, name).extend(compress(getattr(self, name), mask))
        return taken

    def materialize(self) -> list[ServedRequest]:
        """The equivalent :class:`ServedRequest` objects, in append order."""
        return [self[index] for index in range(len(self))]


#: A :class:`ServedRequest` as a row in field order (see RequestRecords.extend_rows).
_SERVED_ROW = attrgetter(*(served_field.name for served_field in fields(ServedRequest)))


@report_type("slo")
@dataclass(frozen=True)
class SLOReport(Report):
    """Aggregate service-level metrics for one serving run.

    The latency/batch statistics are ``None`` when ``num_requests`` is zero
    (percentiles of an empty population are undefined), as is ``accuracy``
    when no served request carried a label; every byte and count field is
    still well-defined.
    """

    num_requests: int
    duration_s: float
    throughput_rps: float
    mean_latency_ms: float | None
    p50_latency_ms: float | None
    p95_latency_ms: float | None
    p99_latency_ms: float | None
    mean_queue_wait_ms: float | None
    mean_batch_size: float | None
    accuracy: float | None
    bytes_from_store: int
    bytes_from_cache: int
    baseline_bytes: int
    bytes_saved: int
    relative_bytes_saved: float
    transfer_seconds: float
    transfer_dollars: float
    cache_hit_rate: float | None
    degraded_requests: int
    resolution_histogram: dict[int, int] = field(default_factory=dict)
    dropped_requests: int = 0
    prefetch_bytes: int = 0
    prefetch_hits: int = 0
    prefetch_wasted_bytes: int = 0

    @property
    def offered_requests(self) -> int:
        """Arrivals the run saw: served plus dropped."""
        return self.num_requests + self.dropped_requests

    @property
    def drop_rate(self) -> float:
        """Fraction of offered requests the admission policy dropped."""
        if self.offered_requests == 0:
            return 0.0
        return self.dropped_requests / self.offered_requests

    def format(self) -> str:
        """Deterministic plain-text rendering of the report."""
        if self.num_requests == 0:
            lines = [
                "requests served        0",
                f"requests dropped       {self.dropped_requests}",
            ]
            if self.cache_hit_rate is not None:
                lines.append(
                    f"cache hit rate         {100.0 * self.cache_hit_rate:.1f} %"
                )
            return "\n".join(lines)
        lines = [
            f"requests served        {self.num_requests}",
            f"duration               {self.duration_s:.4f} s",
            f"throughput             {self.throughput_rps:.1f} req/s",
            f"latency mean/p50       {self.mean_latency_ms:.2f} / {self.p50_latency_ms:.2f} ms",
            f"latency p95/p99        {self.p95_latency_ms:.2f} / {self.p99_latency_ms:.2f} ms",
            f"mean queue wait        {self.mean_queue_wait_ms:.2f} ms",
            f"mean batch size        {self.mean_batch_size:.2f}",
            (
                f"accuracy               {self.accuracy:.1f} %"
                if self.accuracy is not None
                else "accuracy               n/a (unlabelled)"
            ),
            f"bytes from store       {self.bytes_from_store}",
            f"bytes from cache       {self.bytes_from_cache}",
            f"bytes saved vs full    {self.bytes_saved} ({100.0 * self.relative_bytes_saved:.1f} %)",
            f"transfer time / cost   {self.transfer_seconds:.4f} s / ${self.transfer_dollars:.6f}",
        ]
        if self.cache_hit_rate is not None:
            lines.append(f"cache hit rate         {100.0 * self.cache_hit_rate:.1f} %")
        if self.degraded_requests:
            lines.append(f"degraded requests      {self.degraded_requests}")
        if self.dropped_requests:
            lines.append(
                f"dropped requests       {self.dropped_requests} "
                f"({100.0 * self.drop_rate:.1f} % of offered)"
            )
        if self.prefetch_bytes:
            lines.append(
                f"prefetch bytes         {self.prefetch_bytes} "
                f"({self.prefetch_hits} hits, {self.prefetch_wasted_bytes} wasted)"
            )
        histogram = ", ".join(
            f"{resolution}px: {count}"
            for resolution, count in sorted(self.resolution_histogram.items())
        )
        lines.append(f"resolution mix         {histogram}")
        return "\n".join(lines)


def _percentile_ms(latencies: np.ndarray, q: float) -> float:
    return float(np.percentile(latencies, q) * 1e3)


def build_report(
    served: "Iterable[ServedRequest] | RequestRecords",
    bandwidth: StorageBandwidthModel,
    store_requests: int,
    cache_stats: CacheStats | None = None,
    degraded_requests: int = 0,
    dropped_requests: int = 0,
    prefetch_bytes: int = 0,
    prefetch_hits: int = 0,
    prefetch_wasted_bytes: int = 0,
) -> SLOReport:
    """Fold completed requests into one :class:`SLOReport`.

    ``store_requests`` is the number of GET operations issued against the
    store (a full cache hit issues none), which the bandwidth model prices
    separately from the bytes moved.  An empty ``served`` — every arrival
    dropped, or nothing offered — yields the well-defined empty report
    (zero requests, ``None`` percentiles) rather than raising.

    ``served`` is normally the server's :class:`RequestRecords`; an object
    sequence is columnarized on entry.  Records fold in request-id order (a
    stable argsort), so append order never changes a reported bit: the
    ordered float reductions (means, percentiles) see the same sequence,
    and integer folds are exact in any order.
    """
    records = (
        served if isinstance(served, RequestRecords) else RequestRecords.from_served(served)
    )
    if not records:
        # Even with nothing served, prefetch GETs may have moved bytes.
        transfer = bandwidth.estimate(prefetch_bytes, num_requests=store_requests)
        return SLOReport(
            num_requests=0,
            duration_s=0.0,
            throughput_rps=0.0,
            mean_latency_ms=None,
            p50_latency_ms=None,
            p95_latency_ms=None,
            p99_latency_ms=None,
            mean_queue_wait_ms=None,
            mean_batch_size=None,
            accuracy=None,
            bytes_from_store=0,
            bytes_from_cache=0,
            baseline_bytes=0,
            bytes_saved=0,
            relative_bytes_saved=0.0,
            transfer_seconds=transfer.seconds,
            transfer_dollars=transfer.dollars,
            cache_hit_rate=cache_stats.hit_rate if cache_stats is not None else None,
            degraded_requests=degraded_requests,
            resolution_histogram={},
            dropped_requests=dropped_requests,
            prefetch_bytes=prefetch_bytes,
            prefetch_hits=prefetch_hits,
            prefetch_wasted_bytes=prefetch_wasted_bytes,
        )
    order = np.argsort(records.column("request_ids"), kind="stable")
    arrivals = records.column("arrival_times")[order]
    completions = records.column("completion_times")[order]
    latencies = completions - arrivals
    waits = (records.column("dispatch_times") - records.column("ready_times"))[order]
    duration = float(completions.max()) - float(arrivals.min())

    labels = records.column("labels")
    predictions = records.column("predictions")
    labelled = labels >= 0
    num_labelled = int(labelled.sum())
    # None, not NaN: NaN is invalid strict JSON and breaks == round-trips.
    accuracy = (
        100.0 * int((predictions[labelled] == labels[labelled]).sum()) / num_labelled
        if num_labelled
        else None
    )

    bytes_from_store = int(np.sum(records.column("bytes_from_store")))
    bytes_from_cache = int(np.sum(records.column("bytes_from_cache")))
    baseline_bytes = int(np.sum(records.column("total_bytes")))
    # Prefetched bytes are store traffic too: they ride the same GETs the
    # bandwidth model prices, even though no request waited on them.
    transfer = bandwidth.estimate(
        bytes_from_store + prefetch_bytes, num_requests=store_requests
    )

    values, counts = np.unique(records.column("resolutions"), return_counts=True)
    histogram = {int(value): int(count) for value, count in zip(values, counts)}

    count = len(records)
    return SLOReport(
        num_requests=count,
        duration_s=duration,
        throughput_rps=count / duration if duration > 0 else float("inf"),
        mean_latency_ms=float(latencies.mean() * 1e3),
        p50_latency_ms=_percentile_ms(latencies, 50),
        p95_latency_ms=_percentile_ms(latencies, 95),
        p99_latency_ms=_percentile_ms(latencies, 99),
        mean_queue_wait_ms=float(waits.mean() * 1e3),
        mean_batch_size=float(np.mean(records.column("batch_sizes")[order])),
        accuracy=accuracy,
        bytes_from_store=bytes_from_store,
        bytes_from_cache=bytes_from_cache,
        baseline_bytes=baseline_bytes,
        bytes_saved=baseline_bytes - bytes_from_store,
        relative_bytes_saved=(
            1.0 - bytes_from_store / baseline_bytes if baseline_bytes > 0 else 0.0
        ),
        transfer_seconds=transfer.seconds,
        transfer_dollars=transfer.dollars,
        cache_hit_rate=cache_stats.hit_rate if cache_stats is not None else None,
        degraded_requests=degraded_requests,
        resolution_histogram=histogram,
        dropped_requests=dropped_requests,
        prefetch_bytes=prefetch_bytes,
        prefetch_hits=prefetch_hits,
        prefetch_wasted_bytes=prefetch_wasted_bytes,
    )
