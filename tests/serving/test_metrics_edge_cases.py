"""Edge cases of the SLO fold: empty runs, single records, exact quantiles.

``build_report`` folds one representation — the columnar
:class:`RequestRecords` — and columnarizes object sequences on entry, so
each edge case is checked once, against expectations computed
independently from the hand-built records (``np.percentile`` over their
latencies, counts of their labels), on the boundaries where float
reductions are most fragile: exact percentile indices, single elements,
all-identical populations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.metrics import (
    RequestRecords,
    ServedRequest,
    build_report,
)
from repro.serving.server import _RECORD_BUFFER_ROWS
from repro.storage.bandwidth import StorageBandwidthModel

BANDWIDTH = StorageBandwidthModel()


def make_record(
    request_id: int,
    latency: float = 0.010,
    label: int | None = 1,
    prediction: int = 1,
    batch_size: int = 2,
    resolution: int = 32,
) -> ServedRequest:
    arrival = 0.001 * request_id
    return ServedRequest(
        request_id=request_id,
        key=f"img{request_id % 4}",
        arrival_time=arrival,
        ready_time=arrival + latency * 0.4,
        dispatch_time=arrival + latency * 0.5,
        completion_time=arrival + latency,
        resolution=resolution,
        scans_read=2,
        bytes_from_store=1000,
        bytes_from_cache=200,
        total_bytes=5000,
        batch_size=batch_size,
        prediction=prediction,
        label=label,
    )


def report_of(records: list[ServedRequest], **kwargs):
    kwargs.setdefault("bandwidth", BANDWIDTH)
    kwargs.setdefault("store_requests", len(records))
    return build_report(records, **kwargs)


def expected_percentile_ms(records: list[ServedRequest], q: float) -> float:
    """The percentile the fold must report, computed from the objects."""
    latencies = [record.completion_time - record.arrival_time for record in records]
    return float(np.percentile(latencies, q) * 1e3)


def assert_percentiles(report, records: list[ServedRequest]) -> None:
    assert report.p50_latency_ms == expected_percentile_ms(records, 50)
    assert report.p95_latency_ms == expected_percentile_ms(records, 95)
    assert report.p99_latency_ms == expected_percentile_ms(records, 99)


class TestEmpty:
    def test_empty_list_contract(self):
        report = build_report([], bandwidth=BANDWIDTH, store_requests=0)
        assert report.num_requests == 0
        assert report.duration_s == 0.0
        assert report.throughput_rps == 0.0
        assert report.mean_latency_ms is None
        assert report.p50_latency_ms is None
        assert report.p95_latency_ms is None
        assert report.p99_latency_ms is None
        assert report.mean_batch_size is None
        assert report.accuracy is None
        assert report.resolution_histogram == {}

    def test_empty_records_match_empty_list(self):
        plain = build_report([], bandwidth=BANDWIDTH, store_requests=0)
        columnar_report = build_report(
            RequestRecords(), bandwidth=BANDWIDTH, store_requests=0
        )
        assert plain == columnar_report

    def test_empty_run_still_prices_prefetch_bytes(self):
        report = build_report(
            [], bandwidth=BANDWIDTH, store_requests=3, prefetch_bytes=30_000
        )
        expected = BANDWIDTH.estimate(30_000, num_requests=3)
        assert report.prefetch_bytes == 30_000
        assert report.transfer_seconds == expected.seconds > 0.0
        assert report.transfer_dollars == expected.dollars

    def test_empty_report_formats(self):
        report = build_report([], bandwidth=BANDWIDTH, store_requests=0)
        assert "requests served        0" in report.format()


class TestSingle:
    def test_single_record_percentiles_collapse(self):
        records = [make_record(0, latency=0.02)]
        report = report_of(records)
        assert report.num_requests == 1
        assert_percentiles(report, records)
        # Every percentile of a one-element population is that element.
        assert report.p50_latency_ms == pytest.approx(20.0)
        assert report.p50_latency_ms == report.p95_latency_ms == report.p99_latency_ms
        assert report.mean_latency_ms == report.p50_latency_ms
        assert report.mean_batch_size == 2.0
        assert report.resolution_histogram == {32: 1}
        assert report.bytes_from_store == 1000
        assert report.bytes_saved == 4000

    def test_single_unlabelled_record_has_no_accuracy(self):
        report = report_of([make_record(0, label=None)])
        assert report.num_requests == 1
        assert report.accuracy is None


class TestAccuracy:
    def test_accuracy_none_when_no_labels(self):
        records = [make_record(i, label=None) for i in range(5)]
        assert report_of(records).accuracy is None

    def test_accuracy_over_labelled_subset_only(self):
        records = [
            make_record(0, label=1, prediction=1),
            make_record(1, label=None, prediction=0),
            make_record(2, label=2, prediction=0),
            make_record(3, label=None, prediction=2),
        ]
        # One correct out of the two labelled records; None-labelled ignored.
        assert report_of(records).accuracy == 50.0

    def test_zero_correct_is_zero_not_none(self):
        records = [make_record(i, label=1, prediction=0) for i in range(3)]
        assert report_of(records).accuracy == 0.0


class TestQuantileBoundaries:
    def test_exact_percentile_indices(self):
        # 101 equally spaced latencies: every percentile lands exactly on a
        # sample, so linear interpolation must return it with no blending.
        records = [make_record(i, latency=0.001 * (i + 1)) for i in range(101)]
        report = report_of(records)
        assert_percentiles(report, records)
        assert report.p50_latency_ms == pytest.approx(51.0)
        assert report.p95_latency_ms == pytest.approx(96.0)
        assert report.p99_latency_ms == pytest.approx(100.0)

    def test_interpolation_between_samples(self):
        # Two samples: p50 interpolates the midpoint (numpy linear method).
        records = [make_record(0, latency=0.010), make_record(1, latency=0.030)]
        report = report_of(records)
        assert_percentiles(report, records)
        assert report.p50_latency_ms == pytest.approx(20.0)

    def test_identical_latencies_are_degenerate(self):
        # Latencies are recomputed as completion - arrival, so they agree
        # with 5ms only to float precision — but every percentile of the
        # (near-)constant population must collapse to the same few ulps.
        records = [make_record(i, latency=0.005) for i in range(10)]
        report = report_of(records)
        assert_percentiles(report, records)
        assert report.p50_latency_ms == pytest.approx(5.0)
        assert report.p99_latency_ms == pytest.approx(report.p50_latency_ms)


class TestColumnarEquivalence:
    def test_shuffled_append_order_is_sorted_by_request_id(self):
        # build_report sorts by request id; a completion order scramble must
        # not change a single reported bit, whichever form it arrives in.
        rng = np.random.default_rng(5)
        records = [
            make_record(
                i,
                latency=float(rng.uniform(0.001, 0.05)),
                label=int(rng.integers(0, 3)),
                prediction=int(rng.integers(0, 3)),
                batch_size=int(rng.integers(1, 5)),
                resolution=int(rng.choice([24, 32, 48])),
            )
            for i in range(37)
        ]
        shuffled = list(records)
        rng.shuffle(shuffled)
        in_order = report_of(records)
        assert in_order == report_of(shuffled)
        assert in_order == report_of(RequestRecords.from_served(shuffled))
        assert_percentiles(in_order, records)

    def test_materialize_round_trips(self):
        records = [make_record(i, label=None if i % 3 else i) for i in range(9)]
        assert RequestRecords.from_served(records).materialize() == records

    def test_extend_concatenates(self):
        left = RequestRecords.from_served([make_record(0), make_record(1)])
        right = RequestRecords.from_served([make_record(2)])
        left.extend(right)
        assert len(left) == 3
        assert left[-1] == make_record(2)

    def test_take_keeps_masked_rows_in_order(self):
        records = [make_record(i) for i in range(5)]
        columns = RequestRecords.from_served(records)
        mask = np.array([True, False, True, True, False])
        assert columns.take(mask).materialize() == [records[0], records[2], records[3]]
        assert columns.take(~mask).materialize() == [records[1], records[4]]

    def test_label_sentinel_is_none_safe(self):
        # -1 encodes None; a real label of 0 must survive the round trip.
        record = make_record(0, label=0)
        assert RequestRecords.from_served([record])[0].label == 0
        unlabelled = make_record(1, label=None)
        assert RequestRecords.from_served([unlabelled])[0].label is None


def random_rows(count: int, seed: int) -> list[tuple]:
    """``count`` completions as rows in ServedRequest field order."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        arrival = float(rng.uniform(0.0, 10.0))
        label = None if rng.random() < 0.3 else int(rng.integers(0, 4))
        rows.append(
            (
                int(rng.integers(0, 10**9)),
                f"img{int(rng.integers(0, 12))}",
                arrival,
                arrival + float(rng.uniform(0.0, 0.01)),
                arrival + float(rng.uniform(0.01, 0.02)),
                arrival + float(rng.uniform(0.02, 0.05)),
                int(rng.choice([24, 32, 48])),
                int(rng.integers(1, 10)),
                int(rng.integers(0, 10**6)),
                int(rng.integers(0, 10**6)),
                int(rng.integers(10**6, 2 * 10**6)),
                int(rng.integers(1, 5)),
                int(rng.integers(0, 4)),
                label,
            )
        )
    return rows


def columns_of(records: RequestRecords) -> dict:
    return {name: list(getattr(records, name)) for name in RequestRecords.__slots__}


class TestExtendRows:
    """``extend_rows`` is ``append`` per row, a buffer at a time."""

    N = _RECORD_BUFFER_ROWS

    @pytest.mark.parametrize("count", [0, 1, N - 1, N, N + 1, 3 * N + 5])
    def test_equals_per_row_append(self, count):
        rows = random_rows(count, seed=count)
        appended = RequestRecords()
        for row in rows:
            appended.append(*row)
        extended = RequestRecords()
        extended.extend_rows(rows)
        assert columns_of(extended) == columns_of(appended)
        # As the server feeds it: one buffer of at most N rows at a time.
        buffered = RequestRecords()
        for start in range(0, count, self.N):
            buffered.extend_rows(rows[start : start + self.N])
        assert columns_of(buffered) == columns_of(appended)
        assert [record.label for record in extended.materialize()] == [
            row[-1] for row in rows
        ]

    def test_none_labels_are_stored_as_the_sentinel(self):
        rows = [row[:-1] + (label,) for row, label in zip(random_rows(3, 1), (None, 0, 2))]
        records = RequestRecords()
        records.extend_rows(rows)
        assert list(records.labels) == [-1, 0, 2]
        assert [ServedRequest(*row) for row in rows] == records.materialize()

    def test_appends_after_existing_records(self):
        rows = random_rows(7, seed=3)
        records = RequestRecords.from_served([make_record(0)])
        records.extend_rows(rows)
        assert records[0] == make_record(0)
        assert records.materialize()[1:] == [ServedRequest(*row) for row in rows]
