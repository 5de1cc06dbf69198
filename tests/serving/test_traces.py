"""Trace schema, loaders, recorder, and record→replay round-trip tests.

The round-trip property is the heart of workload realism: a run recorded
through :class:`TraceRecorder` and replayed through
:class:`TraceReplayArrivals` at ``speedup=1`` must reproduce the original
arrival times and keys *exactly* — and therefore the original SLO report
byte-for-byte.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import EngineConfig
from repro.api.engine import Engine
from repro.serving.arrivals import Request
from repro.serving.events import RequestAdmitted, RequestArrived
from repro.serving.traces import (
    TraceFormatError,
    TraceRecord,
    TraceRecorder,
    load_trace,
    save_trace,
)
from repro.serving.workload import TraceReplayArrivals

KEYS = [f"img{i}" for i in range(6)]


def make_records(times, keys):
    return tuple(
        TraceRecord(timestamp=time, key=key) for time, key in zip(times, keys)
    )


class TestTraceRecordValidation:
    def test_rejects_negative_timestamp(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(timestamp=-0.1, key="img0")

    def test_rejects_non_finite_timestamp(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(timestamp=float("nan"), key="img0")

    def test_rejects_empty_key(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(timestamp=0.0, key="")

    def test_rejects_negative_size(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(timestamp=0.0, key="img0", size_bytes=-1)

    def test_rejects_non_positive_deadline(self):
        with pytest.raises(TraceFormatError):
            TraceRecord(timestamp=0.0, key="img0", deadline_s=0.0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(TraceFormatError, match=r"unknown TraceRecord field\(s\): nope;"):
            TraceRecord.from_dict({"timestamp": 0.0, "key": "img0", "nope": 1})

    def test_from_dict_rejects_missing_required_fields(self):
        with pytest.raises(TraceFormatError, match="missing required"):
            TraceRecord.from_dict({"timestamp": 0.0})

    def test_optional_fields_survive_a_dict_round_trip(self):
        record = TraceRecord(timestamp=1.5, key="img0", size_bytes=42, deadline_s=0.2)
        assert TraceRecord.from_dict(record.to_dict()) == record


class TestSaveLoad:
    @pytest.mark.parametrize("extension", ["jsonl", "csv"])
    def test_round_trip_is_exact(self, tmp_path, extension):
        # Awkward floats on purpose: exactness must not depend on pretty values.
        times = [0.1 + 1.0 / 3.0 * i for i in range(20)]
        records = make_records(times, [KEYS[i % len(KEYS)] for i in range(20)])
        path = str(tmp_path / f"trace.{extension}")
        assert save_trace(records, path) == 20
        loaded = load_trace(path)
        assert tuple(loaded) == records

    def test_annotations_round_trip_in_both_formats(self, tmp_path):
        records = (
            TraceRecord(timestamp=0.0, key="img0", size_bytes=10, deadline_s=0.5),
            TraceRecord(timestamp=1.0, key="img1"),
        )
        for extension in ("jsonl", "csv"):
            path = str(tmp_path / f"trace.{extension}")
            save_trace(records, path)
            assert tuple(load_trace(path)) == records

    def test_unknown_extension_is_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cannot infer trace format"):
            load_trace(str(tmp_path / "trace.txt"))

    def test_empty_trace_is_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError, match="no records"):
            load_trace(str(path))


class TestMalformedFiles:
    def test_invalid_json_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"timestamp": 0.0, "key": "img0"}\n{oops\n')
        with pytest.raises(TraceFormatError, match=r"bad\.jsonl:2.*invalid JSON"):
            load_trace(str(path))

    def test_non_object_json_line_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(TraceFormatError, match="expected a JSON object"):
            load_trace(str(path))

    def test_negative_timestamp_in_file_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"timestamp": 0.0, "key": "img0"}\n{"timestamp": -1.0, "key": "img0"}\n'
        )
        with pytest.raises(TraceFormatError, match=r"bad\.jsonl:2"):
            load_trace(str(path))

    def test_unknown_csv_column_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,key,color\n0.0,img0,red\n")
        with pytest.raises(TraceFormatError, match="unknown CSV column"):
            load_trace(str(path))

    def test_non_numeric_csv_timestamp_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,key\nsoon,img0\n")
        with pytest.raises(TraceFormatError, match="not a number"):
            load_trace(str(path))

    def test_non_integer_csv_size_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,key,size_bytes\n0.0,img0,big\n")
        with pytest.raises(TraceFormatError, match="not an integer"):
            load_trace(str(path))


@st.composite
def arrival_streams(draw):
    """Strictly increasing arrival times with keys from a small catalogue."""
    gaps = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    times, clock = [], 0.0
    for gap in gaps:
        clock += gap
        times.append(clock)
    keys = draw(
        st.lists(
            st.sampled_from(KEYS), min_size=len(times), max_size=len(times)
        )
    )
    return times, keys


class TestRecorderRoundTrip:
    def feed(self, recorder, times, keys):
        for index, (time, key) in enumerate(zip(times, keys)):
            request = Request(request_id=index, key=key, arrival_time=time)
            recorder.on_event(RequestArrived(time=time, request=request, queue_depth=0))

    @given(arrival_streams())
    @settings(max_examples=50, deadline=None)
    def test_record_then_replay_is_exact_at_speedup_one(self, stream):
        times, keys = stream
        recorder = TraceRecorder()
        self.feed(recorder, times, keys)
        replayed = TraceReplayArrivals(records=tuple(recorder.records)).stream(
            KEYS, len(times)
        )
        assert replayed.times.tolist() == times
        assert replayed.keys == keys

    @given(stream=arrival_streams())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_survives_the_jsonl_format(self, tmp_path_factory, stream):
        times, keys = stream
        recorder = TraceRecorder()
        self.feed(recorder, times, keys)
        path = str(tmp_path_factory.mktemp("traces") / "round.jsonl")
        recorder.save(path)
        replayed = TraceReplayArrivals(trace_path=path).stream(KEYS, len(times))
        assert replayed.times.tolist() == times
        assert replayed.keys == keys

    def test_admission_annotates_size_bytes(self):
        recorder = TraceRecorder()
        request = Request(request_id=0, key="img0", arrival_time=0.5)
        recorder.on_event(RequestArrived(time=0.5, request=request, queue_depth=0))
        recorder.on_event(
            RequestAdmitted(
                time=0.5,
                request=request,
                resolution=24,
                scans_read=2,
                bytes_from_store=100,
                bytes_from_cache=40,
                ready_time=0.6,
            )
        )
        (record,) = recorder.records
        assert record.size_bytes == 140

    def test_clear_empties_the_recorder(self):
        recorder = TraceRecorder()
        self.feed(recorder, [0.1], ["img0"])
        recorder.clear()
        assert recorder.records == []


def tiny_serving_config(arrivals: dict) -> EngineConfig:
    """A fast single-server scenario (linear batch cost, tiny store)."""
    return EngineConfig.from_dict(
        {
            "resolutions": [24, 32],
            "scale_resolution": 24,
            "store": {
                "profile": "imagenet-like",
                "overrides": {
                    "name": "trace-test",
                    "num_classes": 4,
                    "storage_resolution_mean": 64,
                    "storage_resolution_std": 5,
                },
                "num_images": 8,
                "seed": 5,
            },
            "backbone": {
                "name": "resnet-tiny",
                "options": {"num_classes": 4, "base_width": 4, "seed": 0},
            },
            "policy": {"name": "static", "resolution": 24},
            "serving": {
                "arrivals": arrivals,
                "num_requests": 60,
                "num_workers": 2,
                "max_batch_size": 4,
                "max_wait_s": 0.002,
                "cache": {"name": "scan-lru", "capacity_bytes": 100000},
            },
        }
    )


class TestEndToEndRoundTrip:
    def test_recorded_run_replays_to_an_identical_report(self, tmp_path):
        config = tiny_serving_config(
            {"name": "onoff", "options": {"on_rate_rps": 1500.0, "seed": 9}}
        )
        engine = Engine(config)
        recorder = TraceRecorder()
        server = engine.build_server()
        server.subscribe(recorder)
        original = server.run(engine.build_trace())

        path = str(tmp_path / "run.jsonl")
        count = recorder.save(path)
        assert count == 60

        replay_config = tiny_serving_config(
            {"name": "replay", "trace_path": path}
        )
        replayed = Engine(replay_config).serve()
        assert replayed == original
