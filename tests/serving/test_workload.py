"""Replay and diurnal-modulation tests: exactness, warping, validation."""

import numpy as np
import pytest

from repro.api.config import ArrivalsConfig, DiurnalConfig
from repro.serving.arrivals import ClosedLoopClients, PoissonArrivals
from repro.serving.traces import TraceRecord
from repro.serving.workload import DiurnalArrivals, TraceReplayArrivals

KEYS = [f"img{i}" for i in range(8)]


def make_records(times, keys=None):
    keys = keys or [KEYS[i % len(KEYS)] for i in range(len(times))]
    return tuple(
        TraceRecord(timestamp=time, key=key) for time, key in zip(times, keys)
    )


class TestTraceReplay:
    def test_preserves_times_and_keys_exactly(self):
        times = [0.25, 0.5, 1.0, 1.125]
        records = make_records(times)
        trace = TraceReplayArrivals(records=records).trace(KEYS, 4)
        assert [request.arrival_time for request in trace] == times
        assert [request.key for request in trace] == [r.key for r in records]
        assert [request.request_id for request in trace] == [0, 1, 2, 3]

    def test_is_deterministic(self):
        records = make_records([0.1, 0.2, 0.9])
        process = TraceReplayArrivals(records=records, mode="loop")
        assert process.trace(KEYS, 10) == process.trace(KEYS, 10)

    def test_speedup_divides_timestamps(self):
        records = make_records([1.0, 2.0, 4.0])
        trace = TraceReplayArrivals(records=records, speedup=4.0).trace(KEYS, 3)
        assert [request.arrival_time for request in trace] == [0.25, 0.5, 1.0]

    def test_truncate_serves_at_most_the_trace(self):
        records = make_records([0.1, 0.2, 0.3])
        trace = TraceReplayArrivals(records=records).trace(KEYS, 10)
        assert len(trace) == 3

    def test_loop_wraps_with_strictly_increasing_times(self):
        records = make_records([0.1, 0.2, 0.4])
        trace = TraceReplayArrivals(records=records, mode="loop").trace(KEYS, 11)
        assert len(trace) == 11
        times = [request.arrival_time for request in trace]
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        # Keys cycle through the trace in order.
        assert [request.key for request in trace[:3]] == [r.key for r in records]
        assert [request.key for request in trace[3:6]] == [r.key for r in records]

    def test_out_of_order_records_are_sorted_stably(self):
        records = make_records([0.5, 0.1, 0.3], keys=["img2", "img0", "img1"])
        trace = TraceReplayArrivals(records=records).trace(KEYS, 3)
        assert [request.key for request in trace] == ["img0", "img1", "img2"]

    def test_unknown_trace_key_is_rejected(self):
        records = make_records([0.1, 0.2], keys=["img0", "mystery"])
        with pytest.raises(ValueError, match="mystery"):
            TraceReplayArrivals(records=records).trace(KEYS, 2)

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            TraceReplayArrivals()
        with pytest.raises(ValueError, match="exactly one"):
            TraceReplayArrivals(trace_path="t.jsonl", records=make_records([0.1]))

    def test_rejects_bad_mode_and_speedup(self):
        records = make_records([0.1])
        with pytest.raises(ValueError, match="mode"):
            TraceReplayArrivals(records=records, mode="stretch")
        for speedup in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="speedup must be a finite positive number"):
                TraceReplayArrivals(records=records, speedup=speedup)

    def test_rejects_looping_a_zero_span_trace(self):
        records = make_records([0.5, 0.5])
        with pytest.raises(ValueError, match="zero-span"):
            TraceReplayArrivals(records=records, mode="loop").trace(KEYS, 5)


class TestDiurnalArrivals:
    def test_is_deterministic_and_preserves_keys_and_count(self):
        base = PoissonArrivals(rate_rps=500.0, seed=3)
        process = DiurnalArrivals(base=base, period_s=0.5, amplitude=0.7)
        first = process.trace(KEYS, 300)
        second = process.trace(KEYS, 300)
        assert first == second
        assert len(first) == 300
        assert [r.key for r in first] == [r.key for r in base.trace(KEYS, 300)]

    def test_times_stay_strictly_increasing(self):
        process = DiurnalArrivals(
            base=PoissonArrivals(rate_rps=2000.0, seed=1),
            period_s=0.2,
            amplitude=0.9,
            envelope=(2.0, 0.3),
        )
        times = [r.arrival_time for r in process.trace(KEYS, 500)]
        assert all(later > earlier for earlier, later in zip(times, times[1:]))

    def test_sinusoid_concentrates_arrivals_in_the_peak_half(self):
        process = DiurnalArrivals(
            base=PoissonArrivals(rate_rps=1000.0, seed=2), period_s=1.0, amplitude=0.8
        )
        phases = np.mod([r.arrival_time for r in process.trace(KEYS, 2000)], 1.0)
        peak = int(np.sum(phases < 0.5))  # sin > 0 half of the cycle
        trough = int(np.sum(phases >= 0.5))
        assert peak > 1.5 * trough

    def test_envelope_segments_scale_local_rate(self):
        process = DiurnalArrivals(
            base=PoissonArrivals(rate_rps=1000.0, seed=4),
            period_s=1.0,
            amplitude=0.0,
            envelope=(3.0, 0.5),
        )
        phases = np.mod([r.arrival_time for r in process.trace(KEYS, 2000)], 1.0)
        busy = int(np.sum(phases < 0.5))
        quiet = int(np.sum(phases >= 0.5))
        assert busy > 3 * quiet

    def test_amplitude_zero_and_flat_envelope_is_identity_within_grid_error(self):
        base = PoissonArrivals(rate_rps=800.0, seed=5)
        process = DiurnalArrivals(base=base, period_s=0.1, amplitude=0.0)
        warped = np.array([r.arrival_time for r in process.trace(KEYS, 200)])
        original = np.array([r.arrival_time for r in base.trace(KEYS, 200)])
        assert np.allclose(warped, original, rtol=0, atol=1e-9)

    def test_extreme_quiet_envelope_never_collapses_the_tail(self):
        """Regression: the warp grid must cover the whole base span.

        A tiny envelope multiplier stretches the modulated timeline far
        beyond the base span; an undersized inversion grid used to clamp
        the tail of the trace onto one instant.
        """
        process = DiurnalArrivals(
            base=PoissonArrivals(rate_rps=100.0, seed=0),
            period_s=0.05,
            amplitude=0.0,
            envelope=(0.01,),
        )
        times = [r.arrival_time for r in process.trace(KEYS, 200)]
        assert all(later > earlier for earlier, later in zip(times, times[1:]))
        # Flat 0.01 multiplier ⇒ the warp stretches the span 100x.
        base_span = PoissonArrivals(rate_rps=100.0, seed=0).trace(KEYS, 200)[-1]
        assert times[-1] == pytest.approx(100.0 * base_span.arrival_time, rel=0.01)

    def test_rate_multiplier_matches_the_formula(self):
        process = DiurnalArrivals(
            base=PoissonArrivals(rate_rps=1.0, seed=0),
            period_s=4.0,
            amplitude=0.5,
            envelope=(2.0, 1.0),
        )
        # t=1.0 is the sinusoid peak (sin(2π/4)=1) inside the first segment.
        assert process.rate_multiplier(np.array([1.0]))[0] == pytest.approx(3.0)
        # t=3.0 is the trough inside the second segment.
        assert process.rate_multiplier(np.array([3.0]))[0] == pytest.approx(0.5)

    def test_validation(self):
        base = PoissonArrivals(rate_rps=100.0, seed=0)
        with pytest.raises(ValueError, match="period_s"):
            DiurnalArrivals(base=base, period_s=0.0)
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalArrivals(base=base, amplitude=1.0)
        with pytest.raises(ValueError, match="envelope"):
            DiurnalArrivals(base=base, envelope=(1.0, 0.0))
        with pytest.raises(ValueError, match="open-loop"):
            DiurnalArrivals(base=ClosedLoopClients(num_clients=2))


class TestArrivalsConfigRealismKnobs:
    def test_replay_requires_a_trace_path(self):
        with pytest.raises(ValueError, match="trace_path is required"):
            ArrivalsConfig(name="replay")

    def test_trace_path_is_replay_only(self):
        with pytest.raises(ValueError, match="only applies"):
            ArrivalsConfig(name="poisson", trace_path="t.jsonl")

    def test_replay_rejects_popularity(self):
        from repro.api.config import PopularityConfig

        with pytest.raises(ValueError, match="popularity"):
            ArrivalsConfig(
                name="replay",
                trace_path="t.jsonl",
                popularity=PopularityConfig(name="zipf"),
            )

    def test_diurnal_rejects_closed_loop(self):
        with pytest.raises(ValueError, match="open-loop"):
            ArrivalsConfig(name="closed-loop", diurnal=DiurnalConfig())

    def test_diurnal_name_points_at_the_section(self):
        with pytest.raises(ValueError, match="diurnal section"):
            ArrivalsConfig(name="diurnal")

    def test_speedup_must_be_positive(self):
        with pytest.raises(ValueError, match="speedup"):
            ArrivalsConfig(name="replay", trace_path="t.jsonl", speedup=0.0)

    def test_speedup_is_replay_only(self):
        with pytest.raises(ValueError, match="only applies"):
            ArrivalsConfig(name="poisson", speedup=5.0)

    def test_options_may_not_duplicate_dedicated_replay_fields(self):
        with pytest.raises(ValueError, match="duplicates dedicated"):
            ArrivalsConfig(
                name="replay", trace_path="t.jsonl", options={"speedup": 2.0}
            )

    def test_replay_process_parses_its_file_once(self, tmp_path):
        from repro.serving.traces import save_trace

        path = tmp_path / "once.jsonl"
        save_trace(make_records([0.1, 0.2, 0.3]), str(path))
        process = TraceReplayArrivals(trace_path=str(path))
        assert len(process.load_records()) == 3
        path.unlink()  # memoized: a second call must not re-read the file
        assert len(process.trace(KEYS, 3)) == 3

    def test_diurnal_section_round_trips_through_json(self):
        config = ArrivalsConfig(
            name="poisson",
            options={"rate_rps": 100.0},
            diurnal=DiurnalConfig(period_s=0.5, amplitude=0.3, envelope=(1.5, 0.5)),
        )
        assert ArrivalsConfig.from_dict(config.to_dict()) == config
