"""Tracer tests: span trees vs served records, sampling, stage breakdowns."""

import pytest

from repro.obs.tracing import (
    STAGES,
    RequestTrace,
    RequestTracer,
    Span,
    sampled,
)
from repro.serving.control import EwmaAdmissionController


class TestSpanTrees:
    def test_spans_match_the_served_record_timeline(self, make_server, make_trace):
        tracer = RequestTracer()
        server = make_server(observers=[tracer])
        report = server.run(make_trace(n=24))
        records = {record.request_id: record for record in server.last_served}
        served = [trace for trace in tracer.traces if trace.outcome == "served"]
        assert len(served) == report.num_requests
        for trace in served:
            record = records[trace.request_id]
            assert trace.key == record.key
            assert trace.root.start_s == record.arrival_time
            assert trace.root.end_s == record.completion_time
            assert trace.root.duration_s == pytest.approx(record.latency)
            ingest = trace.stage("ingest")
            batch_wait = trace.stage("batch-wait")
            execute = trace.stage("execute")
            assert ingest.end_s == batch_wait.start_s == record.ready_time
            assert batch_wait.end_s == execute.start_s == record.dispatch_time
            assert execute.end_s == record.completion_time
            # The cache probe is an instant child of ingest.
            probes = [c for c in ingest.children if c.name == "cache-probe"]
            assert len(probes) == 1
            assert probes[0].start_s == probes[0].end_s
            assert ingest.start_s <= probes[0].start_s <= ingest.end_s

    def test_dropped_requests_get_flat_traces_with_reasons(
        self, make_server, make_trace
    ):
        tracer = RequestTracer()
        admission = EwmaAdmissionController(alpha=1.0, depth_threshold=1.0)
        server = make_server(observers=[tracer], admission=admission)
        report = server.run(make_trace(n=32, rate_rps=4000.0))
        assert report.dropped_requests > 0  # the point of the tight threshold
        dropped = [trace for trace in tracer.traces if trace.outcome == "dropped"]
        assert len(dropped) == report.dropped_requests == tracer.dropped_requests
        for trace in dropped:
            assert trace.reason == "queue-depth"
            assert trace.root.children == ()
            assert trace.root.end_s >= trace.root.start_s

    def test_no_orphans_after_a_complete_run(self, make_server, make_trace):
        tracer = RequestTracer()
        make_server(observers=[tracer]).run(make_trace(n=24))
        assert tracer.orphans() == []

    def test_trace_round_trips_through_dicts(self, make_server, make_trace):
        tracer = RequestTracer()
        make_server(observers=[tracer]).run(make_trace(n=12))
        for trace in tracer.traces:
            assert RequestTrace.from_dict(trace.to_dict()) == trace


class TestSampling:
    def test_sampled_is_deterministic_and_rate_one_keeps_all(self):
        decisions = [sampled(0, request_id, 0.4) for request_id in range(200)]
        assert decisions == [sampled(0, request_id, 0.4) for request_id in range(200)]
        assert any(decisions) and not all(decisions)
        assert all(sampled(3, request_id, 1.0) for request_id in range(50))
        # The retained fraction is in the right ballpark for a fair hash.
        assert 0.2 < sum(decisions) / len(decisions) < 0.6

    def test_retained_set_matches_the_sampled_predicate(
        self, make_server, make_trace
    ):
        tracer = RequestTracer(sample_rate=0.4, seed=11)
        server = make_server(observers=[tracer])
        trace_in = make_trace(n=40)
        report = server.run(trace_in)
        all_ids = set(trace_in.request_ids.tolist())
        kept = {trace.request_id for trace in tracer.traces}
        assert kept == {rid for rid in all_ids if sampled(11, rid, 0.4)}
        assert len(kept) < len(all_ids)  # sampling actually thinned the set
        # Totals still cover every completion, not just the sampled ones.
        assert tracer.completed_requests == report.num_requests
        assert tracer.dropped_requests == report.dropped_requests

    def test_breakdown_is_exact_regardless_of_sampling(
        self, make_server, make_trace
    ):
        full = RequestTracer(sample_rate=1.0)
        thin = RequestTracer(sample_rate=0.25, seed=3)
        trace_in = make_trace(n=40)
        make_server(observers=[full, thin]).run(trace_in)
        assert thin.stage_totals == full.stage_totals
        assert thin.breakdown() == full.breakdown()

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            RequestTracer(sample_rate=0.0)
        with pytest.raises(ValueError):
            RequestTracer(sample_rate=1.5)


class TestBreakdown:
    def test_breakdown_matches_the_served_records(self, make_server, make_trace):
        tracer = RequestTracer()
        server = make_server(observers=[tracer])
        report = server.run(make_trace(n=24))
        records = server.last_served
        breakdown = tracer.breakdown()
        assert [stage.name for stage in breakdown.stages] == list(STAGES)
        expected = {
            "ingest": sum(r.ready_time - r.arrival_time for r in records),
            "batch-wait": sum(r.dispatch_time - r.ready_time for r in records),
            "execute": sum(r.completion_time - r.dispatch_time for r in records),
        }
        by_name = {stage.name: stage for stage in breakdown.stages}
        for name, total in expected.items():
            assert by_name[name].total_s == pytest.approx(total)
            assert by_name[name].count == report.num_requests
        assert breakdown.total_latency_s == pytest.approx(
            sum(record.latency for record in records)
        )
        assert sum(stage.share for stage in breakdown.stages) == pytest.approx(1.0)
        assert breakdown.critical_stage == max(expected, key=expected.get)

    def test_empty_breakdown_is_well_defined(self):
        breakdown = RequestTracer().breakdown()
        assert breakdown.critical_stage is None
        assert breakdown.total_latency_s == 0.0
        assert all(stage.count == 0 for stage in breakdown.stages)


class TestMerge:
    def test_merge_is_the_fleet_wide_union(self, make_server, make_trace):
        left, right = RequestTracer(seed=2), RequestTracer(seed=2)
        make_server(observers=[left]).run(make_trace(n=16, seed=5))
        make_server(observers=[right]).run(make_trace(n=16, seed=9))
        left_total = left.completed_requests + left.dropped_requests
        right_total = right.completed_requests + right.dropped_requests
        left_count = len(left.traces)
        left.merge(right)
        assert len(left.traces) == left_count + len(right.traces)
        assert left.completed_requests + left.dropped_requests == (
            left_total + right_total
        )
        ids = [trace.request_id for trace in left.traces]
        assert ids == sorted(ids)
        assert left.orphans() == []

    def test_span_helper_duration(self):
        span = Span(name="x", start_s=1.0, end_s=3.5)
        assert span.duration_s == 2.5
        assert RequestTrace(
            request_id=1, key="k", outcome="served", reason=None, root=span
        ).stage("missing") is None
