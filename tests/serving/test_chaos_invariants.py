"""Conservation-law invariants of the elastic fleet under random chaos.

The elastic fleet re-routes work mid-run — crashes destroy in-flight
requests, autoscaling remaps ring segments, replicas spread hot keys — so
its correctness claim is a *conservation law*, not a golden file: whatever
the fault schedule, every arrival must end in exactly one of

* completed (appears once in ``last_served``),
* dropped with a reason (admission shed it, or ``fleet-down`` when no
  shard was ever live to take it), or
* crash-failed and re-routed, in which case its *re-injected* incarnation
  must itself end in one of the first two.

Hypothesis drives randomized fault schedules (explicit crash/recovery
plans and degraded-bandwidth windows over random traffic) and checks that
partition, that no request id completes twice, and that the whole run is a
pure function of its configuration — a same-seed rerun produces a
byte-identical :class:`~repro.serving.fleet.ElasticFleetReport`.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import StaticResolutionPolicy
from repro.data.dataset import SyntheticDataset
from repro.data.profiles import IMAGENET_LIKE
from repro.nn.resnet import resnet_tiny
from repro.serving.arrivals import PoissonArrivals
from repro.serving.autoscale import AutoscalePolicy, ThresholdAutoscaler
from repro.serving.batcher import LinearBatchCost
from repro.serving.cache import ScanCache
from repro.serving.elastic import FLEET_DOWN, Topology
from repro.serving.events import ShardAdded, ShardCrashed, ShardRecovered, ShardRemoved
from repro.serving.faults import CrashSchedule, DegradedStorage, FaultEvent, RandomCrashes
from repro.serving.fleet import ConsistentHashRouter, ShardedFleet
from repro.serving.server import InferenceServer, ServerConfig
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore

RESOLUTIONS = (24, 32, 48)

#: Shared fixtures: rendering/encoding the catalogue dominates example
#: runtime, so every hypothesis example reuses one store and one backbone
#: (fleet servers share store *contents*, exactly as the engine's shards do).
_FIXTURES: dict = {}


def _profile():
    profile = IMAGENET_LIKE
    return type(profile)(
        name="chaos-tiny",
        num_classes=4,
        storage_resolution_mean=72,
        storage_resolution_std=6,
        object_scale_mean=profile.object_scale_mean,
        object_scale_std=profile.object_scale_std,
        texture_weight=profile.texture_weight,
        detail_sensitivity=profile.detail_sensitivity,
    )


def _store() -> ImageStore:
    if "store" not in _FIXTURES:
        store = ImageStore(encoder=ProgressiveEncoder(quality=85))
        dataset = SyntheticDataset(_profile(), size=6, seed=13)
        for sample in dataset:
            store.put(f"img{sample.index}", sample.render(), label=sample.label)
        _FIXTURES["store"] = store
    return _FIXTURES["store"]


def _backbone():
    if "backbone" not in _FIXTURES:
        _FIXTURES["backbone"] = resnet_tiny(num_classes=4, base_width=4, seed=0)
    return _FIXTURES["backbone"]


def _server_factory(shard_id: int) -> InferenceServer:
    return InferenceServer(
        _store(),
        _backbone(),
        StaticResolutionPolicy(32),
        ServerConfig(
            resolutions=RESOLUTIONS,
            scale_resolution=24,
            num_workers=2,
            max_batch_size=4,
            max_wait_s=0.004,
        ),
        read_policy=ScanReadPolicy(),
        cache=ScanCache(capacity_bytes=150_000),
        batch_cost=LinearBatchCost(),
    )


def _build_fleet(plan, autoscale=None) -> ShardedFleet:
    num_shards = plan["num_shards"]
    horizon = plan["num_requests"] / plan["rate_rps"]
    crashes = [
        {
            "shard": crash["shard"] % num_shards,
            "at_s": crash["at_frac"] * horizon,
            **(
                {"down_s": crash["down_frac"] * horizon}
                if crash["down_frac"] is not None
                else {}
            ),
        }
        for crash in plan["crashes"]
    ]
    windows = [
        {
            "shard": window["shard"] % num_shards,
            "at_s": window["at_frac"] * horizon,
            "duration_s": window["dur_frac"] * horizon,
            "factor": window["factor"],
        }
        for window in plan["degrades"]
    ]
    injectors = []
    if crashes:
        injectors.append(CrashSchedule(crashes))
    if windows:
        injectors.append(DegradedStorage(windows))
    return ShardedFleet(
        [_server_factory(shard) for shard in range(num_shards)],
        ConsistentHashRouter(range(num_shards), seed=11, replicas=plan["replicas"]),
        server_factory=_server_factory,
        autoscale=autoscale,
        autoscale_interval_s=max(horizon / 6.0, 1e-4),
        min_shards=1,
        max_shards=num_shards + 3,
        injectors=injectors,
    )


def _trace(plan):
    process = PoissonArrivals(
        rate_rps=plan["rate_rps"], seed=plan["seed"], zipf_alpha=1.0
    )
    return process.trace(_store().keys(), plan["num_requests"])


def _assert_conservation(plan, fleet: ShardedFleet, report) -> None:
    """Every arrival completed once XOR dropped once; tallies line up.

    A plan with nothing elastic in it (one replica, no crash, no window)
    runs as a plain fleet: kind ``fleet`` and no topology events, so the
    elastic columns are checked only on an elastic report.
    """
    trace_ids = set(range(plan["num_requests"]))
    served_ids = [record.request_id for record in fleet.last_served]
    dropped_ids = [request.request_id for request, _ in fleet.last_dropped]
    assert len(served_ids) == len(set(served_ids)), "duplicate completion"
    assert len(dropped_ids) == len(set(dropped_ids)), "duplicate drop"
    assert set(served_ids) & set(dropped_ids) == set(), "served AND dropped"
    assert set(served_ids) | set(dropped_ids) == trace_ids, "lost arrivals"
    assert report.num_requests == len(served_ids)
    assert report.fleet.dropped_requests == len(dropped_ids)
    for request, reason in fleet.last_dropped:
        assert reason, "drops must carry a reason"
    # Topology events are time-ordered and crash/recover counts agree.
    times = [event.time for event in fleet.last_events]
    assert times == sorted(times)
    if report.kind == "fleet":
        assert not plan["crashes"] and not plan["degrades"] and plan["replicas"] == 1
        assert fleet.last_events == []
        return
    assert report.kind == "elastic-fleet"
    crash_events = [e for e in fleet.last_events if isinstance(e, ShardCrashed)]
    recover_events = [e for e in fleet.last_events if isinstance(e, ShardRecovered)]
    assert report.crashes == len(crash_events)
    assert report.recoveries == len(recover_events)
    assert report.crash_rerouted_requests == sum(
        e.failed_requests for e in crash_events
    )


fault_plan = st.fixed_dictionaries(
    {
        "num_shards": st.integers(min_value=2, max_value=4),
        "replicas": st.integers(min_value=1, max_value=2),
        "rate_rps": st.floats(min_value=400.0, max_value=4000.0),
        "seed": st.integers(min_value=0, max_value=2**16),
        "num_requests": st.integers(min_value=8, max_value=40),
        "crashes": st.lists(
            st.fixed_dictionaries(
                {
                    "shard": st.integers(min_value=0, max_value=5),
                    "at_frac": st.floats(min_value=0.05, max_value=0.95),
                    "down_frac": st.one_of(
                        st.none(), st.floats(min_value=0.05, max_value=0.6)
                    ),
                }
            ),
            min_size=0,
            max_size=3,
        ),
        "degrades": st.lists(
            st.fixed_dictionaries(
                {
                    "shard": st.integers(min_value=0, max_value=5),
                    "at_frac": st.floats(min_value=0.0, max_value=0.8),
                    "dur_frac": st.floats(min_value=0.05, max_value=0.4),
                    "factor": st.floats(min_value=0.1, max_value=1.0),
                }
            ),
            min_size=0,
            max_size=2,
        ),
    }
)

_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SMALL_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(plan=fault_plan)
@_SETTINGS
def test_conservation_under_random_fault_schedules(plan) -> None:
    """The conservation law holds for arbitrary crash/degrade schedules."""
    fleet = _build_fleet(plan)
    report = fleet.run(_trace(plan))
    _assert_conservation(plan, fleet, report)


@given(plan=fault_plan)
@_SMALL_SETTINGS
def test_conservation_with_autoscaling_on_top_of_chaos(plan) -> None:
    """Scale-outs/ins during a chaos run never lose or duplicate a request."""
    autoscale = ThresholdAutoscaler(
        high_rps_per_shard=plan["rate_rps"] / 2.0,
        low_rps_per_shard=plan["rate_rps"] / 16.0,
    )
    fleet = _build_fleet(plan, autoscale=autoscale)
    report = fleet.run(_trace(plan))
    _assert_conservation(plan, fleet, report)
    assert report.final_num_shards >= 0
    assert report.num_shards >= plan["num_shards"]  # ever-live includes initial


@given(plan=fault_plan)
@_SMALL_SETTINGS
def test_same_seed_rerun_is_byte_identical(plan) -> None:
    """A chaos run is a pure function of its configuration."""
    first = _build_fleet(plan).run(_trace(plan))
    second = _build_fleet(plan).run(_trace(plan))
    assert first.to_json() == second.to_json()


def test_unrecovered_total_outage_drops_fleet_down() -> None:
    """Arrivals after every shard died (and none returns) drop as fleet-down."""
    plan = {
        "num_shards": 2,
        "replicas": 1,
        "rate_rps": 2000.0,
        "seed": 5,
        "num_requests": 30,
        "crashes": [
            {"shard": 0, "at_frac": 0.3, "down_frac": None},
            {"shard": 1, "at_frac": 0.3, "down_frac": None},
        ],
        "degrades": [],
    }
    fleet = _build_fleet(plan)
    report = fleet.run(_trace(plan))
    _assert_conservation(plan, fleet, report)
    reasons = {reason for _, reason in fleet.last_dropped}
    assert FLEET_DOWN in reasons
    assert report.final_num_shards == 0


def test_replicas_keep_keys_servable_across_a_crash() -> None:
    """With R=2 a single crash-with-recovery loses no request permanently."""
    plan = {
        "num_shards": 3,
        "replicas": 2,
        "rate_rps": 2000.0,
        "seed": 9,
        "num_requests": 40,
        "crashes": [{"shard": 1, "at_frac": 0.4, "down_frac": 0.3}],
        "degrades": [],
    }
    fleet = _build_fleet(plan)
    report = fleet.run(_trace(plan))
    _assert_conservation(plan, fleet, report)
    assert not any(reason == FLEET_DOWN for _, reason in fleet.last_dropped)
    assert report.num_requests == plan["num_requests"]
    assert report.recoveries == report.crashes == 1
    assert report.mean_time_to_recover_s is not None
    assert report.mean_time_to_recover_s > 0


@pytest.mark.parametrize("first_fault", ["crash", "window"])
def test_a_window_opening_as_the_previous_fault_ends_counts_as_disrupted(
    first_fault,
) -> None:
    """Edges at one instant apply in ``sort_schedule`` order.

    Shard 0's degraded window opens at the instant its previous fault
    ends: a crash's recovery, or an earlier window's end.  That end
    applies first, so the window degrades the live shard and counts as
    fault time: the disrupted p99 is the p99 over exactly the arrivals
    inside the whole span.  Applied the other way round, the window would
    hit a down shard, or be closed by the earlier window's end, and be lost.
    """
    plan = {
        "num_shards": 2,
        "replicas": 1,
        "rate_rps": 2000.0,
        "seed": 3,
        "num_requests": 40,
        "crashes": [],
        "degrades": [],
    }
    first_at, first_s, window_s = 0.004, 0.004, 0.008
    edge = first_at + first_s
    if first_fault == "crash":
        first = CrashSchedule([{"shard": 0, "at_s": first_at, "down_s": first_s}])
    else:
        first = DegradedStorage(
            [{"shard": 0, "at_s": first_at, "duration_s": first_s, "factor": 0.1}]
        )
    window = DegradedStorage(
        [{"shard": 0, "at_s": edge, "duration_s": window_s, "factor": 0.1}]
    )
    fleet = ShardedFleet(
        [_server_factory(0), _server_factory(1)],
        ConsistentHashRouter(range(2), seed=11),
        server_factory=_server_factory,
        injectors=[first, window],
    )
    report = fleet.run(_trace(plan))
    _assert_conservation(plan, fleet, report)

    arrivals = np.array([record.arrival_time for record in fleet.last_served])
    latencies_ms = np.array([1e3 * record.latency for record in fleet.last_served])
    inside = (first_at <= arrivals) & (arrivals <= edge + window_s)
    assert inside.any() and not inside.all()
    assert report.disrupted_p99_ms == float(np.percentile(latencies_ms[inside], 99))
    assert report.steady_p99_ms == float(np.percentile(latencies_ms[~inside], 99))


class _AlwaysScale(AutoscalePolicy):
    """A stub autoscaler that asks for the same shard delta at every epoch."""

    def __init__(self, delta: int) -> None:
        self.delta = delta

    def decide(self, signal) -> int:
        return self.delta


def test_a_scale_out_decision_above_max_shards_removes_nothing() -> None:
    """A fleet above ``max_shards`` holds when the policy asks for more.

    Clamping ``live + delta`` into the band from above would retire two
    shards here, against the decision.
    """
    topology = Topology(
        [_server_factory(shard) for shard in range(4)],
        ConsistentHashRouter(range(4), seed=11),
        _server_factory,
    )
    topology.autoscale_epoch(0.01, _AlwaysScale(+1), min_shards=1, max_shards=2)
    assert not [event for event in topology.events if isinstance(event, ShardRemoved)]
    assert len(topology.live) == 4


def test_a_scale_in_decision_below_min_shards_adds_nothing() -> None:
    """A crash leaves the fleet below ``min_shards``; a scale-in decision adds no shard."""
    plan = {
        "num_shards": 2,
        "replicas": 1,
        "rate_rps": 2000.0,
        "seed": 5,
        "num_requests": 40,
        "crashes": [],
        "degrades": [],
    }
    trace = _trace(plan)
    horizon = trace[-1].arrival_time
    fleet = ShardedFleet(
        [_server_factory(0), _server_factory(1)],
        ConsistentHashRouter(range(2), seed=11),
        server_factory=_server_factory,
        autoscale=_AlwaysScale(-1),
        autoscale_interval_s=horizon / 6.0,
        min_shards=2,
        max_shards=4,
        injectors=[CrashSchedule([{"shard": 1, "at_s": 0.3 * horizon}])],
    )
    report = fleet.run(trace)
    _assert_conservation(plan, fleet, report)
    assert report.crashes == 1
    assert not [event for event in fleet.last_events if isinstance(event, ShardAdded)]
    assert report.final_num_shards == 1


def test_an_autoscaled_fleet_must_start_within_its_bounds() -> None:
    """Library callers get the load-time config check too."""
    servers = [_server_factory(shard) for shard in range(4)]
    with pytest.raises(ValueError, match="max_shards=2"):
        ShardedFleet(
            servers, server_factory=_server_factory, autoscale=_AlwaysScale(+1), max_shards=2
        )
    with pytest.raises(ValueError, match="min_shards=5"):
        ShardedFleet(
            servers,
            server_factory=_server_factory,
            autoscale=_AlwaysScale(+1),
            min_shards=5,
            max_shards=8,
        )


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build, names",
    [
        (lambda v: CrashSchedule([{"shard": 0, "at_s": v}]), "crashes[0].at_s"),
        (lambda v: CrashSchedule([{"shard": 0, "at_s": 0.1, "down_s": v}]), "crashes[0].down_s"),
        (lambda v: RandomCrashes(mean_down_s=v), "mean_down_s"),
        (
            lambda v: DegradedStorage([{"shard": 0, "at_s": v, "duration_s": 0.1}]),
            "windows[0].at_s",
        ),
        (
            lambda v: DegradedStorage([{"shard": 0, "at_s": 0.1, "duration_s": v}]),
            "windows[0].duration_s",
        ),
    ],
    ids=["crash-at", "crash-down", "random-mean-down", "window-at", "window-duration"],
)
@pytest.mark.parametrize(
    "value", [_NAN, _INF, -_INF, 10**400], ids=["nan", "inf", "-inf", "int-beyond-float"]
)
def test_fault_times_must_be_finite(build, names, value) -> None:
    """NaN passes every ``<`` check, and infinity or an int no float can hold is
    no time: each fails, naming the field."""
    with pytest.raises(ValueError, match=rf"^{re.escape(names)} must be a finite "):
        build(value)


@pytest.mark.parametrize(
    "value", [_NAN, _INF, -_INF, 10**400], ids=["nan", "inf", "-inf", "int-beyond-float"]
)
def test_a_directly_built_fault_event_needs_a_finite_time(value) -> None:
    """No injector emits such a time, but a schedule built by hand could:
    a NaN edge would sort nowhere and never fire."""
    with pytest.raises(ValueError, match=r"^time must be a finite "):
        FaultEvent(time=value, kind="crash", shard_id=0)
    assert FaultEvent(time=0, kind="crash", shard_id=0).time == 0
