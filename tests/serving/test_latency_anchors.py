"""Simulated latencies checked against values known independently.

Golden reports pin what the simulator computes, not whether it is right.
These tests hold it to outside references instead:

* queueing theory — one :class:`InferenceServer` with one-item batches,
  no cache and no per-request storage latency is a textbook queue.  Every
  request reads the same bytes of the one stored key, so the transfer is
  a constant shift and arrivals at the queue stay Poisson.  A constant
  batch cost makes it M/D/1, whose mean wait is Pollaczek–Khinchine's
  ρD / (2(1 − ρ)); seeded exponential batch costs on c workers make it
  M/M/c, whose mean wait is Erlang C's.  The simulated mean wait must lie
  within ``K_STANDARD_ERRORS`` batch-means standard errors of the formula;
* the size-or-deadline batcher — with ample workers nothing waits for
  one, so each group is a renewal cycle: it opens at an arrival and
  flushes at its deadline T or at the (b − 1)-th later arrival, whichever
  comes first.  By renewal–reward its mean wait is closed-form
  (:func:`batcher_wait`), checked by the same standard-error rule;
* a static fleet — with one replica and keys drawn i.i.d. per arrival, the
  ring thins the Poisson stream into one independent Poisson stream per
  shard, at rate λ·p_s (p_s: the summed probability of the keys the ring
  gives shard s).  Per-key transfer delays are i.i.d. displacements, which
  keep a Poisson stream Poisson, so each shard is M/D/1 at its own load
  and the fleet's mean wait is Σ p_s·W_s;
* Little's law between telemetry and the report — the ``queue_depth``
  gauge a :class:`~repro.obs.metrics.MetricsCollector` samples at every
  Poisson arrival averages, by PASTA, to the time-averaged number of
  requests between ready and dispatch, which must equal the arrival rate
  times the report's mean wait (dispatch − ready);
* a metamorphic relation — adding a constant to every arrival time of a
  trace moves every event by that constant, so it changes no latency
  beyond floating-point rounding and no batch composition.

Hypothesis sweeps the load with ``derandomize=True``, so every run draws
the same examples.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import DynamicResolutionPolicy, StaticResolutionPolicy
from repro.core.scale_model import ScaleModelPredictor
from repro.imaging.synthetic import SceneSpec, render_scene
from repro.nn.mobilenet import mobilenet_tiny
from repro.nn.resnet import resnet_tiny
from repro.obs.metrics import MetricsCollector
from repro.serving.arrivals import OnOffArrivals, PoissonArrivals
from repro.serving.batcher import BatchCostModel, LinearBatchCost
from repro.serving.cache import ScanCache
from repro.serving.fleet import ShardedFleet
from repro.serving.popularity import ZipfPopularity
from repro.serving.server import InferenceServer, ServerConfig
from repro.serving.workload import ArrivalStream
from repro.storage.bandwidth import StorageBandwidthModel
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore

RESOLUTIONS = (24, 32, 48)

#: Arrivals per queueing run, split into ``NUM_BATCHES`` consecutive
#: batches for the batch-means standard error of the mean wait.
NUM_ARRIVALS = 20_000
NUM_BATCHES = 20

#: How many batch-means standard errors the simulated mean wait may sit
#: from the closed form.  Over 40 arrival seeds of M/D/1 at ρ = 0.2 and
#: 0.5 the deviation measured in standard errors had mean 0.0–0.1 and
#: spread 1.0, so the error estimate is calibrated; a correct simulator
#: exceeds 5 with probability below 1e-4 per example (Student t, 19
#: degrees of freedom).
K_STANDARD_ERRORS = 5.0

_DERANDOMIZED = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FIXTURES: dict = {}


def _backbone():
    if "backbone" not in _FIXTURES:
        _FIXTURES["backbone"] = resnet_tiny(num_classes=4, base_width=4, seed=0)
    return _FIXTURES["backbone"]


def _one_key_store() -> ImageStore:
    if "one-key" not in _FIXTURES:
        store = ImageStore(encoder=ProgressiveEncoder(quality=85))
        store.put("img0", render_scene(SceneSpec(class_id=1, object_scale=0.5), 64), label=1)
        _FIXTURES["one-key"] = store
    return _FIXTURES["one-key"]


class _ExponentialBatchCost(BatchCostModel):
    """Seeded exponential batch times: one-item batches become M/M/c service."""

    def __init__(self, mean_s: float, seed: int) -> None:
        self.mean_s = mean_s
        self._rng = np.random.default_rng(seed)

    def batch_seconds(self, resolution: int, batch_size: int) -> float:
        return float(self._rng.exponential(self.mean_s))


def _queue_waits(
    rate_rps: float,
    batch_cost: BatchCostModel,
    num_workers: int,
    seed: int,
    max_batch_size: int = 1,
    max_wait_s: float = 0.0,
) -> np.ndarray:
    """Per-request queue waits (dispatch − ready), in arrival order."""
    server = InferenceServer(
        _one_key_store(),
        _backbone(),
        StaticResolutionPolicy(24),
        ServerConfig(
            resolutions=(24,),
            num_workers=num_workers,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
        ),
        batch_cost=batch_cost,
        bandwidth=StorageBandwidthModel(per_request_latency_s=0.0),
    )
    trace = PoissonArrivals(rate_rps=rate_rps, seed=seed).stream(
        _one_key_store().keys(), NUM_ARRIVALS
    )
    server.run(trace)
    records = server.last_records
    assert len(records) == NUM_ARRIVALS
    order = np.argsort(records.column("request_ids"), kind="stable")
    ready = records.column("ready_times")[order]
    # Constant transfer: every request becomes ready a fixed time after it
    # arrives, so the queue sees the Poisson arrival process unchanged.
    transfer = ready - records.column("arrival_times")[order]
    assert np.ptp(transfer) < 1e-12
    return records.column("dispatch_times")[order] - ready


def _assert_mean_wait_matches(waits: np.ndarray, expected_s: float) -> None:
    """Arrival-ordered ``waits`` fall into ``NUM_BATCHES`` consecutive batches
    of (nearly) equal size; their means give the standard error."""
    batch_means = np.array([batch.mean() for batch in np.array_split(waits, NUM_BATCHES)])
    standard_error = batch_means.std(ddof=1) / math.sqrt(NUM_BATCHES)
    deviation = float(waits.mean()) - expected_s
    assert abs(deviation) <= K_STANDARD_ERRORS * standard_error, (
        f"mean wait {waits.mean():.6g} s vs theory {expected_s:.6g} s: "
        f"{deviation / standard_error:+.2f} standard errors"
    )


def erlang_c_wait(num_workers: int, rate_rps: float, mean_service_s: float) -> float:
    """Mean queue wait of an M/M/c queue (Erlang C)."""
    offered = rate_rps * mean_service_s  # a = λ/μ, in Erlangs
    tail = offered**num_workers / math.factorial(num_workers)
    tail *= num_workers / (num_workers - offered)
    head = sum(offered**k / math.factorial(k) for k in range(num_workers))
    waiting_probability = tail / (head + tail)
    return waiting_probability * mean_service_s / (num_workers - offered)


def batcher_wait(rate_rps: float, max_wait_s: float, max_batch_size: int) -> float:
    """Mean queue wait of Poisson arrivals in a size-or-deadline batcher
    with ample workers: W = (1/λ)·Σ n·P(N ≥ n) / (1 + Σ P(N ≥ n)), the
    sums over n = 1 … b − 1, with N ~ Poisson(λT)."""
    mean = rate_rps * max_wait_s
    probability = math.exp(-mean)  # P(N = 0)
    tail = 1.0 - probability  # P(N ≥ 1)
    total_wait = mean_size = 0.0
    for n in range(1, max_batch_size):
        total_wait += n * tail
        mean_size += tail
        probability *= mean / n  # P(N = n)
        tail -= probability  # P(N ≥ n + 1)
    return total_wait / (rate_rps * (1.0 + mean_size))


class TestQueueingTheory:
    @given(
        utilization=st.floats(min_value=0.1, max_value=0.85),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(utilization=0.2, seed=1)
    @example(utilization=0.5, seed=2)
    @example(utilization=0.8, seed=3)
    @settings(max_examples=4, **_DERANDOMIZED)
    def test_md1_mean_wait_matches_pollaczek_khinchine(self, utilization, seed):
        service_s = 0.001
        rate_rps = utilization / service_s
        waits = _queue_waits(
            rate_rps,
            LinearBatchCost(per_item_seconds=0.0, fixed_seconds=service_s),
            num_workers=1,
            seed=seed,
        )
        expected = utilization * service_s / (2.0 * (1.0 - utilization))
        _assert_mean_wait_matches(waits, expected)

    @given(
        num_workers=st.integers(min_value=1, max_value=3),
        utilization=st.floats(min_value=0.1, max_value=0.8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(num_workers=1, utilization=0.5, seed=4)
    @example(num_workers=2, utilization=0.6, seed=5)
    @example(num_workers=3, utilization=0.7, seed=6)
    @settings(max_examples=4, **_DERANDOMIZED)
    def test_mmc_mean_wait_matches_erlang_c(self, num_workers, utilization, seed):
        service_s = 0.001
        rate_rps = utilization * num_workers / service_s
        waits = _queue_waits(
            rate_rps,
            _ExponentialBatchCost(service_s, seed=seed + 1),
            num_workers=num_workers,
            seed=seed,
        )
        _assert_mean_wait_matches(waits, erlang_c_wait(num_workers, rate_rps, service_s))

    @pytest.mark.parametrize(
        "num_workers, rate_rps, mean_service_s, expected",
        [
            (1, 500.0, 0.001, 0.001),  # M/M/1: ρ/(μ − λ) = 0.5 / 500
            (2, 1.0, 1.0, 1.0 / 3.0),  # P(wait) = 1/3, 1/(cμ − λ) = 1
        ],
    )
    def test_erlang_c_reference_values(self, num_workers, rate_rps, mean_service_s, expected):
        assert erlang_c_wait(num_workers, rate_rps, mean_service_s) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "rate_rps, max_wait_s, max_batch_size",
        [(200.0, 0.005, 4), (3000.0, 0.001, 2), (500.0, 0.002, 8), (2000.0, 0.004, 6), (1000.0, 0.010, 16)],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=2, **_DERANDOMIZED)
    def test_batcher_mean_wait_matches_renewal_reward(
        self, rate_rps, max_wait_s, max_batch_size, seed
    ):
        waits = _queue_waits(
            rate_rps,
            LinearBatchCost(per_item_seconds=1e-6, fixed_seconds=1e-6),
            num_workers=256,
            seed=seed,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
        )
        _assert_mean_wait_matches(waits, batcher_wait(rate_rps, max_wait_s, max_batch_size))

    @pytest.mark.parametrize(
        "rate_rps, max_wait_s, max_batch_size, expected",
        [
            (200.0, 0.005, 4, 3.5451e-3),  # λT = 1
            (200.0, 0.005, 1, 0.0),  # one-item batches never wait
            (200.0, 1e3, 4, 3.0 / 400.0),  # T → ∞: (b − 1) / (2λ)
        ],
    )
    def test_batcher_wait_reference_values(self, rate_rps, max_wait_s, max_batch_size, expected):
        assert batcher_wait(rate_rps, max_wait_s, max_batch_size) == pytest.approx(
            expected, rel=1e-4, abs=1e-12
        )


def _catalogue_store() -> ImageStore:
    if "catalogue" not in _FIXTURES:
        store = ImageStore(encoder=ProgressiveEncoder(quality=85))
        for index in range(8):
            spec = SceneSpec(class_id=index % 4, object_scale=0.35 + 0.05 * index)
            store.put(f"img{index}", render_scene(spec, 64 + 8 * (index % 3)), label=index % 4)
        _FIXTURES["catalogue"] = store
    return _FIXTURES["catalogue"]


# ---------------------------------------------------------------------------
# Fleet anchor
# ---------------------------------------------------------------------------


def _arrival_ordered_waits(records) -> np.ndarray:
    order = np.argsort(records.column("request_ids"), kind="stable")
    return (records.column("dispatch_times") - records.column("ready_times"))[order]


@given(
    num_shards=st.integers(min_value=2, max_value=4),
    zipf_alpha=st.floats(min_value=0.0, max_value=1.2),
    rate_rps=st.floats(min_value=900.0, max_value=1500.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(num_shards=2, zipf_alpha=0.0, rate_rps=1200.0, seed=1)
@example(num_shards=3, zipf_alpha=1.2, rate_rps=1500.0, seed=2)
@example(num_shards=4, zipf_alpha=0.8, rate_rps=900.0, seed=3)
@settings(max_examples=5, **_DERANDOMIZED)
def test_fleet_shard_waits_match_pollaczek_khinchine(num_shards, zipf_alpha, rate_rps, seed):
    service_s = 0.0005  # λ·D ≤ 0.75, so every shard is stable whatever its share
    servers = [
        InferenceServer(
            _catalogue_store(),
            _backbone(),
            StaticResolutionPolicy(24),
            ServerConfig(resolutions=(24,), num_workers=1, max_batch_size=1, max_wait_s=0.0),
            batch_cost=LinearBatchCost(per_item_seconds=0.0, fixed_seconds=service_s),
        )
        for _ in range(num_shards)
    ]
    fleet = ShardedFleet(servers)
    keys = _catalogue_store().keys()
    trace = PoissonArrivals(rate_rps=rate_rps, seed=seed, zipf_alpha=zipf_alpha).stream(
        keys, NUM_ARRIVALS
    )
    report = fleet.run(trace)

    probability = dict(zip(keys, ZipfPopularity(alpha=zipf_alpha).probabilities(len(keys))))
    expected_fleet = 0.0
    for shard_id, server in enumerate(servers):
        share = sum(probability[key] for key in keys if fleet.router.route(key) == shard_id)
        served = report.shards[shard_id].num_requests
        # Each arrival lands on shard s with probability p_s: a binomial count.
        spread = math.sqrt(NUM_ARRIVALS * share * (1.0 - share))
        assert abs(served - NUM_ARRIVALS * share) <= K_STANDARD_ERRORS * spread, (
            f"shard {shard_id} served {served} of {NUM_ARRIVALS}; its share is {share:.4f}"
        )
        if share == 0.0:
            continue
        utilization = rate_rps * share * service_s
        expected = utilization * service_s / (2.0 * (1.0 - utilization))
        _assert_mean_wait_matches(_arrival_ordered_waits(server.last_records), expected)
        expected_fleet += share * expected
    assert report.fleet.num_requests == NUM_ARRIVALS
    _assert_mean_wait_matches(_arrival_ordered_waits(fleet.last_records), expected_fleet)


# ---------------------------------------------------------------------------
# Little's law: telemetry against the report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "num_workers, max_batch_size, utilization, seed",
    [(1, 4, 0.7, 11), (3, 2, 0.8, 12)],
)
def test_queue_depth_gauge_obeys_littles_law(num_workers, max_batch_size, utilization, seed):
    batch_cost = LinearBatchCost(per_item_seconds=0.0005, fixed_seconds=0.001)
    full_batch_s = batch_cost.batch_seconds(24, max_batch_size)
    rate_rps = utilization * num_workers * max_batch_size / full_batch_s  # ρ < 1
    collector = MetricsCollector()
    server = InferenceServer(
        _one_key_store(),
        _backbone(),
        StaticResolutionPolicy(24),
        ServerConfig(
            resolutions=(24,),
            num_workers=num_workers,
            max_batch_size=max_batch_size,
            max_wait_s=0.002,
        ),
        batch_cost=batch_cost,
        observers=[collector],
    )
    trace = PoissonArrivals(rate_rps=rate_rps, seed=seed).stream(
        _one_key_store().keys(), NUM_ARRIVALS
    )
    report = server.run(trace)
    assert report.num_requests == NUM_ARRIVALS and report.dropped_requests == 0

    windows = collector.series()
    records = server.last_records
    # Each request's telemetry window, as the registry indexes it.
    window_of = (records.column("arrival_times") / collector.window_s).astype(np.int64)
    window_of -= windows[0].index
    waits = records.column("dispatch_times") - records.column("ready_times")
    waits_per_window = np.bincount(window_of, weights=waits, minlength=len(windows))
    arrivals = np.array([window.arrivals for window in windows])
    assert np.array_equal(np.bincount(window_of, minlength=len(windows)), arrivals)
    depth_sums = np.array(
        [(window.mean_queue_depth or 0.0) * window.arrivals for window in windows]
    )
    # Batch means over consecutive groups of windows: per group, the gap
    # between the sampled queue depth and λ × wait, per arrival.
    gaps = np.array(
        [
            (depth_sums[group].sum() - rate_rps * waits_per_window[group].sum())
            / arrivals[group].sum()
            for group in np.array_split(np.arange(len(windows)), NUM_BATCHES)
        ]
    )
    standard_error = gaps.std(ddof=1) / math.sqrt(NUM_BATCHES)
    mean_depth = depth_sums.sum() / arrivals.sum()
    assert abs(gaps.mean()) <= K_STANDARD_ERRORS * standard_error, (
        f"time-averaged queue depth {mean_depth:.4g} vs λ × mean wait "
        f"{rate_rps * waits.mean():.4g}: {gaps.mean() / standard_error:+.2f} standard errors"
    )


# ---------------------------------------------------------------------------
# Time-shift invariance
# ---------------------------------------------------------------------------


def _cached_run(trace: ArrivalStream):
    """Serve ``trace`` from a cold cache: dynamic policy, default admission, no prefetch.

    One server serves every run, so the pure memos (scale-model choice,
    batch execution) skip the numpy work; only the cache carries state
    between runs, and each run gets a fresh one.
    """
    if "server" not in _FIXTURES:
        predictor = ScaleModelPredictor(
            mobilenet_tiny(num_classes=len(RESOLUTIONS), seed=1),
            RESOLUTIONS,
            scale_resolution=24,
        )
        _FIXTURES["server"] = InferenceServer(
            _catalogue_store(),
            _backbone(),
            DynamicResolutionPolicy(predictor),
            ServerConfig(
                resolutions=RESOLUTIONS,
                scale_resolution=24,
                num_workers=2,
                max_batch_size=4,
                max_wait_s=0.004,
                scale_model_seconds=0.0004,
            ),
            read_policy=ScanReadPolicy(ssim_thresholds={24: 0.90, 32: 0.92, 48: 0.95}),
            batch_cost=LinearBatchCost(),
        )
    server = _FIXTURES["server"]
    server.cache = ScanCache(capacity_bytes=6_000)  # two or three images: it evicts
    server.run(trace)
    records = server.last_records
    order = np.argsort(records.column("request_ids"), kind="stable")
    return {
        name: records.column(name)[order]
        for name in ("request_ids", "arrival_times", "completion_times", "batch_sizes")
    }


def _onoff_trace() -> ArrivalStream:
    process = OnOffArrivals(
        on_rate_rps=2000.0,
        off_rate_rps=300.0,
        mean_on_s=0.01,
        mean_off_s=0.02,
        seed=7,
        zipf_alpha=1.0,
    )
    return process.stream(_catalogue_store().keys(), 400)


@given(shift_s=st.floats(min_value=0.0, max_value=1e4, exclude_min=True))
@example(shift_s=0.5)
@example(shift_s=17.25)
@example(shift_s=1e4)
@settings(max_examples=20, **_DERANDOMIZED)
def test_shifting_every_arrival_changes_no_latency(shift_s):
    trace = _onoff_trace()
    if "unshifted" not in _FIXTURES:
        _FIXTURES["unshifted"] = _cached_run(trace)
    base = _FIXTURES["unshifted"]
    shifted = _cached_run(
        ArrivalStream(trace.times + shift_s, trace.keys, trace.request_ids)
    )
    assert np.array_equal(shifted["request_ids"], base["request_ids"])
    assert np.array_equal(shifted["batch_sizes"], base["batch_sizes"])
    base_latency = base["completion_times"] - base["arrival_times"]
    shifted_latency = shifted["completion_times"] - shifted["arrival_times"]
    assert np.max(np.abs(shifted_latency - base_latency)) <= 1e-9
