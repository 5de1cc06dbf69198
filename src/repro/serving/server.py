"""The online serving event loop (discrete-event simulator).

:class:`InferenceServer` is the paper's Fig-4 dynamic-resolution pipeline run
under concurrent load on one simulated clock; at zero load (one worker,
one-item batches, spaced arrivals) it is that pipeline alone.  Under load:

1. an arrival is first offered to the :class:`AdmissionPolicy` (drops are
   tallied and reported, not silently lost); an admitted request pulls the
   calibrated stage-1 scan prefix through the cache tier (or straight from
   the store), the resolution policy picks the backbone resolution, and any
   missing scans are topped up incrementally; the request becomes *ready*
   after the modeled transfer time (:class:`StorageBandwidthModel`) plus
   the scale model's compute time;
2. ready requests queue in the :class:`DynamicBatcher` by resolution and
   flush on size or deadline;
3. flushed batches run on a bounded worker pool, priced by a
   :class:`BatchCostModel` (hwsim-backed or linear); the backbone really
   executes (numpy) so predictions and accuracy are part of the report;
4. completions free workers, feed closed-loop clients their next arrival,
   and append to the run's :class:`RequestRecords` for the SLO report.

The loop narrates itself as a stream of frozen
:class:`~repro.serving.events.ServerEvent` objects (arrival → cache probe →
admission/drop → batch flush → completion) delivered to registered
observers; the control plane — the admission policy and the
:class:`PrefetchPolicy`, which tops up cache prefixes during idle gaps in
the arrival stream — consumes the same stream.  The default no-op policies
(:class:`~repro.serving.control.AlwaysAdmit`,
:class:`~repro.serving.control.NoPrefetch`) reproduce the pre-control-plane
server byte-for-byte.

Everything is deterministic: the event heap breaks time ties by insertion
order and all randomness lives in the seeded arrival processes and seeded
policies, so two runs with the same configuration produce identical
:class:`SLOReport` objects.  Simulated time (transfer + batch latency) is
decoupled from the real CPU time the numpy models take, which is what lets
a laptop-sized model stand in for a production backbone under thousands of
requests.

The loop keeps per-event Python overhead low without changing a single
simulated value; the byte-identical reports in ``tests/golden/`` pin
every mechanism below:

* *memoization at reproducible boundaries* — decoding a stored scan
  prefix, preprocessing it to a resolution, the scale model's per-image
  choice, and whole-batch backbone execution are pure functions of
  ``(key, scans_read, resolution)``-style tokens, so repeated requests for
  the same stored bytes skip the numpy work and return the exact arrays a
  fresh computation would produce.  Nothing is memoized per *item inside a
  differently-composed batch*: batched floating-point execution is not
  bitwise row-independent, so the batch memo key is the full batch
  signature.  Without a cache tier, a request's reads are a pure function
  of the stored object, the resolution and the link too, so each read
  plan is made once and replayed; a replay charges its reads to the store
  and to ``store_requests`` as if they had been made again;
* *event-object elision* — when no subscribed observer overrides
  ``on_event`` (and the control plane is the no-op default), the frozen
  event dataclasses would be constructed only to be ignored, so the loop
  skips building them entirely;
* *columnar records* — every completion appends one row tuple to a
  bounded buffer, and every ``_RECORD_BUFFER_ROWS`` rows the buffer is
  columnarized into a :class:`~repro.serving.metrics.RequestRecords`
  (typed arrays) at once; a :class:`ServedRequest` object is built only to
  ride inside a :class:`RequestCompleted` event, when events are on;
* *cursor-merged arrivals* — open-loop traffic is always an
  :class:`~repro.serving.workload.ArrivalStream`, consumed through an
  index cursor merged against the heap (arrivals win time ties, as if
  each had been pushed before every runtime event), so a million-request
  trace never materializes a million heap entries up front; the heap
  carries only closed-loop arrivals.  The cursor reads ``array`` copies
  of the stream's columns, which index to plain Python scalars;
* *a lean per-request path* — a cursor-fed arrival builds a ``Request``
  only when something consumes one (an observer, or an admission policy
  other than always-admit): the in-flight record, a ``__slots__`` class,
  carries the arrival's id, key, time and client itself, plus the stored
  object's label, so the completion fold looks nothing up.  Whatever
  depends only on the server's configuration — static or dynamic policy,
  cache tier or read plans, the link's plan table, the policy's
  queue-depth hook — is resolved once per run, not once per request, and
  profiler scopes are entered only when a profiler is attached.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from repro.api.schema import Fraction, NonNegative, PositiveInt, Resolutions, check
from repro.codec.progressive import ProgressiveImage
from repro.core.policies import ResolutionPolicy, StaticResolutionPolicy
from repro.imaging.transforms import InferencePreprocessor
from repro.nn.module import Module
from repro.storage.bandwidth import StorageBandwidthModel
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore, ReadReceipt

from repro.serving.arrivals import ClosedLoopClients, Request
from repro.serving.batcher import BatchCostModel, DynamicBatcher, LinearBatchCost
from repro.serving.cache import ScanCache
from repro.serving.control import (
    AdmissionPolicy,
    AlwaysAdmit,
    NoPrefetch,
    PrefetchAction,
    PrefetchPolicy,
)
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
from repro.serving.metrics import RequestRecords, ServedRequest, SLOReport, build_report
from repro.serving.workload import ArrivalStream

#: Topology events a single server never emits: the elastic fleet
#: (:mod:`repro.serving.elastic`) raises them at segment boundaries, above
#: any one server's event loop.  Named here so the exhaustive-dispatch lint
#: sees the full ServerEvent family at the server seam.
_FLEET_LEVEL_EVENTS = (ShardAdded, ShardRemoved, ShardCrashed, ShardRecovered)

_ARRIVAL = "arrival"
_ENQUEUE = "enqueue"
_FLUSH = "flush"
_DONE = "done"

#: LRU bounds on the loop's memo tables.  Serving stores hold tens of
#: keys, so real runs sit far below these; the caps only guard pathological
#: configurations from unbounded growth.
_PREPROCESS_MEMO_LIMIT = 2048
_BATCH_MEMO_LIMIT = 8192
_READ_PLAN_MEMO_LIMIT = 2048
#: Links whose read-plan tables a server keeps (a degraded-storage window
#: swaps in a slower link, then the base one again).
_READ_PLAN_LINK_LIMIT = 8

#: Completions buffered as row tuples before they are columnarized into the
#: run's RequestRecords; the bound keeps a long run's buffer from holding
#: one tuple per request.
_RECORD_BUFFER_ROWS = 1024

_T = TypeVar("_T")


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of the serving tier (the arrival process supplies the traffic)."""

    resolutions: Resolutions
    scale_resolution: int | None = None
    num_workers: PositiveInt = 2
    max_batch_size: PositiveInt = 4
    max_wait_s: NonNegative = 0.005
    scale_model_seconds: NonNegative = 0.0
    crop_ratio: Fraction = 0.75

    def __post_init__(self) -> None:
        check(self)
        if self.scale_resolution is not None and self.scale_resolution not in self.resolutions:
            raise ValueError(
                f"scale_resolution {self.scale_resolution} is not one of the "
                f"candidate resolutions {tuple(sorted(self.resolutions))}"
            )


#: A dynamic request's stage-1 read without a cache tier:
#: ``(encoded, scans, image, receipt)``, a pure function of the stored object.
_Stage1Plan = tuple[ProgressiveImage, int, np.ndarray, ReadReceipt]


class _ReadPlan(NamedTuple):
    """A cacheless request's reads past stage 1, as first made.

    ``encoded`` is the stored object the reads were made from.
    ``receipts`` and ``fetches`` (those receipts that moved bytes) are the
    reads the plan itself makes: a static request's one read, or a dynamic
    request's top-up (none when stage 1's prefix suffices).  The byte and
    time fields cover the whole request, stage 1 included.
    """

    encoded: ProgressiveImage
    image: np.ndarray
    scans_read: int
    receipts: tuple[ReadReceipt, ...]
    fetches: int
    bytes_from_store: int
    transfer_s: float
    total_bytes: int


class _InFlight:
    """A request between admission and completion.

    It carries the arrival's identity (``request_id``, ``key``,
    ``arrival_time``, ``client_id``) and the stored object's ``label``
    itself, so an arrival needs no ``Request`` object and the completion
    fold no store lookup.  ``dispatch_time`` is set when its batch starts.
    """

    __slots__ = (
        "request_id",
        "key",
        "arrival_time",
        "client_id",
        "label",
        "image",
        "resolution",
        "scans_read",
        "bytes_from_store",
        "bytes_from_cache",
        "total_bytes",
        "ready_time",
        "dispatch_time",
    )

    def __init__(
        self,
        request_id: int,
        key: str,
        arrival_time: float,
        client_id: int | None,
        label: int | None,
        image: np.ndarray,
        resolution: int,
        scans_read: int,
        bytes_from_store: int,
        bytes_from_cache: int,
        total_bytes: int,
        ready_time: float,
    ) -> None:
        self.request_id = request_id
        self.key = key
        self.arrival_time = arrival_time
        self.client_id = client_id
        self.label = label
        self.image = image
        self.resolution = resolution
        self.scans_read = scans_read
        self.bytes_from_store = bytes_from_store
        self.bytes_from_cache = bytes_from_cache
        self.total_bytes = total_bytes
        self.ready_time = ready_time
        self.dispatch_time = 0.0


class InferenceServer:
    """Serve a request trace through the dynamic-resolution pipeline."""

    def __init__(
        self,
        store: ImageStore,
        backbone: Module,
        policy: ResolutionPolicy,
        config: ServerConfig,
        read_policy: ScanReadPolicy | None = None,
        cache: ScanCache | None = None,
        batch_cost: BatchCostModel | None = None,
        bandwidth: StorageBandwidthModel | None = None,
        admission: AdmissionPolicy | None = None,
        prefetch: PrefetchPolicy | None = None,
        observers: Sequence[ServerObserver] = (),
        profiler=None,
    ) -> None:
        self.store = store
        self.backbone = backbone
        self.policy = policy
        self.config = config
        self.read_policy = read_policy or ScanReadPolicy()
        self.cache = cache
        self.batch_cost = batch_cost or LinearBatchCost()
        self.bandwidth = bandwidth or StorageBandwidthModel()
        self.admission = admission or AlwaysAdmit()
        self.prefetch = prefetch or NoPrefetch()
        self.resolutions = tuple(sorted(config.resolutions))
        self.scale_resolution = config.scale_resolution or min(self.resolutions)
        self.preprocessor = InferencePreprocessor(crop_ratio=config.crop_ratio)
        self.store_requests = 0
        self._request_fetch_ops = 0
        self.last_dropped: list[tuple[Request, str]] = []
        # Raw completions of the most recent run (last_served materializes
        # them as objects on demand).
        self.last_records = RequestRecords()
        self._last_served: list[ServedRequest] | None = None
        # Wall-clock instrumentation (repro.obs.profiling.Profiler); None
        # keeps its scopes off the hot path.
        self.profiler = profiler
        # Memo tables over reproducible inputs (bounded LRU); they persist
        # across runs like cache contents do — the memoized stages are
        # pure, so reuse can never change a result.
        self._preprocess_memo: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._batch_memo: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        # Cacheless read plans (see _ingest_planned): stage 1 per key, the
        # rest per (key, resolution) in one LRU table per link.
        self._stage1_plans: "OrderedDict[str, _Stage1Plan]" = OrderedDict()
        self._read_plans: "OrderedDict[StorageBandwidthModel, OrderedDict]" = OrderedDict()
        # Resolved once per run (see run): whether the run emits event
        # objects (the loop skips construction when nobody is listening),
        # whether the policy is dynamic, and the current link's plan table.
        self._emit_on = True
        self._dynamic = self.is_dynamic
        self._link_plans: "OrderedDict[tuple, _ReadPlan]" = OrderedDict()
        self.store.enable_decode_cache()
        # Control-plane policies observe the same stream as everyone else.
        self._observers: list[ServerObserver] = [
            self.admission,
            self.prefetch,
            *observers,
        ]

    # -- events ------------------------------------------------------------------
    def subscribe(self, observer: ServerObserver) -> None:
        """Register an observer for this server's lifecycle event stream."""
        self._observers.append(observer)

    def unsubscribe(self, observer: ServerObserver) -> None:
        """Remove a previously subscribed observer (no-op if absent)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def attach_metrics(self, registry) -> None:
        """Hand the telemetry metrics registry to the control-plane policies.

        Called by :class:`~repro.obs.exporters.TelemetryPipeline` on attach
        (and with ``None`` on detach); each policy that defines
        ``bind_metrics`` gets the registry so it can publish gauges and read
        windowed signals back.
        """
        for policy in (self.admission, self.prefetch, self.policy):
            bind = getattr(policy, "bind_metrics", None)
            if bind is not None:
                bind(registry)

    def _emit(self, event: ServerEvent) -> None:
        if self.profiler is not None:
            with self.profiler.scope("observer-emit"):
                for observer in self._observers:
                    observer.on_event(event)
            return
        for observer in self._observers:
            observer.on_event(event)

    def _timed(self, name: str, call: Callable[..., _T], *args) -> _T:
        """``call(*args)``, inside the profiler scope ``name`` when profiling is on."""
        if self.profiler is None:
            return call(*args)
        with self.profiler.scope(name):
            return call(*args)

    # -- results -----------------------------------------------------------------
    @property
    def last_served(self) -> list[ServedRequest]:
        """The most recent run's completed requests, as objects.

        Materialized lazily (and cached) from the columnar
        :attr:`last_records` for object-level consumers — tests, the
        tracing assertions.
        """
        if self._last_served is None:
            self._last_served = self.last_records.materialize()
        return self._last_served

    # -- reads -------------------------------------------------------------------
    @property
    def is_dynamic(self) -> bool:
        return not isinstance(self.policy, StaticResolutionPolicy)

    def _fetch(
        self, key: str, num_scans: int, record: bool, already_read: int = 0
    ) -> tuple[np.ndarray, int]:
        """Read through the cache tier; returns (image, bytes_fetched)."""
        args = (self.store, key, num_scans, record, already_read)
        image, read = self._timed("storage-read", self.cache.read_through, *args)
        fetched = read.bytes_fetched
        if fetched > 0:
            self.store_requests += 1
            self._request_fetch_ops += 1
        return image, fetched

    def _probe(self, request: Request, requested_scans: int, now: float) -> None:
        """Narrate the pre-read cache probe for one admitted arrival (events on)."""
        self._emit(
            CacheProbed(
                time=now,
                request=request,
                requested_scans=requested_scans,
                resident_scans=(
                    self.cache.cached_scans(request.key) if self.cache is not None else 0
                ),
            )
        )

    def _ingest_cached(
        self, request_id: int, key: str, now: float, client_id: int | None, request: Request | None
    ) -> _InFlight:
        """Run the read + resolution-selection stages for one admitted arrival.

        Reads go through the cache tier.  ``request`` is the arrival's
        ``Request`` or None when none was built; only events read it.
        """
        stored = self.store.metadata(key)
        encoded = stored.encoded
        self._request_fetch_ops = 0
        scale_seconds = 0.0
        if self._dynamic:
            # Stage 1: cheap prefix for the scale model.
            stage1_scans = self.read_policy.scans_for(encoded, self.scale_resolution, key=key)
            if self._emit_on:
                self._probe(request, stage1_scans, now)
            image, fetched = self._fetch(key, stage1_scans, record=True)
            # The decoded prefix is a pure function of (key, scans), so the
            # scale model's per-image choice can memoize under that token
            # (queue-dependent degradation still runs fresh).
            resolution = self.policy.select_cached(image, (key, stage1_scans))
            scale_seconds = self.config.scale_model_seconds

            # Stage 2: top up to the chosen resolution's calibrated prefix.
            scans = max(stage1_scans, self.read_policy.scans_for(encoded, resolution, key=key))
            if scans > stage1_scans:
                image, extra = self._fetch(key, scans, record=False, already_read=stage1_scans)
                fetched += extra
        else:
            resolution = self.policy.select(np.empty(0))
            scans = self.read_policy.scans_for(encoded, resolution, key=key)
            if self._emit_on:
                self._probe(request, scans, now)
            image, fetched = self._fetch(key, scans, record=True)

        # Whatever the request consumed but did not fetch was cache-resident.
        from_cache = encoded.cumulative_bytes(scans) - fetched
        transfer = self.bandwidth.estimate(fetched, num_requests=self._request_fetch_ops)
        return _InFlight(
            request_id,
            key,
            now,
            client_id,
            stored.label,
            image,
            resolution,
            scans,
            fetched,
            from_cache,
            encoded.total_bytes,
            now + transfer.seconds + scale_seconds,
        )

    def _ingest_planned(
        self, request_id: int, key: str, now: float, client_id: int | None, request: Request | None
    ) -> _InFlight:
        """:meth:`_ingest_cached` without a cache tier, replaying read plans.

        With no cache, what a request reads depends only on the stored
        object, the chosen resolution and the link, so each stage's reads
        are made once and their plan is kept: stage 1 per key, the rest per
        ``(key, resolution)`` in the current link's table.  Plans belong to
        their link because a degraded-storage window swaps :attr:`bandwidth`
        between a fleet's runs; a plan made from an object the store has
        since replaced is made again.  The policy still chooses every time.
        A hit charges the reads it replays to the store, and every plan adds
        its fetches to ``store_requests``, so the counters grow exactly as
        if each read had been made.
        """
        stored = self.store.metadata(key)
        encoded = stored.encoded
        stage1 = None
        scale_seconds = 0.0
        if self._dynamic:
            # Stage 1: the scale model's calibrated prefix.
            stage1 = self._stage1_plans.get(key)
            if stage1 is None or stage1[0] is not encoded:
                scans = self.read_policy.scans_for(encoded, self.scale_resolution, key=key)
                image, receipt = self._timed("storage-read", self.store.read, key, scans)
                stage1 = self._stage1_plans[key] = (encoded, scans, image, receipt)
                if len(self._stage1_plans) > _READ_PLAN_MEMO_LIMIT:
                    self._stage1_plans.popitem(last=False)
            else:
                self._stage1_plans.move_to_end(key)
                self.store.charge(stage1[3])
            _, scans, image, receipt = stage1
            if receipt.bytes_read > 0:
                self.store_requests += 1
            if self._emit_on:
                self._probe(request, scans, now)
            resolution = self.policy.select_cached(image, (key, scans))
            scale_seconds = self.config.scale_model_seconds
        else:
            resolution = self.policy.select(np.empty(0))

        # Stage 2: the chosen resolution's reads, on this link.
        plans = self._link_plans
        token = (key, resolution)
        plan = plans.get(token)
        if plan is None or plan.encoded is not encoded:
            plan = plans[token] = self._plan_reads(encoded, key, resolution, stage1)
            if len(plans) > _READ_PLAN_MEMO_LIMIT:
                plans.popitem(last=False)
        else:
            plans.move_to_end(token)
            self.store.charge(*plan.receipts)
        self.store_requests += plan.fetches
        if stage1 is None and self._emit_on:
            self._probe(request, plan.scans_read, now)
        return _InFlight(
            request_id,
            key,
            now,
            client_id,
            stored.label,
            plan.image,
            resolution,
            plan.scans_read,
            plan.bytes_from_store,
            0,
            plan.total_bytes,
            now + plan.transfer_s + scale_seconds,
        )

    def _plan_reads(
        self,
        encoded: ProgressiveImage,
        key: str,
        resolution: int,
        stage1: _Stage1Plan | None,
    ) -> _ReadPlan:
        """Make a cacheless request's reads past stage 1 and return their plan.

        A static request makes its one read; a dynamic one tops ``stage1``'s
        prefix up to the chosen resolution's when that needs more scans.
        """
        scans = self.read_policy.scans_for(encoded, resolution, key=key)
        earlier: tuple[ReadReceipt, ...] = ()
        receipts: tuple[ReadReceipt, ...] = ()
        if stage1 is None:
            image, receipt = self._timed("storage-read", self.store.read, key, scans)
            receipts = (receipt,)
        else:
            _, stage1_scans, image, stage1_receipt = stage1
            earlier = (stage1_receipt,)
            if scans > stage1_scans:
                image, receipt = self._timed(
                    "storage-read", self.store.read_additional, key, stage1_scans, scans
                )
                receipts = (receipt,)
            scans = max(stage1_scans, scans)
        fetched = [r.bytes_read for r in earlier + receipts if r.bytes_read > 0]
        transfer = self.bandwidth.estimate(sum(fetched), num_requests=len(fetched))
        return _ReadPlan(
            encoded=encoded,
            image=image,
            scans_read=scans,
            receipts=receipts,
            fetches=sum(1 for r in receipts if r.bytes_read > 0),
            bytes_from_store=sum(fetched),
            transfer_s=transfer.seconds,
            total_bytes=encoded.total_bytes,
        )

    # -- prefetch ----------------------------------------------------------------
    def _execute_prefetch(self, actions: Sequence[PrefetchAction], now: float) -> None:
        """Apply planned cache top-ups; the fetches happen inside an idle gap,
        so they cost no request latency, but they are real store GETs — the
        bytes are reported separately and priced with everything else."""
        if self.cache is None:
            return
        for action in actions:
            encoded = self.store.metadata(action.key).encoded
            target = min(action.num_scans, encoded.num_scans)
            if target <= self.cache.cached_scans(action.key):
                continue
            _, read = self.cache.read_through(
                self.store, action.key, target, record=False
            )
            if read.bytes_fetched > 0:
                self.store_requests += 1
            self._emit(
                PrefetchIssued(
                    time=now,
                    key=action.key,
                    num_scans=target,
                    bytes_fetched=read.bytes_fetched,
                )
            )

    # -- batch execution ----------------------------------------------------------
    def _preprocessed(self, item: _InFlight, resolution: int) -> np.ndarray:
        """The model input for one in-flight item, memoized.

        ``item.image`` is exactly the decode of ``(key, scans_read)``, so
        that pair plus the resolution reproduces the preprocessed tensor
        bit-for-bit; ``np.concatenate`` copies the rows, so sharing the
        cached array across batches is safe.
        """
        token = (item.key, item.scans_read, resolution)
        memo = self._preprocess_memo
        hit = memo.get(token)
        if hit is None:
            hit = self.preprocessor(item.image, resolution)
            memo[token] = hit
            if len(memo) > _PREPROCESS_MEMO_LIMIT:
                memo.popitem(last=False)
        else:
            memo.move_to_end(token)
        return hit

    def _execute(self, resolution: int, items: list[_InFlight]) -> np.ndarray:
        # Batched float execution is not bitwise row-independent (summation
        # shapes differ with batch composition), so the memo key is the
        # *whole* batch signature: identical signatures reproduce identical
        # input arrays, hence identical logits — never a per-item shortcut.
        signature = (
            resolution,
            tuple((item.key, item.scans_read) for item in items),
        )
        memo = self._batch_memo
        predictions = memo.get(signature)
        if predictions is None:
            inputs = np.concatenate(
                [self._preprocessed(item, resolution) for item in items], axis=0
            )
            self.backbone.eval()
            logits = self.backbone(inputs)
            predictions = np.argmax(logits, axis=1)
            memo[signature] = predictions
            if len(memo) > _BATCH_MEMO_LIMIT:
                memo.popitem(last=False)
        else:
            memo.move_to_end(signature)
        return predictions

    # -- the event loop -----------------------------------------------------------
    def run(self, traffic: ArrivalStream | ClosedLoopClients) -> SLOReport:
        """Serve open-loop arrivals, or closed-loop clients over the store's keys.

        A stream is served in time order: one whose times are out of order
        is stable-sorted first, so tied arrivals keep their stream order.
        """
        config = self.config
        batcher = DynamicBatcher(config.max_batch_size, config.max_wait_s)
        heap: list[tuple[float, int, str, object]] = []
        ticket = itertools.count()

        def push(time: float, kind: str, payload: object) -> None:
            heapq.heappush(heap, (time, next(ticket), kind, payload))

        # Open-loop arrivals come off an index cursor merged against the
        # heap (arrivals win time ties: `<=` below) over array copies of the
        # stream's columns, which index to Python scalars without boxing.
        # Closed-loop arrivals depend on completions, so they ride the heap.
        clients: ClosedLoopClients | None = None
        if isinstance(traffic, ClosedLoopClients):
            clients, traffic = traffic, ArrivalStream(np.empty(0), [])
            for request in clients.start(self.store.keys()):
                push(request.arrival_time, _ARRIVAL, request)
        elif not len(traffic):
            raise ValueError("cannot serve an empty trace")
        elif not (traffic.times[1:] >= traffic.times[:-1]).all():
            traffic = traffic.take(np.argsort(traffic.times, kind="stable"))
        times = array("d", traffic.times.tobytes())
        ids = array("q", traffic.request_ids.tobytes())
        keys = traffic.keys
        num_pending = len(times)
        cursor = 0

        # Dispatch decisions for this run.  An observer is active iff its
        # class overrides ServerObserver.on_event; a prefetch policy that
        # overrides plan() forces events on so its PrefetchIssued
        # bookkeeping (delivered via the event stream) keeps working.
        active_observers = any(
            type(observer).on_event is not ServerObserver.on_event
            for observer in self._observers
        )
        prefetch_noop = type(self.prefetch).plan is PrefetchPolicy.plan
        admission_noop = type(self.admission) is AlwaysAdmit
        emit_on = active_observers or not prefetch_noop
        self._emit_on = emit_on
        # Events and a real admission policy take Request objects; otherwise
        # a cursor-fed arrival never needs one.
        build_requests = emit_on or not admission_noop
        observe_depth = getattr(self.policy, "observe_queue_depth", None)
        needs_depth = emit_on or not admission_noop or observe_depth is not None
        # Per-run, not per-request: the policy kind, the read path and the
        # link's plan table (a fleet swaps `bandwidth` only between runs).
        self._dynamic = self.is_dynamic
        if self.cache is None:
            ingest = self._ingest_planned
            links = self._read_plans
            self._link_plans = links.setdefault(self.bandwidth, OrderedDict())
            links.move_to_end(self.bandwidth)
            if len(links) > _READ_PLAN_LINK_LIMIT:
                links.popitem(last=False)
        else:
            ingest = self._ingest_cached

        records = RequestRecords()
        # Completions as ServedRequest-ordered row tuples, columnarized into
        # `records` every _RECORD_BUFFER_ROWS rows and at the end.
        rows: list[tuple] = []
        dropped: list[tuple[Request, str]] = []
        dispatch_queue: deque[tuple[int, list[_InFlight]]] = deque()
        free_workers = config.num_workers
        last_arrival_time = 0.0
        # Per-run counters start fresh; cache *contents* deliberately persist,
        # so a reused server serves the next run with a warm cache but still
        # reports that run's own hit rates and degradation tallies.
        self.store_requests = 0
        if self.cache is not None:
            self.cache.reset_stats()
        if hasattr(self.policy, "reset_counters"):
            self.policy.reset_counters()
        self.admission.reset_counters()
        self.prefetch.reset_counters()
        profiler = self.profiler
        if profiler is not None:
            profiler.reset()
            profiler.start_run()

        def start_batch(resolution: int, items: list[_InFlight], now: float) -> None:
            nonlocal free_workers
            free_workers -= 1
            for item in items:
                item.dispatch_time = now
            latency = self._timed(
                "batch-pricing", self.batch_cost.batch_seconds, resolution, len(items)
            )
            push(now + latency, _DONE, (resolution, items))

        def dispatch(resolution: int, items: list[_InFlight], now: float) -> None:
            if emit_on:
                self._emit(
                    BatchFlushed(time=now, resolution=resolution, batch_size=len(items))
                )
            if free_workers > 0:
                start_batch(resolution, items, now)
            else:
                dispatch_queue.append((resolution, items))

        now = 0.0
        request: Request | None
        while heap or cursor < num_pending:
            if cursor < num_pending and (not heap or times[cursor] <= heap[0][0]):
                # Cursor-merged arrival: ties go to the arrival, as if every
                # arrival had been pushed before any runtime event.
                now = times[cursor]
                request_id = ids[cursor]
                key = keys[cursor]
                client_id = None
                request = Request(request_id, key, now) if build_requests else None
                cursor += 1
            else:
                now, _, kind, payload = heapq.heappop(heap)
                if kind == _ENQUEUE:
                    batch, timer = batcher.add(payload.resolution, payload, now)
                    if timer is not None:
                        push(timer.deadline, _FLUSH, timer)
                    if batch is not None:
                        dispatch(payload.resolution, batch, now)
                    continue
                if kind == _FLUSH:
                    batch = batcher.on_timeout(payload.resolution, payload.epoch)
                    if batch is not None:
                        dispatch(payload.resolution, batch, now)
                    continue
                if kind == _DONE:
                    resolution, items = payload
                    predictions = self._timed(
                        "backbone-execute", self._execute, resolution, items
                    ).tolist()
                    batch_size = len(items)
                    for item, prediction in zip(items, predictions):
                        row = (
                            item.request_id,
                            item.key,
                            item.arrival_time,
                            item.ready_time,
                            item.dispatch_time,
                            now,
                            resolution,
                            item.scans_read,
                            item.bytes_from_store,
                            item.bytes_from_cache,
                            item.total_bytes,
                            batch_size,
                            prediction,
                            item.label,
                        )
                        rows.append(row)
                        if emit_on:
                            self._emit(RequestCompleted(time=now, record=ServedRequest(*row)))
                        if clients is not None and item.client_id is not None:
                            follow_up = clients.next_request(item.client_id, now)
                            if follow_up is not None:
                                push(follow_up.arrival_time, _ARRIVAL, follow_up)
                    if len(rows) >= _RECORD_BUFFER_ROWS:
                        records.extend_rows(rows)
                        rows.clear()
                    free_workers += 1
                    if dispatch_queue:
                        queued_resolution, queued_items = dispatch_queue.popleft()
                        start_batch(queued_resolution, queued_items, now)
                    continue
                # A heap-fed arrival: a closed-loop client's request.
                request = payload
                request_id = request.request_id
                key = request.key
                client_id = request.client_id

            if not prefetch_noop:
                # The idle gap since the previous arrival is the
                # prefetcher's window: planned top-ups land before this
                # arrival is served.
                idle_s = now - last_arrival_time
                last_arrival_time = now
                actions = self.prefetch.plan(now, idle_s, self)
                if actions:
                    self._timed("prefetch", self._execute_prefetch, actions, now)
            if needs_depth:
                queue_depth = batcher.queue_depth + sum(
                    len(items) for _, items in dispatch_queue
                )
            else:
                queue_depth = 0
            if emit_on:
                self._emit(RequestArrived(time=now, request=request, queue_depth=queue_depth))
            if not admission_noop:
                decision = self.admission.admit(request, now, queue_depth)
                if not decision.admitted:
                    dropped.append((request, decision.reason))
                    if emit_on:
                        self._emit(
                            RequestDropped(
                                time=now,
                                request=request,
                                reason=decision.reason,
                                queue_depth=queue_depth,
                            )
                        )
                    # A dropped closed-loop request still answers its
                    # client (with a rejection), so the client thinks
                    # and retries.
                    if clients is not None and client_id is not None:
                        follow_up = clients.next_request(client_id, now)
                        if follow_up is not None:
                            push(follow_up.arrival_time, _ARRIVAL, follow_up)
                    continue
            if observe_depth is not None:
                observe_depth(queue_depth)
            in_flight = ingest(request_id, key, now, client_id, request)
            if emit_on:
                self._emit(
                    RequestAdmitted(
                        time=now,
                        request=request,
                        resolution=in_flight.resolution,
                        scans_read=in_flight.scans_read,
                        bytes_from_store=in_flight.bytes_from_store,
                        bytes_from_cache=in_flight.bytes_from_cache,
                        ready_time=in_flight.ready_time,
                    )
                )
            push(in_flight.ready_time, _ENQUEUE, in_flight)

        records.extend_rows(rows)
        if profiler is not None:
            # Every arrival from the cursor, and every push, popped once.
            profiler.events += num_pending + next(ticket)
            profiler.completed_requests += len(records)
            profiler.stop_run(sim_seconds=now)

        # Kept for composition layers (the fleets merge the raw records of
        # many servers into one fleet-wide report).
        self.last_records = records
        self._last_served = None
        self.last_dropped = dropped
        return build_report(
            records,
            bandwidth=self.bandwidth,
            store_requests=self.store_requests,
            cache_stats=self.cache.stats if self.cache is not None else None,
            degraded_requests=getattr(self.policy, "degraded_requests", 0),
            dropped_requests=len(dropped),
            prefetch_bytes=getattr(self.prefetch, "prefetched_bytes", 0),
            prefetch_hits=getattr(self.prefetch, "prefetch_hits", 0),
            prefetch_wasted_bytes=getattr(self.prefetch, "wasted_bytes", 0),
        )
