"""The :class:`Engine` facade: build and run any scenario from one config.

The engine owns the composition the paper argues for — progressive store +
scale-model resolution policy + calibrated scan reads + hardware-priced
batching — and exposes three verbs:

* :meth:`Engine.run_experiment` — run a named experiment (paper table or
  figure) from the :data:`~repro.api.registry.EXPERIMENTS` registry;
* :meth:`Engine.serve` — build the serving tier and drive a seeded traffic
  trace through the discrete-event simulator, returning an
  :class:`~repro.serving.metrics.SLOReport`;
* :meth:`Engine.sweep` — re-run :meth:`serve` over a grid of dotted-path
  config overrides (e.g. cache capacity, arrival rate), optionally across
  a process pool with resumable per-cell results (:mod:`repro.sweep`).

Everything is deterministic under the config's seeds: the same config
produces byte-identical reports, which is what makes the CLI's output
diffable.  Construction is lazy and memoized — ``build_store()`` et al. can
also be used piecemeal when composing by hand; pass prebuilt ``store``/
``backbone`` objects to share expensive pieces across engines (the example
and benchmark shims do this to serve one store under many policies).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.api import components  # noqa: F401  (populates the registries)
from repro.api.config import EngineConfig
from repro.api.experiments import ExperimentResult
from repro.api.registry import (
    ADMISSION_POLICIES,
    ARRIVALS,
    AUTOSCALE_POLICIES,
    BACKBONES,
    BATCH_COSTS,
    CACHES,
    EXPERIMENTS,
    FAULTS,
    MACHINES,
    POPULARITY,
    PREFETCH_POLICIES,
    PROFILES,
    RESOLUTION_POLICIES,
)
from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import ResolutionPolicy
from repro.core.scale_model import ScaleModelPredictor
from repro.data.dataset import SyntheticDataset
from repro.nn.module import Module
from repro.obs.exporters import TelemetryPipeline
from repro.serving.arrivals import ClosedLoopClients
from repro.serving.batcher import BatchCostModel
from repro.serving.cache import ScanCache
from repro.serving.control import AdmissionPolicy, PrefetchPolicy
from repro.serving.fleet import ConsistentHashRouter, FleetReport, ShardedFleet
from repro.serving.metrics import SLOReport
from repro.serving.popularity import PopularityModel
from repro.serving.server import InferenceServer, ServerConfig
from repro.serving.workload import ArrivalStream, DiurnalArrivals
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep: the overrides applied and the report.

    ``report`` is a :class:`~repro.serving.fleet.FleetReport` when the
    config shards the serving tier.
    """

    overrides: dict
    report: SLOReport | FleetReport


class Engine:
    """Build pipelines, servers and experiments from an :class:`EngineConfig`."""

    def __init__(
        self,
        config: EngineConfig,
        store: ImageStore | None = None,
        backbone: Module | None = None,
    ) -> None:
        self.config = config
        self._store = store
        self._backbone = backbone
        self._read_policy: ScanReadPolicy | None = None
        # The telemetry pipeline of the most recent serve() (None when the
        # config has no observability section).
        self.last_telemetry: TelemetryPipeline | None = None

    # -- component builders -----------------------------------------------------
    @property
    def resolutions(self) -> tuple[int, ...]:
        return tuple(sorted(self.config.resolutions))

    @property
    def scale_resolution(self) -> int:
        return self.config.scale_resolution or min(self.resolutions)

    def build_store(self) -> ImageStore:
        """Synthetic progressive store described by ``config.store`` (memoized)."""
        if self._store is None:
            section = self.config.store
            profile = PROFILES.get(section.profile)
            if section.overrides:
                profile = replace(profile, **section.overrides)
            dataset = SyntheticDataset(profile, size=section.num_images, seed=section.seed)
            quality = section.quality or profile.base_quality
            store = ImageStore(encoder=ProgressiveEncoder(quality=quality))
            for sample in dataset:
                store.put(f"img{sample.index}", sample.render(), label=sample.label)
            self._store = store
        return self._store

    def build_backbone(self) -> Module:
        if self._backbone is None:
            section = self.config.backbone
            self._backbone = BACKBONES.build(section.name, **section.options)
        return self._backbone

    def build_scale_model(self) -> Module:
        """The scale model: one output per candidate resolution."""
        section = self.config.policy.scale_model
        options = dict(section.options)
        num_classes = options.setdefault("num_classes", len(self.resolutions))
        if num_classes != len(self.resolutions):
            raise ValueError(
                f"policy.scale_model.options.num_classes must equal the number of "
                f"resolutions ({len(self.resolutions)}), got {num_classes!r}"
            )
        return BACKBONES.build(section.name, **options)

    def build_policy(self) -> ResolutionPolicy:
        """The per-image policy, wrapped load-adaptively when configured."""
        section = self.config.policy
        policy_cls = RESOLUTION_POLICIES.get(section.name)
        if section.name == "static":
            resolution = section.resolution or max(self.resolutions)
            policy: ResolutionPolicy = policy_cls(resolution)
        elif section.name == "dynamic":
            predictor = ScaleModelPredictor(
                self.build_scale_model(),
                self.resolutions,
                scale_resolution=self.scale_resolution,
                crop_ratio=self.config.crop_ratio,
                tie_tolerance=section.tie_tolerance,
            )
            policy = policy_cls(predictor)
        else:
            raise ValueError(
                f"policy {section.name!r} cannot be built declaratively; "
                "use 'static' or 'dynamic' (oracle policies need ground truth)"
            )
        if section.adaptive is not None:
            policy = RESOLUTION_POLICIES.get("load-adaptive")(
                policy,
                self.resolutions,
                queue_threshold=section.adaptive.queue_threshold,
                max_degradation_steps=section.adaptive.max_degradation_steps,
            )
        return policy

    def build_read_policy(self) -> ScanReadPolicy:
        """Calibrated scan-read policy (memoized: its SSIM cache is the point)."""
        if self._read_policy is None:
            self._read_policy = ScanReadPolicy(
                ssim_thresholds=dict(self.config.ssim_thresholds)
            )
        return self._read_policy

    def build_cache(self, serving=None) -> ScanCache | None:
        serving = serving if serving is not None else self._serving_section()
        if serving.cache is None:
            return None
        return CACHES.get(serving.cache.name)(capacity_bytes=serving.cache.capacity_bytes)

    def build_batch_cost(self, serving=None) -> BatchCostModel:
        serving = serving if serving is not None else self._serving_section()
        section = serving.batch_cost
        if section.name == "hwsim":
            return BATCH_COSTS.get("hwsim")(
                self.build_backbone(),
                MACHINES.get(section.machine),
                kernel_source=section.kernel_source,
                **section.options,
            )
        return BATCH_COSTS.build(section.name, **section.options)

    def build_admission(self, serving=None) -> AdmissionPolicy:
        """The admission policy of ``serving.admission`` (no-op when absent)."""
        serving = serving if serving is not None else self._serving_section()
        section = serving.admission
        if section is None:
            return ADMISSION_POLICIES.build("always-admit")
        return ADMISSION_POLICIES.build(section.name, **section.options)

    def build_prefetch(self, serving=None) -> PrefetchPolicy:
        """The prefetch policy of ``serving.prefetch`` (no-op when absent)."""
        serving = serving if serving is not None else self._serving_section()
        section = serving.prefetch
        if section is None:
            return PREFETCH_POLICIES.build("none")
        return PREFETCH_POLICIES.build(section.name, **section.options)

    def build_server(self, serving=None) -> InferenceServer:
        """The full serving tier of ``config.serving`` over this engine's store.

        Pass a specialized :class:`~repro.api.config.ServingConfig` (e.g.
        one shard's section) to build one node of a fleet.
        """
        serving = serving if serving is not None else self._serving_section()
        server_config = ServerConfig(
            resolutions=self.resolutions,
            scale_resolution=self.scale_resolution,
            num_workers=serving.num_workers,
            max_batch_size=serving.max_batch_size,
            max_wait_s=serving.max_wait_s,
            scale_model_seconds=serving.scale_model_seconds,
            crop_ratio=self.config.crop_ratio,
        )
        return InferenceServer(
            self.build_store(),
            self.build_backbone(),
            self.build_policy(),
            server_config,
            read_policy=self.build_read_policy(),
            cache=self.build_cache(serving),
            batch_cost=self.build_batch_cost(serving),
            admission=self.build_admission(serving),
            prefetch=self.build_prefetch(serving),
        )

    def build_fleet(self) -> ShardedFleet:
        """The fleet of ``config.serving.fleet`` over this engine's store.

        Every shard gets its own policy, cache tier and batch-cost model (the
        store, backbone and read-policy calibration are shared — they are
        immutable under serving), so shards are fully independent nodes.
        Scale-outs and post-crash recoveries build fresh cold-cache nodes
        the same way.  The router is one seeded
        :class:`~repro.serving.fleet.ConsistentHashRouter` holding
        ``replicas`` shards per key; the autoscale policy and fault
        injectors come from their registries.
        """
        return self._build_fleet()

    def build_elastic_fleet(self) -> ShardedFleet:
        """:meth:`build_fleet`, checked: the section must enable replicas,
        an autoscaler or a fault injector."""
        fleet = self._serving_section().fleet
        if fleet is None or not fleet.is_elastic:
            raise ValueError(
                "this config has no elastic 'serving.fleet' section; enable "
                "replicas, autoscale, or faults (or use build_fleet)"
            )
        return self._build_fleet()

    def _build_fleet(self) -> ShardedFleet:
        # The one builder behind both public ones, which stay separately
        # wrappable (a wrapper on one never nests inside the other).
        serving = self._serving_section()
        fleet = serving.fleet
        if fleet is None:
            raise ValueError(
                "this config has no 'serving.fleet' section; add one to shard"
            )

        def server_factory(shard: int) -> InferenceServer:
            return self.build_server(serving.for_shard(shard))

        autoscale = None
        scaling = {}
        if fleet.autoscale is not None and fleet.autoscale.name != "none":
            autoscale = AUTOSCALE_POLICIES.build(
                fleet.autoscale.name, **fleet.autoscale.options
            )
            scaling = dict(
                autoscale_interval_s=fleet.autoscale.interval_s,
                min_shards=fleet.autoscale.min_shards,
                max_shards=fleet.autoscale.max_shards,
            )
        return ShardedFleet(
            [server_factory(shard) for shard in range(fleet.num_shards)],
            ConsistentHashRouter(
                range(fleet.num_shards),
                virtual_nodes=fleet.virtual_nodes,
                seed=fleet.seed,
                replicas=fleet.replicas,
            ),
            server_factory=server_factory,
            autoscale=autoscale,
            injectors=[FAULTS.build(fault.name, **fault.options) for fault in fleet.faults],
            **scaling,
        )

    def build_telemetry(self, serving=None) -> TelemetryPipeline | None:
        """A fresh telemetry pipeline per ``serving.observability`` (None = off)."""
        serving = serving if serving is not None else self._serving_section()
        section = serving.observability
        if section is None:
            return None
        return TelemetryPipeline.from_config(
            section, max_batch_size=serving.max_batch_size
        )

    def build_popularity(self, serving=None) -> PopularityModel | None:
        """The key-popularity model of ``serving.arrivals.popularity``, if any."""
        serving = serving if serving is not None else self._serving_section()
        section = serving.arrivals.popularity
        if section is None:
            return None
        return POPULARITY.build(section.name, **section.options)

    def build_arrivals(self, serving=None):
        """The configured arrival process: base, replay, and diurnal wrapping.

        ``replay`` gets the section's ``trace_path``/``speedup`` knobs; other
        processes get the built popularity model (when configured); a
        ``diurnal`` section wraps whatever was built in a
        :class:`~repro.serving.workload.DiurnalArrivals` envelope.
        """
        serving = serving if serving is not None else self._serving_section()
        section = serving.arrivals
        options = dict(section.options)
        if section.name == "replay":
            process = ARRIVALS.build(
                "replay",
                trace_path=section.trace_path,
                speedup=section.speedup,
                **options,
            )
        else:
            popularity = self.build_popularity(serving)
            if popularity is not None:
                options["popularity"] = popularity
            process = ARRIVALS.build(section.name, **options)
        if section.diurnal is not None:
            diurnal = section.diurnal
            process = DiurnalArrivals(
                base=process,
                period_s=diurnal.period_s,
                amplitude=diurnal.amplitude,
                phase=diurnal.phase,
                envelope=diurnal.envelope,
            )
        return process

    def build_trace(self) -> ArrivalStream | ClosedLoopClients:
        """The configured traffic: a pre-generated stream, or closed-loop clients.

        Open-loop traffic comes back as a columnar
        :class:`~repro.serving.workload.ArrivalStream`, the form the
        server's arrival cursor and the fleet's index partition read.
        """
        serving = self._serving_section()
        process = self.build_arrivals(serving)
        if isinstance(process, ClosedLoopClients):
            return process
        return process.stream(self.build_store().keys(), serving.num_requests)

    def _serving_section(self):
        if self.config.serving is None:
            raise ValueError(
                "this config has no 'serving' section; add one to serve or sweep"
            )
        return self.config.serving

    # -- the three verbs ----------------------------------------------------------
    def serve(
        self, trace: ArrivalStream | ClosedLoopClients | None = None
    ) -> SLOReport | FleetReport:
        """Serve the configured (or given) traffic; returns the SLO report.

        When ``serving.fleet`` is configured the trace is partitioned across
        the sharded fleet and a :class:`~repro.serving.fleet.FleetReport`
        (per-shard + fleet-wide SLOs) comes back instead.
        """
        serving = self._serving_section()
        traffic = self.build_trace() if trace is None else trace
        self.last_telemetry = None
        if serving.fleet is not None:
            if isinstance(traffic, ClosedLoopClients):
                raise ValueError(
                    "sharded fleets serve open-loop traces; closed-loop clients "
                    "are bound to one server's completion times"
                )
            elastic = serving.fleet.is_elastic
            factory = None
            if serving.observability is not None:
                if elastic:
                    raise ValueError(
                        "elastic fleets do not support the observability "
                        "section: crash re-routes serve one request id on two "
                        "shards, which the tracer's shard-wise merge rejects"
                    )
                factory = lambda: self.build_telemetry(serving)  # noqa: E731
            fleet = self.build_elastic_fleet() if elastic else self.build_fleet()
            report = fleet.run(traffic, telemetry_factory=factory)
            self.last_telemetry = fleet.last_telemetry
            return report
        server = self.build_server()
        pipeline = self.build_telemetry(serving)
        if pipeline is not None:
            pipeline.attach(server)
        try:
            report = server.run(traffic)
        finally:
            if pipeline is not None:
                pipeline.detach(server)
        self.last_telemetry = pipeline
        return report

    def run_experiment(self, name: str | None = None, **overrides) -> ExperimentResult:
        """Run a named experiment (default: the config's ``experiment`` section).

        The config's ``experiment.options`` only apply to the experiment they
        name — running a *different* experiment by name starts from that
        experiment's own defaults plus the keyword ``overrides``.
        """
        section = self.config.experiment
        if name is None:
            if section is None:
                raise ValueError(
                    "this config has no 'experiment' section; pass a name explicitly"
                )
            name = section.name
        options = (
            dict(section.options) if section is not None and section.name == name else {}
        )
        options.update(overrides)
        builder = EXPERIMENTS.get(name)
        return builder(self, options)

    def sweep(
        self,
        param_grid: dict[str, list] | None = None,
        *,
        workers: int | None = None,
        output_dir: str | None = None,
    ) -> list[SweepPoint]:
        """Serve every point of a dotted-path override grid, in a stable order.

        Delegates to :class:`~repro.sweep.runner.SweepRunner`: ``workers``
        (default: the config's ``sweep.workers``) sizes the multiprocessing
        pool — 1 runs in-process with the historical shared-store fast path
        and byte-identical results — and ``output_dir`` (default: the
        config's ``sweep.output_dir``) persists one crash-tolerant result
        file per cell, letting a killed sweep resume from completed cells.
        """
        from repro.sweep.runner import SweepRunner

        section = self.config.sweep
        grid = dict(param_grid if param_grid is not None else section.grid)
        runner = SweepRunner(
            self,
            grid,
            workers=section.workers if workers is None else workers,
            output_dir=section.output_dir if output_dir is None else output_dir,
            base_seed=section.base_seed,
        )
        return runner.run()

    def lint(
        self,
        root: str | None = None,
        baseline: str | None = None,
    ):
        """Run the determinism/contract static analyzer over this repo tree.

        ``root`` defaults to the repository this installation was imported
        from; ``baseline`` points at a committed suppression ledger
        (``lint/baseline.json``).  Returns the kind-tagged
        :class:`~repro.lint.findings.LintReport` — ``report.ok`` is the
        pass/fail verdict the CLI turns into an exit code.  Lint is a pure
        function of the source tree: it needs no config sections and never
        executes the code under analysis.
        """
        from repro.lint.engine import LintEngine

        return LintEngine(root=root, baseline=baseline).run()
