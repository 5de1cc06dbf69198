"""Config validation and dict/JSON round-trips."""

import json
from pathlib import Path

import pytest

from repro.api.config import (
    AdaptiveConfig,
    AdmissionConfig,
    ArrivalsConfig,
    BackboneConfig,
    BatchCostConfig,
    CacheConfig,
    EngineConfig,
    ExperimentConfig,
    ObjectiveConfig,
    PolicyConfig,
    PrefetchConfig,
    ServingConfig,
    StoreConfig,
    SweepConfig,
)


def full_config() -> EngineConfig:
    """A config exercising every section (serving + experiment + sweep)."""
    return EngineConfig(
        resolutions=(24, 32, 48),
        scale_resolution=24,
        crop_ratio=0.75,
        store=StoreConfig(
            profile="imagenet-like",
            overrides={"num_classes": 4, "storage_resolution_mean": 96},
            num_images=8,
            seed=3,
            quality=85,
        ),
        backbone=BackboneConfig(name="resnet-tiny", options={"num_classes": 4}),
        policy=PolicyConfig(
            name="dynamic",
            scale_model=BackboneConfig(name="mobilenet-tiny", options={"seed": 1}),
            tie_tolerance=0.15,
            adaptive=AdaptiveConfig(queue_threshold=6, max_degradation_steps=2),
        ),
        ssim_thresholds={24: 0.9, 32: 0.92, 48: 0.95},
        serving=ServingConfig(
            arrivals=ArrivalsConfig(name="onoff", options={"on_rate_rps": 2500.0}),
            num_requests=40,
            cache=CacheConfig(capacity_bytes=300_000),
            batch_cost=BatchCostConfig(name="hwsim", machine="4790K"),
            admission=AdmissionConfig(
                name="ewma",
                options={"alpha": 0.3, "depth_threshold": 10.0, "deadline_s": 0.05},
            ),
            prefetch=PrefetchConfig(
                name="next-scan",
                options={"idle_threshold_s": 0.05, "max_keys_per_gap": 4, "seed": 2},
            ),
        ),
        experiment=ExperimentConfig(name="fig2", options={"quality": 85}),
        sweep={"serving.cache.capacity_bytes": [100_000, 300_000]},
    )


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        config = full_config()
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip_is_identity(self):
        config = full_config()
        assert EngineConfig.from_json(config.to_json()) == config

    def test_json_round_trip_restores_integer_threshold_keys(self):
        config = EngineConfig(resolutions=(24, 48), ssim_thresholds={24: 0.9})
        restored = EngineConfig.from_json(config.to_json())
        assert restored.ssim_thresholds == {24: 0.9}

    def test_minimal_dict_uses_defaults(self):
        config = EngineConfig.from_dict({})
        assert config == EngineConfig()

    def test_resolutions_list_becomes_tuple(self):
        config = EngineConfig.from_dict({"resolutions": [48, 24]})
        assert config.resolutions == (48, 24)

    def test_unknown_top_level_key_is_rejected(self):
        with pytest.raises(ValueError, match="unknown EngineConfig field"):
            EngineConfig.from_dict({"resolutionz": [24]})

    def test_unknown_section_key_is_rejected(self):
        # A typo, and a retired key that old configs may still carry.
        for key, value in (("workerz", 3), ("fast_core", False)):
            with pytest.raises(
                ValueError, match=f"unknown ServingConfig field.*{key}"
            ):
                EngineConfig.from_dict({"serving": {key: value}})


class TestEngineConfigValidation:
    def test_empty_resolutions(self):
        with pytest.raises(ValueError, match="resolutions"):
            EngineConfig(resolutions=())

    def test_non_positive_resolution(self):
        with pytest.raises(ValueError, match="positive"):
            EngineConfig(resolutions=(24, 0))

    def test_duplicate_resolutions(self):
        with pytest.raises(ValueError, match="unique"):
            EngineConfig(resolutions=(24, 24))

    def test_scale_resolution_must_be_a_candidate(self):
        with pytest.raises(ValueError, match="scale_resolution"):
            EngineConfig(resolutions=(24, 48), scale_resolution=32)

    def test_static_policy_resolution_must_be_a_candidate(self):
        with pytest.raises(ValueError, match="policy.resolution"):
            EngineConfig(
                resolutions=(24, 48), policy=PolicyConfig(name="static", resolution=96)
            )

    def test_threshold_for_unknown_resolution(self):
        with pytest.raises(ValueError, match="unknown resolution"):
            EngineConfig(resolutions=(24, 48), ssim_thresholds={32: 0.9})

    def test_threshold_out_of_range(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            EngineConfig(resolutions=(24,), ssim_thresholds={24: 1.5})

    def test_crop_ratio_out_of_range(self):
        with pytest.raises(ValueError, match="crop_ratio"):
            EngineConfig(crop_ratio=0.0)

    def test_empty_sweep_values(self):
        with pytest.raises(ValueError, match="sweep"):
            EngineConfig(sweep={"serving.num_workers": []})


class TestSweepConfig:
    def test_bare_grid_dict_normalizes_into_the_section(self):
        config = EngineConfig(sweep={"serving.num_workers": [1, 2]})
        assert isinstance(config.sweep, SweepConfig)
        assert config.sweep.grid == {"serving.num_workers": [1, 2]}
        assert config.sweep.workers == 1

    def test_legacy_bare_grid_from_dict(self):
        config = EngineConfig.from_dict(
            {"sweep": {"serving.cache.capacity_bytes": [1000, 2000]}}
        )
        assert config.sweep.grid == {"serving.cache.capacity_bytes": [1000, 2000]}

    @pytest.mark.parametrize(
        "sweep, names",
        [
            ({"serving.num_workers": "abc"}, "sweep.serving.num_workers must be a list"),
            ({"serving.num_workers": []}, "sweep.serving.num_workers must be a non-empty"),
            ({"grid": {"serving.num_workers": "abc"}}, "sweep.grid.serving.num_workers must be a"),
            ({"grid": {"serving.num_workers": []}}, "sweep.grid.serving.num_workers must be a"),
        ],
        ids=["bare-string", "bare-empty", "grid-string", "grid-empty"],
    )
    def test_errors_name_the_path_the_file_spells(self, sweep, names):
        with pytest.raises(ValueError) as error:
            EngineConfig.from_dict({"sweep": sweep})
        assert names in str(error.value)

    def test_full_section_from_dict(self):
        config = EngineConfig.from_dict(
            {
                "sweep": {
                    "grid": {"serving.num_workers": [1, 2]},
                    "workers": 3,
                    "output_dir": "results/grid",
                    "base_seed": 5,
                    "objectives": [{"column": "report.accuracy", "direction": "max"}],
                }
            }
        )
        assert config.sweep.workers == 3
        assert config.sweep.output_dir == "results/grid"
        assert config.sweep.base_seed == 5
        assert config.sweep.objectives == (
            ObjectiveConfig(column="report.accuracy", direction="max"),
        )

    def test_section_round_trips(self):
        config = EngineConfig.from_dict(
            {
                "sweep": {
                    "grid": {"serving.num_workers": [1, 2]},
                    "workers": 2,
                    "objectives": [{"column": "report.drop_rate"}],
                }
            }
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="sweep.workers"):
            SweepConfig(workers=0)

    def test_objective_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            ObjectiveConfig(column="report.accuracy", direction="sideways")

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepConfig field"):
            EngineConfig.from_dict(
                {"sweep": {"grid": {"a.b": [1]}, "workerz": 2}}
            )


class TestSectionValidation:
    def test_store_rejects_non_positive_image_count(self):
        with pytest.raises(ValueError, match="num_images"):
            StoreConfig(num_images=0)

    def test_store_rejects_out_of_range_quality(self):
        with pytest.raises(ValueError, match="quality"):
            StoreConfig(quality=0)

    def test_store_rejects_unknown_override_fields_at_load_time(self):
        with pytest.raises(ValueError, match="storge_resolution_mean"):
            StoreConfig(overrides={"storge_resolution_mean": 96})

    def test_cache_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            CacheConfig(capacity_bytes=0)

    def test_arrivals_reject_non_positive_rate(self):
        with pytest.raises(ValueError, match="rate_rps"):
            ArrivalsConfig(name="poisson", options={"rate_rps": 0.0})

    def test_arrivals_reject_non_positive_client_count(self):
        with pytest.raises(ValueError, match="num_clients"):
            ArrivalsConfig(name="closed-loop", options={"num_clients": 0})

    def test_arrivals_reject_non_numeric_rate(self):
        with pytest.raises(ValueError, match="rate_rps"):
            ArrivalsConfig(name="poisson", options={"rate_rps": "600"})

    def test_serving_rejects_non_positive_worker_count(self):
        with pytest.raises(ValueError, match="num_workers"):
            ServingConfig(num_workers=0)

    def test_serving_rejects_non_positive_batch_size(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServingConfig(max_batch_size=0)

    def test_adaptive_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError, match="queue_threshold"):
            AdaptiveConfig(queue_threshold=0)

    def test_batch_cost_rejects_unknown_kernel_source(self):
        with pytest.raises(ValueError, match="kernel_source"):
            BatchCostConfig(kernel_source="magic")

    def test_admission_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            AdmissionConfig(name="ewma", options={"alpha": 1.5})

    def test_admission_rejects_non_positive_deadline(self):
        with pytest.raises(ValueError, match="deadline_s"):
            AdmissionConfig(name="ewma", options={"deadline_s": 0})

    def test_admission_rejects_empty_name(self):
        with pytest.raises(ValueError, match="admission.name"):
            AdmissionConfig(name="")

    def test_prefetch_rejects_non_positive_idle_threshold(self):
        with pytest.raises(ValueError, match="idle_threshold_s"):
            PrefetchConfig(name="next-scan", options={"idle_threshold_s": 0})

    def test_prefetch_rejects_non_integer_key_cap(self):
        with pytest.raises(ValueError, match="max_keys_per_gap"):
            PrefetchConfig(name="next-scan", options={"max_keys_per_gap": 2.5})

    def test_prefetch_rejects_empty_name(self):
        with pytest.raises(ValueError, match="prefetch.name"):
            PrefetchConfig(name="")

    def test_option_checks_are_gated_on_the_builtin_names(self):
        # Custom registered policies own their option semantics: an option
        # that happens to be called "alpha" must not be range-checked here.
        AdmissionConfig(name="my-policy", options={"alpha": 2.0})
        PrefetchConfig(name="my-prefetcher", options={"max_keys_per_gap": 2.5})

    def test_serving_rejects_unknown_admission_keys(self):
        with pytest.raises(ValueError, match="AdmissionConfig"):
            ServingConfig.from_dict({"admission": {"name": "ewma", "optionz": {}}})


SHARDED_CONFIG = (
    Path(__file__).resolve().parents[2] / "examples" / "configs" / "serving_sharded.json"
)


class TestFleetSectionValidation:
    """Malformed ``serving.fleet`` input fails at load, naming the field."""

    @pytest.mark.parametrize(
        "field, value, names",
        [
            (None, [], "fleet must be a mapping"),
            (None, "x", "fleet must be a mapping"),
            ("faults", {"name": "crash-schedule"}, "fleet.faults"),
            ("autoscale", "threshold", "autoscale must be a mapping"),
            ("num_shards", "2", "fleet.num_shards"),
            ("replicas", "2", "fleet.replicas"),
            ("virtual_nodes", None, "fleet.virtual_nodes"),
            ("faults", [1], r"fleet.faults\[0\]"),
            ("overrides", [1], "fleet.overrides"),
            ("num_shards", 2.5, "fleet.num_shards"),
            ("replicas", 1.5, "fleet.replicas"),
            ("replicas", True, "fleet.replicas"),
            ("seed", "7", "fleet.seed"),
            ("overrides", {"first": {"num_workers": 1}}, "fleet.overrides key"),
            ("autoscale", {"name": "threshold", "min_shards": 1.5}, "autoscale.min_shards"),
            ("autoscale", {"name": "threshold", "interval_s": "1"}, "autoscale.interval_s"),
            ("faults", [{"name": 3}], r"fleet\.faults\[0\]\.name"),
            # A shard's patch is checked at load, and the error names the shard.
            (
                "overrides",
                {"1": {"num_workers": -1}},
                r"serving\.fleet\.overrides\.1: serving\.num_workers must be positive",
            ),
            (
                "overrides",
                {"1": {"cache": {"capacity_bytez": 1}}},
                r"serving\.fleet\.overrides\.1: .*serving\.cache\.capacity_bytez",
            ),
            (
                "overrides",
                {"1": {"num_workerz": 2}},
                r"serving\.fleet\.overrides\.1: .*serving\.num_workerz",
            ),
            (
                "overrides",
                {"1": {"max_batch_size": "x"}},
                r"serving\.fleet\.overrides\.1: serving\.max_batch_size must be an integer",
            ),
            # An active autoscaler must start inside its bounds (4 shards here).
            (
                "autoscale",
                {"name": "threshold", "min_shards": 5, "max_shards": 8},
                r"serving\.fleet\.autoscale\.min_shards",
            ),
            (
                "autoscale",
                {"name": "threshold", "max_shards": 2},
                r"serving\.fleet\.autoscale\.max_shards",
            ),
        ],
    )
    def test_malformed_input_raises_a_value_error_naming_the_field(
        self, field, value, names
    ):
        data = json.loads(SHARDED_CONFIG.read_text())
        if field is None:
            data["serving"]["fleet"] = value
        else:
            data["serving"]["fleet"][field] = value
        with pytest.raises(ValueError, match=names):
            EngineConfig.from_dict(data)

    def test_the_unmodified_config_loads(self):
        data = json.loads(SHARDED_CONFIG.read_text())
        config = EngineConfig.from_dict(json.loads(SHARDED_CONFIG.read_text()))
        assert config.serving.fleet.num_shards == data["serving"]["fleet"]["num_shards"]
        assert config.serving.fleet.overrides == {0: data["serving"]["fleet"]["overrides"]["0"]}


class TestOverrides:
    def test_with_overrides_patches_nested_fields(self):
        config = full_config()
        patched = config.with_overrides({"serving.cache.capacity_bytes": 1234})
        assert patched.serving.cache.capacity_bytes == 1234
        # Everything else is untouched.
        assert patched.resolutions == config.resolutions
        assert patched.policy == config.policy

    def test_with_overrides_rejects_unknown_paths(self):
        config = full_config()
        with pytest.raises(KeyError):
            config.with_overrides({"serving.cache.capacity_bytez": 1})
        with pytest.raises(KeyError):
            config.with_overrides({"nonexistent.section": 1})

    def test_with_overrides_addresses_int_keyed_maps(self):
        patched = full_config().with_overrides({"ssim_thresholds.24": 0.5})
        assert patched.ssim_thresholds == {24: 0.5, 32: 0.92, 48: 0.95}
        sharded = EngineConfig.from_dict(json.loads(SHARDED_CONFIG.read_text()))
        patched = sharded.with_overrides({"serving.fleet.overrides.0.num_workers": 5})
        assert patched.serving.fleet.overrides == {
            0: {"num_workers": 5, "cache": {"capacity_bytes": 400000}}
        }
        assert patched.serving.for_shard(0).num_workers == 5

    def test_with_overrides_revalidates(self):
        config = full_config()
        with pytest.raises(ValueError):
            config.with_overrides({"serving.cache.capacity_bytes": -5})
