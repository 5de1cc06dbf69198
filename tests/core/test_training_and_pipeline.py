"""Trainer, sharding, scale-model and end-to-end pipeline tests on tiny models.

These tests exercise the *real-model* path of the reproduction: tiny numpy
CNNs trained on small synthetic datasets, flowing through the same sharding,
multilabel scale-model training and two-stage pipeline the paper describes.
The pipeline is the serving tier at zero load: one worker, one-item batches
and arrivals a second apart, so every request is served alone.  Budgets are
kept small so the whole module runs in tens of seconds.
"""

import numpy as np
import pytest

from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import DynamicResolutionPolicy, StaticResolutionPolicy
from repro.core.scale_model import ScaleModelConfig, ScaleModelPredictor, ScaleModelTrainer
from repro.core.sharding import train_sharded_backbones
from repro.core.trainer import Trainer, TrainingConfig, evaluate_accuracy
from repro.nn.flops import count_model_flops
from repro.nn.mobilenet import mobilenet_tiny
from repro.nn.resnet import resnet_tiny
from repro.serving.server import InferenceServer, ServerConfig
from repro.serving.workload import ArrivalStream
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore

RESOLUTIONS = (24, 32, 48)
TRAIN_CONFIG = TrainingConfig(
    resolution=32, epochs=2, batch_size=12, learning_rate=0.08, seed=0,
    augment_random_scale=0.0,
)


@pytest.fixture(scope="module")
def trained_backbone(tiny_imagenet_like):
    """A tiny backbone trained on the first 36 samples of the synthetic dataset."""
    model = resnet_tiny(num_classes=tiny_imagenet_like.profile.num_classes, base_width=6, seed=0)
    trainer = Trainer(model, tiny_imagenet_like, TRAIN_CONFIG)
    trainer.fit(np.arange(36))
    return model, trainer


class TestTrainer:
    def test_loss_decreases_over_epochs(self, trained_backbone):
        _, trainer = trained_backbone
        losses = [record["train_loss"] for record in trainer.history]
        assert losses[-1] < losses[0]

    def test_training_beats_chance_on_train_set(self, tiny_imagenet_like, trained_backbone):
        model, trainer = trained_backbone
        accuracy = trainer.evaluate(np.arange(36), resolution=32)
        chance = 100.0 / tiny_imagenet_like.profile.num_classes
        assert accuracy > chance * 1.5

    def test_evaluate_at_other_resolutions_runs(self, tiny_imagenet_like, trained_backbone):
        model, _ = trained_backbone
        for resolution in RESOLUTIONS:
            accuracy = evaluate_accuracy(
                model, tiny_imagenet_like, np.arange(12), resolution
            )
            assert 0.0 <= accuracy <= 100.0

    def test_predict_correctness_is_binary(self, trained_backbone):
        _, trainer = trained_backbone
        correctness = trainer.predict_correctness(np.arange(8), resolution=32)
        assert set(np.unique(correctness)).issubset({0.0, 1.0})

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="rmsprop")


class TestShardingAndScaleModel:
    @pytest.fixture(scope="class")
    def sharded(self, tiny_imagenet_like):
        return train_sharded_backbones(
            tiny_imagenet_like,
            np.arange(32),
            backbone_factory=lambda seed: resnet_tiny(
                num_classes=tiny_imagenet_like.profile.num_classes, base_width=6, seed=seed
            ),
            num_shards=2,
            config=TrainingConfig(
                resolution=32, epochs=1, batch_size=12, learning_rate=0.08,
                augment_random_scale=0.0,
            ),
        )

    def test_shards_are_disjoint_and_cover_training_set(self, sharded):
        combined = np.concatenate(sharded.shards)
        assert sorted(combined.tolist()) == list(range(32))

    def test_targets_have_one_column_per_resolution(self, sharded):
        indices, targets = sharded.correctness_targets(RESOLUTIONS, crop_ratio=0.75)
        assert targets.shape == (len(indices), len(RESOLUTIONS))
        assert set(np.unique(targets)).issubset({0.0, 1.0})

    def test_scale_model_trains_and_predicts(self, tiny_imagenet_like, sharded):
        indices, targets = sharded.correctness_targets(RESOLUTIONS, crop_ratio=0.75)
        scale_model = mobilenet_tiny(num_classes=len(RESOLUTIONS), seed=3)
        trainer = ScaleModelTrainer(
            scale_model,
            tiny_imagenet_like,
            RESOLUTIONS,
            ScaleModelConfig(scale_resolution=24, epochs=1, batch_size=12),
        )
        history = trainer.fit(indices, targets)
        assert history and np.isfinite(history[-1]["train_loss"])

        predictor = trainer.predictor()
        probabilities = predictor.predict_probabilities(tiny_imagenet_like[0].render())
        assert probabilities.shape == (len(RESOLUTIONS),)
        assert np.all((probabilities >= 0.0) & (probabilities <= 1.0))
        resolution, _ = predictor.choose_resolution(tiny_imagenet_like[0].render())
        assert resolution in RESOLUTIONS

    @pytest.mark.parametrize("outputs", [2, 5])
    def test_predictor_needs_one_output_per_resolution(self, outputs):
        with pytest.raises(ValueError, match=f"{outputs} outputs but there are 3"):
            ScaleModelPredictor(mobilenet_tiny(num_classes=outputs, seed=3), RESOLUTIONS)

    def test_scale_trainer_validates_targets(self, tiny_imagenet_like):
        scale_model = mobilenet_tiny(num_classes=len(RESOLUTIONS), seed=3)
        trainer = ScaleModelTrainer(scale_model, tiny_imagenet_like, RESOLUTIONS)
        with pytest.raises(ValueError):
            trainer.fit(np.arange(4), np.zeros((4, 2)))


def zero_load_server(store, backbone, policy, read_policy):
    return InferenceServer(
        store,
        backbone,
        policy,
        ServerConfig(
            resolutions=RESOLUTIONS,
            scale_resolution=24,
            num_workers=1,
            max_batch_size=1,
            max_wait_s=0.0,
        ),
        read_policy=read_policy,
    )


def serve_one_per_second(server, keys):
    """Serve ``keys`` in order, a second apart; (report, records by arrival)."""
    report = server.run(ArrivalStream(np.arange(len(keys), dtype=np.float64), keys))
    return report, sorted(server.last_served, key=lambda record: record.request_id)


def mean_relative_read(records):
    return float(np.mean([r.bytes_from_store / r.total_bytes for r in records]))


class TestDynamicPipeline:
    @pytest.fixture(scope="class")
    def store(self, tiny_imagenet_like):
        store = ImageStore(encoder=ProgressiveEncoder(quality=85))
        for sample in list(tiny_imagenet_like)[36:48]:
            store.put(f"img{sample.index}", sample.render(96), label=sample.label)
        return store

    @pytest.fixture(scope="class")
    def pipelines(self, store, trained_backbone, tiny_imagenet_like):
        backbone, trainer = trained_backbone
        # Scale model trained directly against the single backbone's
        # correctness (enough signal for a smoke-level integration test).
        indices = np.arange(24)
        targets = np.stack(
            [trainer.predict_correctness(indices, r) for r in RESOLUTIONS], axis=1
        )
        scale_model = mobilenet_tiny(num_classes=len(RESOLUTIONS), seed=5)
        scale_trainer = ScaleModelTrainer(
            scale_model,
            tiny_imagenet_like,
            RESOLUTIONS,
            ScaleModelConfig(scale_resolution=24, epochs=1, batch_size=12),
        )
        scale_trainer.fit(indices, targets)

        read_policy = ScanReadPolicy(ssim_thresholds={r: 0.96 for r in RESOLUTIONS})
        dynamic = zero_load_server(
            store, backbone, DynamicResolutionPolicy(scale_trainer.predictor()), read_policy
        )
        static = zero_load_server(
            store, backbone, StaticResolutionPolicy(48), ScanReadPolicy()
        )
        return dynamic, static

    def test_records_account_bytes_and_flops(self, pipelines, store):
        dynamic, _ = pipelines
        _, (record,) = serve_one_per_second(dynamic, store.keys()[:1])
        assert record.bytes_from_store > 0
        assert record.bytes_from_store <= record.total_bytes
        assert count_model_flops(dynamic.backbone, record.resolution) > 0
        assert record.resolution in RESOLUTIONS

    def test_dynamic_pipeline_reads_no_more_than_full_static(self, pipelines, store):
        dynamic, static = pipelines
        keys = store.keys()[:6]
        _, dynamic_records = serve_one_per_second(dynamic, keys)
        _, static_records = serve_one_per_second(static, keys)
        assert mean_relative_read(dynamic_records) <= 1.0 + 1e-9
        assert mean_relative_read(static_records) == pytest.approx(1.0)
        assert 1.0 - mean_relative_read(dynamic_records) >= 0.0

    def test_stats_aggregation(self, pipelines, store):
        dynamic, _ = pipelines
        report, records = serve_one_per_second(dynamic, store.keys())
        assert report.num_requests >= 1
        histogram = report.resolution_histogram
        assert sum(histogram.values()) == report.num_requests
        assert 0.0 <= report.accuracy <= 100.0
        scale_macs = count_model_flops(dynamic.policy.predictor.model, 24)
        mean_total_gmacs = np.mean(
            [
                (count_model_flops(dynamic.backbone, r.resolution) + scale_macs) / 1e9
                for r in records
            ]
        )
        assert mean_total_gmacs > 0.0

    def test_pipeline_requires_resolutions(self):
        with pytest.raises(ValueError):
            ServerConfig(resolutions=())
