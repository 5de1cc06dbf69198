"""Quickstart: the full dynamic-resolution pipeline on a synthetic dataset.

This example mirrors Fig 4 of the paper end to end with *real* (tiny) numpy
models so it runs on a laptop in a couple of minutes:

1. generate a synthetic dataset and store every image progressively encoded;
2. train a tiny backbone classifier;
3. build per-resolution correctness targets and train a tiny scale model
   with the multilabel objective;
4. calibrate SSIM read thresholds per resolution;
5. serve the validation images through the serving tier at zero load (one
   request at a time, so each runs exactly the Fig-4 steps) and compare
   accuracy, bytes read and FLOPs against static-resolution baselines.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import DynamicResolutionPolicy, StaticResolutionPolicy
from repro.core.scale_model import ScaleModelConfig, ScaleModelTrainer
from repro.core.trainer import Trainer, TrainingConfig
from repro.data.dataset import SyntheticDataset
from repro.data.profiles import DatasetProfile
from repro.data.splits import train_val_split
from repro.nn.flops import count_model_flops
from repro.nn.mobilenet import mobilenet_tiny
from repro.nn.resnet import resnet_tiny
from repro.serving.server import InferenceServer, ServerConfig
from repro.serving.workload import ArrivalStream
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore

RESOLUTIONS = (24, 32, 48)
SCALE_RESOLUTION = 24


def main() -> None:
    rng_seed = 0
    profile = DatasetProfile(
        name="quickstart",
        num_classes=4,
        storage_resolution_mean=96,
        storage_resolution_std=12,
        object_scale_mean=0.55,
        object_scale_std=0.2,
        texture_weight=0.6,
        detail_sensitivity=1.0,
    )
    dataset = SyntheticDataset(profile, size=72, seed=rng_seed)
    splits = train_val_split(len(dataset), val_fraction=0.25, calibration_fraction=0.0, seed=1)
    print(f"dataset: {len(dataset)} images, {profile.num_classes} classes")

    # -- 1. store every image progressively encoded -------------------------------
    store = ImageStore(encoder=ProgressiveEncoder(quality=85))
    for sample in dataset:
        store.put(f"img{sample.index}", sample.render(), label=sample.label)
    print(f"stored {len(store)} images, {store.total_bytes_stored / 1e6:.2f} MB total")

    # -- 2. train the backbone ---------------------------------------------------
    backbone = resnet_tiny(num_classes=profile.num_classes, base_width=6, seed=0)
    trainer = Trainer(
        backbone,
        dataset,
        TrainingConfig(resolution=32, epochs=3, batch_size=12, learning_rate=0.08),
    )
    trainer.fit(splits.train)
    print("backbone validation accuracy per resolution:")
    for resolution in RESOLUTIONS:
        accuracy = trainer.evaluate(splits.validation, resolution)
        print(f"  {resolution:>3}px: {accuracy:5.1f}%")

    # -- 3. train the scale model with the multilabel objective -------------------
    targets = np.stack(
        [trainer.predict_correctness(splits.train, r) for r in RESOLUTIONS], axis=1
    )
    scale_model = mobilenet_tiny(num_classes=len(RESOLUTIONS), seed=2)
    scale_trainer = ScaleModelTrainer(
        scale_model,
        dataset,
        RESOLUTIONS,
        ScaleModelConfig(scale_resolution=SCALE_RESOLUTION, epochs=3, batch_size=12),
    )
    scale_trainer.fit(splits.train, targets)

    # -- 4. calibrate read thresholds (fixed here; see storage_calibration.py) ----
    read_policy = ScanReadPolicy(ssim_thresholds={r: 0.96 for r in RESOLUTIONS})

    # -- 5. serve through static and dynamic policies at zero load --------------
    # One worker, one-item batches and arrivals a second apart: no request
    # ever queues or shares a batch, so the server runs the paper's Fig-4
    # steps once per request.
    keys = [f"img{int(i)}" for i in splits.validation]
    trace = ArrivalStream(np.arange(len(keys), dtype=np.float64), keys)
    config = ServerConfig(
        resolutions=RESOLUTIONS,
        scale_resolution=SCALE_RESOLUTION,
        num_workers=1,
        max_batch_size=1,
        max_wait_s=0.0,
    )
    backbone_macs = {r: count_model_flops(backbone, r) for r in RESOLUTIONS}
    scale_macs = count_model_flops(scale_model, SCALE_RESOLUTION)
    rows = []
    for name, policy, policy_read in (
        ("static-32", StaticResolutionPolicy(32), ScanReadPolicy()),
        ("static-48", StaticResolutionPolicy(48), ScanReadPolicy()),
        ("dynamic", DynamicResolutionPolicy(scale_trainer.predictor()), read_policy),
    ):
        server = InferenceServer(store, backbone, policy, config, read_policy=policy_read)
        report = server.run(trace)
        records = server.last_records
        extra_macs = scale_macs if server.is_dynamic else 0
        gmacs = [
            (backbone_macs[r] + extra_macs) / 1e9 for r in records.column("resolutions")
        ]
        relative_read = records.column("bytes_from_store") / records.column("total_bytes")
        rows.append(
            [
                name,
                report.accuracy,
                float(np.mean(gmacs)),
                float(np.mean(relative_read)),
                str(report.resolution_histogram),
            ]
        )
    print()
    print(
        format_table(
            ["policy", "accuracy %", "mean GMACs", "relative bytes read", "resolution mix"],
            rows,
            float_format="{:.3f}",
        )
    )


if __name__ == "__main__":
    main()
