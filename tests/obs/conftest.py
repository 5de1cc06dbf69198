"""Shared fixtures for the observability tests: a small server under load."""

import pytest

from repro.codec.progressive import ProgressiveEncoder
from repro.core.policies import StaticResolutionPolicy
from repro.nn.resnet import resnet_tiny
from repro.serving.arrivals import PoissonArrivals
from repro.serving.batcher import LinearBatchCost
from repro.serving.cache import ScanCache
from repro.serving.server import InferenceServer, ServerConfig
from repro.storage.policy import ScanReadPolicy
from repro.storage.store import ImageStore

RESOLUTIONS = (24, 32, 48)


@pytest.fixture(scope="package")
def obs_store(tiny_imagenet_like):
    store = ImageStore(encoder=ProgressiveEncoder(quality=85))
    for sample in list(tiny_imagenet_like)[:8]:
        store.put(f"img{sample.index}", sample.render(), label=sample.label)
    return store


@pytest.fixture(scope="package")
def obs_backbone():
    return resnet_tiny(num_classes=4, base_width=4, seed=0)


@pytest.fixture
def make_server(obs_store, obs_backbone):
    """Factory for a small deterministic server over the shared store."""

    def _make(
        admission=None,
        prefetch=None,
        observers=(),
        policy=None,
        **config,
    ):
        defaults = dict(
            resolutions=RESOLUTIONS,
            scale_resolution=24,
            num_workers=2,
            max_batch_size=4,
            max_wait_s=0.004,
        )
        defaults.update(config)
        return InferenceServer(
            obs_store,
            obs_backbone,
            policy if policy is not None else StaticResolutionPolicy(32),
            ServerConfig(**defaults),
            read_policy=ScanReadPolicy(
                ssim_thresholds={24: 0.90, 32: 0.92, 48: 0.95}
            ),
            cache=ScanCache(300_000),
            batch_cost=LinearBatchCost(per_item_seconds=0.002, fixed_seconds=0.002),
            admission=admission,
            prefetch=prefetch,
            observers=observers,
        )

    return _make


@pytest.fixture
def make_trace(obs_store):
    """Factory for a seeded Poisson trace over the shared store's keys."""

    def _make(n=24, rate_rps=900.0, seed=5):
        return PoissonArrivals(rate_rps=rate_rps, seed=seed, zipf_alpha=1.0).stream(
            obs_store.keys(), n
        )

    return _make
