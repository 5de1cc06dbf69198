"""Numerical gradient checks for every layer's backward pass."""

import numpy as np
import pytest

from repro.nn.layers.activations import LeakyReLU, ReLU, Sigmoid
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.mobilenet import InvertedResidual
from repro.nn.resnet import BasicBlock, Bottleneck
from tests.nn.gradient_check import check_layer_gradients


@pytest.fixture
def rng():
    """Fresh, fixed-seed generator so gradient checks are order-independent.

    Overrides the session-scoped ``rng`` fixture from conftest: numerical
    gradient checks are sensitive to the exact inputs drawn (values near
    activation kinks), so each test must see the same inputs regardless of
    which other tests ran before it.
    """
    return np.random.default_rng(20240613)


@pytest.fixture
def small_input(rng):
    return rng.normal(size=(2, 3, 6, 6))


def test_conv2d_gradients(small_input):
    layer = Conv2d(3, 4, kernel_size=3, stride=1, padding=1, rng=np.random.default_rng(0))
    check_layer_gradients(layer, small_input)


def test_conv2d_strided_gradients(small_input):
    layer = Conv2d(3, 2, kernel_size=3, stride=2, padding=1, rng=np.random.default_rng(0))
    check_layer_gradients(layer, small_input)


def test_conv2d_grouped_gradients(rng):
    layer = Conv2d(4, 4, kernel_size=3, padding=1, groups=4, rng=np.random.default_rng(0))
    check_layer_gradients(layer, rng.normal(size=(2, 4, 5, 5)))


def test_conv2d_grouped_strided_gradients(rng):
    # Grouped but not depthwise: two groups of two input and three output
    # channels each, strided, with a bias.
    layer = Conv2d(4, 6, kernel_size=3, stride=2, padding=1, groups=2, rng=np.random.default_rng(0))
    layer.bias.value[...] = rng.normal(size=6)
    check_layer_gradients(layer, rng.normal(size=(2, 4, 6, 6)))


def test_linear_gradients(rng):
    layer = Linear(7, 4, rng=np.random.default_rng(0))
    check_layer_gradients(layer, rng.normal(size=(3, 7)))


def test_relu_gradients(rng):
    # Keep inputs away from the kink at zero to avoid numerical-diff ambiguity.
    x = rng.normal(size=(2, 3, 4, 4))
    x[np.abs(x) < 0.05] = 0.1
    check_layer_gradients(ReLU(), x)


def test_leaky_relu_gradients(rng):
    x = rng.normal(size=(2, 3, 4, 4))
    x[np.abs(x) < 0.05] = 0.1
    check_layer_gradients(LeakyReLU(0.2), x)


def test_sigmoid_gradients(rng):
    check_layer_gradients(Sigmoid(), rng.normal(size=(3, 5)))


def test_batchnorm_training_gradients(rng):
    layer = BatchNorm2d(3)
    check_layer_gradients(layer, rng.normal(size=(4, 3, 3, 3)), atol=1e-5, rtol=1e-3)


def test_batchnorm_eval_gradients(rng):
    layer = BatchNorm2d(3)
    layer.forward(rng.normal(size=(4, 3, 3, 3)))  # populate running stats
    layer.eval()
    check_layer_gradients(layer, rng.normal(size=(2, 3, 3, 3)))


def test_maxpool_gradients(rng):
    check_layer_gradients(MaxPool2d(2), rng.normal(size=(2, 2, 6, 6)), check_params=False)


def test_avgpool_gradients(rng):
    check_layer_gradients(AvgPool2d(2), rng.normal(size=(2, 2, 6, 6)), check_params=False)


def test_global_avgpool_gradients(rng):
    check_layer_gradients(GlobalAvgPool2d(), rng.normal(size=(2, 3, 5, 5)), check_params=False)


def test_flatten_gradients(rng):
    check_layer_gradients(Flatten(), rng.normal(size=(2, 3, 4, 4)), check_params=False)


def test_basic_block_gradients(rng):
    block = BasicBlock(4, 4, rng=np.random.default_rng(0))
    x = rng.normal(size=(2, 4, 5, 5))
    x[np.abs(x) < 0.05] = 0.1
    check_layer_gradients(block, x, atol=1e-4, rtol=1e-2)


def test_basic_block_downsample_gradients(rng):
    block = BasicBlock(3, 6, stride=2, rng=np.random.default_rng(0))
    x = rng.normal(size=(2, 3, 6, 6))
    x[np.abs(x) < 0.05] = 0.1
    check_layer_gradients(block, x, atol=1e-4, rtol=1e-2)


def test_bottleneck_gradients(rng):
    block = Bottleneck(4, 2, rng=np.random.default_rng(0))
    x = rng.normal(size=(1, 4, 5, 5))
    x[np.abs(x) < 0.05] = 0.1
    check_layer_gradients(block, x, atol=1e-4, rtol=1e-2)


def test_inverted_residual_gradients(rng):
    block = InvertedResidual(4, 4, stride=1, expand_ratio=2, rng=np.random.default_rng(0))
    x = rng.normal(size=(1, 4, 5, 5))
    x[np.abs(x) < 0.05] = 0.1
    check_layer_gradients(block, x, atol=1e-4, rtol=1e-2)
