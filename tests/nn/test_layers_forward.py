"""Forward-pass correctness of the layer primitives."""

import numpy as np
import pytest

from repro.nn.layers.activations import LeakyReLU, ReLU, ReLU6, Sigmoid
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.layers.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d


class TestConv2d:
    def test_output_shape_matches_formula(self):
        layer = Conv2d(3, 8, kernel_size=3, stride=2, padding=1)
        out = layer.forward(np.random.default_rng(0).normal(size=(2, 3, 17, 17)))
        assert out.shape == (2, 8, 9, 9)
        assert layer.output_shape((2, 3, 17, 17)) == (2, 8, 9, 9)

    def test_identity_kernel_preserves_input(self):
        layer = Conv2d(1, 1, kernel_size=1, bias=False)
        layer.weight.value[...] = 1.0
        x = np.random.default_rng(0).normal(size=(1, 1, 5, 5))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_known_convolution_value(self):
        # 2x2 all-ones kernel over a 3x3 ramp: top-left output is sum of the
        # 2x2 window.
        layer = Conv2d(1, 1, kernel_size=2, bias=False)
        layer.weight.value[...] = 1.0
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = layer.forward(x)
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == pytest.approx(0 + 1 + 3 + 4)
        assert out[0, 0, 1, 1] == pytest.approx(4 + 5 + 7 + 8)

    def test_bias_added_per_channel(self):
        layer = Conv2d(1, 2, kernel_size=1, bias=True)
        layer.weight.value[...] = 0.0
        layer.bias.value[...] = np.array([1.5, -2.0])
        out = layer.forward(np.zeros((1, 1, 4, 4)))
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_grouped_convolution_is_blockwise(self):
        # groups=2 must not mix the two channel halves.
        layer = Conv2d(2, 2, kernel_size=1, groups=2, bias=False)
        layer.weight.value[...] = 1.0
        x = np.zeros((1, 2, 3, 3))
        x[0, 0] = 1.0
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], 0.0)

    def test_depthwise_matches_manual_per_channel(self):
        rng = np.random.default_rng(1)
        layer = Conv2d(3, 3, kernel_size=3, padding=1, groups=3, bias=False, rng=rng)
        x = rng.normal(size=(1, 3, 6, 6))
        out = layer.forward(x)
        for channel in range(3):
            single = Conv2d(1, 1, kernel_size=3, padding=1, bias=False)
            single.weight.value[...] = layer.weight.value[channel]
            expected = single.forward(x[:, channel : channel + 1])
            np.testing.assert_allclose(out[:, channel : channel + 1], expected)

    def test_rejects_bad_group_configuration(self):
        with pytest.raises(ValueError):
            Conv2d(3, 8, kernel_size=3, groups=2)

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("in_channels", 0),
            ("out_channels", 0),
            ("out_channels", 2.5),
            ("kernel_size", 0),
            ("stride", 0),
            ("groups", 0),
            ("padding", -1),
        ],
    )
    def test_rejects_bad_sizes_before_drawing_weights(self, argument, value):
        sizes = dict(in_channels=4, out_channels=4, kernel_size=3, stride=1, padding=1, groups=1)
        sizes[argument] = value
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"Conv2d {argument} must be"):
            Conv2d(**sizes, rng=rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestLinear:
    def test_matches_manual_affine(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.value.T + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False)
        assert not hasattr(layer, "bias")
        out = layer.forward(np.zeros((2, 4)))
        np.testing.assert_allclose(out, 0.0)

    def test_rejects_non_2d_input(self):
        layer = Linear(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((2, 4, 1)))

    @pytest.mark.parametrize(
        "argument, value", [("in_features", 0), ("out_features", 0), ("out_features", -3)]
    )
    def test_rejects_bad_sizes_before_drawing_weights(self, argument, value):
        sizes = dict(in_features=4, out_features=3)
        sizes[argument] = value
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"Linear {argument} must be"):
            Linear(**sizes, rng=rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


class TestActivations:
    def test_relu_clips_negative(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_allclose(layer.forward(x), [[0.0, 0.0, 2.0]])

    def test_relu6_clips_above_six(self):
        layer = ReLU6()
        x = np.array([[-1.0, 3.0, 9.0]])
        np.testing.assert_allclose(layer.forward(x), [[0.0, 3.0, 6.0]])

    def test_leaky_relu_scales_negative(self):
        layer = LeakyReLU(negative_slope=0.1)
        x = np.array([[-2.0, 4.0]])
        np.testing.assert_allclose(layer.forward(x), [[-0.2, 4.0]])

    def test_sigmoid_range_and_symmetry(self):
        layer = Sigmoid()
        x = np.linspace(-10, 10, 21).reshape(1, -1)
        out = layer.forward(x)
        assert np.all(out > 0) and np.all(out < 1)
        np.testing.assert_allclose(out + layer.forward(-x), 1.0, atol=1e-12)

    def test_sigmoid_extreme_values_do_not_overflow(self):
        layer = Sigmoid()
        out = layer.forward(np.array([[-1000.0, 1000.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        layer = BatchNorm2d(3)
        rng = np.random.default_rng(0)
        x = rng.normal(loc=5.0, scale=3.0, size=(4, 3, 8, 8))
        out = layer.forward(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_track_batch_statistics(self):
        layer = BatchNorm2d(2, momentum=1.0)
        x = np.random.default_rng(0).normal(loc=2.0, size=(8, 2, 4, 4))
        layer.forward(x)
        np.testing.assert_allclose(layer.running_mean, x.mean(axis=(0, 2, 3)), atol=1e-10)

    def test_eval_uses_running_stats(self):
        layer = BatchNorm2d(2, momentum=1.0)
        x = np.random.default_rng(0).normal(size=(8, 2, 4, 4))
        layer.forward(x)
        layer.eval()
        y = np.random.default_rng(1).normal(size=(3, 2, 4, 4))
        out = layer.forward(y)
        expected = (y - layer.running_mean.reshape(1, -1, 1, 1)) / np.sqrt(
            layer.running_var.reshape(1, -1, 1, 1) + layer.eps
        )
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_rejects_wrong_channel_count(self):
        layer = BatchNorm2d(3)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 4, 2, 2)))


class TestPooling:
    def test_max_pool_picks_maximum(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_with_padding_ignores_pad_values(self):
        layer = MaxPool2d(3, stride=2, padding=1)
        x = -np.ones((1, 1, 4, 4))  # all negative: padding zeros must not win
        out = layer.forward(x)
        assert np.all(out == -1.0)

    def test_avg_pool_averages(self):
        layer = AvgPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_global_avg_pool_reduces_spatial_dims(self):
        layer = GlobalAvgPool2d()
        x = np.random.default_rng(0).normal(size=(2, 5, 7, 9))
        out = layer.forward(x)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))


class TestDropoutAndFlatten:
    def test_dropout_identity_in_eval_mode(self):
        layer = Dropout(0.5)
        layer.eval()
        x = np.random.default_rng(0).normal(size=(4, 10))
        np.testing.assert_allclose(layer.forward(x), x)

    def test_dropout_preserves_expected_value(self):
        layer = Dropout(0.3, rng=np.random.default_rng(0))
        x = np.ones((200, 200))
        out = layer.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_flatten_roundtrip(self):
        layer = Flatten()
        x = np.random.default_rng(0).normal(size=(3, 2, 4, 5))
        out = layer.forward(x)
        assert out.shape == (3, 40)
        back = layer.backward(out)
        np.testing.assert_allclose(back, x)
