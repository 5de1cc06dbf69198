"""``Conv2d`` lowers to one unfold and one ``np.matmul``, equal to the group loop.

The reference below is the per-group loop: one im2col and one
``np.matmul`` per group, in the forward and the backward pass.  The
batched lowering runs the same GEMM on the same rows, so it must
reproduce the loop bit for bit: the forward, the bias and input
gradients, and the weight gradient, whose batch sum both sides take over
the leading axis of the per-image products.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn.functional import col2im, im2col, pad_nchw
from repro.nn.layers.conv import Conv2d
from repro.nn.mobilenet import mobilenet_tiny


def loop_forward(layer: Conv2d, x: np.ndarray) -> np.ndarray:
    """The reference forward: one im2col and one ``np.matmul`` per group."""
    n = x.shape[0]
    _, _, out_h, out_w = layer.output_shape(x.shape)
    k = layer.kernel_size
    group_in = layer.in_channels // layer.groups
    group_out = layer.out_channels // layer.groups
    out = np.empty((n, layer.out_channels, out_h, out_w), dtype=np.float64)
    cols_per_group = []
    for g in range(layer.groups):
        cols = im2col(x[:, g * group_in : (g + 1) * group_in], k, k, layer.stride, layer.padding)
        cols_per_group.append(cols)
        w_mat = layer.weight.value[g * group_out : (g + 1) * group_out].reshape(group_out, -1)
        out_g = w_mat @ cols
        out[:, g * group_out : (g + 1) * group_out] = out_g.reshape(n, group_out, out_h, out_w)
    if layer.has_bias:
        out += layer.bias.value.reshape(1, -1, 1, 1)
    layer._cache = (x.shape, cols_per_group)
    return out


def loop_backward(layer: Conv2d, grad_output: np.ndarray) -> np.ndarray:
    """The reference backward over the per-group columns of :func:`loop_forward`."""
    input_shape, cols_per_group = layer._cache
    n, _, out_h, out_w = grad_output.shape
    k = layer.kernel_size
    group_in = layer.in_channels // layer.groups
    group_out = layer.out_channels // layer.groups
    if layer.has_bias:
        layer.bias.grad += grad_output.sum(axis=(0, 2, 3))
    grad_input = np.empty(input_shape, dtype=np.float64)
    for g in range(layer.groups):
        rows = slice(g * group_out, (g + 1) * group_out)
        grad_out_mat = grad_output[:, rows].reshape(n, group_out, out_h * out_w)
        grad_w = (grad_out_mat @ cols_per_group[g].swapaxes(-1, -2)).sum(axis=0)
        layer.weight.grad[rows] += grad_w.reshape(group_out, group_in, k, k)
        w_mat = layer.weight.value[rows].reshape(group_out, group_in * k * k)
        grad_cols = w_mat.T @ grad_out_mat
        group_shape = (n, group_in, input_shape[2], input_shape[3])
        grad_input[:, g * group_in : (g + 1) * group_in] = col2im(
            grad_cols, group_shape, k, k, layer.stride, layer.padding
        )
    return grad_input


@st.composite
def conv_cases(draw):
    groups = draw(st.sampled_from([1, 1, 2, 3, 4, 8, 16]))
    kernel = draw(st.sampled_from([1, 3, 5]))
    padding = draw(st.integers(0, kernel // 2))
    return dict(
        groups=groups,
        group_in=draw(st.integers(1, 4)),
        group_out=draw(st.integers(1, 4)),
        kernel=kernel,
        stride=draw(st.integers(1, 2)),
        padding=padding,
        size=draw(st.integers(max(kernel - 2 * padding, 1), 9)),
        batch=draw(st.sampled_from([1, 1, 2, 3, 5])),
        bias=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)),
    )


def _twin_layers(case) -> tuple[Conv2d, Conv2d]:
    """Two equal layers: one runs the lowering, the other the reference loop."""
    layers = []
    for _ in range(2):
        layer = Conv2d(
            case["groups"] * case["group_in"],
            case["groups"] * case["group_out"],
            case["kernel"],
            stride=case["stride"],
            padding=case["padding"],
            groups=case["groups"],
            bias=case["bias"],
            rng=np.random.default_rng(case["seed"]),
        )
        if case["bias"]:
            layer.bias.value[...] = np.random.default_rng(case["seed"] + 1).normal(
                size=layer.bias.value.shape
            )
        layers.append(layer)
    return layers[0], layers[1]


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=conv_cases())
def test_lowering_matches_the_group_loop(case):
    layer, reference = _twin_layers(case)
    rng = np.random.default_rng(case["seed"] + 2)
    x = rng.normal(size=(case["batch"], layer.in_channels, case["size"], case["size"]))

    out = layer(x)
    expected = loop_forward(reference, x)
    assert out.flags.c_contiguous
    np.testing.assert_array_equal(out, expected)

    grad_output = rng.normal(size=out.shape)
    grad_input = layer.backward(grad_output)
    np.testing.assert_array_equal(grad_input, loop_backward(reference, grad_output))
    if case["bias"]:
        np.testing.assert_array_equal(layer.bias.grad, reference.bias.grad)
    np.testing.assert_array_equal(layer.weight.grad, reference.weight.grad)


@pytest.mark.parametrize("size", [24, 32, 48])
def test_scale_model_logits_match_the_group_loop(size, monkeypatch):
    model = mobilenet_tiny(num_classes=3, seed=1).eval()
    x = np.random.default_rng(size).normal(size=(1, 3, size, size))
    logits = model(x)
    monkeypatch.setattr(Conv2d, "forward", loop_forward)
    np.testing.assert_array_equal(logits, model(x))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)),
    padding=st.integers(0, 3),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
)
def test_pad_nchw_matches_np_pad(shape, padding, dtype, seed):
    x = np.random.default_rng(seed).normal(size=shape).astype(dtype)
    padded = pad_nchw(x, padding)
    if padding == 0:
        assert padded is x
    spatial = (padding, padding)
    expected = np.pad(x, ((0, 0), (0, 0), spatial, spatial), mode="constant")
    assert padded.dtype == expected.dtype == dtype
    assert padded.shape == expected.shape
    assert padded.tobytes() == expected.tobytes()
