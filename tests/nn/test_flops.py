"""FLOP counter tests, anchored to the paper's published numbers."""

import numpy as np
import pytest

from repro.nn.flops import (
    conv2d_macs,
    count_model_flops,
    count_model_gflops,
    trace_model,
)
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.flops import linear_macs
from repro.nn.mobilenet import mobilenet_v2
from repro.nn.resnet import resnet18, resnet50


@pytest.fixture(scope="module")
def r18():
    return resnet18()


@pytest.fixture(scope="module")
def r50():
    return resnet50()


class TestLayerCounts:
    def test_conv_macs_closed_form(self):
        layer = Conv2d(16, 32, kernel_size=3, stride=1, padding=1, bias=False)
        macs = conv2d_macs(layer, (1, 16, 28, 28))
        assert macs == 1 * 32 * 28 * 28 * 16 * 9

    def test_conv_macs_with_stride_and_bias(self):
        layer = Conv2d(3, 8, kernel_size=3, stride=2, padding=1, bias=True)
        macs = conv2d_macs(layer, (1, 3, 32, 32))
        out_hw = 16 * 16
        assert macs == 8 * out_hw * 3 * 9 + 8 * out_hw

    def test_grouped_conv_macs_scale_with_groups(self):
        dense = Conv2d(16, 16, kernel_size=3, padding=1, bias=False)
        depthwise = Conv2d(16, 16, kernel_size=3, padding=1, groups=16, bias=False)
        assert conv2d_macs(dense, (1, 16, 14, 14)) == 16 * conv2d_macs(
            depthwise, (1, 16, 14, 14)
        )

    def test_linear_macs(self):
        layer = Linear(512, 1000)
        assert linear_macs(layer, (1, 512)) == 512 * 1000 + 1000


class TestPaperAnchors:
    """Table I of the paper reports GFLOPs for ResNet-18 at seven resolutions."""

    PAPER_TABLE1 = {112: 0.5, 168: 1.1, 224: 1.8, 280: 2.9, 336: 4.2, 392: 5.8, 448: 7.3}

    @pytest.mark.parametrize("resolution,expected", sorted(PAPER_TABLE1.items()))
    def test_resnet18_gflops_match_table1(self, r18, resolution, expected):
        assert count_model_gflops(r18, resolution) == pytest.approx(expected, abs=0.06)

    def test_resnet50_gflops_at_224(self, r50):
        # The paper quotes 4.1 GFLOPs for ResNet-50 at 224 (§VII.b).
        assert count_model_gflops(r50, 224) == pytest.approx(4.1, abs=0.05)

    def test_mobilenet_v2_gflops_at_112(self):
        # The paper quotes 0.08 GFLOPs for the scale model at 112 (§VII.b).
        assert count_model_gflops(mobilenet_v2(), 112) == pytest.approx(0.08, abs=0.01)

    def test_quadratic_scaling_with_resolution(self, r18):
        low = count_model_flops(r18, 224)
        high = count_model_flops(r18, 448)
        assert high / low == pytest.approx(4.0, rel=0.02)


class TestTraceAndConventions:
    def test_flops_convention_doubles_macs(self, r18):
        macs = count_model_flops(r18, 224, convention="macs")
        flops = count_model_flops(r18, 224, convention="flops")
        assert flops == 2 * macs

    def test_unknown_convention_rejected(self, r18):
        with pytest.raises(ValueError):
            count_model_flops(r18, 224, convention="ops")

    def test_trace_covers_all_convolutions(self, r18):
        records = trace_model(r18, (1, 3, 224, 224))
        conv_records = [r for r in records if r.layer_type == "Conv2d"]
        # ResNet-18: 1 stem + 16 block convs + 3 downsample convs = 20.
        assert len(conv_records) == 20

    def test_trace_shapes_are_consistent(self, r18):
        records = trace_model(r18, (1, 3, 224, 224))
        for record in records:
            assert len(record.input_shape) in (2, 4)
            assert record.macs >= 0

    def test_batch_size_scales_counts_linearly(self, r18):
        single = count_model_flops(r18, 224, batch_size=1)
        batch = count_model_flops(r18, 224, batch_size=4)
        assert batch == 4 * single

    def test_detail_records_conv_attributes(self, r18):
        records = trace_model(r18, (1, 3, 224, 224))
        stem = next(r for r in records if r.name.endswith("stem_conv"))
        assert stem.detail_dict == {"kernel_size": 7, "stride": 2, "padding": 3, "groups": 1}
