"""Tests for net specs and allocation-free shape/parameter inference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caffe import models
from repro.caffe.layers import LayerError
from repro.caffe.net import Net
from repro.caffe.netspec import NetSpec, infer


def small_spec(batch=2, channels=3, size=8, classes=4):
    spec = NetSpec("small")
    data = spec.input("data", (batch, channels, size, size))
    labels = spec.input("label", (batch,))
    top = spec.conv_relu("conv1", data, 6, kernel=3, pad=1)
    top = spec.pool("pool1", top, method="max", kernel=2, stride=2)
    top = spec.conv_bn_relu("conv2", top, 8, kernel=3, pad=1)
    top = spec.pool("gp", top, method="ave", global_pool=True)
    logits = spec.fc("fc", top, classes)
    spec.softmax_loss("loss", logits, labels)
    spec.accuracy("acc", logits, labels)
    return spec


class TestNetSpec:
    def test_default_top_is_layer_name(self):
        spec = NetSpec()
        tops = spec.add("Input", "data", shape=(1, 3, 4, 4))
        assert tops == ["data"]

    def test_duplicate_layer_name_rejected(self):
        spec = NetSpec()
        spec.input("data", (1, 3, 4, 4))
        with pytest.raises(LayerError):
            spec.input("data", (1, 3, 4, 4))

    def test_sugar_wires_bottoms(self):
        spec = small_spec()
        by_name = {layer.name: layer for layer in spec.layers}
        assert by_name["conv1_relu"].bottoms == ["conv1"]
        assert by_name["pool1"].bottoms == ["conv1_relu"]


class TestInference:
    def test_blob_shapes(self):
        result = infer(small_spec())
        assert result.blob_shapes["conv1"] == (2, 6, 8, 8)
        assert result.blob_shapes["pool1"] == (2, 6, 4, 4)
        assert result.blob_shapes["fc"] == (2, 4)
        assert result.blob_shapes["loss"] == (1,)

    def test_param_count_matches_instantiated_net(self):
        spec = small_spec()
        assert infer(spec).param_count == Net(spec, seed=0).param_count()

    def test_blob_shapes_match_instantiated_net(self):
        spec = small_spec()
        result = infer(spec)
        net = Net(spec, seed=0)
        for name, shape in net.blob_shapes.items():
            assert result.blob_shapes[name] == shape

    def test_undefined_bottom_rejected(self):
        spec = NetSpec()
        spec.add("ReLU", "r", ["ghost"])
        with pytest.raises(LayerError, match="undefined blob"):
            infer(spec)

    def test_unknown_type_rejected(self):
        spec = NetSpec()
        spec.add("Quantum", "q")
        with pytest.raises(LayerError, match="unknown layer type 'Quantum'"):
            infer(spec)

    def test_geometry_errors_surface(self):
        spec = NetSpec()
        data = spec.input("data", (1, 3, 4, 4))
        spec.conv("c", data, 8, kernel=9)  # kernel larger than image
        with pytest.raises(LayerError):
            infer(spec)

    def test_param_nbytes_is_float32(self):
        result = infer(small_spec())
        assert result.param_nbytes == result.param_count * 4

    def test_rectangular_conv_params(self):
        spec = NetSpec()
        data = spec.input("data", (1, 8, 9, 9))
        spec.conv("c", data, 16, kernel=(1, 7), pad=(0, 3), bias=False)
        result = infer(spec)
        assert result.param_shapes["c"] == [(16, 8, 1, 7)]
        assert result.blob_shapes["c"] == (1, 16, 9, 9)


def _eltwise(*shapes):
    spec = NetSpec("bad")
    for index, shape in enumerate(shapes):
        spec.input(f"in{index}", shape)
    spec.add("Eltwise", "bad", [f"in{i}" for i in range(len(shapes))])
    return spec


def _one(type_name, bottoms=("data",), shape=(2, 3, 8, 8), **kwargs):
    spec = NetSpec("bad")
    spec.input("data", shape)
    spec.input("label", shape[:1])
    spec.add(type_name, "bad", list(bottoms), **kwargs)
    return spec


def _head(type_name, logits_shape, labels_shape, **kwargs):
    spec = NetSpec("bad")
    spec.input("logits", logits_shape)
    spec.input("labels", labels_shape)
    spec.add(type_name, "bad", ["logits", "labels"], **kwargs)
    return spec


#: Specs the layers refuse but the shape rules ``infer`` once kept apart
#: from them accepted: ``infer`` must refuse each as ``Net`` does.
REFUSED = {
    "pool_pad_ge_kernel": lambda: _one("Pooling", kernel=2, stride=1, pad=2),
    "pool_min": lambda: _one("Pooling", method="min"),
    "eltwise_mismatched": lambda: _eltwise((2, 3, 4, 4), (2, 3, 4, 5)),
    "eltwise_one_bottom": lambda: _eltwise((2, 3, 4, 4)),
    "conv_zero_outputs": lambda: _one("Convolution", num_output=0, kernel=3),
    "lrn_even_local_size": lambda: _one("LRN", local_size=4),
    "dropout_ratio_one": lambda: _one("Dropout", ratio=1.0),
    "loss_label_batch": lambda: _head("SoftmaxWithLoss", (2, 5), (3,)),
    "accuracy_top_k_over_classes": lambda: _head(
        "Accuracy", (2, 5), (2,), top_k=6
    ),
    "relu_two_bottoms": lambda: _one("ReLU", ["data", "label"]),
    "relu_unknown_kwarg": lambda: _one("ReLU", slope=0.1),
}


class TestOneShapeRule:
    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_infer_refuses_what_net_refuses(self, case):
        with pytest.raises(LayerError, match="'bad'"):
            Net(REFUSED[case](), seed=0)
        with pytest.raises(LayerError, match="'bad'"):
            infer(REFUSED[case]())

    @pytest.mark.parametrize("build", [
        lambda: _one("Convolution", shape=(2, 12), num_output=4, kernel=1),
        lambda: _one("Pooling", shape=(2, 12)),
        lambda: _one("LRN", shape=(2, 12)),
        lambda: _one("BatchNorm", shape=(2, 3, 4)),
        lambda: _one("SoftmaxWithLoss"),
        lambda: _head("Accuracy", (2,), (2,)),
        lambda: _one("Convolution", kernel=3),
    ], ids=[
        "conv_on_2d", "pool_on_2d", "lrn_on_2d", "batchnorm_on_3d",
        "loss_one_bottom", "accuracy_1d_logits", "missing_kwarg",
    ])
    def test_spec_errors_are_typed_and_name_the_layer(self, build):
        # A spec read by ``prototxt.load`` comes from outside the program:
        # a wrong bottom count, rank or kwarg (``relu_*`` above too) is a
        # LayerError naming the layer, never a bare ValueError/TypeError.
        with pytest.raises(LayerError, match="'bad'"):
            infer(build())
        with pytest.raises(LayerError, match="'bad'"):
            Net(build(), seed=0)

    @pytest.mark.parametrize("shape", [(2, -3, 8, 8), (2, 0, 8, 8), ()])
    def test_input_refuses_non_positive_dims(self, shape):
        spec = NetSpec("bad")
        spec.input("bad", shape)
        with pytest.raises(LayerError, match="'bad'"):
            infer(spec)
        with pytest.raises(LayerError, match="'bad'"):
            Net(spec, seed=0)

    def test_infer_allocates_no_params(self):
        # VGG16's params are 553 MB; walking its rules must not touch them.
        spec = models.full_spec("vgg16", batch_size=1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = infer(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.param_nbytes == 553_430_176
        assert peak < 1 << 20


@settings(max_examples=20, deadline=None)
@given(
    channels=st.integers(1, 6),
    num_output=st.integers(1, 8),
    kernel=st.integers(1, 3),
    with_bn=st.booleans(),
    with_fc=st.booleans(),
)
def test_inference_always_agrees_with_instantiation(
    channels, num_output, kernel, with_bn, with_fc
):
    """For random small specs, infer() == the real net, exactly."""
    spec = NetSpec("prop")
    data = spec.input("data", (2, channels, 6, 6))
    labels = spec.input("label", (2,))
    pad = kernel // 2
    if with_bn:
        top = spec.conv_bn_relu("c", data, num_output, kernel=kernel, pad=pad)
    else:
        top = spec.conv_relu("c", data, num_output, kernel=kernel, pad=pad)
    top = spec.pool("gp", top, method="ave", global_pool=True)
    if with_fc:
        top = spec.fc("mid", top, 5)
    logits = spec.fc("fc", top, 3)
    spec.softmax_loss("loss", logits, labels)

    result = infer(spec)
    net = Net(spec, seed=0)
    assert result.param_count == net.param_count()
    for name, shape in net.blob_shapes.items():
        assert result.blob_shapes[name] == tuple(shape)
