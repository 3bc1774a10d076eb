"""Tests for the prototxt text format and input transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caffe import Minibatch, Net, models, prototxt
from repro.caffe.netspec import infer
from repro.caffe.prototxt import PrototxtError
from repro.caffe.transforms import (
    TransformError,
    TransformParams,
    Transformer,
)

from .test_netspec import small_spec


class TestPrototxtRoundtrip:
    @pytest.mark.parametrize(
        "name", ["inception_v1", "resnet_50", "inception_resnet_v2",
                 "vgg16"]
    )
    def test_scaled_models_roundtrip(self, name):
        spec = models.scaled_spec(name, batch_size=4)
        text = prototxt.dumps(spec)
        back = prototxt.loads(text)
        assert back.name == spec.name
        assert len(back.layers) == len(spec.layers)
        for original, parsed in zip(spec.layers, back.layers):
            assert parsed.type_name == original.type_name
            assert parsed.name == original.name
            assert parsed.bottoms == original.bottoms
            assert parsed.tops == original.tops
        # The parsed spec must be functionally identical: same shapes,
        # same parameter count.
        assert infer(back).param_count == infer(spec).param_count

    def test_full_inception_roundtrip(self):
        spec = models.full_spec("inception_v1", batch_size=1)
        back = prototxt.loads(prototxt.dumps(spec))
        assert infer(back).param_count == infer(spec).param_count

    def test_parsed_spec_instantiates(self):
        spec = small_spec()
        back = prototxt.loads(prototxt.dumps(spec))
        net = Net(back, seed=0)
        assert net.param_count() == Net(spec, seed=0).param_count()

    def test_file_roundtrip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "net.prototxt"
        prototxt.save(spec, path)
        back = prototxt.load(path)
        assert len(back.layers) == len(spec.layers)

    def test_rectangular_kernels_roundtrip(self):
        from repro.caffe.netspec import NetSpec

        spec = NetSpec("rect")
        data = spec.input("data", (1, 3, 9, 9))
        spec.conv("c", data, 4, kernel=(1, 7), pad=(0, 3), bias=False)
        back = prototxt.loads(prototxt.dumps(spec))
        assert back.layers[1].kwargs["kernel"] == (1, 7)
        assert back.layers[1].kwargs["bias"] is False

    def test_comments_and_whitespace_tolerated(self):
        text = (
            '# a comment\n'
            'name: "demo"\n'
            'layer {\n'
            '  type: "Input"  # inline comment\n'
            '  name: "data"\n'
            '  top: "data"\n'
            '  param { shape: (1, 3, 4, 4) }\n'
            '}\n'
        )
        spec = prototxt.loads(text)
        assert spec.name == "demo"
        assert spec.layers[0].kwargs["shape"] == (1, 3, 4, 4)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(PrototxtError):
            prototxt.loads('layer { type: "Input" }')  # missing name
        with pytest.raises(PrototxtError):
            prototxt.loads("garbage ~~~")

    def test_duplicate_layer_rejected(self):
        text = (
            'layer { type: "Input" name: "a" top: "a" '
            'param { shape: (1, 2) } }\n'
        ) * 2
        with pytest.raises(PrototxtError):
            prototxt.loads(text)

    @settings(max_examples=20, deadline=None)
    @given(
        num_output=st.integers(1, 64),
        kernel=st.integers(1, 5),
        ratio=st.floats(min_value=0.0, max_value=0.875, width=32),
    )
    def test_kwargs_roundtrip_property(self, num_output, kernel, ratio):
        from repro.caffe.netspec import NetSpec

        spec = NetSpec("prop")
        data = spec.input("data", (1, 3, 8, 8))
        top = spec.conv("c", data, num_output, kernel=kernel,
                        pad=kernel // 2)
        spec.add("Dropout", "d", [top], ratio=float(ratio))
        back = prototxt.loads(prototxt.dumps(spec))
        assert back.layers[1].kwargs["num_output"] == num_output
        assert back.layers[2].kwargs["ratio"] == pytest.approx(ratio)


class TestTransforms:
    def make_batch(self, n=4, c=3, size=8, seed=0):
        rng = np.random.default_rng(seed)
        return Minibatch(
            rng.standard_normal((n, c, size, size)).astype(np.float32),
            rng.integers(0, 3, n),
        )

    def test_identity_by_default(self):
        transformer = Transformer()
        batch = self.make_batch()
        out = transformer.apply(batch)
        assert out is batch  # zero-copy no-op

    def test_scale_and_mean(self):
        transformer = Transformer(
            TransformParams(scale=2.0, mean_value=1.0)
        )
        batch = self.make_batch()
        out = transformer.apply(batch)
        np.testing.assert_allclose(
            out.images, (batch.images - 1.0) * 2.0, rtol=1e-6
        )

    def test_per_channel_mean(self):
        transformer = Transformer(
            TransformParams(mean_value=[1.0, 2.0, 3.0])
        )
        batch = self.make_batch()
        out = transformer.apply(batch)
        np.testing.assert_allclose(
            out.images[:, 2], batch.images[:, 2] - 3.0, rtol=1e-6
        )

    def test_mean_count_checked(self):
        transformer = Transformer(TransformParams(mean_value=[1.0, 2.0]))
        with pytest.raises(TransformError):
            transformer.apply(self.make_batch(c=3))

    def test_crop_train_vs_test(self):
        params = TransformParams(crop_size=4)
        batch = self.make_batch(size=8)
        train_out = Transformer(params, seed=1).apply(batch, train=True)
        test_out = Transformer(params, seed=1).apply(batch, train=False)
        assert train_out.images.shape == (4, 3, 4, 4)
        # Test-time crop is the deterministic centre window.
        np.testing.assert_array_equal(
            test_out.images, batch.images[:, :, 2:6, 2:6]
        )

    def test_crop_too_large_rejected(self):
        transformer = Transformer(TransformParams(crop_size=16))
        with pytest.raises(TransformError):
            transformer.apply(self.make_batch(size=8))

    def test_mirror_only_at_train_time(self):
        params = TransformParams(mirror=True)
        batch = self.make_batch(n=64)
        test_out = Transformer(params, seed=2).apply(batch, train=False)
        np.testing.assert_array_equal(test_out.images, batch.images)
        train_out = Transformer(params, seed=2).apply(batch, train=True)
        flipped = np.asarray([
            not np.array_equal(a, b)
            for a, b in zip(train_out.images, batch.images)
        ])
        # Roughly half the images flipped (Bernoulli 0.5 over 64).
        assert 10 < flipped.sum() < 54

    def test_deterministic_per_seed(self):
        params = TransformParams(mirror=True, crop_size=4)
        batch = self.make_batch(size=8)
        a = Transformer(params, seed=9).apply(batch)
        b = Transformer(params, seed=9).apply(batch)
        np.testing.assert_array_equal(a.images, b.images)

    def test_stream_wraps_iterator(self):
        params = TransformParams(crop_size=4)
        transformer = Transformer(params)
        batches = [self.make_batch(seed=s, size=8) for s in range(3)]
        out = list(transformer.stream(iter(batches)))
        assert len(out) == 3
        assert all(b.images.shape[-1] == 4 for b in out)

    def test_labels_preserved(self):
        transformer = Transformer(TransformParams(scale=0.5))
        batch = self.make_batch()
        out = transformer.apply(batch)
        np.testing.assert_array_equal(out.labels, batch.labels)

    def test_invalid_crop_size(self):
        with pytest.raises(ValueError):
            TransformParams(crop_size=-1)

