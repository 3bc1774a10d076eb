"""Behavioural layer tests: exact outputs, modes, shape/config errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caffe.layers import (
    LRN,
    Accuracy,
    BatchNorm,
    Concat,
    Convolution,
    Dropout,
    Eltwise,
    InnerProduct,
    LayerError,
    Pooling,
    ReLU,
    Sigmoid,
    SoftmaxWithLoss,
    im2col,
    softmax,
)

from .helpers import col2im
from .test_pooling_kernels import assert_bit_identical

RNG = np.random.default_rng(3)


def setup_layer(layer, *bottom_shapes, seed=0):
    return layer.setup(list(bottom_shapes), np.random.default_rng(seed))


class TestIm2col:
    def test_known_unfold(self):
        image = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        cols = im2col(image, kernel=2, stride=2, pad=0)
        assert cols.shape == (1, 4, 4)
        np.testing.assert_array_equal(cols[0, :, 0], [0, 1, 4, 5])
        np.testing.assert_array_equal(cols[0, :, 3], [10, 11, 14, 15])

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint test).
        x = RNG.standard_normal((2, 3, 6, 6)).astype(np.float32)
        kernel, stride, pad = 3, 2, 1
        cols = im2col(x, kernel, stride, pad)
        y = RNG.standard_normal(cols.shape).astype(np.float32)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, kernel, stride, pad)).sum())
        assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-4

    def test_rectangular_geometry(self):
        x = np.zeros((1, 2, 5, 9), dtype=np.float32)
        cols = im2col(x, kernel=(1, 7), stride=1, pad=(0, 3))
        assert cols.shape == (1, 2 * 7, 5 * 9)


class TestConvolution:
    def test_identity_kernel(self):
        conv = Convolution("c", num_output=1, kernel=1, bias=False)
        setup_layer(conv, (1, 1, 3, 3))
        conv.params[0].data[:] = 2.0
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        (out,) = conv.forward([x], train=True)
        np.testing.assert_allclose(out, 2.0 * x)

    def test_bias_added_per_channel(self):
        conv = Convolution("c", num_output=2, kernel=1)
        setup_layer(conv, (1, 1, 2, 2))
        conv.params[0].data[:] = 0.0
        conv.params[1].data[:] = [3.0, -1.0]
        (out,) = conv.forward(
            [np.zeros((1, 1, 2, 2), dtype=np.float32)], train=True
        )
        np.testing.assert_allclose(out[0, 0], 3.0)
        np.testing.assert_allclose(out[0, 1], -1.0)

    def test_output_shape_with_stride_pad(self):
        conv = Convolution("c", num_output=8, kernel=7, stride=2, pad=3)
        (shape,) = setup_layer(conv, (4, 3, 224, 224))
        assert shape == (4, 8, 112, 112)

    def test_geometry_validation(self):
        with pytest.raises(LayerError):
            Convolution("c", num_output=0, kernel=3)
        with pytest.raises(LayerError):
            Convolution("c", num_output=4, kernel=3, pad=-1)

    def test_bias_lr_mult_doubled(self):
        # Caffe convention: bias learns at 2x LR, no weight decay.
        conv = Convolution("c", num_output=2, kernel=1)
        setup_layer(conv, (1, 1, 2, 2))
        assert conv.lr_mults == [1.0, 2.0]
        assert conv.decay_mults == [1.0, 0.0]


class TestPooling:
    def test_max_pool_values(self):
        pool = Pooling("p", method="max", kernel=2, stride=2)
        x = np.asarray(
            [[[[1, 2, 5, 0], [3, 4, 1, 1], [0, 0, 9, 2], [0, 0, 3, 4]]]],
            dtype=np.float32,
        )
        setup_layer(pool, x.shape)
        (out,) = pool.forward([x], train=True)
        np.testing.assert_array_equal(out[0, 0], [[4, 5], [0, 9]])

    def test_ave_pool_values(self):
        pool = Pooling("p", method="ave", kernel=2, stride=2)
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        setup_layer(pool, x.shape)
        (out,) = pool.forward([x], train=True)
        np.testing.assert_allclose(out, 1.0)

    def test_global_pool_shape(self):
        pool = Pooling("p", method="ave", global_pool=True)
        (shape,) = setup_layer(pool, (2, 5, 7, 7))
        assert shape == (2, 5, 1, 1)

    def test_global_ave_is_mean(self):
        pool = Pooling("p", method="ave", global_pool=True)
        x = RNG.standard_normal((2, 3, 4, 4)).astype(np.float32)
        setup_layer(pool, x.shape)
        (out,) = pool.forward([x], train=True)
        np.testing.assert_allclose(
            out[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=1e-5
        )

    def test_ceil_mode_shape(self):
        # Caffe's 3x3/s2 pooling on 7x7 yields 3x3 via ceil mode... on 8x8
        # it yields 4x4 (ceil((8-3)/2)+1 = 4).
        pool = Pooling("p", method="max", kernel=3, stride=2)
        (shape,) = setup_layer(pool, (1, 1, 8, 8))
        assert shape == (1, 1, 4, 4)

    def test_unknown_method(self):
        with pytest.raises(LayerError):
            Pooling("p", method="median")

    def test_max_backward_before_forward(self):
        pool = Pooling("p", method="max")
        setup_layer(pool, (1, 1, 4, 4))
        with pytest.raises(LayerError):
            pool.backward(
                [np.zeros((1, 1, 2, 2), dtype=np.float32)],
                [np.zeros((1, 1, 4, 4), dtype=np.float32)],
                [np.zeros((1, 1, 2, 2), dtype=np.float32)],
            )


class TestActivations:
    def test_relu_clamps(self):
        relu = ReLU("r")
        setup_layer(relu, (1, 3))
        (out,) = relu.forward(
            [np.asarray([[-1.0, 0.0, 2.0]], dtype=np.float32)], train=True
        )
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_relu_gradient_is_the_four_call_form_to_the_bit(self):
        # Every special against every special, in both operands.
        specials = np.array(
            [-np.inf, -2.0, -0.0, 0.0, 0.5, np.inf, np.nan], dtype=np.float32
        )
        bottom, top_diff = (
            np.ascontiguousarray(a) for a in np.meshgrid(specials, specials)
        )
        with np.errstate(invalid="ignore"):  # inf * 0
            (got,) = ReLU("r").backward([top_diff], [bottom], [None])
            want = top_diff * np.where(bottom > 0, 1.0, 0.0).astype(np.float32)
        assert got.dtype == np.float32
        assert_bit_identical(got, want)

    def test_sigmoid_extreme_inputs_stable(self):
        sig = Sigmoid("s")
        setup_layer(sig, (1, 2))
        (out,) = sig.forward(
            [np.asarray([[-500.0, 500.0]], dtype=np.float32)], train=True
        )
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-6)


class TestSoftmaxLoss:
    def test_softmax_rows_sum_to_one(self):
        logits = RNG.standard_normal((5, 7)).astype(np.float32)
        prob = softmax(logits)
        np.testing.assert_allclose(prob.sum(axis=1), 1.0, rtol=1e-5)

    def test_softmax_stable_for_huge_logits(self):
        prob = softmax(np.asarray([[1000.0, 0.0]], dtype=np.float32))
        assert np.isfinite(prob).all()

    def test_perfect_prediction_loss_near_zero(self):
        loss_layer = SoftmaxWithLoss("l")
        setup_layer(loss_layer, (2, 3), (2,))
        logits = np.asarray(
            [[100.0, 0, 0], [0, 100.0, 0]], dtype=np.float32
        )
        (loss,) = loss_layer.forward(
            [logits, np.asarray([0, 1])], train=True
        )
        assert loss[0] < 1e-5

    def test_uniform_prediction_loss_is_log_k(self):
        loss_layer = SoftmaxWithLoss("l")
        setup_layer(loss_layer, (4, 10), (4,))
        (loss,) = loss_layer.forward(
            [np.zeros((4, 10), dtype=np.float32), np.arange(4)], train=True
        )
        np.testing.assert_allclose(loss[0], np.log(10), rtol=1e-5)

    def test_loss_weight_scales_gradient(self):
        logits = RNG.standard_normal((3, 4)).astype(np.float32)
        labels = np.asarray([0, 1, 2])
        grads = {}
        for weight in (1.0, 0.3):
            layer = SoftmaxWithLoss("l", loss_weight=weight)
            setup_layer(layer, (3, 4), (3,))
            layer.forward([logits, labels], train=True)
            grads[weight], _ = layer.backward(
                [np.ones(1, dtype=np.float32)], [logits, labels], []
            )
        np.testing.assert_allclose(
            grads[0.3], 0.3 * grads[1.0], rtol=1e-5
        )

    def test_batch_mismatch_rejected(self):
        layer = SoftmaxWithLoss("l")
        with pytest.raises(LayerError):
            setup_layer(layer, (2, 3), (3,))


class TestAccuracy:
    def test_top1(self):
        accuracy = Accuracy("a", top_k=1)
        setup_layer(accuracy, (3, 4), (3,))
        logits = np.asarray(
            [[9, 0, 0, 0], [0, 9, 0, 0], [9, 0, 0, 0]], dtype=np.float32
        )
        (out,) = accuracy.forward(
            [logits, np.asarray([0, 1, 3])], train=False
        )
        np.testing.assert_allclose(out[0], 2 / 3)

    def test_top_k_hits_runner_up(self):
        accuracy = Accuracy("a", top_k=2)
        setup_layer(accuracy, (1, 4), (1,))
        logits = np.asarray([[5.0, 4.0, 0.0, 0.0]], dtype=np.float32)
        (out,) = accuracy.forward([logits, np.asarray([1])], train=False)
        assert out[0] == 1.0

    def test_top_k_exceeding_classes_rejected(self):
        accuracy = Accuracy("a", top_k=5)
        with pytest.raises(LayerError):
            setup_layer(accuracy, (1, 3), (1,))


class TestBatchNorm:
    def test_train_output_standardised(self):
        bn = BatchNorm("bn", affine=False)
        setup_layer(bn, (8, 4, 5, 5))
        x = RNG.standard_normal((8, 4, 5, 5)).astype(np.float32) * 3 + 7
        (out,) = bn.forward([x], train=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_converge(self):
        bn = BatchNorm("bn", affine=False, momentum=0.5)
        setup_layer(bn, (16, 2, 4, 4))
        for _ in range(20):
            x = RNG.standard_normal((16, 2, 4, 4)).astype(np.float32) + 5.0
            bn.forward([x], train=True)
        np.testing.assert_allclose(bn.running_mean, 5.0, atol=0.2)

    def test_test_mode_uses_running_stats(self):
        bn = BatchNorm("bn", affine=False, momentum=0.1)
        setup_layer(bn, (4, 2, 3, 3))
        for _ in range(30):
            bn.forward(
                [RNG.standard_normal((4, 2, 3, 3)).astype(np.float32)],
                train=True,
            )
        x = np.zeros((4, 2, 3, 3), dtype=np.float32)
        (out,) = bn.forward([x], train=False)
        # Zero input normalised by ~zero running mean stays near zero.
        assert np.abs(out).max() < 1.0

    def test_stats_are_lr0_params(self):
        bn = BatchNorm("bn")
        setup_layer(bn, (2, 3, 4, 4))
        assert len(bn.params) == 4  # gamma, beta, mean, var
        assert bn.lr_mults == [1.0, 1.0, 0.0, 0.0]

    def test_rank_validation(self):
        with pytest.raises(LayerError):
            setup_layer(BatchNorm("bn"), (2, 3, 4))


class TestDropout:
    def test_test_mode_identity(self):
        dropout = Dropout("d", ratio=0.5)
        setup_layer(dropout, (4, 100))
        x = RNG.standard_normal((4, 100)).astype(np.float32)
        (out,) = dropout.forward([x], train=False)
        np.testing.assert_array_equal(out, x)

    def test_train_mode_zeroes_and_rescales(self):
        dropout = Dropout("d", ratio=0.5)
        setup_layer(dropout, (10, 1000))
        x = np.ones((10, 1000), dtype=np.float32)
        (out,) = dropout.forward([x], train=True)
        zeros = (out == 0).mean()
        assert 0.4 < zeros < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted scaling

    def test_expected_value_preserved(self):
        dropout = Dropout("d", ratio=0.3)
        setup_layer(dropout, (100, 100))
        x = np.ones((100, 100), dtype=np.float32)
        (out,) = dropout.forward([x], train=True)
        assert abs(out.mean() - 1.0) < 0.05

    def test_backward_uses_same_mask(self):
        dropout = Dropout("d", ratio=0.5)
        setup_layer(dropout, (2, 50))
        x = np.ones((2, 50), dtype=np.float32)
        (out,) = dropout.forward([x], train=True)
        (grad,) = dropout.backward([np.ones_like(x)], [x], [out])
        np.testing.assert_array_equal(grad, out)

    def test_invalid_ratio(self):
        with pytest.raises(LayerError):
            Dropout("d", ratio=1.0)


class TestConcatEltwise:
    def test_concat_channels(self):
        concat = Concat("cat")
        shapes = setup_layer(concat, (2, 3, 4, 4), (2, 5, 4, 4))
        assert shapes[0] == (2, 8, 4, 4)

    def test_concat_backward_splits(self):
        concat = Concat("cat")
        setup_layer(concat, (1, 2, 2, 2), (1, 3, 2, 2))
        a = np.zeros((1, 2, 2, 2), dtype=np.float32)
        b = np.zeros((1, 3, 2, 2), dtype=np.float32)
        (top,) = concat.forward([a, b], train=True)
        diff = np.arange(top.size, dtype=np.float32).reshape(top.shape)
        da, db = concat.backward([diff], [a, b], [top])
        np.testing.assert_array_equal(da, diff[:, :2])
        np.testing.assert_array_equal(db, diff[:, 2:])

    def test_concat_spatial_mismatch_rejected(self):
        with pytest.raises(LayerError):
            setup_layer(Concat("cat"), (1, 2, 4, 4), (1, 2, 5, 5))

    def test_eltwise_coeff_sum(self):
        eltwise = Eltwise("e", operation="sum", coeffs=(0.5, 2.0))
        setup_layer(eltwise, (1, 2), (1, 2))
        a = np.asarray([[2.0, 4.0]], dtype=np.float32)
        b = np.asarray([[1.0, 1.0]], dtype=np.float32)
        (out,) = eltwise.forward([a, b], train=True)
        np.testing.assert_allclose(out, [[3.0, 4.0]])

    def test_eltwise_coeff_count_checked(self):
        eltwise = Eltwise("e", operation="sum", coeffs=(1.0,))
        with pytest.raises(LayerError):
            setup_layer(eltwise, (1, 2), (1, 2))

    def test_coeffs_require_sum(self):
        with pytest.raises(LayerError):
            Eltwise("e", operation="max", coeffs=(1.0, 1.0))


class TestLRN:
    def test_identity_when_alpha_zero(self):
        lrn = LRN("l", local_size=5, alpha=0.0, beta=0.75)
        setup_layer(lrn, (1, 8, 2, 2))
        x = RNG.standard_normal((1, 8, 2, 2)).astype(np.float32)
        (out,) = lrn.forward([x], train=True)
        np.testing.assert_allclose(out, x, rtol=1e-5)

    def test_window_sum_matches_naive(self):
        lrn = LRN("l", local_size=3, alpha=1.0, beta=1.0, k=0.0)
        setup_layer(lrn, (1, 4, 1, 1))
        x = np.asarray([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(
            1, 4, 1, 1
        )
        (out,) = lrn.forward([x], train=True)
        # scale_c = (alpha/n) * sum window of squares; b = x / scale
        squares = x.ravel() ** 2
        sums = [
            squares[0] + squares[1],
            squares[:3].sum(),
            squares[1:].sum(),
            squares[2] + squares[3],
        ]
        expected = x.ravel() / (np.asarray(sums) / 3.0)
        np.testing.assert_allclose(out.ravel(), expected, rtol=1e-5)

    def test_even_local_size_rejected(self):
        with pytest.raises(LayerError):
            LRN("l", local_size=4)


class TestInnerProduct:
    def test_known_matmul(self):
        ip = InnerProduct("fc", num_output=2)
        setup_layer(ip, (1, 3))
        ip.params[0].data[:] = [[1, 0, 0], [0, 1, 1]]
        ip.params[1].data[:] = [10, 20]
        (out,) = ip.forward(
            [np.asarray([[1.0, 2.0, 3.0]], dtype=np.float32)], train=True
        )
        np.testing.assert_allclose(out, [[11.0, 25.0]])

    def test_flattens_spatial_input(self):
        ip = InnerProduct("fc", num_output=4)
        (shape,) = setup_layer(ip, (2, 3, 5, 5))
        assert shape == (2, 4)
        assert ip.params[0].shape == (4, 75)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 4),
    c=st.integers(1, 4),
    size=st.integers(3, 10),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 2),
    pad=st.integers(0, 1),
)
def test_im2col_col2im_adjoint_property(n, c, size, kernel, stride, pad):
    """<im2col(x), y> == <x, col2im(y)> for arbitrary geometry."""
    if size + 2 * pad < kernel:
        return
    rng = np.random.default_rng(42)
    x = rng.standard_normal((n, c, size, size)).astype(np.float32)
    cols = im2col(x, kernel, stride, pad)
    y = rng.standard_normal(cols.shape).astype(np.float32)
    lhs = float((cols * y).sum())
    rhs = float((x * col2im(y, x.shape, kernel, stride, pad)).sum())
    assert abs(lhs - rhs) <= 1e-3 * max(abs(lhs), abs(rhs), 1.0)


class TestPoolingCeilMode:
    def test_floor_mode_shape(self):
        # 8x8, kernel 3, stride 2: ceil -> 4, floor ("valid") -> 3.
        ceil_pool = Pooling("p", method="max", kernel=3, stride=2)
        (ceil_shape,) = setup_layer(ceil_pool, (1, 1, 8, 8))
        floor_pool = Pooling("p", method="max", kernel=3, stride=2,
                             ceil=False)
        (floor_shape,) = setup_layer(floor_pool, (1, 1, 8, 8))
        assert ceil_shape == (1, 1, 4, 4)
        assert floor_shape == (1, 1, 3, 3)

    def test_modes_agree_when_divisible(self):
        for mode in (True, False):
            pool = Pooling("p", method="max", kernel=2, stride=2, ceil=mode)
            (shape,) = setup_layer(pool, (1, 1, 8, 8))
            assert shape == (1, 1, 4, 4)

    def test_floor_mode_forward_backward(self):
        pool = Pooling("p", method="max", kernel=3, stride=2, ceil=False)
        setup_layer(pool, (1, 1, 8, 8))
        x = RNG.standard_normal((1, 1, 8, 8)).astype(np.float32)
        (top,) = pool.forward([x], train=True)
        assert top.shape == (1, 1, 3, 3)
        (grad,) = pool.backward([np.ones_like(top)], [x], [top])
        assert grad.shape == x.shape
        # Every output cell routed its gradient to exactly one input.
        assert grad.sum() == pytest.approx(9.0)

    def test_floor_mode_aligns_with_valid_conv(self):
        # The Inception-ResNet stem invariant: a 3x3/2 valid conv and a
        # 3x3/2 floor pool produce identical spatial dims at any size.
        from repro.caffe.layers import conv_output_dim, pool_output_dim

        for size in range(5, 100):
            conv_out = conv_output_dim(size, 3, 2, 0)
            pool_out = pool_output_dim(size, 3, 2, 0, ceil=False)
            assert conv_out == pool_out
