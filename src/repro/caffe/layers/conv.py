"""Convolution and inner-product (fully connected) layers."""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..blob import Shape, xavier_fill
from .base import (
    Geometry, Layer, LayerError, ParamDecl, conv_output_dim, register_layer,
)
from .im2col import as_pair, gather_table, im2col

IntPair = Tuple[int, int]


@register_layer("Convolution")
class Convolution(Layer):
    """2-D convolution lowered to GEMM via im2col, as BVLC Caffe does.

    A 1x1 / stride 1 / pad 0 kernel is not lowered at all: its columns
    *are* the bottom (Caffe's ``is_1x1_``), so both directions are a
    reshape around the GEMM.

    Args:
        name: Layer name.
        num_output: Output channels.
        kernel: Kernel side, or an ``(kh, kw)`` pair for asymmetric kernels
            (Inception-ResNet-v2's factorised 1x7 / 7x1 convolutions).
        stride: Stride, int or pair.
        pad: Zero padding, int or pair.
        bias: Learn an additive per-channel bias.
    """

    bottom_ranks = (4,)

    def __init__(
        self,
        name: str,
        num_output: int,
        kernel: Union[int, IntPair],
        stride: Union[int, IntPair] = 1,
        pad: Union[int, IntPair] = 0,
        bias: bool = True,
    ) -> None:
        super().__init__(name)
        self.kernel = as_pair(kernel)
        self.stride = as_pair(stride)
        self.pad = as_pair(pad)
        if (
            num_output <= 0
            or min(self.kernel) <= 0
            or min(self.stride) <= 0
            or min(self.pad) < 0
        ):
            raise LayerError(f"bad conv geometry in {name!r}")
        self.num_output = num_output
        self.bias = bias
        self.is_1x1 = (
            self.kernel == self.stride == (1, 1) and self.pad == (0, 0)
        )
        self._columns: np.ndarray | None = None

    def _lower(self, bottom: np.ndarray) -> np.ndarray:
        """``bottom`` as GEMM columns ``(N, C*kh*kw, out_h*out_w)``."""
        if self.is_1x1 and bottom.flags.c_contiguous:
            # A view.  (A strided bottom takes im2col's C-order copy: BLAS
            # rounds a transposed operand differently.)
            n, c, h, w = bottom.shape
            return bottom.reshape(n, c, h * w)
        return im2col(bottom, self.kernel, self.stride, self.pad)

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        ((n, c, h, w),) = bottom_shapes
        out_h, out_w = _out_hw(h, w, self.kernel, self.stride, self.pad)
        return [(n, self.num_output, out_h, out_w)], _weights_and_bias(
            (self.num_output, c) + self.kernel, self.bias
        )

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        n = bottom.shape[0]
        self._columns = self._lower(bottom)
        weight = self.params[0].data.reshape(self.num_output, -1)
        # (O, C*kh*kw) @ (N, C*kh*kw, HW) -> (N, O, HW)
        top = np.matmul(weight, self._columns)
        if self.bias:
            top += self.params[1].data[None, :, None]
        out_h, out_w = _out_hw(*bottom.shape[2:], self.kernel, self.stride, self.pad)
        return [top.reshape(n, self.num_output, out_h, out_w)]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[Optional[np.ndarray]]:
        (top_diff,) = top_diffs
        (bottom,) = bottoms
        n = top_diff.shape[0]
        flat_diff = top_diff.reshape(n, self.num_output, -1)

        if self._columns is None:
            self._columns = self._lower(bottom)
        # dW = sum_n top_diff @ columns^T: one batched GEMM, then a sum
        # (``np.add.reduce`` is what ``ndarray.sum`` calls, one frame later).
        grad_w = np.matmul(flat_diff, self._columns.transpose(0, 2, 1))
        np.add.reduce(grad_w, axis=0, out=self.params[0].diff.reshape(grad_w.shape[1:]))
        if self.bias:
            np.add.reduce(flat_diff, axis=(0, 2), out=self.params[1].diff)
        self._columns = None
        if self.propagate_down == [False]:
            return [None]

        weight = self.params[0].data
        if self.is_1x1:
            col_diff = np.matmul(weight.reshape(self.num_output, -1).T, flat_diff)
            return [col_diff.reshape(bottom.shape)]
        # dX as cuDNN's backward-data computes it: the top diff, zero-stuffed
        # into a buffer kernel - 1 larger than the unpadded bottom, correlated
        # at stride 1 with the flipped, (C, O)-transposed filter.  That
        # buffer's columns are one gather from the top diff extended by one
        # zero per image.
        n, c, h, w = bottom.shape
        table = gather_table(_backward_data_cells, self.num_output, *top_diff.shape[2:],
                             h, w, self.kernel, self.stride, self.pad)
        extended = np.zeros((n, top_diff.size // n + 1), top_diff.dtype)
        extended[:, :-1] = top_diff.reshape(n, -1)
        flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        bottom_diff = np.matmul(flipped, extended.take(table, axis=1))
        return [bottom_diff.reshape(bottom.shape)]


def _weights_and_bias(weight_shape: Shape, bias: bool) -> List[ParamDecl]:
    """A xavier-filled weight, then Caffe's zero bias at 2x lr, no decay."""
    params = [ParamDecl("weight", weight_shape, xavier_fill)]
    if bias:
        params.append(
            ParamDecl("bias", weight_shape[:1], lr_mult=2.0, decay_mult=0.0)
        )
    return params


@lru_cache(maxsize=256)
def _out_hw(h: int, w: int, kernel: IntPair, stride: IntPair, pad: IntPair) -> IntPair:
    return (
        conv_output_dim(h, kernel[0], stride[0], pad[0]),
        conv_output_dim(w, kernel[1], stride[1], pad[1]),
    )


def _backward_data_cells(o, out_h, out_w, h, w, kernel, stride, pad) -> np.ndarray:
    """``(O*kh*kw, h*w)``: each column of the stuffed top diff's stride-1
    lowering, as a flat index into one image's top diff.

    Top cell ``t`` sits at stuffed index ``t * stride + kernel - 1 - pad``.
    A cell that lands on stuffing or padding reads index ``O*out_h*out_w``,
    the zero each image is extended by.
    """
    def axis(out, size, k, s, p):
        top, off = np.divmod(np.arange(k)[:, None] + np.arange(size) + p - k + 1, s)
        return top, (off == 0) & (top >= 0) & (top < out)

    (ty, real_y), (tx, real_x) = map(axis, (out_h, out_w), (h, w), kernel, stride, pad)
    cells = (np.arange(o)[:, None, None, None, None] * (out_h * out_w)
             + (ty * out_w)[:, None, :, None] + tx[:, None, :])
    real = real_y[:, None, :, None] & real_x[:, None, :]
    return np.where(real, cells, o * out_h * out_w).reshape(-1, h * w)


@register_layer("InnerProduct")
class InnerProduct(Layer):
    """Fully connected layer: flattens the bottom and applies ``xW^T + b``."""

    def __init__(self, name: str, num_output: int, bias: bool = True) -> None:
        super().__init__(name)
        if num_output <= 0:
            raise LayerError(f"bad num_output in {name!r}")
        self.num_output = num_output
        self.bias = bias

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        ((n, *rest),) = bottom_shapes
        return [(n, self.num_output)], _weights_and_bias(
            (self.num_output, int(np.prod(rest))), self.bias
        )

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        flat = bottom.reshape(bottom.shape[0], -1)
        # ``W @ flat^T``, not ``flat @ W^T``: the same dot products, in the
        # operand order OpenBLAS's fast kernel takes at a small batch.
        top = np.ascontiguousarray(np.matmul(self.params[0].data, flat.T).T)
        if self.bias:
            top += self.params[1].data
        return [top]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[Optional[np.ndarray]]:
        (top_diff,) = top_diffs
        (bottom,) = bottoms
        flat = bottom.reshape(bottom.shape[0], -1)
        weight = self.params[0]
        np.matmul(top_diff.T, flat, out=weight.diff)
        if self.bias:
            np.add.reduce(top_diff, axis=0, out=self.params[1].diff)
        if self.propagate_down == [False]:
            return [None]
        bottom_diff = top_diff @ weight.data
        return [bottom_diff.reshape(bottom.shape)]
