"""im2col: the lowering Caffe uses to turn convolution into GEMM.

Kernels, strides and paddings are ``(height, width)`` pairs so asymmetric
factorised convolutions (1x7, 7x1 in Inception-ResNet-v2) are supported.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

IntPair = Tuple[int, int]


def as_pair(value: Union[int, IntPair]) -> IntPair:
    """Normalise an int-or-pair geometry argument to ``(h, w)``."""
    if isinstance(value, int):
        return value, value
    h, w = value
    return int(h), int(w)


def im2col(
    images: np.ndarray,
    kernel: Union[int, IntPair],
    stride: Union[int, IntPair],
    pad: Union[int, IntPair],
) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` images into GEMM columns.

    Returns an array of shape ``(N, C * kh * kw, out_h * out_w)`` where each
    column holds one receptive field.
    """
    kh, kw = as_pair(kernel)
    sh, sw = as_pair(stride)
    ph, pw = as_pair(pad)
    n, c, h, w = images.shape
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1

    if ph > 0 or pw > 0:
        # One zero buffer and one slice assign: np.pad builds the same
        # array through a dozen calls of its own.
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=images.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = images
        images = padded

    # Strided view: (N, C, kh, kw, out_h, out_w) without copying.
    stn, stc, sth, stw = images.strides
    windows = as_strided(
        images,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(stn, stc, sth, stw, sth * sh, stw * sw),
        writeable=False,
    )
    return np.ascontiguousarray(windows).reshape(
        n, c * kh * kw, out_h * out_w
    )
