"""im2col: the lowering Caffe uses to turn convolution into GEMM.

Kernels, strides and paddings are ``(height, width)`` pairs so asymmetric
factorised convolutions (1x7, 7x1 in Inception-ResNet-v2) are supported.

Every window operation on the conv path is one ``take`` through an index
table that depends only on geometry: :func:`gather_table` builds it once
and hands the same read-only array to every later call, whatever the
batch size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Tuple, Union

import numpy as np

IntPair = Tuple[int, int]


def as_pair(value: Union[int, IntPair]) -> IntPair:
    """Normalise an int-or-pair geometry argument to ``(h, w)``."""
    if isinstance(value, int):
        return value, value
    h, w = value
    return int(h), int(w)


@lru_cache(maxsize=256)
def gather_table(build: Callable[..., np.ndarray], *geometry) -> np.ndarray:
    """``build(*geometry)`` as a read-only ``intp`` table, built once.

    A table holds one image's worth of indices, so it is at most 1/N of
    the buffer its ``take`` fills.
    """
    table = build(*geometry).astype(np.intp)
    table.flags.writeable = False
    return table


def _im2col_cells(c, h, w, kernel, stride, pad) -> np.ndarray:
    """``(C*kh*kw, out_h*out_w)``: each column cell's flat index into one
    padded ``(C, H, W)`` image."""
    (kh, kw), (sh, sw), (ph, pw) = map(as_pair, (kernel, stride, pad))
    h, w = h + 2 * ph, w + 2 * pw
    ys = np.arange(kh)[:, None] + np.arange((h - kh) // sh + 1) * sh
    xs = np.arange(kw)[:, None] + np.arange((w - kw) // sw + 1) * sw
    cells = (np.arange(c)[:, None, None, None, None] * (h * w)
             + (ys * w)[:, None, :, None] + xs[:, None, :])
    return cells.reshape(c * kh * kw, -1)


def im2col(
    images: np.ndarray,
    kernel: Union[int, IntPair],
    stride: Union[int, IntPair],
    pad: Union[int, IntPair],
) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` images into GEMM columns.

    Returns a fresh C-contiguous array of shape
    ``(N, C * kh * kw, out_h * out_w)`` where each column holds one
    receptive field.
    """
    n, c, h, w = images.shape
    table = gather_table(_im2col_cells, c, h, w, kernel, stride, pad)
    ph, pw = as_pair(pad)
    if ph > 0 or pw > 0:
        # One zero buffer and one slice assign: np.pad builds the same
        # array through a dozen calls of its own.
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=images.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = images
        images = padded
    return images.reshape(n, -1).take(table, axis=1)
