"""Max and average pooling layers (Caffe ceil-mode geometry).

Both directions cost a fixed number of NumPy calls whatever the spatial
extent, never one per cell.  Max pooling gathers every window with one
``take`` through an index table built once per geometry; average pooling
reads one strided view per run of equal-sized windows, so a clipped
window's mean sums its own cells.  Outputs, argmax tie-breaks, NaN
handling and gradients are bit-identical to the per-cell loops kept as
oracles in ``tests/helpers.py``.
"""

from __future__ import annotations

from itertools import product
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..blob import Shape
from .base import Geometry, Layer, LayerError, pool_output_dim, register_layer
from .im2col import gather_table


class PoolGeometry(NamedTuple):
    """Pooling geometry resolved against one bottom shape."""

    out_h: int
    out_w: int
    kernel_h: int
    kernel_w: int
    stride: int
    pad: int


def _window_runs(
    size: int, out: int, kernel: int, stride: int
) -> List[Tuple[int, int, int]]:
    """Split one axis's output cells into runs of equal window length.

    Returns ``(first cell, cell count, window length)`` triples.  Every
    window but the last fits inside ``size`` (``pool_output_dim``
    guarantees it), so there are at most two runs: the full windows and
    one window clipped at the far edge.
    """
    last = min(kernel, size - (out - 1) * stride)
    if last == kernel:
        return [(0, out, kernel)]
    if out == 1:
        return [(0, 1, last)]
    return [(0, out - 1, kernel), (out - 1, 1, last)]


def _max_pool_cells(ph, pw, out_h, out_w, kernel_h, kernel_w, stride) -> np.ndarray:
    """``(out_h*out_w, kernel_h*kernel_w)``: each window's cells, row-major,
    as flat indices into one padded plane; a cell a ceil-clipped window
    lacks reads ``ph*pw``, the cell past the plane."""
    ys = (np.arange(out_h) * stride)[:, None] + np.arange(kernel_h)
    xs = (np.arange(out_w) * stride)[:, None] + np.arange(kernel_w)
    cells = (ys * pw)[:, None, :, None] + xs[:, None, :]
    inside = (ys < ph)[:, None, :, None] & (xs < pw)[:, None, :]
    return np.where(inside, cells, ph * pw).reshape(out_h * out_w, -1)


def _plane_offsets(n: int, c: int, plane: int) -> np.ndarray:
    """Start of each ``(n, c)`` plane in the flattened padded array."""
    return np.arange(0, n * c * plane, plane).reshape(n, c, 1, 1)


@register_layer("Pooling")
class Pooling(Layer):
    """Spatial pooling over square windows.

    Args:
        name: Layer name.
        method: ``"max"`` or ``"ave"``.
        kernel: Window side; ignored when ``global_pool`` is set.
        stride: Window stride.
        pad: Zero padding (average pooling counts padding into the mean,
            matching Caffe).
        global_pool: Pool the whole spatial extent to 1x1.
        ceil: Caffe's ceil-mode output size (default); ``False`` uses
            floor ("valid") semantics as TensorFlow-style Inception stems
            expect, so stride-2 pools align with stride-2 valid convs.
    """

    bottom_ranks = (4,)

    def __init__(
        self,
        name: str,
        method: str = "max",
        kernel: int = 2,
        stride: int = 2,
        pad: int = 0,
        global_pool: bool = False,
        ceil: bool = True,
    ) -> None:
        super().__init__(name)
        if method not in ("max", "ave"):
            raise LayerError(f"{name!r}: unknown pooling method {method!r}")
        if not global_pool and pad >= kernel:
            # Caffe's CHECK_LT(pad, kernel): a window wholly in the padding
            # would pool nothing but the fill value.
            raise LayerError(f"pad {pad} >= kernel {kernel} in {name!r}")
        self.method = method
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.global_pool = global_pool
        self.ceil = ceil
        self._argmax: Optional[np.ndarray] = None

    def _geometry(self, shape: Shape) -> PoolGeometry:
        _, _, h, w = shape
        if self.global_pool:
            return PoolGeometry(1, 1, h, w, 1, 0)  # one window: the plane
        out_h = pool_output_dim(h, self.kernel, self.stride, self.pad,
                                ceil=self.ceil)
        out_w = pool_output_dim(w, self.kernel, self.stride, self.pad,
                                ceil=self.ceil)
        return PoolGeometry(
            out_h, out_w, self.kernel, self.kernel, self.stride, self.pad
        )

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        (shape,) = bottom_shapes
        geo = self._geometry(shape)
        return [(shape[0], shape[1], geo.out_h, geo.out_w)], []

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        n, c, h, w = bottom.shape
        out_h, out_w, kernel_h, kernel_w, stride, pad = self._geometry(
            bottom.shape
        )
        ph, pw = h + 2 * pad, w + 2 * pad

        if self.method == "max":
            # Each (n, c) plane, padded with -inf and extended by one -inf
            # cell that the clipped windows' missing cells read.  A
            # window's first cell is always real, so that cell never wins
            # the first-wins argmax.
            planes = np.empty((n * c, ph * pw + 1), dtype=bottom.dtype)
            planes.fill(-np.inf)
            padded = planes[:, :-1].reshape(n, c, ph, pw)
            padded[:, :, pad:pad + h, pad:pad + w] = bottom
            table = gather_table(_max_pool_cells, ph, pw, out_h, out_w,
                                 kernel_h, kernel_w, stride)
            first = planes.take(table, axis=1).argmax(axis=2)
            first += np.arange(0, table.size, table.shape[1])
            self._argmax = table.take(first).reshape(n, c, out_h, out_w)
            return [planes.take(self._argmax + _plane_offsets(n, c, ph * pw + 1))]

        if pad > 0:
            padded = np.zeros((n, c, ph, pw), dtype=bottom.dtype)
            padded[:, :, pad:pad + h, pad:pad + w] = bottom
        else:
            padded = bottom

        # One pass per run of equal-sized windows: the full windows, plus
        # the ceil-mode windows clipped at the bottom / right / corner.
        # A mean sums each clipped window's own cells, in their own order.
        top = np.empty((n, c, out_h, out_w), dtype=bottom.dtype)
        stn, stc, sty, stx = padded.strides
        for (oy, rows, win_h), (ox, cols, win_w) in product(
            _window_runs(ph, out_h, kernel_h, stride),
            _window_runs(pw, out_w, kernel_w, stride),
        ):
            windows = as_strided(
                padded[:, :, oy * stride:, ox * stride:],
                shape=(n, c, rows, cols, win_h, win_w),
                strides=(stn, stc, sty * stride, stx * stride, sty, stx),
                writeable=False,
            )
            # The copy lays every window out row-major along the last
            # axis, so the summation order comes out as it does for a
            # window sliced out on its own.
            windows.reshape(n, c, rows, cols, win_h * win_w).mean(
                axis=4, out=top[:, :, oy:oy + rows, ox:ox + cols]
            )
        return [top]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        (bottom,) = bottoms
        n, c, h, w = bottom.shape
        out_h, out_w, kernel_h, kernel_w, stride, pad = self._geometry(
            bottom.shape
        )
        ph, pw = h + 2 * pad, w + 2 * pad

        if self.method == "max":
            if self._argmax is None:
                raise LayerError("backward before forward in max pooling")
            padded_diff = np.zeros((n, c, ph, pw), dtype=np.float32)
            # Overlapping windows (stride < kernel) can route two output
            # cells to the same input position; np.add.at accumulates
            # duplicates, in index order, where fancy assignment would
            # overwrite.
            np.add.at(
                padded_diff.reshape(-1),
                (self._argmax + _plane_offsets(n, c, ph * pw)).reshape(-1),
                top_diff.reshape(-1),
            )
            self._argmax = None
        else:
            # Window (oy, ox) covers rows oy*stride + ky, ky < kernel.
            # Cut ky into blocks of ``stride`` rows: within one block no
            # two windows meet, so a block is one sliced ``+=`` over every
            # window at once.  An input cell hears from each block once,
            # and from a higher block through an earlier window, so
            # walking the blocks downwards adds a cell's contributions in
            # the order a (oy, ox)-ascending walk over the windows would.
            # A lone window meets nobody: its whole kernel is one block.
            step_y = stride if out_h > 1 else kernel_h
            step_x = stride if out_w > 1 else kernel_w
            blocks_y = -(-kernel_h // step_y)
            blocks_x = -(-kernel_w // step_x)
            # Sized in whole steps: room for the clipped windows' overhang
            # and for the rows floor mode leaves uncovered.
            grid_h = max(out_h - 1 + blocks_y, -(-ph // step_y))
            grid_w = max(out_w - 1 + blocks_x, -(-pw // step_x))
            padded_diff = np.zeros(
                (n, c, grid_h * step_y, grid_w * step_x), dtype=np.float32
            )
            grid = padded_diff.reshape(n, c, grid_h, step_y, grid_w, step_x)

            area = np.empty((out_h, out_w), dtype=np.float32)
            for (oy, rows, win_h), (ox, cols, win_w) in product(
                _window_runs(ph, out_h, kernel_h, stride),
                _window_runs(pw, out_w, kernel_w, stride),
            ):
                area[oy:oy + rows, ox:ox + cols] = win_h * win_w
            share = (top_diff / area)[:, :, :, None, :, None]
            for by, bx in product(
                reversed(range(blocks_y)), reversed(range(blocks_x))
            ):
                block_h = min(step_y, kernel_h - by * step_y)
                block_w = min(step_x, kernel_w - bx * step_x)
                grid[:, :, by:by + out_h, :block_h,
                     bx:bx + out_w, :block_w] += share
        if padded_diff.shape == bottom.shape:
            return [padded_diff]
        return [padded_diff[:, :, pad:pad + h, pad:pad + w].copy()]
