"""Shared test helpers: a direct SMB participant, built the way
``DistributedTrainingManager`` builds one, and the reference layer
kernels the vectorised ones are held bit-identical to."""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.caffe.layers.im2col import as_pair
from repro.core import TrainingEngine, make_exchange


def build_engine(rank, net, config, global_weights, batches,
                 **engine_kwargs):
    """A :class:`TrainingEngine` driving the strategy ``config`` selects."""
    return TrainingEngine(
        rank=rank,
        net=net,
        config=config,
        batches=batches,
        strategy=make_exchange(config, global_weights=global_weights),
        **engine_kwargs,
    )


# --- Reference layer kernels -------------------------------------------
#
# The per-cell position loops ``Pooling`` ran, and the ``np.pad`` plus
# strided-view lowering ``im2col`` ran, before both became O(1) NumPy calls
# in the spatial extent and then gathers through index tables.  They are
# the bit-identity oracles of ``tests/test_pooling_kernels.py``: slow,
# obviously right, never edited.


def reference_pool_forward(layer, bottom):
    """``(top, argmax)`` of ``layer`` over ``bottom``, one window at a time.

    ``argmax`` (max pooling only, else ``None``) holds positions in padded
    coordinates, as ``Pooling._argmax`` does.
    """
    n, c, h, w = bottom.shape
    out_h, out_w, kernel_h, kernel_w, stride, pad = layer._geometry(
        bottom.shape
    )
    is_max = layer.method == "max"
    if pad > 0:
        padded = np.full(
            (n, c, h + 2 * pad, w + 2 * pad),
            -np.inf if is_max else 0.0,
            dtype=bottom.dtype,
        )
        padded[:, :, pad:pad + h, pad:pad + w] = bottom
    else:
        padded = bottom

    top = np.empty((n, c, out_h, out_w), dtype=bottom.dtype)
    argmax = np.empty((n, c, out_h, out_w), dtype=np.int64) if is_max else None
    ph, pw = padded.shape[2], padded.shape[3]
    for oy in range(out_h):
        y0 = oy * stride
        y1 = min(y0 + kernel_h, ph)
        for ox in range(out_w):
            x0 = ox * stride
            x1 = min(x0 + kernel_w, pw)
            flat = padded[:, :, y0:y1, x0:x1].reshape(n, c, -1)
            if is_max:
                idx = flat.argmax(axis=2)
                top[:, :, oy, ox] = np.take_along_axis(
                    flat, idx[:, :, None], axis=2
                )[:, :, 0]
                win_w = x1 - x0
                local_y, local_x = idx // win_w, idx % win_w
                argmax[:, :, oy, ox] = (y0 + local_y) * pw + (x0 + local_x)
            else:
                top[:, :, oy, ox] = flat.mean(axis=2)
    return top, argmax


def reference_pool_backward(layer, top_diff, bottom, argmax):
    """Bottom gradient of ``layer``, one window at a time."""
    n, c, h, w = bottom.shape
    out_h, out_w, kernel_h, kernel_w, stride, pad = layer._geometry(
        bottom.shape
    )
    ph, pw = h + 2 * pad, w + 2 * pad
    padded_diff = np.zeros((n, c, ph * pw), dtype=np.float32)
    if layer.method == "max":
        flat_idx = argmax.reshape(n * c, -1)
        rows = np.repeat(np.arange(n * c)[:, None], flat_idx.shape[1], axis=1)
        np.add.at(
            padded_diff.reshape(n * c, ph * pw),
            (rows, flat_idx),
            top_diff.reshape(n * c, -1),
        )
        padded_diff_2d = padded_diff.reshape(n, c, ph, pw)
    else:
        padded_diff_2d = padded_diff.reshape(n, c, ph, pw)
        for oy in range(out_h):
            y0 = oy * stride
            y1 = min(y0 + kernel_h, ph)
            for ox in range(out_w):
                x0 = ox * stride
                x1 = min(x0 + kernel_w, pw)
                area = (y1 - y0) * (x1 - x0)
                padded_diff_2d[:, :, y0:y1, x0:x1] += (
                    top_diff[:, :, oy:oy + 1, ox:ox + 1] / area
                )
    if pad > 0:
        return padded_diff_2d[:, :, pad:pad + h, pad:pad + w].copy()
    return padded_diff_2d


def strided_im2col(images, kernel, stride):
    """Unpadded ``im2col`` through one strided view and its C-order copy."""
    kh, kw = as_pair(kernel)
    sh, sw = as_pair(stride)
    n, c, h, w = images.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
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


def reference_im2col(images, kernel, stride, pad):
    """``im2col`` with its padding done by ``np.pad``."""
    pad_h, pad_w = as_pair(pad)
    padded = np.pad(
        images, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)),
        mode="constant",
    )
    return strided_im2col(padded, kernel, stride)


# The lowering ``Convolution.backward`` ran before its two GEMMs: weight
# gradient by ``einsum``, bottom gradient by folding the weightᵀ GEMM's
# columns back with ``col2im``'s per-tap loop.  Oracle of
# ``tests/test_pooling_kernels.py``, held to within a stated bound rather
# than to the bit (the GEMMs sum in another order); never edited.


def col2im(columns, image_shape, kernel, stride, pad):
    """Fold GEMM columns back into images, summing overlaps.

    The adjoint of :func:`~repro.caffe.layers.im2col.im2col`.
    """
    kh, kw = as_pair(kernel)
    sh, sw = as_pair(stride)
    ph, pw = as_pair(pad)
    n, c, h, w = image_shape
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1

    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=columns.dtype)
    cols = columns.reshape(n, c, kh, kw, out_h, out_w)
    for ky in range(kh):
        y_end = ky + sh * out_h
        for kx in range(kw):
            x_end = kx + sw * out_w
            padded[:, :, ky:y_end:sh, kx:x_end:sw] += cols[:, :, ky, kx, :, :]
    if ph > 0 or pw > 0:
        return padded[:, :, ph:ph + h, pw:pw + w]
    return padded


def reference_conv_backward(layer, top_diff, bottom):
    """``(weight diff, bias diff, bottom diff)`` of conv ``layer``.

    The gradients one backward pass adds, from a zero start; the bias
    diff is ``None`` for a bias-free layer.
    """
    geometry = (layer.kernel, layer.stride, layer.pad)
    n = top_diff.shape[0]
    flat_diff = top_diff.reshape(n, layer.num_output, -1)
    columns = reference_im2col(bottom, *geometry)
    grad_w = np.einsum("nop,ncp->oc", flat_diff, columns)
    grad_b = flat_diff.sum(axis=(0, 2)) if layer.bias else None
    weight = layer.params[0].data.reshape(layer.num_output, -1)
    col_diff = np.matmul(weight.T, flat_diff)
    return (
        grad_w.reshape(layer.params[0].shape),
        grad_b,
        col2im(col_diff, bottom.shape, *geometry),
    )
