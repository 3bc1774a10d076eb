"""The spatial layer kernels against their per-cell reference loops.

``Pooling`` and ``im2col`` cost O(1) NumPy calls in the spatial extent.
Three things are pinned here:

* bit-identity with the position loops they replaced (kept in
  ``tests/helpers.py``): tops, argmax tie-breaks, NaN / inf handling and
  bottom gradients, over generated geometries;
* the call count itself, so a per-cell loop cannot come back unnoticed;
* shape inference and ``forward`` agreeing on windows that would start
  beyond the input.
"""

import gc
import sys

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from repro.caffe.layers import LayerError, Pooling, im2col

from .helpers import (
    reference_im2col,
    reference_pool_backward,
    reference_pool_forward,
)

#: Few distinct values, so windows are full of ties, and every special.
SPECIALS = np.array(
    [-np.inf, -2.0, -1.0, -0.0, 0.0, 1.0, 1.0, 2.0, 0.1, np.inf, np.nan]
)


def assert_bit_identical(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.flags.c_contiguous
    assert np.array_equal(actual, expected, equal_nan=True)
    if actual.dtype.kind == "f":
        # array_equal calls -0.0 and 0.0 equal; the bits are not.
        finite = ~np.isnan(expected)
        assert np.array_equal(
            np.signbit(actual)[finite], np.signbit(expected)[finite]
        )


def draw_array(rng, shape, dtype, tame):
    """Normal noise (``tame``) or a draw from :data:`SPECIALS`."""
    if tame:
        return rng.standard_normal(shape).astype(dtype)
    return rng.choice(SPECIALS, size=shape).astype(dtype)


@settings(max_examples=400, deadline=None)
@given(
    method=st.sampled_from(["max", "ave"]),
    kernel=st.integers(1, 5),
    stride=st.integers(1, 4),
    pad=st.integers(0, 4),
    ceil=st.booleans(),
    global_pool=st.booleans(),
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    dtype=st.sampled_from([np.float32, np.float64]),
    tame_bottom=st.booleans(),
    tame_diff=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_pooling_matches_position_loops(
    method, kernel, stride, pad, ceil, global_pool, n, c, h, w, dtype,
    tame_bottom, tame_diff, seed,
):
    assume(pad < kernel)
    layer = Pooling("p", method, kernel, stride, pad, global_pool, ceil)
    try:
        (top_shape,) = layer.setup([(n, c, h, w)], np.random.default_rng(0))
    except LayerError:
        reject()
    rng = np.random.default_rng(seed)
    bottom = draw_array(rng, (n, c, h, w), dtype, tame_bottom)
    top_diff = draw_array(rng, top_shape, dtype, tame_diff)

    with np.errstate(all="ignore"):  # inf - inf inside a mean
        want_top, want_argmax = reference_pool_forward(layer, bottom)
        want_diff = reference_pool_backward(
            layer, top_diff, bottom, want_argmax
        )
        (top,) = layer.forward([bottom], train=True)
        argmax = layer._argmax
        (bottom_diff,) = layer.backward([top_diff], [bottom], [top])

    assert top.shape == top_shape
    assert_bit_identical(top, want_top)
    if method == "max":
        assert_bit_identical(argmax, want_argmax)
    else:
        assert argmax is None
    assert_bit_identical(bottom_diff, want_diff)


def test_pooling_reads_a_non_contiguous_bottom():
    rng = np.random.default_rng(5)
    bottom = rng.standard_normal((2, 6, 9, 9)).astype(np.float32)[:, 1:4]
    assert not bottom.flags.c_contiguous
    for method in ("max", "ave"):
        layer = Pooling("p", method, kernel=3, stride=2)
        want_top, want_argmax = reference_pool_forward(layer, bottom)
        (top,) = layer.forward([bottom], train=True)
        assert_bit_identical(top, want_top)
        top_diff = rng.standard_normal(top.shape).astype(np.float32)
        want_diff = reference_pool_backward(
            layer, top_diff, bottom, want_argmax
        )
        (bottom_diff,) = layer.backward([top_diff], [bottom], [top])
        assert_bit_identical(bottom_diff, want_diff)


@settings(max_examples=200, deadline=None)
@given(
    kernel=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    pad=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    h=st.integers(1, 10),
    w=st.integers(1, 10),
    dtype=st.sampled_from([np.float32, np.float64]),
    tame=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_im2col_matches_np_pad_lowering(
    kernel, stride, pad, n, c, h, w, dtype, tame, seed
):
    assume(h + 2 * pad[0] >= kernel[0] and w + 2 * pad[1] >= kernel[1])
    images = draw_array(np.random.default_rng(seed), (n, c, h, w), dtype, tame)
    assert_bit_identical(
        im2col(images, kernel, stride, pad),
        reference_im2col(images, kernel, stride, pad),
    )


# --- shape inference agrees with forward --------------------------------


@pytest.mark.parametrize("method", ["max", "ave"])
def test_window_starting_beyond_an_unpadded_input_is_dropped(method):
    # kernel 1, stride 3 on 2x2: ceil mode's second window would start at
    # row 3 of a 2-row input.  It used to be promised by setup() and then
    # crash (max) or yield NaN (ave) in forward().
    layer = Pooling("p", method, kernel=1, stride=3, ceil=True)
    (shape,) = layer.setup([(2, 3, 2, 2)], np.random.default_rng(0))
    assert shape == (2, 3, 1, 1)
    bottom = np.random.default_rng(1).standard_normal(
        (2, 3, 2, 2)
    ).astype(np.float32)
    (top,) = layer.forward([bottom], train=True)
    assert top.shape == shape
    np.testing.assert_array_equal(top[:, :, 0, 0], bottom[:, :, 0, 0])
    (bottom_diff,) = layer.backward([np.ones_like(top)], [bottom], [top])
    want = np.zeros_like(bottom)
    want[:, :, 0, 0] = 1.0
    np.testing.assert_array_equal(bottom_diff, want)


# --- complexity guard ----------------------------------------------------


def count_c_calls(fn):
    """How many C-level functions ``fn`` calls (NumPy's wrappers included).

    ``fn`` runs once uncounted first: Python's ``issubclass`` caches and
    NumPy's lazy imports make a first call longer than every later one.
    The collector is off while counting: a collection that fires inside
    ``fn`` runs whatever ``gc.callbacks`` holds on this thread (hypothesis
    installs a timing hook there), and those C calls are not ``fn``'s.
    """
    fn()
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "c_call":
            calls += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


#: Geometries with one run of windows, with clipped ceil-mode edges, with
#: overlap, with padding, and a global pool.
GUARDED_POOLS = [
    dict(kernel=2, stride=2),
    dict(kernel=3, stride=2),
    dict(kernel=3, stride=1, pad=1),
    dict(kernel=3, stride=2, pad=1, ceil=False),
    dict(kernel=5, stride=3),
    dict(global_pool=True),
]


@pytest.mark.parametrize("method", ["max", "ave"])
@pytest.mark.parametrize("geometry", GUARDED_POOLS, ids=str)
def test_pooling_call_count_is_independent_of_spatial_extent(method, geometry):
    rng = np.random.default_rng(0)

    def c_calls(size):
        layer = Pooling("p", method, **geometry)
        bottom = rng.standard_normal((2, 3, size, size)).astype(np.float32)
        (shape,) = layer.setup([bottom.shape], rng)
        top_diff = rng.standard_normal(shape).astype(np.float32)

        def step():
            (top,) = layer.forward([bottom], train=True)
            layer.backward([top_diff], [bottom], [top])

        return count_c_calls(step)

    small, large = c_calls(6), c_calls(24)
    assert small > 0
    assert small == large


@pytest.mark.parametrize(
    "kernel, stride, pad",
    [(1, 1, 0), (3, 1, 1), (5, 2, 2), ((1, 7), 1, (0, 3))],
)
def test_im2col_call_count_is_independent_of_spatial_extent(
    kernel, stride, pad
):
    rng = np.random.default_rng(0)

    def c_calls(size):
        images = rng.standard_normal((2, 3, size, size)).astype(np.float32)
        return count_c_calls(lambda: im2col(images, kernel, stride, pad))

    small, large = c_calls(8), c_calls(24)
    assert small > 0
    assert small == large
