"""The spatial layer kernels against their per-cell reference loops.

``Pooling`` and ``im2col`` cost O(1) NumPy calls in the spatial extent.
Five things are pinned here:

* bit-identity with the position loops they replaced (kept in
  ``tests/helpers.py``): tops, argmax tie-breaks, NaN / inf handling and
  bottom gradients, over generated geometries;
* the call count itself, so a per-cell loop cannot come back unnoticed;
* shape inference and ``forward`` agreeing on windows that would start
  beyond the input;
* a global pool covering the whole plane whatever its aspect (oracle:
  NumPy's own ``mean`` / ``max`` over the plane, not ``_geometry``);
* the work a net decides away at build time: a 1x1 ``Convolution`` is
  bit-identical to the ``im2col`` / ``col2im`` lowering it skips, and a
  whole training step stays under its C-call budget.
"""

import gc
import sys

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from repro.caffe import Net, SGDSolver, SolverConfig
from repro.caffe.layers import Convolution, LayerError, Pooling, col2im, im2col
from repro.caffe.models import scaled_spec

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


# --- global pooling covers the plane, square or not ----------------------


@pytest.mark.parametrize("h, w", [(2, 5), (5, 2), (4, 4)])
def test_global_pool_covers_a_plane_of_any_aspect(h, w):
    # ``h`` used to be the kernel of both axes: with h < w only the first
    # h columns were pooled.
    rng = np.random.default_rng(7)
    bottom = rng.standard_normal((2, 3, h, w)).astype(np.float32)
    top_diff = rng.standard_normal((2, 3, 1, 1)).astype(np.float32)
    is_max = bottom == bottom.max(axis=(2, 3), keepdims=True)
    for method, want_top, want_diff in (
        ("ave", bottom.mean(axis=(2, 3)), np.broadcast_to(
            top_diff / np.float32(h * w), bottom.shape)),
        ("max", bottom.max(axis=(2, 3)), top_diff * is_max),
    ):
        layer = Pooling("p", method, global_pool=True)
        assert layer.setup([bottom.shape], rng) == [(2, 3, 1, 1)]
        (top,) = layer.forward([bottom], train=True)
        np.testing.assert_allclose(top[:, :, 0, 0], want_top, rtol=1e-6)
        (bottom_diff,) = layer.backward([top_diff], [bottom], [top])
        np.testing.assert_array_equal(bottom_diff, want_diff)


# --- a 1x1 convolution is not lowered ------------------------------------


def lowered_conv(layer, bottom, top_diff):
    """``layer`` forward + backward through ``im2col`` / ``col2im``.

    The general path of ``Convolution``, spelt out with the module
    functions: what a 1x1 layer must equal to the bit without running it.
    Returns ``(top, weight diff, bias diff, bottom diff)``.
    """
    geometry = (layer.kernel, layer.stride, layer.pad)
    weight = layer.params[0].data.reshape(layer.num_output, -1)
    columns = im2col(bottom, *geometry)
    top = np.matmul(weight, columns)
    top += layer.params[1].data[None, :, None]
    flat_diff = top_diff.reshape(top.shape)
    grad_w = np.einsum("nop,ncp->oc", flat_diff, columns)
    col_diff = np.matmul(weight.T, flat_diff)
    return (
        top.reshape(top_diff.shape),
        np.zeros_like(grad_w) + grad_w,
        np.zeros(layer.num_output, np.float32) + flat_diff.sum(axis=(0, 2)),
        col2im(col_diff, bottom.shape, *geometry),
    )


def draw_bottom(layout, rng, n, c, h, w):
    """A ``(n, c, h, w)`` float32 bottom laid out as ``layout`` says."""
    if layout == "contiguous":
        return rng.standard_normal((n, c, h, w)).astype(np.float32)
    if layout == "channel slice":  # one bottom's share of a Concat top
        return rng.standard_normal((n, c + 3, h, w)).astype(
            np.float32)[:, 1:c + 1]
    return rng.standard_normal((n, h, w, c)).astype(
        np.float32).transpose(0, 3, 1, 2)


@settings(max_examples=150, deadline=None)
@given(
    layout=st.sampled_from(["contiguous", "channel slice", "transposed"]),
    n=st.integers(1, 3),
    c=st.integers(1, 5),
    h=st.integers(1, 7),
    w=st.integers(1, 7),
    num_output=st.integers(1, 6),
    masked=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_1x1_convolution_matches_the_lowering_it_skips(
    layout, n, c, h, w, num_output, masked, seed
):
    rng = np.random.default_rng(seed)
    bottom = draw_bottom(layout, rng, n, c, h, w)
    layer = Convolution("c", num_output, kernel=1)
    assert layer.is_1x1
    (top_shape,) = layer.setup([bottom.shape], rng)
    layer.params[1].data[...] = rng.standard_normal(num_output)
    top_diff = rng.standard_normal(top_shape).astype(np.float32)
    if masked:  # as a ReLU above hands it down: half of it 0.0 and -0.0
        top_diff *= rng.random(top_shape) < 0.5
    want = lowered_conv(layer, bottom, top_diff)

    (top,) = layer.forward([bottom], train=True)
    (bottom_diff,) = layer.backward([top_diff], [bottom], [top])
    weight, bias = layer.params
    got = (top, weight.diff.reshape(num_output, c), bias.diff, bottom_diff)
    for actual, expected in zip(got, want):
        assert_bit_identical(actual, expected)


@pytest.mark.parametrize(
    "kernel, stride, pad", [(3, 1, 1), (1, 2, 0), (1, 1, 1), ((1, 3), 1, 0)]
)
def test_only_a_true_1x1_geometry_skips_the_lowering(kernel, stride, pad):
    assert not Convolution("c", 4, kernel, stride, pad).is_1x1


# --- complexity guard ----------------------------------------------------


def c_call_names(fn):
    """Names of the C-level functions ``fn`` calls (NumPy's wrappers too).

    ``fn`` runs once unobserved first: Python's ``issubclass`` caches and
    NumPy's lazy imports make a first call longer than every later one.
    The collector is off while observing: a collection that fires inside
    ``fn`` runs whatever ``gc.callbacks`` holds on this thread (hypothesis
    installs a timing hook there), and those C calls are not ``fn``'s.
    """
    fn()
    names = []

    def profiler(frame, event, arg):
        if event == "c_call":
            names.append(arg.__name__)

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
    return names


def count_c_calls(fn):
    """How many C-level functions ``fn`` calls."""
    return len(c_call_names(fn))


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


def test_1x1_convolution_makes_no_lowering_calls():
    rng = np.random.default_rng(0)
    bottom = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    layer = Convolution("c", 4, kernel=1)
    (shape,) = layer.setup([bottom.shape], rng)
    top_diff = rng.standard_normal(shape).astype(np.float32)

    def step():
        (top,) = layer.forward([bottom], train=True)
        layer.backward([top_diff], [bottom], [top])

    names = c_call_names(step)
    # 21 when the layer went through im2col / col2im (``matmul`` and
    # ``+=`` are slots, not C calls: neither side counts them).
    assert len(names) == 11
    # ``as_strided`` is Python; ``array`` / ``asarray`` are its C calls.
    assert not {"array", "asarray", "ascontiguousarray", "zeros"} & set(names)


def test_conv_training_step_stays_under_its_call_budget():
    # The benchmark's conv net (``conv_spec()``): 542 C calls a step when
    # every convolution was lowered, ReLU's gradient took four calls and
    # conv1 computed a data gradient nobody reads; 443 since.
    net = Net(scaled_spec("inception_v1", batch_size=10, image_size=12), seed=0)
    solver = SGDSolver(net, SolverConfig(base_lr=0.05, momentum=0.9))
    rng = np.random.default_rng(0)
    inputs = {
        "data": rng.standard_normal((10, 3, 12, 12)).astype(np.float32),
        "label": rng.integers(0, 10, 10),
    }
    assert count_c_calls(lambda: solver.step(inputs)) <= 450
