"""The spatial layer kernels against their per-cell reference loops.

``Pooling`` and ``im2col`` cost O(1) NumPy calls in the spatial extent.
Seven things are pinned here:

* bit-identity with the position loops they replaced (kept in
  ``tests/helpers.py``): tops, argmax tie-breaks, NaN / inf handling and
  bottom gradients, over generated geometries;
* the call count itself, so a per-cell loop cannot come back unnoticed;
* shape inference and ``forward`` agreeing on windows that would start
  beyond the input;
* a global pool covering the whole plane whatever its aspect (oracle:
  NumPy's own ``mean`` / ``max`` over the plane, not ``_geometry``);
* the index tables the window ops gather through: built once per
  geometry whatever the batch, read-only, in a bounded cache; and a pool
  refusing a pad that is not below its kernel, as Caffe does;
* the work a net decides away at build time: a 1x1 ``Convolution`` is
  bit-identical to the general lowered path it skips, and a whole
  training step stays under its C-call budget;
* ``Convolution.backward``'s two GEMMs against the ``einsum`` /
  ``col2im`` lowering they replaced, within a stated bound.
"""

import gc
import sys

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from repro.caffe import Net, SGDSolver, SolverConfig
from repro.caffe.layers import Convolution, LayerError, Pooling, im2col
from repro.caffe.layers.conv import _backward_data_cells
from repro.caffe.layers.im2col import _im2col_cells, gather_table
from repro.caffe.layers.pooling import _max_pool_cells
from repro.caffe.models import scaled_spec

from .helpers import (
    reference_conv_backward,
    reference_im2col,
    reference_pool_backward,
    reference_pool_forward,
    strided_im2col,
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


# --- pad below kernel, tables built once per geometry --------------------


@pytest.mark.parametrize("method", ["max", "ave"])
def test_pooling_refuses_a_pad_that_is_not_below_its_kernel(method):
    # Caffe's CHECK_LT(pad, kernel).  A 2x2/2 pool padded by 2 on a 4x4
    # bottom used to pool windows lying wholly in the padding: a first row
    # and column of -inf (max) or 0 (ave) for every later layer to eat.
    for kernel, pad in ((2, 2), (3, 4), (1, 1)):
        with pytest.raises(LayerError):
            Pooling("p", method, kernel=kernel, stride=2, pad=pad)
    Pooling("p", method, kernel=3, stride=2, pad=2)
    Pooling("p", method, global_pool=True)


@pytest.mark.parametrize(
    "build, geometry",
    [
        (_im2col_cells, (2, 5, 4, (3, 2), (1, 2), (1, 0))),
        (_backward_data_cells, (3, 3, 2, 5, 4, (3, 2), (2, 2), (1, 0))),
        (_max_pool_cells, (6, 6, 3, 3, 3, 3, 2)),
    ],
    ids=["im2col", "backward-data", "max pool"],
)
def test_a_table_is_built_once_and_read_only(build, geometry):
    table = gather_table(build, *geometry)
    assert gather_table(build, *geometry) is table
    assert table.dtype == np.intp
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[...] = 0


@pytest.mark.parametrize(
    "op, tables", [("im2col", 1), ("conv", 2), ("max pool", 1)]
)
def test_one_table_serves_every_batch_size(op, tables):
    # A geometry no other test draws, so the first batch builds the tables
    # (conv: the forward lowering and backward-data) and the second finds
    # them.
    rng = np.random.default_rng(3)

    def run(n):
        bottom = rng.standard_normal((n, 2, 17, 19)).astype(np.float32)
        if op == "im2col":
            columns = im2col(bottom, (3, 2), (2, 1), (1, 0))
            want = reference_im2col(bottom, (3, 2), (2, 1), (1, 0))
            assert_bit_identical(columns, want)
            return
        if op == "conv":
            layer = Convolution("c", 3, (2, 3), (1, 2), (0, 1))
        else:
            layer = Pooling("p", "max", kernel=3, stride=2, pad=1)
        (shape,) = layer.setup([bottom.shape], rng)
        (top,) = layer.forward([bottom], train=True)
        layer.backward([np.ones(shape, np.float32)], [bottom], [top])

    misses = gather_table.cache_info().misses
    run(1)
    assert gather_table.cache_info().misses == misses + tables
    run(4)
    assert gather_table.cache_info().misses == misses + tables


def test_the_table_cache_is_bounded():
    maxsize = gather_table.cache_parameters()["maxsize"]
    assert maxsize is not None
    for w in range(1, maxsize + 9):
        gather_table(_im2col_cells, 1, 1, w, 1, 1, 0)
    assert gather_table.cache_info().currsize == maxsize


@pytest.mark.parametrize("h, w", [(2, 5), (5, 2), (3, 7)])
def test_global_max_pool_gathers_the_plane_as_one_window(h, w):
    rng = np.random.default_rng(11)
    bottom = draw_array(rng, (2, 3, h, w), np.float32, tame=False)
    layer = Pooling("p", "max", global_pool=True)
    layer.setup([bottom.shape], rng)
    want_top, want_argmax = reference_pool_forward(layer, bottom)
    layer.forward([bottom], train=True)
    hits = gather_table.cache_info().hits
    (top,) = layer.forward([bottom], train=True)
    assert gather_table.cache_info().hits == hits + 1
    assert_bit_identical(top, want_top)
    assert_bit_identical(layer._argmax, want_argmax)
    table = gather_table(_max_pool_cells, h, w, 1, 1, h, w, 1)
    np.testing.assert_array_equal(table, np.arange(h * w)[None])


# --- a 1x1 convolution is not lowered ------------------------------------


def lowered_conv(layer, bottom, top_diff):
    """``layer`` forward + backward through the general, lowered path.

    ``Convolution``'s path for every geometry, spelt out with the
    strided-view lowering of ``tests/helpers.py`` (never production's
    ``im2col``): the top and the weight gradient are GEMMs on its columns;
    the bottom gradient is a stride-1 correlation of the zero-stuffed top
    diff with the flipped, ``(C, O)``-transposed filter.
    What a 1x1 layer must equal to the bit without running it.  Returns
    ``(top, weight diff, bias diff, bottom diff)``.
    """
    (kh, kw), (sh, sw), (ph, pw) = layer.kernel, layer.stride, layer.pad
    n, c, h, w = bottom.shape
    o = layer.num_output
    weight = layer.params[0].data
    columns = reference_im2col(bottom, layer.kernel, layer.stride, layer.pad)
    top = np.matmul(weight.reshape(o, -1), columns)
    top += layer.params[1].data[None, :, None]
    flat_diff = top_diff.reshape(top.shape)
    grad_w = np.matmul(flat_diff, columns.transpose(0, 2, 1)).sum(axis=0)
    # Stuff in padded coordinates, then keep the rows and columns the
    # unpadded bottom's correlation reads.
    out_h, out_w = top_diff.shape[2:]
    stuffed = np.zeros(
        (n, o, h + 2 * ph + kh - 1, w + 2 * pw + kw - 1), np.float32
    )
    stuffed[:, :, kh - 1:kh - 1 + out_h * sh:sh,
            kw - 1:kw - 1 + out_w * sw:sw] = top_diff
    stuffed = stuffed[:, :, ph:ph + h + kh - 1, pw:pw + w + kw - 1]
    flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    bottom_diff = np.matmul(
        flipped.reshape(c, -1), strided_im2col(stuffed, (kh, kw), 1)
    )
    return (
        top.reshape(top_diff.shape),
        np.zeros_like(grad_w) + grad_w,
        np.zeros(o, np.float32) + flat_diff.sum(axis=(0, 2)),
        bottom_diff.reshape(bottom.shape),
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


#: ``Convolution.backward`` against ``reference_conv_backward`` (the
#: ``einsum`` + ``col2im`` lowering it replaced): ``|got - ref|`` is at
#: most this many float32 eps times the largest entry of the same
#: reduction over absolute values, ``|top diff|`` x ``|bottom|`` /
#: ``|weight|`` -- the scale a sum's rounding error lives on.  Measured
#: worst case over 80 000 draws of the space below: 2.07 (weights 1.84,
#: bottom 2.07, bias 0).  ``max|ref|`` itself is no scale: one 1x1
#: weight whose 96 O(1) products cancel to 0.017 sits at 557 eps of it.
CONV_BACKWARD_EPS = 8


@settings(max_examples=300, deadline=None)
@given(
    kernel=st.one_of(
        st.tuples(st.integers(1, 7), st.integers(1, 7)),
        st.sampled_from([(1, 7), (7, 1)]),
    ),
    stride=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    pad=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    layout=st.sampled_from(["contiguous", "channel slice", "transposed"]),
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    num_output=st.integers(1, 4),
    propagate=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_conv_backward_matches_the_col2im_lowering_within_its_bound(
    kernel, stride, pad, layout, n, c, h, w, num_output, propagate, seed
):
    assume(h + 2 * pad[0] >= kernel[0] and w + 2 * pad[1] >= kernel[1])
    rng = np.random.default_rng(seed)
    bottom = draw_bottom(layout, rng, n, c, h, w)
    layer = Convolution("c", num_output, kernel, stride, pad)
    (top_shape,) = layer.setup([bottom.shape], rng)
    if not propagate:
        layer.propagate_down = [False]
    top_diff = rng.standard_normal(top_shape).astype(np.float32)
    want = reference_conv_backward(layer, top_diff, bottom)
    magnitude = Convolution("m", num_output, kernel, stride, pad)
    magnitude.setup([bottom.shape], rng)
    magnitude.params[0].data[...] = np.abs(layer.params[0].data)
    scales = reference_conv_backward(
        magnitude, np.abs(top_diff), np.abs(bottom)
    )

    (top,) = layer.forward([bottom], train=True)
    (bottom_diff,) = layer.backward([top_diff], [bottom], [top])
    weight, bias = layer.params
    got = (weight.diff, bias.diff, bottom_diff)
    if not propagate:
        assert bottom_diff is None
        got, want, scales = got[:2], want[:2], scales[:2]
    for actual, expected, scale in zip(got, want, scales):
        assert actual.shape == expected.shape
        assert actual.dtype == np.float32
        assert actual.flags.c_contiguous
        bound = CONV_BACKWARD_EPS * np.finfo(np.float32).eps * scale.max()
        assert np.abs(actual - expected).max() <= bound


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
    # 21 when the layer went through im2col / col2im, 11 while the weight
    # gradient was one ``einsum``; its batched GEMM adds a ``transpose``
    # and a ``sum`` (``matmul`` and ``+=`` are slots, not C calls: no
    # side counts them): 13; 11 since both sums call ``np.add.reduce``,
    # which ``ndarray.sum`` reached through a second call.
    assert len(names) == 11
    # ``as_strided`` is Python; ``array`` / ``asarray`` are its C calls.
    assert not {"array", "asarray", "ascontiguousarray", "zeros"} & set(names)


def test_conv_training_step_stays_under_its_call_budget():
    # The benchmark's conv net (``conv_spec()``): 542 C calls a step when
    # every convolution was lowered, ReLU's gradient took four calls and
    # conv1 computed a data gradient nobody reads; 443 after that; 505
    # since backward became two GEMMs, while the step got ~20 % faster;
    # 412 since im2col, backward-data and max pooling are one gather
    # each through a table built once per geometry.
    # Slot operations (``matmul``, ``+=``, indexing) are invisible to
    # this count: ``col2im``'s 9-25 strided ``+=`` a layer never showed
    # up in it, so it bounds Python-level calls, not work.
    net = Net(scaled_spec("inception_v1", batch_size=10, image_size=12), seed=0)
    solver = SGDSolver(net, SolverConfig(base_lr=0.05, momentum=0.9))
    rng = np.random.default_rng(0)
    inputs = {
        "data": rng.standard_normal((10, 3, 12, 12)).astype(np.float32),
        "label": rng.integers(0, 10, 10),
    }
    assert count_c_calls(lambda: solver.step(inputs)) <= 420
