"""Layer interface for the NumPy Caffe substrate.

Layers follow Caffe's contract.  ``geometry`` is the layer's one shape
rule (Caffe's ``Reshape`` plus the param shapes): it validates the bottom
shapes and returns the top shapes and the learnable blobs the layer wants,
allocating nothing, so :func:`repro.caffe.netspec.infer` sizes a
138 M-parameter VGG16 from the same rule a :class:`~repro.caffe.net.Net`
builds it with.  ``setup`` runs the rule and allocates those blobs,
``forward`` maps bottom arrays to top arrays, ``backward`` maps top
gradients to bottom gradients and *writes* parameter gradients into
each parameter blob's ``diff`` (see :meth:`repro.caffe.net.Net.backward`).
``backward`` may return ``None`` in place of the gradient of a bottom
whose :attr:`Layer.propagate_down` entry is false: nobody reads it.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..blob import Blob, Shape


class LayerError(Exception):
    """A layer was configured or invoked inconsistently."""


class ParamDecl(NamedTuple):
    """One learnable blob a layer's geometry asks for.

    ``fill`` is a constant or a filler ``(shape, rng) -> array`` such as
    :func:`~repro.caffe.blob.xavier_fill`; it runs only at ``setup``.
    """

    name: str
    shape: Shape
    fill: Union[float, Callable[[Shape, np.random.Generator], np.ndarray]] = 0.0
    lr_mult: float = 1.0
    decay_mult: float = 1.0


#: A geometry rule's answer: top shapes and param declarations.
Geometry = Tuple[List[Shape], List[ParamDecl]]


class Layer:
    """Base class for all layers.

    A subclass states its geometry in :meth:`_reshape`; the default is
    Caffe's neuron layer (one top shaped like the bottom, nothing to
    learn).  ``phase`` is ``"train"`` or ``"test"``; layers that behave
    differently (dropout, batch-norm) consult it each forward call via the
    ``train`` argument.
    """

    #: Bottoms the layer takes (Caffe's ``ExactNumBottomBlobs``); ``None``
    #: leaves the count to the layer's own rule.
    num_bottoms: Optional[int] = 1
    #: Ranks the first bottom may have; ``None``: any.
    bottom_ranks: Optional[Tuple[int, ...]] = None

    def __init__(self, name: str) -> None:
        self.name = name
        self.params: List[Blob] = []
        #: Per-parameter learning-rate multipliers (Caffe's ``lr_mult``).
        self.lr_mults: List[float] = []
        #: Per-parameter weight-decay multipliers (Caffe's ``decay_mult``).
        self.decay_mults: List[float] = []
        #: Per bottom: does anybody read its gradient -- is anything
        #: learnable below it?  (Caffe's ``propagate_down``.)  ``Net``
        #: derives it from the graph at build time; empty -- a layer
        #: driven directly -- means every bottom.
        self.propagate_down: List[bool] = []

    def geometry(self, bottom_shapes: Sequence[Shape]) -> Geometry:
        """Validate the bottoms; return top shapes and param declarations.

        Allocation-free.  A wrong bottom count or rank is a
        :class:`LayerError` naming the layer, never an unpacking error.
        """
        kind = type(self).__name__
        count = len(bottom_shapes)
        if self.num_bottoms is not None and count != self.num_bottoms:
            raise LayerError(
                f"{self.name!r}: {kind} takes {self.num_bottoms} bottom(s), "
                f"got {count}"
            )
        if self.bottom_ranks is not None and bottom_shapes and (
            len(bottom_shapes[0]) not in self.bottom_ranks
        ):
            raise LayerError(
                f"{self.name!r}: {kind} needs a bottom of rank "
                f"{' or '.join(map(str, self.bottom_ranks))}, "
                f"got {tuple(bottom_shapes[0])}"
            )
        return self._reshape([tuple(shape) for shape in bottom_shapes])

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        return [bottom_shapes[0]], []

    def setup(
        self, bottom_shapes: Sequence[Shape], rng: np.random.Generator
    ) -> List[Shape]:
        """Run :meth:`geometry`, allocate its params in order; return tops."""
        top_shapes, decls = self.geometry(bottom_shapes)
        for decl in decls:
            if callable(decl.fill):
                data = decl.fill(decl.shape, rng)
            else:
                data = np.full(decl.shape, decl.fill, dtype=np.float32)
            self.params.append(
                Blob(decl.shape, f"{self.name}.{decl.name}", data)
            )
            self.lr_mults.append(decl.lr_mult)
            self.decay_mults.append(decl.decay_mult)
        return top_shapes

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        """Compute top arrays from bottom arrays."""
        raise NotImplementedError

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> Sequence[Optional[np.ndarray]]:
        """Return bottom gradients; write parameter gradients."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


#: Registry mapping layer type names (as used in net specs) to classes.
LAYER_REGISTRY: Dict[str, type] = {}


def register_layer(type_name: str):
    """Class decorator registering a layer under a spec type name."""

    def decorator(cls: type) -> type:
        if type_name in LAYER_REGISTRY:
            raise LayerError(f"duplicate layer type {type_name!r}")
        LAYER_REGISTRY[type_name] = cls
        cls.type_name = type_name
        return cls

    return decorator


def conv_output_dim(input_dim: int, kernel: int, stride: int, pad: int) -> int:
    """Caffe's convolution output-size formula."""
    out = (input_dim + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise LayerError(
            f"non-positive conv output: in={input_dim} k={kernel} "
            f"s={stride} p={pad}"
        )
    return out


def pool_output_dim(
    input_dim: int, kernel: int, stride: int, pad: int, ceil: bool = True
) -> int:
    """Caffe's pooling output-size formula (ceil mode by default)."""
    if ceil:
        out = int(np.ceil((input_dim + 2 * pad - kernel) / stride)) + 1
    else:
        out = (input_dim + 2 * pad - kernel) // stride + 1
    # A last window starting beyond the input (and its leading pad) would
    # be empty: drop it, as Caffe does.  Only ceil mode can produce one.
    if (out - 1) * stride >= input_dim + pad:
        out -= 1
    if out <= 0:
        raise LayerError(
            f"non-positive pool output: in={input_dim} k={kernel} "
            f"s={stride} p={pad}"
        )
    return out
