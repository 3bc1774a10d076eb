"""Layer interface for the NumPy Caffe substrate.

Layers follow Caffe's contract: ``setup`` infers top shapes and allocates
parameter blobs, ``forward`` maps bottom arrays to top arrays, ``backward``
maps top gradients to bottom gradients and *accumulates* parameter
gradients into each parameter blob's ``diff``.  ``backward`` may return
``None`` in place of the gradient of a bottom whose
:attr:`Layer.propagate_down` entry is false: nobody reads it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..blob import Blob, Shape


class LayerError(Exception):
    """A layer was configured or invoked inconsistently."""


class Layer:
    """Base class for all layers.

    Subclasses set :attr:`params` during :meth:`setup` if they learn
    anything.  ``phase`` is ``"train"`` or ``"test"``; layers that behave
    differently (dropout, batch-norm) consult it each forward call via the
    ``train`` argument.
    """

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

    def setup(
        self, bottom_shapes: Sequence[Shape], rng: np.random.Generator
    ) -> List[Shape]:
        """Validate bottoms, allocate params, and return top shapes."""
        raise NotImplementedError

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
        """Return bottom gradients; accumulate parameter gradients."""
        raise NotImplementedError

    def param_count(self) -> int:
        """Learnable scalar count (used for model-size accounting)."""
        return sum(p.count for p in self.params)

    def _register_param(
        self,
        blob: Blob,
        lr_mult: float = 1.0,
        decay_mult: float = 1.0,
    ) -> Blob:
        self.params.append(blob)
        self.lr_mults.append(lr_mult)
        self.decay_mults.append(decay_mult)
        return blob

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
