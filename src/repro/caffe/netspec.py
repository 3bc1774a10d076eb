"""Declarative network specs with allocation-free shape inference.

A :class:`NetSpec` is the stand-in for Caffe's prototxt: an ordered list of
:class:`LayerSpec` entries naming each layer's type, bottoms and tops.  The
same spec serves two purposes:

* :class:`repro.caffe.net.Net` instantiates it into a runnable network;
* :func:`infer` walks it *without allocating parameters*, producing every
  blob shape and the exact learnable-parameter count.  This is how the
  full-size Inception/ResNet/VGG graphs are sized for the performance model
  (VGG16's 138 M floats are never materialised).

Both go through :func:`walk` and ask each layer its own geometry rule, so
there is one copy of every layer's shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from .blob import Shape
from .layers.base import LAYER_REGISTRY, Layer, LayerError


@dataclass
class LayerSpec:
    """One layer entry: type, name, connectivity and constructor kwargs."""

    type_name: str
    name: str
    bottoms: List[str]
    tops: List[str]
    kwargs: Dict[str, object] = field(default_factory=dict)


class NetSpec:
    """Ordered, named collection of layer specs (a prototxt equivalent)."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self.layers: List[LayerSpec] = []
        self._layer_names: set = set()

    def add(
        self,
        type_name: str,
        name: str,
        bottoms: Sequence[str] = (),
        tops: Sequence[str] = (),
        **kwargs: object,
    ) -> List[str]:
        """Append a layer; returns its top blob names.

        Tops default to a single blob named after the layer.
        """
        if name in self._layer_names:
            raise LayerError(f"duplicate layer name {name!r}")
        top_list = list(tops) if tops else [name]
        self.layers.append(
            LayerSpec(type_name, name, list(bottoms), top_list, dict(kwargs))
        )
        self._layer_names.add(name)
        return top_list

    # -- sugar used by the model builders ---------------------------------

    def input(self, name: str, shape: Sequence[int]) -> str:
        return self.add("Input", name, shape=tuple(shape))[0]

    def conv(
        self,
        name: str,
        bottom: str,
        num_output: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        bias: bool = True,
    ) -> str:
        return self.add(
            "Convolution", name, [bottom],
            num_output=num_output, kernel=kernel, stride=stride, pad=pad,
            bias=bias,
        )[0]

    def relu(self, name: str, bottom: str) -> str:
        return self.add("ReLU", name, [bottom])[0]

    def conv_relu(
        self,
        name: str,
        bottom: str,
        num_output: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
    ) -> str:
        top = self.conv(name, bottom, num_output, kernel, stride, pad)
        return self.relu(f"{name}_relu", top)

    def conv_bn_relu(
        self,
        name: str,
        bottom: str,
        num_output: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
    ) -> str:
        top = self.conv(
            name, bottom, num_output, kernel, stride, pad, bias=False
        )
        top = self.add("BatchNorm", f"{name}_bn", [top])[0]
        return self.relu(f"{name}_relu", top)

    def pool(
        self,
        name: str,
        bottom: str,
        method: str = "max",
        kernel: int = 2,
        stride: int = 2,
        pad: int = 0,
        global_pool: bool = False,
        ceil: bool = True,
    ) -> str:
        return self.add(
            "Pooling", name, [bottom],
            method=method, kernel=kernel, stride=stride, pad=pad,
            global_pool=global_pool, ceil=ceil,
        )[0]

    def fc(
        self, name: str, bottom: str, num_output: int, bias: bool = True
    ) -> str:
        return self.add("InnerProduct", name, [bottom],
                        num_output=num_output, bias=bias)[0]

    def concat(self, name: str, bottoms: Sequence[str]) -> str:
        return self.add("Concat", name, list(bottoms))[0]

    def softmax_loss(
        self, name: str, logits: str, labels: str, loss_weight: float = 1.0
    ) -> str:
        return self.add(
            "SoftmaxWithLoss", name, [logits, labels],
            loss_weight=loss_weight,
        )[0]

    def accuracy(
        self, name: str, logits: str, labels: str, top_k: int = 1
    ) -> str:
        return self.add("Accuracy", name, [logits, labels], top_k=top_k)[0]


@dataclass
class InferenceResult:
    """Outcome of walking a spec without allocating its parameters."""

    blob_shapes: Dict[str, Shape]
    param_shapes: Dict[str, List[Shape]]  # layer name -> shapes

    @property
    def param_count(self) -> int:
        """Total learnable scalars in the network."""
        return sum(
            int(np.prod(shape))
            for shapes in self.param_shapes.values()
            for shape in shapes
        )

    @property
    def param_nbytes(self) -> int:
        """Model size in bytes at float32 (what SEASGD ships per exchange)."""
        return self.param_count * 4


def walk(
    spec: NetSpec,
    place: Callable[[LayerSpec, Layer, List[Shape]], List[Shape]],
) -> Dict[str, Shape]:
    """Instantiate each layer in spec order; return every blob's shape.

    ``place(layer_spec, layer, bottom_shapes)`` answers the layer's top
    shapes: :func:`infer` asks the layer's geometry rule, a
    :class:`~repro.caffe.net.Net` sets the layer up.  Either way a bad
    spec is a :class:`LayerError` naming the layer.
    """
    blob_shapes: Dict[str, Shape] = {}
    for layer_spec in spec.layers:
        try:
            cls = LAYER_REGISTRY[layer_spec.type_name]
        except KeyError:
            raise LayerError(
                f"unknown layer type {layer_spec.type_name!r}"
            ) from None
        try:
            layer = cls(layer_spec.name, **layer_spec.kwargs)
        except TypeError as exc:  # an unknown or missing kwarg
            raise LayerError(f"layer {layer_spec.name!r}: {exc}") from None
        try:
            bottoms = [blob_shapes[name] for name in layer_spec.bottoms]
        except KeyError as exc:
            raise LayerError(
                f"layer {layer_spec.name!r} consumes undefined blob {exc}"
            ) from None
        tops = place(layer_spec, layer, bottoms)
        if len(tops) != len(layer_spec.tops):
            raise LayerError(
                f"layer {layer_spec.name!r} declares {len(layer_spec.tops)} "
                f"tops but produces {len(tops)}"
            )
        blob_shapes.update(zip(layer_spec.tops, tops))
    return blob_shapes


def infer(spec: NetSpec) -> InferenceResult:
    """Shape-check a spec and count parameters without allocating them.

    Each layer answers through its own geometry rule
    (:meth:`~repro.caffe.layers.base.Layer.geometry`), the one ``Net``
    builds with, so ``infer`` accepts exactly the specs ``Net`` accepts.

    Raises:
        LayerError: On unknown layer types or kwargs, missing bottoms, or
            any geometry error the layers reject.
    """
    param_shapes: Dict[str, List[Shape]] = {}

    def place(layer_spec, layer, bottom_shapes):
        top_shapes, params = layer.geometry(bottom_shapes)
        param_shapes[layer_spec.name] = [param.shape for param in params]
        return top_shapes

    return InferenceResult(walk(spec, place), param_shapes)
