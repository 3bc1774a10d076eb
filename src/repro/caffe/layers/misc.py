"""Additional Caffe layers: Scale, Softmax, Power.

These round out the substrate to Caffe's commonly used layer set:
``Scale`` is the learned-affine half Caffe pairs with its BatchNorm (our
BatchNorm fuses it, but standalone Scale appears in many prototxts),
``Softmax`` is the inference-time probability head, and ``Power``
implements Caffe's ``(shift + scale * x) ^ power`` element-wise map.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..blob import Shape
from .base import Geometry, Layer, LayerError, ParamDecl, register_layer
from .loss import softmax as _softmax


@register_layer("Scale")
class Scale(Layer):
    """Learned per-channel ``y = gamma * x (+ beta)`` (Caffe Scale layer)."""

    def __init__(self, name: str, bias: bool = True) -> None:
        super().__init__(name)
        self.bias = bias

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        (shape,) = bottom_shapes
        if len(shape) < 2:
            raise LayerError(f"{self.name!r}: Scale needs >= 2 dims")
        params = [ParamDecl("gamma", shape[1:2], fill=1.0, decay_mult=0.0)]
        if self.bias:
            params.append(ParamDecl("beta", shape[1:2], decay_mult=0.0))
        return [shape], params

    def _expand(self, vector: np.ndarray, ndim: int) -> np.ndarray:
        return vector.reshape((1, -1) + (1,) * (ndim - 2))

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        out = bottom * self._expand(self.params[0].data, bottom.ndim)
        if self.bias:
            out = out + self._expand(self.params[1].data, bottom.ndim)
        return [out.astype(np.float32)]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        (bottom,) = bottoms
        axes = tuple(a for a in range(bottom.ndim) if a != 1)
        np.add.reduce(top_diff * bottom, axis=axes, out=self.params[0].diff)
        if self.bias:
            np.add.reduce(top_diff, axis=axes, out=self.params[1].diff)
        return [
            top_diff * self._expand(self.params[0].data, bottom.ndim)
        ]


@register_layer("Softmax")
class Softmax(Layer):
    """Probabilities over the last axis (inference head, no loss)."""

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        return [_softmax(bottom)]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        (top,) = tops
        # dL/dx_i = p_i * (g_i - sum_j g_j p_j)
        dot = (top_diff * top).sum(axis=-1, keepdims=True)
        return [(top * (top_diff - dot)).astype(np.float32)]


@register_layer("Power")
class Power(Layer):
    """Caffe's Power layer: ``y = (shift + scale * x) ^ power``."""

    def __init__(
        self,
        name: str,
        power: float = 1.0,
        scale: float = 1.0,
        shift: float = 0.0,
    ) -> None:
        super().__init__(name)
        self.power = power
        self.scale = scale
        self.shift = shift
        self._base: Optional[np.ndarray] = None

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        base = self.shift + self.scale * bottom
        self._base = base
        if self.power == 1.0:
            return [base.astype(np.float32)]
        return [np.power(base, self.power).astype(np.float32)]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        if self._base is None:
            raise LayerError("backward before forward in Power")
        base = self._base
        self._base = None
        if self.power == 1.0:
            grad = np.full_like(base, self.scale)
        else:
            grad = (
                self.power * self.scale
                * np.power(base, self.power - 1.0)
            )
        return [(top_diff * grad).astype(np.float32)]
