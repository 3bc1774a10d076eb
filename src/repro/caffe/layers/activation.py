"""Elementwise activation layers."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .base import Layer, register_layer


@register_layer("ReLU")
class ReLU(Layer):
    """Rectified linear unit, optionally leaky (Caffe ``negative_slope``)."""

    def __init__(self, name: str, negative_slope: float = 0.0) -> None:
        super().__init__(name)
        self.negative_slope = negative_slope

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        if self.negative_slope == 0.0:
            return [np.maximum(bottom, 0.0)]
        return [np.where(bottom > 0, bottom, self.negative_slope * bottom)]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        (bottom,) = bottoms
        if self.negative_slope == 0.0:
            # bool * float32: the mask is its own 1.0 / 0.0.
            return [top_diff * (bottom > 0)]
        grad = np.where(bottom > 0, 1.0, self.negative_slope).astype(
            np.float32
        )
        return [top_diff * grad]


@register_layer("Sigmoid")
class Sigmoid(Layer):
    """Logistic sigmoid."""

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        # Numerically stable split by sign.
        out = np.empty_like(bottom)
        positive = bottom >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-bottom[positive]))
        exp_x = np.exp(bottom[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        return [out]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        (top,) = tops
        return [top_diff * top * (1.0 - top)]


@register_layer("TanH")
class TanH(Layer):
    """Hyperbolic tangent."""

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        return [np.tanh(bottom)]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        (top,) = tops
        return [top_diff * (1.0 - top * top)]
