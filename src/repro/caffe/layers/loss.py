"""Loss and metric layers.

``SoftmaxWithLoss`` fuses softmax and cross-entropy like Caffe does, both
for numerical stability and so the backward pass is the simple
``prob - onehot`` form.  ``Accuracy`` computes top-k accuracy and produces
no gradient (it is a metric, not a loss).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..blob import Shape
from .base import Geometry, Layer, LayerError, register_layer


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@register_layer("SoftmaxWithLoss")
class SoftmaxWithLoss(Layer):
    """Mean cross-entropy over a minibatch.

    Bottoms: ``(logits, labels)`` where logits are ``(N, K)`` and labels are
    integer class ids of shape ``(N,)``.  Top: scalar loss (shape ``(1,)``).

    Args:
        name: Layer name.
        loss_weight: Scale on the produced gradient (Caffe's ``loss_weight``;
            auxiliary Inception heads use 0.3).
    """

    num_bottoms = 2
    bottom_ranks = (2,)

    def __init__(self, name: str, loss_weight: float = 1.0) -> None:
        super().__init__(name)
        self.loss_weight = loss_weight
        self._prob: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        logits_shape, labels_shape = bottom_shapes
        if labels_shape[0] != logits_shape[0]:
            raise LayerError(
                f"{self.name!r}: batch mismatch {logits_shape} vs {labels_shape}"
            )
        return [(1,)], []

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        logits, labels = bottoms
        labels = labels.astype(np.int64).ravel()
        prob = softmax(logits)
        self._prob = prob
        self._labels = labels
        picked = prob[np.arange(len(labels)), labels]
        loss = -np.log(np.clip(picked, 1e-12, None)).mean()
        return [np.asarray([loss * self.loss_weight], dtype=np.float32)]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        if self._prob is None or self._labels is None:
            raise LayerError("backward before forward in SoftmaxWithLoss")
        scale = float(top_diffs[0].ravel()[0]) if len(top_diffs) else 1.0
        grad = self._prob.copy()
        grad[np.arange(len(self._labels)), self._labels] -= 1.0
        grad *= self.loss_weight * scale / len(self._labels)
        self._prob = None
        labels_diff = np.zeros_like(bottoms[1], dtype=np.float32)
        self._labels = None
        return [grad, labels_diff]


@register_layer("Accuracy")
class Accuracy(Layer):
    """Top-k classification accuracy (metric only; no gradient).

    The paper reports top-5 accuracy for Inception-v1 on ImageNet; scaled
    experiments report top-1 unless configured otherwise.
    """

    num_bottoms = 2
    bottom_ranks = (2,)

    def __init__(self, name: str, top_k: int = 1) -> None:
        super().__init__(name)
        if top_k <= 0:
            raise LayerError(f"{name!r}: top_k must be positive, got {top_k}")
        self.top_k = top_k

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        logits_shape, labels_shape = bottom_shapes
        if labels_shape[0] != logits_shape[0]:
            raise LayerError(
                f"{self.name!r}: batch mismatch {logits_shape} vs {labels_shape}"
            )
        if self.top_k > logits_shape[1]:
            raise LayerError(
                f"{self.name!r}: top_k={self.top_k} > classes={logits_shape[1]}"
            )
        return [(1,)], []

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        logits, labels = bottoms
        labels = labels.astype(np.int64).ravel()
        if self.top_k == 1:
            hits = logits.argmax(axis=1) == labels
        else:
            top = np.argpartition(-logits, self.top_k - 1, axis=1)[
                :, : self.top_k
            ]
            hits = (top == labels[:, None]).any(axis=1)
        return [np.asarray([hits.mean()], dtype=np.float32)]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        return [np.zeros_like(bottoms[0]), np.zeros_like(bottoms[1])]
