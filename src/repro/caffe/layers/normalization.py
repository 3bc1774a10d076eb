"""Normalisation layers: BatchNorm (+Scale) and LRN."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..blob import Shape
from .base import Geometry, Layer, LayerError, ParamDecl, register_layer


@register_layer("BatchNorm")
class BatchNorm(Layer):
    """Batch normalisation over channels of an ``(N, C, H, W)`` blob.

    Caffe splits normalisation (``BatchNorm``) from the learned affine part
    (``Scale``); this layer fuses both (``affine=True`` by default) since
    every modern net pairs them.  Running statistics follow Caffe's
    moving-average-fraction update and are used at test time.
    """

    bottom_ranks = (2, 4)

    def __init__(
        self,
        name: str,
        affine: bool = True,
        momentum: float = 0.9,
        eps: float = 1e-5,
    ) -> None:
        super().__init__(name)
        if not 0.0 < momentum < 1.0:
            raise LayerError(f"{name!r}: momentum must be in (0,1), got {momentum}")
        self.affine = affine
        self.momentum = momentum
        self.eps = eps
        self._cache: Optional[tuple] = None

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        (shape,) = bottom_shapes
        channels = shape[1:2]
        params = []
        if self.affine:
            params += [
                ParamDecl("gamma", channels, fill=1.0, decay_mult=0.0),
                ParamDecl("beta", channels, decay_mult=0.0),
            ]
        # Running statistics are parameter blobs with lr_mult=0, exactly as
        # in Caffe: the solver never touches them, but parameter-sharing
        # code (FlatParams / SEASGD / allreduce broadcasts) carries them
        # between replicas so a model restored from shared weights
        # evaluates correctly.
        params += [
            ParamDecl("running_mean", channels, lr_mult=0.0, decay_mult=0.0),
            ParamDecl("running_var", channels, fill=1.0, lr_mult=0.0, decay_mult=0.0),
        ]
        return [shape], params

    def setup(self, bottom_shapes, rng) -> List[Shape]:
        top_shapes = super().setup(bottom_shapes, rng)
        self._mean_blob, self._var_blob = self.params[-2:]
        return top_shapes

    @property
    def running_mean(self) -> np.ndarray:
        """Moving average of batch means (shared as an lr_mult=0 param)."""
        return self._mean_blob.data

    @property
    def running_var(self) -> np.ndarray:
        """Moving average of batch variances (lr_mult=0 param)."""
        return self._var_blob.data

    def _axes(self, ndim: int) -> tuple:
        return (0,) if ndim == 2 else (0, 2, 3)

    def _expand(self, vector: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 2:
            return vector[None, :]
        return vector[None, :, None, None]

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        axes = self._axes(bottom.ndim)
        if train:
            mean = bottom.mean(axis=axes)
            var = bottom.var(axis=axes)
            self._mean_blob.data[...] = (
                self.momentum * self._mean_blob.data
                + (1 - self.momentum) * mean
            )
            self._var_blob.data[...] = (
                self.momentum * self._var_blob.data
                + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        std = np.sqrt(var + self.eps)
        normalised = (bottom - self._expand(mean, bottom.ndim)) / self._expand(
            std, bottom.ndim
        )
        self._cache = (normalised, std) if train else None
        if self.affine:
            gamma, beta = self.params[0].data, self.params[1].data
            return [
                normalised * self._expand(gamma, bottom.ndim)
                + self._expand(beta, bottom.ndim)
            ]
        return [normalised.astype(np.float32)]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        if self._cache is None:
            raise LayerError("backward before train-mode forward in BatchNorm")
        normalised, std = self._cache
        self._cache = None
        axes = self._axes(top_diff.ndim)
        m = float(np.prod([top_diff.shape[a] for a in axes]))

        if self.affine:
            gamma = self.params[0].data
            np.add.reduce(top_diff * normalised, axis=axes, out=self.params[0].diff)
            np.add.reduce(top_diff, axis=axes, out=self.params[1].diff)
            d_norm = top_diff * self._expand(gamma, top_diff.ndim)
        else:
            d_norm = top_diff

        # Standard batch-norm backward through the batch statistics.
        sum_d = d_norm.sum(axis=axes)
        sum_dx = (d_norm * normalised).sum(axis=axes)
        bottom_diff = (
            d_norm
            - self._expand(sum_d / m, top_diff.ndim)
            - normalised * self._expand(sum_dx / m, top_diff.ndim)
        ) / self._expand(std, top_diff.ndim)
        return [bottom_diff.astype(np.float32)]


@register_layer("LRN")
class LRN(Layer):
    """Local response normalisation across channels (AlexNet/GoogLeNet era).

    ``b_c = a_c / (k + alpha/n * sum_{c'} a_{c'}^2)^beta`` over a window of
    ``local_size`` channels centred on ``c``.
    """

    bottom_ranks = (4,)

    def __init__(
        self,
        name: str,
        local_size: int = 5,
        alpha: float = 1e-4,
        beta: float = 0.75,
        k: float = 1.0,
    ) -> None:
        super().__init__(name)
        if local_size % 2 == 0:
            raise LayerError(f"{name!r}: local_size must be odd, got {local_size}")
        self.local_size = local_size
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self._scale: Optional[np.ndarray] = None

    def _window_sum(self, squares: np.ndarray) -> np.ndarray:
        c = squares.shape[1]
        half = self.local_size // 2
        padded = np.zeros(
            (squares.shape[0], c + 2 * half) + squares.shape[2:],
            dtype=squares.dtype,
        )
        padded[:, half:half + c] = squares
        cumulative = np.cumsum(padded, axis=1)
        window = np.empty_like(squares)
        # sum over [c-half, c+half] via cumulative differences
        upper = cumulative[:, self.local_size - 1:]
        lower = np.concatenate(
            [np.zeros_like(cumulative[:, :1]), cumulative[:, :-self.local_size]],
            axis=1,
        )
        window[:] = (upper - lower)[:, :c]
        return window

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        window = self._window_sum(bottom * bottom)
        scale = self.k + (self.alpha / self.local_size) * window
        self._scale = scale
        return [bottom * np.power(scale, -self.beta)]

    def backward(
        self,
        top_diffs: Sequence[np.ndarray],
        bottoms: Sequence[np.ndarray],
        tops: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        (bottom,) = bottoms
        (top,) = tops
        if self._scale is None:
            raise LayerError("backward before forward in LRN")
        scale = self._scale
        self._scale = None
        # d a_c: direct term plus cross-channel term through the window sum.
        direct = top_diff * np.power(scale, -self.beta)
        ratio = top_diff * top / scale
        cross = self._window_sum(ratio)
        coef = 2.0 * self.alpha * self.beta / self.local_size
        return [direct - coef * bottom * cross]
