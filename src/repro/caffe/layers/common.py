"""Structural layers: input, dropout, concat, eltwise, flatten, split."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..blob import Shape
from .base import Geometry, Layer, LayerError, register_layer


@register_layer("Input")
class Input(Layer):
    """Declares an externally fed blob (images or labels)."""

    num_bottoms = 0

    def __init__(self, name: str, shape: Sequence[int]) -> None:
        super().__init__(name)
        self.declared_shape: Shape = tuple(int(d) for d in shape)
        if not self.declared_shape or min(self.declared_shape) <= 0:
            raise LayerError(
                f"{name!r}: Input dims must be positive, "
                f"got {self.declared_shape}"
            )

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        return [self.declared_shape], []

    def forward(self, bottoms, train) -> List[np.ndarray]:
        raise LayerError(
            f"{self.name!r}: Input blobs are fed by the net, not computed"
        )

    def backward(self, top_diffs, bottoms, tops) -> List[np.ndarray]:
        return []


@register_layer("Dropout")
class Dropout(Layer):
    """Inverted dropout (scales at train time, identity at test time)."""

    def __init__(self, name: str, ratio: float = 0.5) -> None:
        super().__init__(name)
        if not 0.0 <= ratio < 1.0:
            raise LayerError(
                f"{name!r}: dropout ratio must be in [0,1), got {ratio}"
            )
        self.ratio = ratio
        self._mask: Optional[np.ndarray] = None
        self._rng: Optional[np.random.Generator] = None

    def setup(self, bottom_shapes, rng) -> List[Shape]:
        self._rng = rng
        return super().setup(bottom_shapes, rng)

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        if not train or self.ratio == 0.0:
            self._mask = None
            return [bottom.copy()]
        keep = 1.0 - self.ratio
        self._mask = (
            self._rng.random(bottom.shape) < keep
        ).astype(np.float32) / keep
        return [bottom * self._mask]

    def backward(self, top_diffs, bottoms, tops) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        if self._mask is None:
            return [top_diff.copy()]
        mask = self._mask
        self._mask = None
        return [top_diff * mask]


@register_layer("Concat")
class Concat(Layer):
    """Concatenate bottoms along the channel axis (Inception modules)."""

    num_bottoms = None

    def __init__(self, name: str, axis: int = 1) -> None:
        super().__init__(name)
        self.axis = axis

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        if not bottom_shapes:
            raise LayerError(f"{self.name!r}: Concat needs bottoms")
        reference = list(bottom_shapes[0])
        total = 0
        for shape in bottom_shapes:
            if len(shape) != len(reference):
                raise LayerError(f"{self.name!r}: rank mismatch in Concat")
            for axis, (a, b) in enumerate(zip(shape, reference)):
                if axis != self.axis and a != b:
                    raise LayerError(
                        f"{self.name!r}: non-concat dims must match, "
                        f"got {shape} vs {tuple(reference)}"
                    )
            total += shape[self.axis]
        reference[self.axis] = total
        return [tuple(reference)], []

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        return [np.concatenate(bottoms, axis=self.axis)]

    def backward(self, top_diffs, bottoms, tops) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        offsets = np.cumsum([0] + [bottom.shape[self.axis] for bottom in bottoms])
        slicer: List[slice] = [slice(None)] * top_diff.ndim
        outputs = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            slicer[self.axis] = slice(start, stop)
            outputs.append(top_diff[tuple(slicer)].copy())
        return outputs


@register_layer("Eltwise")
class Eltwise(Layer):
    """Elementwise sum/prod/max of same-shaped bottoms (residual adds).

    ``coeffs`` scales each bottom in a sum, matching Caffe's
    ``eltwise_param.coeff`` — Inception-ResNet blocks use it for residual
    scaling (e.g. ``coeffs=(0.17, 1.0)``).
    """

    num_bottoms = None

    def __init__(
        self,
        name: str,
        operation: str = "sum",
        coeffs: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name)
        if operation not in ("sum", "prod", "max"):
            raise LayerError(f"{name!r}: unknown eltwise op {operation!r}")
        if coeffs is not None and operation != "sum":
            raise LayerError(f"{name!r}: coeffs only apply to the sum operation")
        self.operation = operation
        self.coeffs = tuple(coeffs) if coeffs is not None else None
        self._argmax: Optional[np.ndarray] = None

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        if len(bottom_shapes) < 2:
            raise LayerError(f"{self.name!r}: Eltwise needs >=2 bottoms")
        first = bottom_shapes[0]
        if any(shape != first for shape in bottom_shapes[1:]):
            raise LayerError(
                f"{self.name!r}: Eltwise shapes differ: {bottom_shapes}"
            )
        if self.coeffs is not None and len(self.coeffs) != len(bottom_shapes):
            raise LayerError(
                f"{self.name!r}: {len(self.coeffs)} coeffs for "
                f"{len(bottom_shapes)} bottoms"
            )
        return [first], []

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        if self.operation == "sum":
            if self.coeffs is not None:
                out = self.coeffs[0] * bottoms[0]
                for coeff, other in zip(self.coeffs[1:], bottoms[1:]):
                    out += coeff * other
                return [out.astype(np.float32)]
            out = bottoms[0].copy()
            for other in bottoms[1:]:
                out += other
            return [out]
        if self.operation == "prod":
            out = bottoms[0].copy()
            for other in bottoms[1:]:
                out *= other
            return [out]
        stacked = np.stack(bottoms)
        self._argmax = stacked.argmax(axis=0)
        return [stacked.max(axis=0)]

    def backward(self, top_diffs, bottoms, tops) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        if self.operation == "sum":
            if self.coeffs is not None:
                return [
                    (coeff * top_diff).astype(np.float32)
                    for coeff in self.coeffs
                ]
            return [top_diff.copy() for _ in bottoms]
        if self.operation == "prod":
            (top,) = tops
            return [
                top_diff * top / np.where(b == 0, 1.0, b) for b in bottoms
            ]
        grads = []
        for index in range(len(bottoms)):
            grads.append(top_diff * (self._argmax == index))
        self._argmax = None
        return grads


@register_layer("Flatten")
class Flatten(Layer):
    """Flatten all trailing dims into one (before a classifier)."""

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        ((n, *rest),) = bottom_shapes
        return [(n, int(np.prod(rest)))], []

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        return [bottom.reshape(bottom.shape[0], -1)]

    def backward(self, top_diffs, bottoms, tops) -> List[np.ndarray]:
        (top_diff,) = top_diffs
        (bottom,) = bottoms
        return [top_diff.reshape(bottom.shape)]


@register_layer("Split")
class Split(Layer):
    """Fan one blob out to N consumers; gradients sum on the way back."""

    def __init__(self, name: str, num_tops: int = 2) -> None:
        super().__init__(name)
        if num_tops < 1:
            raise LayerError(f"{name!r}: num_tops must be >=1, got {num_tops}")
        self.num_tops = num_tops

    def _reshape(self, bottom_shapes: List[Shape]) -> Geometry:
        return bottom_shapes * self.num_tops, []

    def forward(
        self, bottoms: Sequence[np.ndarray], train: bool
    ) -> List[np.ndarray]:
        (bottom,) = bottoms
        return [bottom.copy() for _ in range(self.num_tops)]

    def backward(self, top_diffs, bottoms, tops) -> List[np.ndarray]:
        total = top_diffs[0].copy()
        for diff in top_diffs[1:]:
            total += diff
        return [total]
