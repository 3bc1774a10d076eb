"""Blobs: the named tensors Caffe passes between layers.

A blob pairs a ``data`` array with a same-shaped ``diff`` (gradient) array,
exactly as in BVLC Caffe.  Learnable parameters are blobs too; the solver
consumes ``diff`` and updates ``data``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

Shape = Tuple[int, ...]


class Blob:
    """A named (data, diff) tensor pair with a fixed shape.

    A learnable blob is *homed* by its :class:`~repro.caffe.net.Net`:
    ``data`` and ``diff`` become reshaped views into the net's two flat
    parameter arenas (see :meth:`home`).  From then on every writer must
    go through the arrays in place; rebinding either attribute to storage
    outside the arena raises ``ValueError``, because the flat vector the
    distributed code exchanges would silently stop tracking the blob.
    """

    def __init__(
        self,
        shape: Iterable[int],
        name: str = "",
        data: Optional[np.ndarray] = None,
    ) -> None:
        self.shape: Shape = tuple(int(dim) for dim in shape)
        if any(dim <= 0 for dim in self.shape):
            raise ValueError(f"blob dims must be positive, got {self.shape}")
        self.name = name
        self._count = int(np.prod(self.shape))
        self._homed = False
        if data is not None:
            data = np.asarray(data, dtype=np.float32)
            if data.shape != self.shape:
                raise ValueError(
                    f"data shape {data.shape} != blob shape {self.shape}"
                )
            self._data = data.copy()
        else:
            self._data = np.zeros(self.shape, dtype=np.float32)
        self._diff = np.zeros(self.shape, dtype=np.float32)

    @property
    def data(self) -> np.ndarray:
        """The values (a view into the net's arena once homed)."""
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = self._rebindable(value, self._data, "data")

    @property
    def diff(self) -> np.ndarray:
        """The gradients (a view into the net's arena once homed)."""
        return self._diff

    @diff.setter
    def diff(self, value: np.ndarray) -> None:
        self._diff = self._rebindable(value, self._diff, "diff")

    def _rebindable(
        self, value: np.ndarray, current: np.ndarray, which: str
    ) -> np.ndarray:
        # ``blob.data -= v`` re-assigns the very same array; anything else
        # must still be a same-shaped window onto the homed storage.
        if value is current or not self._homed:
            return value
        if not (
            isinstance(value, np.ndarray)
            and value.shape == self.shape
            and value.dtype == current.dtype
            and np.shares_memory(value, current)
        ):
            raise ValueError(
                f"{self!r}.{which} lives in its net's parameter arena; "
                "write into it in place instead of rebinding it"
            )
        return value

    def home(self, data: np.ndarray, diff: np.ndarray) -> None:
        """Move storage into two ``count``-long slices of a net's arenas.

        The current contents are copied in; from here on ``data`` and
        ``diff`` are reshaped views of those slices and cannot be rebound.
        """
        data, diff = data.reshape(self.shape), diff.reshape(self.shape)
        np.copyto(data, self._data)
        np.copyto(diff, self._diff)
        self._data, self._diff = data, diff
        self._homed = True

    @property
    def count(self) -> int:
        """Number of elements."""
        return self._count

    @property
    def nbytes(self) -> int:
        """Bytes of the data array (what crosses the network when shared)."""
        return self._count * 4

    def zero_diff(self) -> None:
        """Clear the gradient."""
        self._diff.fill(0.0)

    def copy_from(self, other: "Blob", copy_diff: bool = False) -> None:
        """Copy data (and optionally diff) from a same-shaped blob."""
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {other.shape} vs {self.shape}")
        np.copyto(self._data, other.data)
        if copy_diff:
            np.copyto(self._diff, other.diff)

    def __repr__(self) -> str:
        return f"Blob(name={self.name!r}, shape={self.shape})"


def fan_in_out(weight_shape: Shape) -> Tuple[int, int]:
    """Fan-in/fan-out of a weight tensor (conv ``OIHW`` or FC ``OI``)."""
    if len(weight_shape) < 2:
        raise ValueError(f"weights need >=2 dims, got {weight_shape}")
    receptive = int(np.prod(weight_shape[2:])) if len(weight_shape) > 2 else 1
    fan_in = weight_shape[1] * receptive
    fan_out = weight_shape[0] * receptive
    return fan_in, fan_out


def xavier_fill(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """Caffe's ``xavier`` filler: uniform in ±sqrt(3 / fan_in)."""
    fan_in, _ = fan_in_out(shape)
    scale = float(np.sqrt(3.0 / fan_in))
    return rng.uniform(-scale, scale, size=shape).astype(np.float32)


def msra_fill(shape: Shape, rng: np.random.Generator) -> np.ndarray:
    """Caffe's ``msra`` (He) filler: normal with std sqrt(2 / fan_in)."""
    fan_in, _ = fan_in_out(shape)
    std = float(np.sqrt(2.0 / fan_in))
    return (rng.standard_normal(shape) * std).astype(np.float32)
