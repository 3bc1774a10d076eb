"""Flat parameter views: the vectors SEASGD and the baselines exchange.

Distributed parameter sharing operates on one contiguous float32 vector per
replica (that is what lands in the SMB segments and MPI messages).  The
:class:`~repro.caffe.net.Net` already stores its learnable blobs in exactly
that layout — two flat arenas, one for data and one for gradients — so
:class:`FlatParams` is a thin accessor over them: :attr:`vector` and
:attr:`grad_vector` are *live views* (writes land in the blobs, nothing is
copied), :meth:`get_vector` / :meth:`get_grad_vector` are *snapshots*.
"""

from __future__ import annotations

import numpy as np

from .net import Net


class FlatParams:
    """Flat accessor over a net's learnable parameters."""

    def __init__(self, net: Net) -> None:
        self._net = net
        self.count = net.param_count()

    @property
    def nbytes(self) -> int:
        """Vector size in bytes (float32)."""
        return self.count * 4

    @property
    def vector(self) -> np.ndarray:
        """All parameter data as one float32 vector — the live arena."""
        return self._net.param_data

    @property
    def grad_vector(self) -> np.ndarray:
        """All parameter diffs as one float32 vector — the live arena."""
        return self._net.param_diff

    def _checked(self, vector: np.ndarray) -> np.ndarray:
        """``vector`` as an array, refused unless 1-D of :attr:`count`."""
        vector = np.asarray(vector)
        if vector.ndim != 1 or vector.size != self.count:
            raise ValueError(
                f"expected a 1-D vector of {self.count} elements, "
                f"got shape {vector.shape}"
            )
        return vector

    def get_vector(self) -> np.ndarray:
        """A snapshot copy of all parameter data."""
        return self.vector.copy()

    def set_vector(self, vector: np.ndarray) -> None:
        """Overwrite all parameter data from a flat vector (one copy)."""
        np.copyto(self.vector, self._checked(vector), casting="same_kind")

    def get_grad_vector(self) -> np.ndarray:
        """A snapshot copy of all parameter diffs."""
        return self.grad_vector.copy()

    def set_grad_vector(self, vector: np.ndarray) -> None:
        """Overwrite all parameter diffs from a flat vector (one copy)."""
        np.copyto(
            self.grad_vector, self._checked(vector), casting="same_kind"
        )

    def add_to_params(self, delta: np.ndarray, scale: float = 1.0) -> None:
        """In-place ``W += scale * delta`` across all blobs."""
        vector = self.vector
        np.add(vector, scale * self._checked(delta), out=vector)
