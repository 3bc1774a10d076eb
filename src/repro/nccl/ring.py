"""Ring collectives for intra-node worker groups (NCCL stand-in).

ShmCaffe-H aggregates gradients inside a node with ``ncclAllReduce`` and
lets only the group root talk to the SMB server (paper Sec. III-D).  This
module provides the same collective semantics for thread-workers sharing an
address space:

* :class:`RingGroup` — a fixed clique of ``size`` members.  Members call the
  collective methods with their in-group rank; calls block until the whole
  group participates, exactly like NCCL kernels on a stream.

The reduction is *chunked* the way a ring allreduce is: member ``r`` owns
chunk ``r`` and reduces it, then every member gathers all chunks.  That
keeps the arithmetic parallel across members and makes the communication
volume of a real ring — ``2 (n-1)/n`` times the payload per member — the
natural accounting, which :attr:`RingGroup.bytes_per_member` reports for the
performance model.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np


class NcclError(Exception):
    """A collective failed (mismatched shapes, broken group, bad rank)."""


class RingGroup:
    """A clique of ``size`` thread-workers doing synchronous collectives.

    One instance is shared by every member of the group; per-call state is
    kept in slots indexed by in-group rank and fenced with a reusable
    barrier.  Any member raising inside a collective breaks the barrier so
    the rest fail fast instead of deadlocking.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"group size must be positive, got {size}")
        self.size = size
        self._barrier = threading.Barrier(size)
        self._slots: List[Optional[np.ndarray]] = [None] * size
        self._result: Optional[np.ndarray] = None
        self._stats_lock = threading.Lock()
        self.collective_count = 0
        self.bytes_moved = 0

    # -- helpers -----------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise NcclError(f"rank {rank} out of range for group of {self.size}")

    def _wait(self) -> None:
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError as exc:
            raise NcclError("collective aborted: a group member failed") from exc

    def abort(self) -> None:
        """Break any in-flight collective (member crashed)."""
        self._barrier.abort()

    def bytes_per_member(self, payload_nbytes: int) -> int:
        """Ring-allreduce traffic per member for a payload of given size."""
        if self.size == 1:
            return 0
        return int(2 * (self.size - 1) / self.size * payload_nbytes)

    def _account(self, payload_nbytes: int) -> None:
        with self._stats_lock:
            self.collective_count += 1
            self.bytes_moved += self.bytes_per_member(payload_nbytes) * self.size

    # -- collectives --------------------------------------------------------

    def allreduce(
        self, rank: int, values: np.ndarray, average: bool = False
    ) -> np.ndarray:
        """Sum (or average) ``values`` across the group; all members get it.

        Args:
            rank: Caller's in-group rank.
            values: 1-D float array; every member must pass the same length.
            average: Divide the sum by the group size (SSGD gradient mean).

        Returns:
            A fresh array owned by the caller.
        """
        self._check_rank(rank)
        flat = np.ascontiguousarray(values, dtype=np.float32).ravel()
        if self.size == 1:
            return flat.copy().reshape(values.shape)

        self._slots[rank] = flat
        self._wait()

        length = self._slots[0].size  # type: ignore[union-attr]
        for member in range(self.size):
            if self._slots[member].size != length:  # type: ignore[union-attr]
                self.abort()
                raise NcclError("allreduce length mismatch across group")
        if rank == 0:
            self._result = np.empty(length, dtype=np.float32)
        self._wait()

        # Reduce-scatter phase: member r reduces its owned chunk.
        bounds = np.linspace(0, length, self.size + 1, dtype=np.int64)
        lo, hi = int(bounds[rank]), int(bounds[rank + 1])
        chunk = self._slots[0][lo:hi].copy()  # type: ignore[index]
        for member in range(1, self.size):
            chunk += self._slots[member][lo:hi]  # type: ignore[index]
        if average:
            chunk /= self.size
        self._result[lo:hi] = chunk  # type: ignore[index]
        self._wait()

        # Allgather phase: everyone copies the assembled result out.
        out = self._result.copy()  # type: ignore[union-attr]
        self._wait()
        if rank == 0:
            self._slots = [None] * self.size
            self._result = None
            self._account(flat.nbytes)
        self._wait()
        return out.reshape(values.shape)

    def broadcast(self, rank: int, values: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        """Copy ``values`` from ``root`` to every member (ncclBroadcast)."""
        self._check_rank(rank)
        self._check_rank(root)
        if rank == root:
            if values is None:
                self.abort()
                raise NcclError("root must supply values to broadcast")
            self._result = np.ascontiguousarray(values, dtype=np.float32)
        self._wait()
        out = self._result.copy()  # type: ignore[union-attr]
        self._wait()
        if rank == root:
            self._account(out.nbytes)
            self._result = None
        self._wait()
        return out

    def reduce(
        self, rank: int, values: np.ndarray, root: int = 0, average: bool = False
    ) -> Optional[np.ndarray]:
        """Sum arrays onto ``root``; other members return ``None``."""
        summed = self.allreduce(rank, values, average=average)
        return summed if rank == root else None
