"""SPMD world and communicator objects.

ShmCaffe "exchanges initialization messages between the distributed
processes using MPI" (paper Sec. III-A): the master (rank 0) creates SMB
buffers and broadcasts SHM keys.  Caffe-MPI's star sends and receives
gradients point to point, and MPICaffe all-reduces them.  This module
provides that programming model with ranks as threads in one process:

* :class:`World` — shared state for ``size`` ranks: one mailbox per rank and
  an abort flag so a crash in any rank unblocks everyone.
* :class:`Communicator` — the per-rank handle (``comm.rank``, ``comm.size``)
  with exact-match ``send``/``recv``.  The collectives in
  :mod:`repro.mpi.collectives` go through its ``_send_internal`` /
  ``_recv_internal`` pair, so this is the one module that knows a mailbox.

Message payloads are arbitrary Python objects; large NumPy arrays pass by
reference, which matches the zero-copy spirit of the RDMA setting (receivers
must copy if they intend to mutate, as with real MPI buffer reuse rules).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from .errors import MPIAbortError, MPITimeoutError, RankError


class _Mailbox:
    """One rank's incoming messages: a FIFO per ``(source, tag)``."""

    def __init__(self, world: World) -> None:
        self._world = world
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._queues: Dict[Tuple[int, int], Deque[Any]] = {}

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._lock:
            self._queues.setdefault((source, tag), deque()).append(payload)
            self._arrived.notify_all()

    def get(self, source: int, tag: int, timeout: Optional[float]) -> Any:
        """Pop the oldest payload from ``source`` with ``tag``."""
        key = (source, tag)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                queue = self._queues.get(key)
                if queue:
                    payload = queue.popleft()
                    if not queue:  # each collective's tag is used once
                        del self._queues[key]
                    return payload
                # World.abort sets the flag before it takes this lock to
                # wake us, so checking it here and then waiting cannot miss
                # an abort.
                if self._world.abort_flag.is_set():
                    raise MPIAbortError(self._world.abort_reason or "aborted")
                if deadline is None:
                    self._arrived.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise MPITimeoutError(
                        f"no message from source={source} tag={tag} "
                        f"after {timeout:.1f}s"
                    )
                self._arrived.wait(remaining)


class World:
    """Shared communication state for one SPMD job."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"world size must be positive, got {size}")
        self.size = size
        self.abort_flag = threading.Event()
        self.abort_reason: Optional[str] = None
        self._mailboxes: List[_Mailbox] = [_Mailbox(self) for _ in range(size)]

    def mailbox(self, rank: int) -> _Mailbox:
        if not 0 <= rank < self.size:
            raise RankError(rank, self.size)
        return self._mailboxes[rank]

    def abort(self, reason: str = "aborted") -> None:
        """Unblock every rank with an :class:`MPIAbortError`."""
        self.abort_reason = reason
        self.abort_flag.set()
        # Wake all blocked receivers so they observe the flag promptly.
        for mailbox in self._mailboxes:
            with mailbox._lock:
                mailbox._arrived.notify_all()


class Communicator:
    """Per-rank handle onto a :class:`World` (think ``MPI_COMM_WORLD``)."""

    def __init__(self, world: World, rank: int) -> None:
        if not 0 <= rank < world.size:
            raise RankError(rank, world.size)
        self.world = world
        self.rank = rank
        # Internal sequence number for collectives: because SPMD code calls
        # collectives in the same order on every rank, a per-rank counter
        # yields matching tags without global coordination.
        self._collective_seq = 0

    @property
    def size(self) -> int:
        """Number of ranks in the world."""
        return self.world.size

    @property
    def is_master(self) -> bool:
        """True for rank 0, ShmCaffe's master worker."""
        return self.rank == 0

    # -- point-to-point ---------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Deliver ``payload`` to ``dest`` (non-blocking, always buffers)."""
        if tag < 0:
            raise ValueError(f"user tags must be non-negative, got {tag}")
        self._send_internal(payload, dest, tag)

    def recv(self, source: int, tag: int, timeout: Optional[float] = None) -> Any:
        """Blocking receive of the oldest message from ``source`` with ``tag``.

        Raises :class:`MPITimeoutError` once ``timeout`` seconds have passed,
        however many other messages arrive meanwhile.
        """
        if not 0 <= source < self.size:
            raise RankError(source, self.size)
        return self._recv_internal(source, tag, timeout)

    # -- internals used by collectives ------------------------------------

    def _next_collective_tag(self) -> int:
        self._collective_seq += 1
        return -self._collective_seq  # negative tags are reserved

    def _send_internal(self, payload: Any, dest: int, tag: int) -> None:
        if self.world.abort_flag.is_set():
            raise MPIAbortError(self.world.abort_reason or "aborted")
        self.world.mailbox(dest).put(self.rank, tag, payload)

    def _recv_internal(
        self, source: int, tag: int, timeout: Optional[float] = None
    ) -> Any:
        return self.world.mailbox(self.rank).get(source, tag, timeout)
