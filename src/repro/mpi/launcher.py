"""SPMD launcher: run the same function on N thread-ranks.

The paper launches one MPI process per GPU via ``mpirun``; here
:func:`run_spmd` spawns one thread per rank, hands each a
:class:`~repro.mpi.communicator.Communicator`, and collects return values.
If any rank raises, the world is aborted so blocked peers unwind instead of
hanging, and the first exception is re-raised in the caller.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Sequence

from .communicator import Communicator, World
from .errors import MPIAbortError, MPIError


def _remaining(deadline: Optional[float]) -> Optional[float]:
    return None if deadline is None else max(0.0, deadline - time.monotonic())


class _RankThread(threading.Thread):
    """One rank's thread; stores its result or exception."""

    def __init__(
        self,
        world: World,
        rank: int,
        target: Callable[..., Any],
        args: Sequence[Any],
    ) -> None:
        super().__init__(name=f"mpi-rank-{rank}", daemon=True)
        self._world = world
        self._rank = rank
        self._target = target
        self._args = args
        self.result: Any = None
        self.exception: Optional[BaseException] = None

    def run(self) -> None:
        comm = Communicator(self._world, self._rank)
        try:
            self.result = self._target(comm, *self._args)
        except MPIAbortError as exc:
            self.exception = exc  # secondary failure; a peer crashed first
        except BaseException as exc:  # noqa: BLE001 - must not hang peers
            self.exception = exc
            self._world.abort(f"rank {self._rank} raised {type(exc).__name__}: {exc}")


def run_spmd(
    size: int,
    target: Callable[..., Any],
    *args: Any,
    timeout: Optional[float] = None,
) -> List[Any]:
    """Run ``target(comm, *args)`` on ``size`` ranks and return all results.

    Args:
        size: Number of ranks (threads) to launch.
        target: Rank entry point; receives its ``Communicator`` first.
        *args: Extra positional arguments passed to every rank.
        timeout: Wall-clock bound on the whole job, not on each rank; the
            world is aborted on expiry.

    Returns:
        Rank-ordered list of return values.

    Raises:
        The first non-abort exception raised by any rank, or
        :class:`MPIError` on timeout.
    """
    world = World(size)
    threads = [_RankThread(world, rank, target, args) for rank in range(size)]
    deadline = None if timeout is None else time.monotonic() + timeout
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(_remaining(deadline))
        if thread.is_alive():
            world.abort("launcher timeout")
            grace = time.monotonic() + 5.0  # for all ranks to unwind
            for straggler in threads:
                straggler.join(_remaining(grace))
            raise MPIError(f"SPMD job exceeded {timeout}s")

    primary = next(
        (
            t.exception
            for t in threads
            if t.exception is not None
            and not isinstance(t.exception, MPIAbortError)
        ),
        None,
    )
    if primary is not None:
        raise primary
    secondary = next((t.exception for t in threads if t.exception), None)
    if secondary is not None:
        raise secondary
    return [thread.result for thread in threads]
