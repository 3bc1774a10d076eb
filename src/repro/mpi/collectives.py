"""Blocking collectives over the mini-MPI point-to-point layer.

These are the MPI operations the paper's platforms rely on:

* ``bcast``   — ShmCaffe's master broadcasts SMB SHM keys (Fig. 2);
* ``barrier`` — bring-up alignment once every rank holds the keys;
* ``allreduce`` — MPICaffe's SSGD gradient aggregation (Sec. IV-C).

Caffe-MPI's star needs no collective: its master receives each slave's
gradient with ``recv`` in rank order and sends the weights back with
``send``.

All collectives are implemented on reserved negative tags with a per-rank
sequence counter: SPMD programs invoke collectives in identical order on
every rank, so counters agree and tags match without global coordination
(the same trick real MPI implementations use for context ids).  They talk
only through the communicator's ``_send_internal`` / ``_recv_internal``,
so a different world underneath leaves this module unchanged.

Trees are avoided: with at most a few dozen thread-ranks, flat fan-in is
simpler and plenty fast, and the *modelled* costs live in
:mod:`repro.perfmodel` rather than here.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .communicator import Communicator


def barrier(comm: Communicator) -> None:
    """Block until every rank has entered the barrier."""
    tag = comm._next_collective_tag()
    if comm.rank == 0:
        for source in range(1, comm.size):
            comm._recv_internal(source, tag)
        for dest in range(1, comm.size):
            comm._send_internal(None, dest, tag)
    else:
        comm._send_internal(None, 0, tag)
        comm._recv_internal(0, tag)


def bcast(comm: Communicator, value: Any = None) -> Any:
    """Broadcast rank 0's ``value``; every rank returns it."""
    tag = comm._next_collective_tag()
    if comm.rank == 0:
        for dest in range(1, comm.size):
            comm._send_internal(value, dest, tag)
        return value
    return comm._recv_internal(0, tag)


def allreduce(comm: Communicator, value: Any) -> np.ndarray:
    """Sum arrays (or scalars) across ranks; every rank gets the total.

    This is the MPI_Allreduce that MPICaffe uses in place of NCCL for
    gradient aggregation.  Rank 0 receives ranks 1 … n-1 in rank order
    and adds each into a copy of its own value, so the float sum is
    ``((v0 + v1) + v2) + …`` whatever order the messages arrive in, and
    no rank's input is mutated.
    """
    tag = comm._next_collective_tag()
    if comm.rank != 0:
        comm._send_internal(np.asarray(value), 0, tag)
        return bcast(comm)
    contributions = [np.asarray(value)] + [
        comm._recv_internal(source, tag) for source in range(1, comm.size)
    ]
    total = np.array(
        contributions[0],
        dtype=np.result_type(*[c.dtype for c in contributions]),
    )
    for contribution in contributions[1:]:
        total += contribution
    return bcast(comm, total)
