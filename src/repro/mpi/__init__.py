"""Mini-MPI: an in-process SPMD substrate with MPI-shaped semantics.

ShmCaffe uses MPI only for bring-up (rank discovery, SHM-key broadcast);
Caffe-MPI's star exchanges gradients with ``send``/``recv`` and MPICaffe
with ``allreduce``.  This package provides exactly that with ranks as
threads:

    from repro import mpi

    def main(comm):
        keys = mpi.bcast(comm, {"W_g": 42} if comm.is_master else None)
        mpi.barrier(comm)
        if comm.is_master:
            total = sum(comm.recv(source=r, tag=1) for r in range(1, comm.size))
        else:
            comm.send(comm.rank, dest=0, tag=1)
            total = None
        return keys, total, mpi.allreduce(comm, comm.rank)

    results = mpi.run_spmd(4, main)
"""

from .collectives import allreduce, barrier, bcast
from .communicator import Communicator, World
from .errors import MPIAbortError, MPIError, MPITimeoutError, RankError
from .launcher import run_spmd

__all__ = [
    "Communicator",
    "MPIAbortError",
    "MPIError",
    "MPITimeoutError",
    "RankError",
    "World",
    "allreduce",
    "barrier",
    "bcast",
    "run_spmd",
]
