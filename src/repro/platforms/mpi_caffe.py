"""MPICaffe baseline: synchronous SGD over MPI_Allreduce.

The authors' own comparison platform (paper Sec. IV-C): BVLC Caffe plus
MPI, with gradient aggregation done by ``MPI_Allreduce`` instead of NCCL or
a parameter server.  Every worker receives the averaged gradient and
applies an identical update, so replicas stay bit-equal without any weight
redistribution step.
"""

from __future__ import annotations

from typing import Optional

from .. import mpi
from ..caffe.data import SyntheticImageDataset
from ..caffe.solver import SolverConfig
from ..core.exchange import SyncSGDExchange
from .base import PlatformResult, SpecFactory, launch


def train(
    spec_factory: SpecFactory,
    dataset: SyntheticImageDataset,
    solver_config: SolverConfig,
    batch_size: int,
    iterations: int,
    num_workers: int,
    eval_every: Optional[int] = None,
    seed: int = 0,
) -> PlatformResult:
    """Run MPICaffe-style allreduce SSGD; returns rank 0's history."""
    if num_workers < 2:
        raise ValueError("MPICaffe needs at least two workers")
    return launch(
        "mpi_caffe", spec_factory, dataset, solver_config, batch_size,
        iterations, num_workers,
        make_strategy=lambda comm: SyncSGDExchange(
            lambda grad: mpi.allreduce(comm, grad) / num_workers,
            phase="mpi",
        ),
        eval_every=eval_every, seed=seed,
    )
