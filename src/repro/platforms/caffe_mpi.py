"""Caffe-MPI baseline: star-topology synchronous SGD over MPI send/recv.

Inspur's Caffe-MPI (v1.0) "implements SSGD using MPI Send/MPI Recv ...
master worker gathers the computed gradients by slave workers, takes the
average of them, updates master weights, and finally distributes the
updated master weights to slave workers" (paper Sec. IV-C).  The star
geometry — every slave talks only to the master — is what makes its
communication cost grow linearly in the worker count, the effect Fig. 10
shows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import mpi
from ..caffe.data import SyntheticImageDataset
from ..caffe.solver import SolverConfig
from ..core.exchange import SyncSGDExchange
from .base import PlatformResult, SpecFactory, launch

#: Point-to-point tags of the star protocol.
TAG_GRADIENT = 100
TAG_WEIGHTS = 101


class StarExchange(SyncSGDExchange):
    """The star step: the master sums gradients in rank order (so a seeded
    run does not depend on thread timing), updates, and sends its weights;
    slaves send gradients and take those weights."""

    def __init__(self, comm: mpi.Communicator) -> None:
        super().__init__(self._gather_mean, phase="mpi")
        self.comm = comm

    def _gather_mean(self, grad: np.ndarray) -> np.ndarray:
        total = grad.copy()
        for source in range(1, self.comm.size):
            total += self.comm.recv(source=source, tag=TAG_GRADIENT)
        return total / self.comm.size

    def update(self) -> float:
        engine = self.engine
        comm = self.comm
        if comm.is_master:
            lr = super().update()
            with engine.phases.phase(self.phase):
                weights = engine.flat.get_vector()
                for dest in range(1, comm.size):
                    comm.send(weights, dest, tag=TAG_WEIGHTS)
            return lr
        lr = engine.solver.learning_rate
        with engine.phases.phase(self.phase):
            comm.send(engine.flat.get_grad_vector(), 0, tag=TAG_GRADIENT)
            engine.flat.set_vector(comm.recv(source=0, tag=TAG_WEIGHTS))
        engine.solver.advance_iteration()
        return lr


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
    """Run Caffe-MPI-style SSGD; returns the master's history."""
    if num_workers < 2:
        raise ValueError("Caffe-MPI needs a master and at least one slave")
    return launch(
        "caffe_mpi", spec_factory, dataset, solver_config, batch_size,
        iterations, num_workers, make_strategy=StarExchange,
        eval_every=eval_every, seed=seed,
    )
