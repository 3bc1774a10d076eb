"""BVLC Caffe baseline: standalone SGD and single-node multi-GPU SSGD.

The paper's reference platform.  Standalone mode is plain solver stepping
on one worker; multi-GPU mode reproduces Caffe 1.0's NCCL path — every GPU
computes gradients on its shard, gradients are averaged with an allreduce,
and each replica applies the identical update (so replicas never diverge).
"""

from __future__ import annotations

from typing import Optional

from ..caffe.data import SyntheticImageDataset
from ..caffe.solver import SolverConfig
from ..core.exchange import BaseExchange, SyncSGDExchange
from ..nccl.ring import RingGroup
from .base import PlatformResult, SpecFactory, launch


def train_standalone(
    spec_factory: SpecFactory,
    dataset: SyntheticImageDataset,
    solver_config: SolverConfig,
    batch_size: int,
    iterations: int,
    eval_every: Optional[int] = None,
    seed: int = 0,
    prefetch: bool = False,
) -> PlatformResult:
    """Single-GPU BVLC Caffe: the 1-GPU column of Table II and Fig. 8.

    ``prefetch=True`` stages minibatches through the 10-deep background
    prefetcher, as ShmCaffe's data layer does; with synthetic in-memory
    data it changes nothing numerically (the batch sequence is identical)
    but exercises the production data path.
    """
    return launch(
        "caffe", spec_factory, dataset, solver_config, batch_size,
        iterations, num_workers=1, make_strategy=lambda comm: BaseExchange(),
        eval_every=eval_every, seed=seed, prefetch=prefetch,
    )


def train_multi_gpu(
    spec_factory: SpecFactory,
    dataset: SyntheticImageDataset,
    solver_config: SolverConfig,
    batch_size: int,
    iterations: int,
    num_workers: int,
    eval_every: Optional[int] = None,
    seed: int = 0,
) -> PlatformResult:
    """Multi-GPU BVLC Caffe: SSGD over an NCCL-style ring allreduce.

    Every worker is a thread-GPU; the effective minibatch is
    ``batch_size * num_workers`` per global iteration, as in Caffe.
    """
    if num_workers < 2:
        raise ValueError("use train_standalone for a single worker")
    ring = RingGroup(num_workers)
    return launch(
        "caffe", spec_factory, dataset, solver_config, batch_size,
        iterations, num_workers,
        make_strategy=lambda comm: SyncSGDExchange(
            lambda grad: ring.allreduce(comm.rank, grad, average=True)
        ),
        eval_every=eval_every, seed=seed,
    )
