"""ShmCaffe core: SEASGD, the Fig. 6 worker protocol, Hybrid SGD, and the
distributed training manager.

This package is the paper's primary contribution.  The substrates it rides
on live in :mod:`repro.smb` (remote shared memory), :mod:`repro.mpi`
(bring-up and baselines), :mod:`repro.nccl` (intra-group collectives) and
:mod:`repro.caffe` (the deep-learning engine).

The training core is layered (see ``docs/architecture.md``):
:class:`TrainingEngine` owns the iteration loop, an
:class:`ExchangeStrategy` owns the parameter-sharing rule, and the
:class:`OverlapDriver` owns the Fig.-6 update thread.
"""

from .autoscale import AutoscaleController, AutoscalePolicy, AutoscaleSupervisor
from .checkpoint import CheckpointError, inspect_checkpoint, latest_checkpoint
from .config import ShmCaffeConfig, TerminationCriterion
from .engine import FlushTimeoutError, TrainingEngine, WorkerError
from .exchange import (
    ExchangeStrategy,
    HybridExchange,
    SEASGDExchange,
    SMBAsgdExchange,
    StaleReadExchange,
    make_exchange,
)
from .overlap import OverlapDriver
from .trainer import (
    DistributedTrainingManager,
    ElasticWorkerHandle,
    TrainingResult,
)

__all__ = [
    "AutoscaleController",
    "AutoscalePolicy",
    "AutoscaleSupervisor",
    "CheckpointError",
    "DistributedTrainingManager",
    "ElasticWorkerHandle",
    "ExchangeStrategy",
    "FlushTimeoutError",
    "HybridExchange",
    "OverlapDriver",
    "SEASGDExchange",
    "SMBAsgdExchange",
    "ShmCaffeConfig",
    "StaleReadExchange",
    "TerminationCriterion",
    "TrainingEngine",
    "TrainingResult",
    "WorkerError",
    "inspect_checkpoint",
    "latest_checkpoint",
    "make_exchange",
]
