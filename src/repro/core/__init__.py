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

from .autoscale import (
    AutoscaleController,
    AutoscalePolicy,
    AutoscaleSupervisor,
    FleetSignals,
    ScaleDecision,
)
from .checkpoint import (
    CheckpointCoordinator,
    CheckpointError,
    CheckpointInfo,
    inspect_checkpoint,
    latest_checkpoint,
)
from .config import ShmCaffeConfig, TerminationCriterion
from .engine import (
    FlushTimeoutError,
    IterationRecord,
    TrainingEngine,
    WorkerError,
    WorkerHistory,
    smb_path_lost,
)
from .exchange import (
    BaseExchange,
    ExchangeStrategy,
    HybridExchange,
    SEASGDExchange,
    SMBAsgdExchange,
    StaleReadExchange,
    make_exchange,
)
from .overlap import OverlapDriver
from .seasgd import (
    apply_increment_global,
    easgd_server_update,
    easgd_worker_update,
    seasgd_exchange,
)
from .termination import (
    STOP_FIRST_FINISHER,
    STOP_MASTER_DONE,
    TerminationCoordinator,
)
from .trainer import (
    DistributedTrainingManager,
    ElasticWorkerHandle,
    TrainingResult,
)

__all__ = [
    "AutoscaleController",
    "AutoscalePolicy",
    "AutoscaleSupervisor",
    "BaseExchange",
    "CheckpointCoordinator",
    "CheckpointError",
    "CheckpointInfo",
    "DistributedTrainingManager",
    "ElasticWorkerHandle",
    "ExchangeStrategy",
    "FleetSignals",
    "FlushTimeoutError",
    "HybridExchange",
    "IterationRecord",
    "OverlapDriver",
    "STOP_FIRST_FINISHER",
    "STOP_MASTER_DONE",
    "ScaleDecision",
    "SEASGDExchange",
    "SMBAsgdExchange",
    "ShmCaffeConfig",
    "StaleReadExchange",
    "TerminationCoordinator",
    "TerminationCriterion",
    "TrainingEngine",
    "TrainingResult",
    "WorkerError",
    "WorkerHistory",
    "apply_increment_global",
    "easgd_server_update",
    "easgd_worker_update",
    "inspect_checkpoint",
    "latest_checkpoint",
    "make_exchange",
    "seasgd_exchange",
    "smb_path_lost",
]
