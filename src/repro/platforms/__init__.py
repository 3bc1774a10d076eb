"""The four deep-learning platforms compared in the paper's Sec. IV.

Every platform trains on :class:`~repro.core.engine.TrainingEngine`; they
differ only in the exchange strategy underneath:

* :mod:`repro.platforms.bvlc_caffe` — standalone + multi-GPU NCCL SSGD;
* :mod:`repro.platforms.caffe_mpi` — Inspur-style star-topology SSGD;
* :mod:`repro.platforms.mpi_caffe` — MPI_Allreduce SSGD;
* :mod:`repro.platforms.shmcaffe` — ShmCaffe-A and ShmCaffe-H (ours).
"""

from . import bvlc_caffe, caffe_mpi, mpi_caffe, shmcaffe
from .base import (
    EvalRecord,
    PlatformResult,
    evaluate_weights,
    iterations_per_epoch,
)

__all__ = [
    "EvalRecord",
    "PlatformResult",
    "bvlc_caffe",
    "caffe_mpi",
    "evaluate_weights",
    "iterations_per_epoch",
    "mpi_caffe",
    "shmcaffe",
]
