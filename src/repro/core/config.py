"""Hyper-parameters of ShmCaffe training.

ShmCaffe "supports all hyper-parameters supported by Caffe and additionally
supports two hyper-parameters: update_interval and moving_rate" (paper
Sec. III-A).  :class:`ShmCaffeConfig` bundles those two with the wrapped
Caffe solver configuration and the distributed-run knobs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..caffe.solver import SolverConfig


class TerminationCriterion(enum.Enum):
    """The three end-of-training alignment rules of paper Sec. III-E."""

    #: 1) all workers finish when the master worker terminates.
    MASTER_STOP = "master_stop"
    #: 2) all workers finish according to the first worker to finish.
    FIRST_FINISHER = "first_finisher"
    #: 3) all workers finish when the *average* iteration count of all
    #: workers reaches the specified number of iterations.
    AVERAGE_ITERATIONS = "average_iterations"


@dataclass
class ShmCaffeConfig:
    """Everything a ShmCaffe worker needs beyond the net spec and data.

    Attributes:
        solver: The wrapped Caffe solver hyper-parameters.
        moving_rate: The elastic moving-average rate alpha of eqs. (5)-(7).
            The paper's experiments use 0.2.
        update_interval: Exchange with the SMB global weights every this
            many local iterations.  The paper's experiments use 1.
        max_iterations: Per-worker training iterations (before alignment).
        termination: Which Sec. III-E alignment rule ends the run.
        overlap_updates: Run the Fig. 6 update_thread so the write side of
            the exchange hides behind computation.  Disable for bit-exact
            deterministic tests.
        stale_global_read: Ablation switch — hide the *read* side too, by
            reading the global weights concurrently with computation.  The
            paper deliberately refuses this ("the learning performance
            deteriorates due to the delayed parameter problem"); enabling
            it reproduces that deterioration.
        algorithm: Named exchange strategy for SMB participants (see
            :func:`repro.core.exchange.make_exchange`).  ``"seasgd"`` is the
            paper's rule; ``"smb_asgd"`` runs the Downpour baseline over
            the SMB accumulate primitive.
    """

    solver: SolverConfig = field(default_factory=SolverConfig)
    moving_rate: float = 0.2
    update_interval: int = 1
    max_iterations: int = 100
    termination: TerminationCriterion = TerminationCriterion.MASTER_STOP
    overlap_updates: bool = True
    stale_global_read: bool = False
    algorithm: str = "seasgd"

    def __post_init__(self) -> None:
        if not 0.0 < self.moving_rate <= 1.0:
            raise ValueError(
                f"moving_rate must be in (0, 1], got {self.moving_rate}"
            )
        if self.stale_global_read and self.algorithm != "seasgd":
            raise ValueError(
                "stale_global_read is a SEASGD ablation; it cannot be "
                f"combined with algorithm={self.algorithm!r}"
            )
        if self.update_interval < 1:
            raise ValueError(
                f"update_interval must be >= 1, got {self.update_interval}"
            )
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
