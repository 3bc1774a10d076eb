"""Shared scaffolding for the four training platforms of Sec. IV-C.

Every platform driver returns a :class:`PlatformResult` with the same
shape, so the Fig. 8 / Fig. 11 convergence experiments can overlay
platforms directly: train-loss per iteration, periodic test metrics, and
the final weights.  The baselines train through :func:`launch`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import mpi
from ..caffe.data import Prefetcher, SyntheticImageDataset
from ..caffe.net import Net
from ..caffe.netspec import NetSpec
from ..caffe.params import FlatParams
from ..caffe.solver import SolverConfig
from ..core.config import ShmCaffeConfig
from ..core.engine import TrainingEngine
from ..core.exchange import BaseExchange
from ..core.trainer import EVAL_BATCH_SIZE

SpecFactory = Callable[[], NetSpec]


def _accuracy_of(metrics: Dict[str, float]) -> float:
    """Pull the top-1 accuracy metric regardless of the blob's exact name."""
    for key in ("accuracy_top1", "accuracy", "acc"):
        if key in metrics:
            return metrics[key]
    for key, value in sorted(metrics.items()):
        if key.startswith("acc"):
            return value
    return float("nan")


@dataclass
class EvalRecord:
    """Test-split metrics snapped at a training iteration."""

    iteration: int
    metrics: Dict[str, float]


@dataclass
class PlatformResult:
    """Outcome of one platform training run."""

    platform: str
    num_workers: int
    losses: List[float] = field(default_factory=list)
    evals: List[EvalRecord] = field(default_factory=list)
    final_weights: Optional[np.ndarray] = None

    @property
    def final_accuracy(self) -> float:
        """Top-1 accuracy of the last evaluation (NaN if none taken)."""
        if not self.evals:
            return float("nan")
        return _accuracy_of(self.evals[-1].metrics)

    @property
    def final_loss(self) -> float:
        """Test loss of the last evaluation (NaN if none taken)."""
        if not self.evals:
            return float("nan")
        return self.evals[-1].metrics.get("loss", float("nan"))

    def accuracy_curve(self) -> List[Tuple[int, float]]:
        """(iteration, top-1 accuracy) series for plotting."""
        return [
            (record.iteration, _accuracy_of(record.metrics))
            for record in self.evals
        ]


def evaluate_weights(
    spec_factory: SpecFactory,
    weights: np.ndarray,
    dataset: SyntheticImageDataset,
    batch_size: int = EVAL_BATCH_SIZE,
    seed: int = 0,
) -> Dict[str, float]:
    """Test-split metrics of a flat weight vector under a fresh net."""
    net = Net(spec_factory(), seed=seed)
    FlatParams(net).set_vector(weights)
    return net.evaluate(
        [b.as_inputs() for b in dataset.test_batches(batch_size)]
    )


def launch(
    platform: str,
    spec_factory: SpecFactory,
    dataset: SyntheticImageDataset,
    solver_config: SolverConfig,
    batch_size: int,
    iterations: int,
    num_workers: int,
    make_strategy: Callable[[Optional[mpi.Communicator]], BaseExchange],
    eval_every: Optional[int] = None,
    seed: int = 0,
    prefetch: bool = False,
) -> PlatformResult:
    """Train ``num_workers`` seeded replicas on :class:`TrainingEngine`.

    Each rank trains its own shard under the strategy ``make_strategy``
    builds from its communicator (``None`` for a single worker); rank 0's
    losses, test-split evaluations and final weights make the result.
    """
    result = PlatformResult(platform=platform, num_workers=num_workers)
    config = ShmCaffeConfig(solver=solver_config, max_iterations=iterations)
    test_batches = [
        b.as_inputs() for b in dataset.test_batches(EVAL_BATCH_SIZE)
    ]

    def rank_main(comm: Optional[mpi.Communicator]) -> None:
        rank = comm.rank if comm is not None else 0
        net = Net(spec_factory(), seed=seed)  # identical replicas
        batches = dataset.minibatches(
            batch_size, seed=seed + 1 + rank, rank=rank,
            num_shards=num_workers,
        )

        def evaluate(_rank: int, iteration: int, _stats: Dict[str, float]) -> None:
            if eval_every and iteration % eval_every == 0:
                result.evals.append(
                    EvalRecord(iteration, net.evaluate(test_batches))
                )

        with contextlib.ExitStack() as stack:
            if prefetch:
                batches = stack.enter_context(Prefetcher(batches))
            engine = TrainingEngine(
                rank, net, config, batches, make_strategy(comm),
                on_iteration=evaluate if rank == 0 else None,
            )
            history = engine.run()
        if rank == 0:
            result.losses = history.losses
            result.final_weights = engine.flat.get_vector()

    if num_workers == 1:
        rank_main(None)
    else:
        mpi.run_spmd(num_workers, rank_main)
    return result


def iterations_per_epoch(
    dataset: SyntheticImageDataset, batch_size: int, num_workers: int
) -> int:
    """Data-parallel iterations that consume one pass over the train set."""
    return max(1, dataset.train_size // (batch_size * num_workers))
