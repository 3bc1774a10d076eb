"""ShmCaffe platform drivers: ShmCaffe-A (async) and ShmCaffe-H (hybrid).

Thin adapters over :class:`repro.core.trainer.DistributedTrainingManager`
producing the same :class:`~repro.platforms.base.PlatformResult` shape as
the baselines, so convergence experiments can overlay all four platforms.

For ShmCaffe the *model under evaluation* is the global weight buffer on
the SMB server (the elastic centre), matching how the paper reports
ShmCaffe accuracy.
"""

from __future__ import annotations

from typing import Optional

from ..caffe.data import SyntheticImageDataset
from ..caffe.solver import SolverConfig
from ..core.autoscale import (
    AutoscaleController,
    AutoscalePolicy,
    AutoscaleSupervisor,
)
from ..core.config import ShmCaffeConfig, TerminationCriterion
from ..core.trainer import DistributedTrainingManager
from ..telemetry import TelemetrySession, resolve as _resolve_telemetry
from .base import EvalRecord, PlatformResult, SpecFactory, evaluate_weights


def train(
    spec_factory: SpecFactory,
    dataset: SyntheticImageDataset,
    solver_config: SolverConfig,
    batch_size: int,
    iterations: int,
    num_workers: int,
    group_size: int = 1,
    moving_rate: float = 0.2,
    update_interval: int = 1,
    eval_every: Optional[int] = None,
    seed: int = 0,
    stale_global_read: bool = False,
    overlap_updates: bool = True,
    termination: TerminationCriterion = TerminationCriterion.MASTER_STOP,
    timeout: Optional[float] = None,
    algorithm: str = "seasgd",
    elastic: bool = False,
    max_workers: Optional[int] = None,
    registry_dir: Optional[str] = None,
    autoscale: bool = False,
) -> PlatformResult:
    """Run ShmCaffe; ``group_size=1`` is variant A, ``>1`` is variant H.

    Args:
        iterations: Per-worker iteration budget (before alignment).
        group_size: Intra-node synchronous group width (paper's S#).
        moving_rate: SEASGD alpha (paper uses 0.2).
        update_interval: Iterations between SMB exchanges (paper uses 1).
        stale_global_read: Ablation — hide the global-weight read behind
            computation, accepting delayed parameters.
        overlap_updates: Run the Fig. 6 update thread (default, faithful).
        termination: Sec. III-E alignment criterion.  Elastic runs force
            ``AVERAGE_ITERATIONS`` (the criterion defined under churn).
        algorithm: Named exchange strategy: ``"seasgd"``, or
            ``"smb_asgd"`` for the Downpour comparator over SMB
            (``update_interval`` then acts as the fetch interval).
        elastic: Let the fleet change size mid-run (requires variant A);
            a membership registry is kept in ``registry_dir``.
        max_workers: Slot ceiling for an elastic run (defaults to
            ``num_workers``).
        registry_dir: Membership registry directory; required when
            ``elastic`` (a temp directory is a fine choice for local
            runs).
        autoscale: Drive :meth:`spawn_worker`/:meth:`retire_worker` from
            an :class:`~repro.core.autoscale.AutoscaleController` polling
            the run's phase telemetry and the registry's live count.  The
            run records into the current telemetry session, or into a
            ``metrics`` session of its own when that one is off.
    """
    if elastic:
        termination = TerminationCriterion.AVERAGE_ITERATIONS
    config = ShmCaffeConfig(
        solver=solver_config,
        moving_rate=moving_rate,
        update_interval=update_interval,
        max_iterations=iterations,
        termination=termination,
        overlap_updates=overlap_updates,
        stale_global_read=stale_global_read,
        algorithm=algorithm,
    )
    telemetry = _resolve_telemetry()
    if autoscale and not telemetry.enabled:
        # The controller decides on phase histograms an ``off`` session
        # never records.
        telemetry = TelemetrySession("metrics")
    manager = DistributedTrainingManager(
        spec_factory=spec_factory,
        config=config,
        dataset=dataset,
        batch_size=batch_size,
        num_workers=num_workers,
        group_size=group_size,
        seed=seed,
        eval_every=eval_every,
        registry_dir=registry_dir,
        elastic=elastic,
        max_workers=max_workers,
        telemetry=telemetry,
    )
    supervisor = None
    if autoscale:
        if not elastic or manager.registry is None:
            raise ValueError("autoscale requires an elastic run")
        controller = AutoscaleController(
            AutoscalePolicy(
                min_workers=num_workers,
                max_workers=manager.max_workers,
            ),
            telemetry=manager.telemetry,
            live_source=manager.registry.live_count,
        )
        supervisor = AutoscaleSupervisor(manager, controller).start()
    try:
        outcome = manager.run(timeout=timeout)
    finally:
        if supervisor is not None:
            supervisor.stop()

    if algorithm != "seasgd":
        name = algorithm
    elif group_size == 1:
        name = "shmcaffe_a"
    else:
        name = "shmcaffe_h"
    result = PlatformResult(platform=name, num_workers=num_workers)
    master = outcome.histories[0]
    result.losses = list(master.losses)
    result.evals = [
        EvalRecord(iteration, metrics)
        for iteration, metrics in outcome.eval_records
    ]
    result.final_weights = outcome.final_global_weights
    # Always finish with an evaluation of the global weights so
    # final_accuracy is defined even when eval_every was off.
    final_metrics = evaluate_weights(
        spec_factory, outcome.final_global_weights, dataset, seed=seed
    )
    result.evals.append(
        EvalRecord(master.completed_iterations, final_metrics)
    )
    return result


def train_async(*args, **kwargs) -> PlatformResult:
    """ShmCaffe-A: every worker is its own SEASGD participant."""
    kwargs["group_size"] = 1
    return train(*args, **kwargs)


def train_hybrid(*args, group_size: int = 4, **kwargs) -> PlatformResult:
    """ShmCaffe-H: SSGD inside groups of ``group_size``, SEASGD between."""
    if group_size < 2:
        raise ValueError("hybrid mode needs group_size >= 2")
    kwargs["group_size"] = group_size
    return train(*args, **kwargs)
