"""Ablation: the ``update_interval`` hyper-parameter.

ShmCaffe's first extra hyper-parameter trades communication for
freshness: exchanging with SMB every k-th iteration divides the visible
communication by ~k (analytic sweep) but loosens the elastic coupling
(training sweep).
"""

import pytest

from repro.experiments.convergence import ConvergenceSetup
from repro.experiments.report import ExperimentResult
from repro.perfmodel import model_profile, shmcaffe_a
from repro.platforms import shmcaffe

INTERVALS = (1, 2, 4, 8)


def test_update_interval_comm_amortisation(record):
    model = model_profile("resnet_50")
    result = ExperimentResult(
        "ablation/update_interval",
        "communication per iteration vs update_interval (ResNet-50 @8)",
    )
    for interval in INTERVALS:
        breakdown = shmcaffe_a(model, 8, update_interval=interval)
        result.rows.append(
            {
                "update_interval": interval,
                "comm_ms": round(breakdown.comm_ms, 1),
                "comm_pct": round(breakdown.comm_ratio * 100, 1),
            }
        )
    record("ablation_update_interval_analytic", result)

    comm = result.column("comm_ms")
    assert all(b < a for a, b in zip(comm, comm[1:]))
    # Amortisation is roughly 1/k for the read-dominated regime.
    assert comm[0] / comm[-1] == pytest.approx(8.0, rel=0.35)


def test_update_interval_accuracy_tradeoff(record):
    setup = ConvergenceSetup(
        epochs=8, train_per_class=160, noise=1.0, batch_size=10,
        base_lr=0.05,
    )
    dataset = setup.dataset()
    iterations = setup.iterations(dataset, workers=4)
    solver_config = setup.solver_config(dataset, workers=4)

    def sweep():
        result = ExperimentResult(
            "ablation/update_interval",
            "final accuracy vs update_interval (4 async workers)",
        )
        for interval in (1, 8):
            outcome = shmcaffe.train_async(
                setup.spec_factory(), dataset, solver_config,
                batch_size=setup.batch_size, iterations=iterations,
                num_workers=4, update_interval=interval,
                moving_rate=setup.moving_rate, seed=setup.seed,
            )
            result.rows.append(
                {
                    "update_interval": interval,
                    "final_acc": round(outcome.final_accuracy, 3),
                    "final_loss": round(outcome.final_loss, 3),
                }
            )
        return result

    result = sweep()
    record("ablation_update_interval_training", result)
    accs = result.column("final_acc")
    # Both still learn; tight coupling must not be catastrophically worse.
    assert all(acc > 0.25 for acc in accs)
