"""Bench: the discrete-event SMB contention simulation itself.

Runs the queue-level simulation and records a side-by-side against the
calibrated analytic model — the gap between the two columns is the
protocol/processing overhead the calibration folds into beta.
"""

from repro.experiments.report import ExperimentResult
from repro.perfmodel import (
    model_profile,
    shmcaffe_a,
    simulate_seasgd_contention,
)


def test_desim_vs_analytic(record):
    model = model_profile("inception_resnet_v2")

    result = ExperimentResult(
        "desim",
        "queue-level simulation vs calibrated analytic model "
        "(Inception-ResNet-v2)",
    )
    for workers in (2, 4, 8, 16):
        sim = simulate_seasgd_contention(
            model, workers, iterations=25, seed=0
        )
        analytic = shmcaffe_a(model, workers)
        result.rows.append(
            {
                "workers": workers,
                "desim_comm_ms": round(sim.mean_comm_ms, 1),
                "analytic_comm_ms": round(analytic.comm_ms, 1),
                "desim_nic_util": round(sim.nic_utilisation, 2),
            }
        )
    record("desim_vs_analytic", result)

    desim_col = result.column("desim_comm_ms")
    analytic_col = result.column("analytic_comm_ms")
    assert all(b > a for a, b in zip(desim_col, desim_col[1:]))
    # The analytic model (protocol overheads included) upper-bounds the
    # bandwidth-only simulation at every scale.
    assert all(a >= d for d, a in zip(desim_col, analytic_col))
