"""Fig. 8 bench: four-platform convergence (real training, quick recipe).

This is a real-training benchmark: each platform trains the scaled
Inception-v1 on the synthetic stand-in under the paper's recipe
(step-LR every 4 epochs, minibatch-per-worker constant, moving_rate 0.2,
update_interval 1).  Quick mode keeps the whole bench to a couple of
minutes; run ``repro.experiments.fig08_convergence.run(quick=False)`` for
the full 15-epoch version.
"""

import numpy as np

from repro.experiments import fig08_convergence


def test_fig8_convergence(record):
    result = fig08_convergence.run(quick=True)
    record("fig08_convergence", result)

    accuracy = {
        (row["platform"], row["gpus"]): row["final_acc"]
        for row in result.rows
    }
    # Every platform converges well above the 10% chance level.
    assert all(acc > 0.5 for acc in accuracy.values())

    # Paper shape: ShmCaffe lands at or slightly below 1-GPU Caffe and is
    # competitive with the synchronous distributed baselines.
    anchor = accuracy[("caffe", 1)]
    shm = accuracy[("shmcaffe", 8)]
    assert shm > anchor - 0.25
    sync_best = max(
        accuracy[("caffe_mpi", 8)], accuracy[("mpi_caffe", 8)]
    )
    assert shm > sync_best - 0.2

    losses = {
        (row["platform"], row["gpus"]): row["final_loss"]
        for row in result.rows
    }
    assert all(np.isfinite(loss) for loss in losses.values())
