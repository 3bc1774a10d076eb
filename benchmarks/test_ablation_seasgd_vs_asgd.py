"""Ablation: elastic averaging (SEASGD) vs plain Downpour ASGD.

The design argument behind ShmCaffe's choice of EASGD over Downpour-style
ASGD (paper Sec. II): apply-on-arrival gradient pushes suffer the
delayed-gradient problem as workers scale, while the elastic exchange
tolerates exploration.  Head-to-head at the same compute budget, both
over the same SMB substrate (``algorithm="smb_asgd"`` vs ``"seasgd"``).
This is the only place the convergence race is asserted: it compares two
threaded runs, so it lives with the benchmarks, not in tier-1.
"""

import numpy as np

from repro.experiments.convergence import ConvergenceSetup
from repro.experiments.report import ExperimentResult
from repro.platforms import shmcaffe


def test_seasgd_vs_plain_asgd(record):
    setup = ConvergenceSetup(
        model="inception_v1",  # the scaled variant is BN-free: fair to ASGD
        epochs=8, train_per_class=160, noise=1.0, batch_size=10,
        base_lr=0.04,
    )
    dataset = setup.dataset()
    spec_factory = setup.spec_factory()

    def sweep():
        result = ExperimentResult(
            "ablation/seasgd-vs-asgd",
            "final accuracy: SEASGD vs parameter-server ASGD",
        )
        for workers in (4, 8):
            iterations = setup.iterations(dataset, workers)
            config = setup.solver_config(dataset, workers)
            plain = shmcaffe.train(
                spec_factory, dataset, config,
                batch_size=setup.batch_size, iterations=iterations,
                num_workers=workers, seed=setup.seed,
                algorithm="smb_asgd",
            )
            elastic = shmcaffe.train_async(
                spec_factory, dataset, config,
                batch_size=setup.batch_size, iterations=iterations,
                num_workers=workers, moving_rate=setup.moving_rate,
                seed=setup.seed,
            )
            result.rows.append(
                {
                    "workers": workers,
                    "asgd_acc": round(plain.final_accuracy, 3),
                    "seasgd_acc": round(elastic.final_accuracy, 3),
                }
            )
        return result

    result = sweep()
    record("ablation_seasgd_vs_asgd", result)

    for row in result.rows:
        assert np.isfinite(row["asgd_acc"])
        # Elastic averaging must not lose to plain ASGD, and typically
        # wins outright as workers scale.
        assert row["seasgd_acc"] >= row["asgd_acc"] - 0.05
