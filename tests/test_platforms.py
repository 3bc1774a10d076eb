"""Tests for the four platform drivers and their cross-consistency."""

import numpy as np
import pytest

from repro.caffe import SolverConfig, SyntheticImageDataset
from repro.platforms import (
    bvlc_caffe,
    caffe_mpi,
    evaluate_weights,
    iterations_per_epoch,
    mpi_caffe,
    shmcaffe,
)

from .test_netspec import small_spec


@pytest.fixture()
def dataset():
    return SyntheticImageDataset(
        num_classes=4, image_size=8, train_per_class=40, test_per_class=8,
        noise=0.7, seed=6,
    )


def spec_factory():
    return small_spec(batch=4)


SOLVER = SolverConfig(base_lr=0.05, momentum=0.9)


class TestStandalone:
    def test_losses_recorded_per_iteration(self, dataset):
        result = bvlc_caffe.train_standalone(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=10
        )
        assert len(result.losses) == 10
        assert result.platform == "caffe"
        assert result.num_workers == 1

    def test_eval_every(self, dataset):
        result = bvlc_caffe.train_standalone(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=10,
            eval_every=5,
        )
        assert [record.iteration for record in result.evals] == [5, 10]

    def test_final_weights_evaluable(self, dataset):
        result = bvlc_caffe.train_standalone(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=30
        )
        metrics = evaluate_weights(
            spec_factory, result.final_weights, dataset
        )
        assert metrics["acc"] > 0.3  # clearly above 0.25 chance


class TestMultiGpuEquivalence:
    def test_caffe_nccl_equals_mpicaffe_allreduce(self, dataset):
        """Both SSGD implementations average the same gradients over the
        same shards from the same init: final weights must match."""
        a = bvlc_caffe.train_multi_gpu(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=8,
            num_workers=4, seed=3,
        )
        b = mpi_caffe.train(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=8,
            num_workers=4, seed=3,
        )
        np.testing.assert_allclose(
            a.final_weights, b.final_weights, rtol=1e-4, atol=1e-5
        )

    def test_caffe_mpi_star_matches_allreduce_when_deterministic(
        self, dataset
    ):
        """The star topology averages the same per-iteration gradients as
        allreduce; weight trajectories must agree (modulo float order)."""
        a = caffe_mpi.train(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=5,
            num_workers=3, seed=3,
        )
        b = mpi_caffe.train(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=5,
            num_workers=3, seed=3,
        )
        np.testing.assert_allclose(
            a.final_weights, b.final_weights, rtol=1e-3, atol=1e-4
        )

    def test_synchronous_baselines_are_bit_identical_and_repeatable(
        self, dataset
    ):
        """Ring, allreduce and star all sum the gradients in rank order:
        one seeded run gives the same bytes on every platform, and the
        star gives them again on a second run whatever the thread
        timing."""
        common = dict(
            spec_factory=spec_factory, dataset=dataset,
            solver_config=SOLVER, batch_size=4, iterations=8,
            num_workers=4, seed=3,
        )
        runs = [
            bvlc_caffe.train_multi_gpu(**common),
            mpi_caffe.train(**common),
            caffe_mpi.train(**common),
            caffe_mpi.train(**common),
        ]
        reference = runs[0]
        for result in runs[1:]:
            assert (
                result.final_weights.tobytes()
                == reference.final_weights.tobytes()
            )
            assert result.losses == reference.losses

    def test_multi_gpu_requires_multiple_workers(self, dataset):
        with pytest.raises(ValueError):
            bvlc_caffe.train_multi_gpu(
                spec_factory, dataset, SOLVER, batch_size=4, iterations=2,
                num_workers=1,
            )
        with pytest.raises(ValueError):
            caffe_mpi.train(
                spec_factory, dataset, SOLVER, batch_size=4, iterations=2,
                num_workers=1,
            )
        with pytest.raises(ValueError):
            mpi_caffe.train(
                spec_factory, dataset, SOLVER, batch_size=4, iterations=2,
                num_workers=1,
            )


class TestShmCaffeDrivers:
    def test_async_driver(self, dataset):
        result = shmcaffe.train_async(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=8,
            num_workers=2,
        )
        assert result.platform == "shmcaffe_a"
        assert result.evals  # final evaluation always appended
        assert np.isfinite(result.final_accuracy)

    def test_hybrid_driver(self, dataset):
        result = shmcaffe.train_hybrid(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=8,
            num_workers=4, group_size=2,
        )
        assert result.platform == "shmcaffe_h"

    def test_hybrid_needs_group(self, dataset):
        with pytest.raises(ValueError):
            shmcaffe.train_hybrid(
                spec_factory, dataset, SOLVER, batch_size=4, iterations=2,
                num_workers=2, group_size=1,
            )

    def test_async_learns(self, dataset):
        result = shmcaffe.train_async(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=50,
            num_workers=2,
        )
        assert result.final_accuracy > 0.4

    def test_update_interval_amortises_exchanges(self, dataset):
        result = shmcaffe.train_async(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=9,
            num_workers=2, update_interval=3,
        )
        assert result.platform == "shmcaffe_a"
        assert len(result.losses) >= 9


class TestHelpers:
    def test_iterations_per_epoch(self, dataset):
        assert iterations_per_epoch(dataset, 4, 1) == 40
        assert iterations_per_epoch(dataset, 4, 4) == 10
        assert iterations_per_epoch(dataset, 1000, 16) == 1  # floor of 1

    def test_accuracy_curve_shape(self, dataset):
        result = bvlc_caffe.train_standalone(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=10,
            eval_every=5,
        )
        curve = result.accuracy_curve()
        assert len(curve) == 2
        assert curve[0][0] == 5

    def test_empty_evals_give_nan(self, dataset):
        result = bvlc_caffe.train_standalone(
            spec_factory, dataset, SOLVER, batch_size=4, iterations=2
        )
        assert np.isnan(result.final_accuracy)
        assert np.isnan(result.final_loss)
