"""Integration properties: straggler alignment, increment conservation
and gradient clipping."""

import threading
import time

import numpy as np
import pytest

from repro.caffe import Net, SGDSolver, SolverConfig, SyntheticImageDataset
from repro.caffe.params import FlatParams
from repro.core import (
    DistributedTrainingManager,
    ShmCaffeConfig,
    TerminationCriterion,
)
from repro.smb import SMBServer

from .test_net_solver import make_inputs
from .test_netspec import small_spec


@pytest.fixture()
def dataset():
    return SyntheticImageDataset(
        num_classes=4, image_size=8, train_per_class=40, test_per_class=8,
        noise=0.7, seed=8,
    )


class SlowBatches:
    """Wrap a minibatch stream, sleeping before each batch (a straggler)."""

    def __init__(self, inner, delay_s):
        self.inner = inner
        self.delay_s = delay_s

    def __iter__(self):
        return self

    def __next__(self):
        time.sleep(self.delay_s)
        return next(self.inner)


def make_straggler_manager(dataset, criterion, iterations, slow_rank=1,
                           delay_s=0.05):
    manager = DistributedTrainingManager(
        spec_factory=lambda: small_spec(batch=4),
        config=ShmCaffeConfig(
            solver=SolverConfig(base_lr=0.05, momentum=0.9),
            max_iterations=iterations,
            termination=criterion,
        ),
        dataset=dataset,
        batch_size=4,
        num_workers=2,
        seed=1,
    )
    original = manager._rank_main

    def delayed(comm):
        if comm.rank == slow_rank:
            # Slow this worker's data pipeline down (shared-bus effect
            # from paper Sec. III-E).
            real = dataset.minibatches(4, seed=99, rank=comm.rank,
                                       num_shards=2)
            slow = SlowBatches(real, delay_s)
            fast_minibatches = dataset.minibatches

            def patched(batch_size, seed=0, rank=0, num_shards=1,
                        skip=0):
                if rank == slow_rank:
                    return slow
                return fast_minibatches(batch_size, seed=seed, rank=rank,
                                        num_shards=num_shards, skip=skip)

            dataset.minibatches = patched
            try:
                return original(comm)
            finally:
                dataset.minibatches = fast_minibatches
        return original(comm)

    manager._rank_main = delayed
    return manager


class TestStragglerAlignment:
    """Sec. III-E: deviations in worker speed are absorbed by the shared
    progress info instead of idling fast workers at the end."""

    def test_first_finisher_cuts_the_straggler_short(self, dataset):
        manager = make_straggler_manager(
            dataset, TerminationCriterion.FIRST_FINISHER, iterations=12
        )
        result = manager.run(timeout=300)
        fast = result.histories[0].completed_iterations
        slow = result.histories[1].completed_iterations
        assert fast >= 12
        assert slow < fast  # the straggler stopped early, not the fleet

    def test_average_iterations_lets_fast_workers_compensate(self, dataset):
        manager = make_straggler_manager(
            dataset, TerminationCriterion.AVERAGE_ITERATIONS, iterations=10
        )
        result = manager.run(timeout=300)
        iters = [h.completed_iterations for h in result.histories]
        # The fleet's mean progress reached the target...
        assert float(np.mean(iters)) >= 10 - 1
        # ...with the fast worker doing more than the slow one.
        assert iters[0] > iters[1]


class TestIncrementConservation:
    def test_global_drift_equals_sum_of_all_pushed_increments(self, dataset):
        """Across N concurrent workers, W_g(final) - W_g(init) must equal
        the sum of every increment anyone pushed: the SMB server's
        accumulate is pure, order-independent addition."""
        server = SMBServer(capacity=1 << 24)
        pushed_lock = threading.Lock()
        pushed = []

        from repro.smb.client import RemoteArray

        original_accumulate = RemoteArray.accumulate

        def spying_accumulate(self, values, scale=1.0):
            with pushed_lock:
                pushed.append(scale * np.array(values, copy=True))
            return original_accumulate(self, values, scale)

        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=ShmCaffeConfig(
                solver=SolverConfig(base_lr=0.05, momentum=0.9),
                max_iterations=6,
                termination=TerminationCriterion.MASTER_STOP,
            ),
            dataset=dataset,
            batch_size=4,
            num_workers=3,
            server=server,
            seed=1,
        )
        net = Net(small_spec(batch=4), seed=1)
        initial = FlatParams(net).get_vector()

        RemoteArray.accumulate = spying_accumulate
        try:
            result = manager.run(timeout=300)
        finally:
            RemoteArray.accumulate = original_accumulate

        drift = result.final_global_weights - initial
        total_pushed = np.sum(pushed, axis=0)
        np.testing.assert_allclose(drift, total_pushed, rtol=1e-3,
                                   atol=1e-4)


class TestGradientClipping:
    def test_clip_rescales_to_threshold(self):
        net = Net(small_spec(), seed=0)
        solver = SGDSolver(
            net, SolverConfig(base_lr=0.1, clip_gradients=1.0)
        )
        solver.compute_gradients(make_inputs())
        # Inflate gradients so the norm clearly exceeds the cap.
        for blob in net.params:
            blob.diff *= 100.0
        norm_before = solver.clip_stored_gradients()
        assert norm_before > 1.0
        total = sum(
            float(np.dot(b.diff.ravel(), b.diff.ravel()))
            for b in net.params
        )
        assert np.sqrt(total) == pytest.approx(1.0, rel=1e-4)

    def test_no_clip_below_threshold(self):
        net = Net(small_spec(), seed=0)
        solver = SGDSolver(
            net, SolverConfig(base_lr=0.1, clip_gradients=1e9)
        )
        solver.compute_gradients(make_inputs())
        before = [blob.diff.copy() for blob in net.params]
        solver.clip_stored_gradients()
        for prior, blob in zip(before, net.params):
            np.testing.assert_array_equal(prior, blob.diff)

    def test_clipped_training_stays_finite_at_high_lr(self):
        clipped = SGDSolver(
            Net(small_spec(), seed=0),
            SolverConfig(base_lr=5.0, momentum=0.9, clip_gradients=0.1),
        )
        inputs = make_inputs()
        for _ in range(10):
            stats = clipped.step(inputs)
        assert np.isfinite(stats["loss"])

