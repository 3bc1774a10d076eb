"""Tests for the SEASGD worker (Fig. 6 protocol) and termination alignment."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.caffe import Net, SolverConfig, SyntheticImageDataset
from repro.caffe.params import FlatParams
from repro.core import (
    DistributedTrainingManager,
    SEASGDExchange,
    SMBAsgdExchange,
)
from repro.core.config import ShmCaffeConfig, TerminationCriterion
from repro.core.engine import WorkerError
from repro.core.termination import TerminationCoordinator
from repro.smb import ControlBlock, SMBClient, SMBServer, shm_transport

from .helpers import build_engine
from .test_netspec import small_spec


@pytest.fixture()
def dataset():
    return SyntheticImageDataset(
        num_classes=4, image_size=8, train_per_class=30, test_per_class=5,
        noise=0.6, seed=2,
    )


def make_worker(server, dataset, rank=0, overlap=True, iterations=5,
                update_interval=1, stale=False, moving_rate=0.2, seed=0):
    client = SMBClient.in_process(server)
    net = Net(small_spec(batch=4), seed=seed)
    flat = FlatParams(net)
    try:
        shm_key, _ = client.lookup("W_g")
        global_array = client.attach_array("W_g", shm_key, flat.count)
    except Exception:
        global_array = client.create_array("W_g", flat.count)
        global_array.write(flat.get_vector())
    config = ShmCaffeConfig(
        solver=SolverConfig(base_lr=0.05, momentum=0.9),
        moving_rate=moving_rate,
        update_interval=update_interval,
        max_iterations=iterations,
        overlap_updates=overlap,
        stale_global_read=stale,
    )
    worker = build_engine(
        rank=rank,
        net=net,
        config=config,
        global_weights=global_array,
        batches=dataset.minibatches(4, seed=rank + 10),
    )
    return worker, global_array


class TestWorker:
    def test_runs_configured_iterations(self, dataset):
        server = SMBServer(capacity=1 << 22)
        worker, _ = make_worker(server, dataset, iterations=7)
        history = worker.run()
        assert history.completed_iterations == 7
        assert len(history.records) == 7

    def test_history_records_losses_and_exchanges(self, dataset):
        server = SMBServer(capacity=1 << 22)
        worker, _ = make_worker(
            server, dataset, iterations=6, update_interval=3
        )
        history = worker.run()
        exchanged = [r.exchanged for r in history.records]
        assert exchanged == [True, False, False, True, False, False]
        assert all(np.isfinite(loss) for loss in history.losses)

    def test_global_weights_track_replica(self, dataset):
        # With one worker and alpha near 1, W_g must chase the replica.
        server = SMBServer(capacity=1 << 22)
        worker, global_array = make_worker(
            server, dataset, iterations=10, moving_rate=0.9
        )
        worker.run()
        final_local = worker.flat.get_vector()
        final_global = global_array.read()
        gap = np.abs(final_local - final_global).max()
        assert gap < 0.5

    def test_overlap_and_synchronous_agree_for_single_worker(self, dataset):
        # With one worker the ping-pong protocol is strictly alternating,
        # so overlapped and inline exchanges must produce identical math.
        results = {}
        for overlap in (False, True):
            server = SMBServer(capacity=1 << 22)
            worker, global_array = make_worker(
                server, dataset, iterations=8, overlap=overlap
            )
            worker.run()
            results[overlap] = (
                worker.flat.get_vector(), global_array.read()
            )
        np.testing.assert_allclose(
            results[False][0], results[True][0], rtol=1e-5, atol=1e-6
        )
        np.testing.assert_allclose(
            results[False][1], results[True][1], rtol=1e-5, atol=1e-6
        )

    def test_increment_conservation(self, dataset):
        # W_g(final) - W_g(init) must equal the sum of all increments the
        # worker pushed (server-side accumulate is pure addition).
        server = SMBServer(capacity=1 << 22)
        worker, global_array = make_worker(
            server, dataset, iterations=5, overlap=False
        )
        initial_global = global_array.read()
        pushed = []

        original = global_array.accumulate

        def spy(values):
            pushed.append(np.array(values, copy=True))
            return original(values)

        global_array.accumulate = spy
        worker.run()
        drift = global_array.read() - initial_global
        np.testing.assert_allclose(
            drift, np.sum(pushed, axis=0), rtol=1e-4, atol=1e-5
        )

    def test_buffer_size_mismatch_rejected(self, dataset):
        server = SMBServer(capacity=1 << 22)
        client = SMBClient.in_process(server)
        net = Net(small_spec(batch=4), seed=0)
        flat_count = FlatParams(net).count
        bad_global = client.create_array("W_g_bad", flat_count + 1)
        with pytest.raises(WorkerError):
            build_engine(
                rank=0,
                net=net,
                config=ShmCaffeConfig(),
                global_weights=bad_global,
                batches=dataset.minibatches(4, seed=0),
            )

    def test_stale_read_mode_completes(self, dataset):
        server = SMBServer(capacity=1 << 22)
        worker, _ = make_worker(server, dataset, iterations=6, stale=True)
        history = worker.run()
        assert history.completed_iterations == 6

    @pytest.mark.parametrize("strategy", [SEASGDExchange, SMBAsgdExchange])
    def test_bind_allocates_one_model_sized_buffer(self, strategy):
        """``W_g`` is read into the buffer ``dW_x`` is then computed in:
        binding a strategy allocates one model-sized array, not two."""
        count = 1 << 18
        global_w = SMBClient.in_process(
            SMBServer(capacity=8 * count)
        ).create_array("W_g", count)
        engine = SimpleNamespace(
            rank=0,
            telemetry=None,
            config=ShmCaffeConfig(overlap_updates=False),
            flat=SimpleNamespace(
                count=count, vector=np.zeros(count, dtype=np.float32)
            ),
        )
        exchange = strategy(global_w)
        model_bytes = 4 * count
        tracemalloc.start()
        try:
            exchange.bind(engine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model_bytes <= peak < model_bytes + model_bytes // 8

    def test_on_iteration_callback(self, dataset):
        server = SMBServer(capacity=1 << 22)
        worker, _ = make_worker(server, dataset, iterations=3)
        calls = []
        worker.on_iteration = lambda rank, it, stats: calls.append(
            (rank, it)
        )
        worker.run()
        assert calls == [(0, 1), (0, 2), (0, 3)]


class TestTermination:
    def make_control(self, num_workers):
        server = SMBServer(capacity=1 << 20)
        client = SMBClient.in_process(server)
        control = ControlBlock.create(client, "ctl", num_workers)
        for slot in range(num_workers):  # each launch rank's claim
            control.claim(slot)
        return control

    def test_master_stop_signals_slaves(self):
        control = self.make_control(2)
        master = TerminationCoordinator(
            control, 0, TerminationCriterion.MASTER_STOP, 5,
            generation=1,
        )
        slave = TerminationCoordinator(
            control, 1, TerminationCriterion.MASTER_STOP, 5,
            generation=1,
        )
        assert not slave.should_stop(3)
        assert not master.should_stop(4)
        assert master.should_stop(5)
        assert slave.should_stop(3)  # master's flag reached it

    def test_first_finisher_stops_everyone(self):
        control = self.make_control(3)
        coordinators = [
            TerminationCoordinator(
                control, rank, TerminationCriterion.FIRST_FINISHER, 10,
                generation=1,
            )
            for rank in range(3)
        ]
        assert not coordinators[2].should_stop(9)
        assert coordinators[1].should_stop(10)
        assert coordinators[0].should_stop(4)
        assert coordinators[2].should_stop(5)

    def test_average_iterations(self):
        control = self.make_control(2)
        a = TerminationCoordinator(
            control, 0, TerminationCriterion.AVERAGE_ITERATIONS, 10,
            generation=1,
        )
        b = TerminationCoordinator(
            control, 1, TerminationCriterion.AVERAGE_ITERATIONS, 10,
            generation=1,
        )
        a.publish(14)
        b.publish(5)
        assert not a.should_stop(14)  # mean 9.5 < 10
        b.publish(6)
        assert a.should_stop(14)  # mean 10 reached
        assert b.should_stop(6)

    def test_backstop_caps_runaway_worker(self):
        control = self.make_control(2)
        slave = TerminationCoordinator(
            control, 1, TerminationCriterion.MASTER_STOP, 5,
            generation=1,
        )
        # The master never signals, but the slave gives up at 2x target.
        assert not slave.should_stop(9)
        assert slave.should_stop(10)

    def test_invalid_target(self):
        control = self.make_control(1)
        with pytest.raises(ValueError):
            TerminationCoordinator(
                control, 0, TerminationCriterion.MASTER_STOP, 0,
                generation=1,
            )


class TestOneReadPerDecision:
    """A stop decision and a fleet-barrier poll each take at most one
    READ of the control block, on every doorway: one view carries the
    stop flag and every slot's progress."""

    @pytest.fixture()
    def counted(self, doorway, monkeypatch):
        """``doorway`` with every READ going through its server, so the
        server's counters see each one (shm READs after the first are
        one-sided otherwise)."""
        monkeypatch.setattr(shm_transport, "ONE_SIDED", False)
        return doorway

    @staticmethod
    def _ops(doorway, rank, criterion, decide):
        """Run ``decide`` on a fresh coordinator at slot ``rank`` of a
        two-slot fleet; return its result and the server ops it cost."""
        control = ControlBlock.create(doorway.connect(), "ctl", 2)
        for slot in range(2):
            control.claim(slot)
        coordinator = TerminationCoordinator(
            ControlBlock.attach(doorway.connect(), "ctl", control.shm_key, 2),
            rank, criterion, 5, generation=1,
        )
        stats = doorway.core.stats
        before = stats.op_counts
        result = decide(coordinator)
        after = stats.op_counts
        return result, {
            op: after[op] - before.get(op, 0)
            for op in after if after[op] != before.get(op, 0)
        }

    @pytest.mark.parametrize("criterion, rank, ops", [
        (TerminationCriterion.MASTER_STOP, 1, {"READ": 1}),
        (TerminationCriterion.MASTER_STOP, 0, {}),
        (TerminationCriterion.FIRST_FINISHER, 1, {"READ": 1}),
        (TerminationCriterion.AVERAGE_ITERATIONS, 1, {"READ": 1}),
    ])
    def test_a_stop_decision_reads_the_block_at_most_once(
        self, counted, criterion, rank, ops
    ):
        stopped, cost = self._ops(
            counted, rank, criterion, lambda c: c.should_stop(3)
        )
        assert not stopped
        assert cost == ops

    def test_a_fleet_barrier_poll_reads_the_block_once(self, counted):
        reached, cost = self._ops(
            counted, 0, TerminationCriterion.MASTER_STOP,
            lambda c: c.wait_for_fleet(1, timeout=0.0),
        )
        assert not reached  # one poll: progress 0 < 1, then the deadline
        assert cost == {"READ": 1}


class TestOneReadPerIteration:
    """An elastic worker reads the control block once per iteration: the
    ``alpha = beta / p`` rescale takes ``p`` from the view its last stop
    decision read, and only the first exchange, before any decision,
    takes a view of its own."""

    def test_an_elastic_worker_reads_the_block_once_per_iteration(
        self, doorway, monkeypatch, dataset, tmp_path
    ):
        # Every READ goes through the server, as in TestOneReadPerDecision.
        monkeypatch.setattr(shm_transport, "ONE_SIDED", False)
        # Every client of the run is a client of this doorway.
        monkeypatch.setattr(
            DistributedTrainingManager, "_make_client",
            lambda manager, rank=None: doorway.connect(),
        )
        target = 6
        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=ShmCaffeConfig(
                solver=SolverConfig(base_lr=0.05, momentum=0.9),
                moving_rate=0.2,
                max_iterations=target,
                termination=TerminationCriterion.AVERAGE_ITERATIONS,
                overlap_updates=False,
            ),
            dataset=dataset,
            batch_size=4,
            num_workers=1,
            seed=2,
            registry_dir=str(tmp_path / "registry"),
            elastic=True,
            max_workers=2,
        )
        stats = doorway.core.stats
        before = stats.op_counts.get("READ", 0)
        result = manager.run(timeout=120)
        reads = stats.op_counts["READ"] - before
        # One worker alone reaches the AVERAGE target exactly.
        iterations = result.histories[0].completed_iterations
        assert iterations == target
        # W_g: the replica's warm start, one per exchange, the run's
        # final read.  The control block: the slot claim, the first
        # exchange's view, then one per stop decision.
        w_g_reads = 1 + iterations + 1
        assert reads - w_g_reads == 1 + 1 + iterations

