"""End-to-end TCP training and failure-injection tests."""

import gc
import time
import warnings

import numpy as np
import pytest

from repro.caffe import Net, SolverConfig, SyntheticImageDataset
from repro.caffe.params import FlatParams
from repro.core import (
    DistributedTrainingManager,
    ShmCaffeConfig,
    TerminationCriterion,
)
from repro.core.engine import WorkerError
from repro.smb import (
    FaultInjectingTransport,
    FaultPlan,
    SMBClient,
    SMBError,
    SMBServer,
    TcpSMBServer,
)

from .helpers import build_engine
from .test_netspec import small_spec


@pytest.fixture()
def dataset():
    return SyntheticImageDataset(
        num_classes=4, image_size=8, train_per_class=40, test_per_class=8,
        noise=0.7, seed=5,
    )


def make_config(iterations=5):
    return ShmCaffeConfig(
        solver=SolverConfig(base_lr=0.05, momentum=0.9),
        moving_rate=0.2,
        max_iterations=iterations,
        termination=TerminationCriterion.MASTER_STOP,
    )


class TestTcpTrainer:
    def test_full_run_over_tcp(self, dataset):
        """The whole distributed job against a real TCP SMB server."""
        with TcpSMBServer(capacity=1 << 26) as server:
            manager = DistributedTrainingManager(
                spec_factory=lambda: small_spec(batch=4),
                config=make_config(iterations=5),
                dataset=dataset,
                batch_size=4,
                num_workers=3,
                server_address=server.address,
                seed=1,
            )
            result = manager.run(timeout=300)
        assert len(result.histories) == 3
        # MASTER_STOP: the master runs its full budget; slaves stop when
        # its flag lands, which may be before their own 5th iteration.
        assert result.histories[0].completed_iterations >= 5
        assert all(h.completed_iterations >= 1 for h in result.histories)
        assert np.isfinite(result.final_global_weights).all()

    def test_namespaced_jobs_share_one_server(self, dataset):
        """Two sequential jobs coexist on one server via namespaces."""
        with TcpSMBServer(capacity=1 << 26) as server:
            for namespace in ("job1.", "job2."):
                manager = DistributedTrainingManager(
                    spec_factory=lambda: small_spec(batch=4),
                    config=make_config(iterations=3),
                    dataset=dataset,
                    batch_size=4,
                    num_workers=2,
                    server_address=server.address,
                    namespace=namespace,
                    seed=1,
                )
                result = manager.run(timeout=300)
                assert result.histories[0].completed_iterations >= 3

    def test_runs_leave_no_connection_behind(self, dataset):
        """Every client a run opens — each rank's, the eval monitor's and
        the final-weights reader's — is closed before ``run()`` returns:
        repeated runs leave the server with no connection and the
        interpreter with no unclosed socket."""
        with TcpSMBServer(capacity=1 << 26) as server:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                for namespace in ("job1.", "job2."):
                    DistributedTrainingManager(
                        spec_factory=lambda: small_spec(batch=4),
                        config=make_config(iterations=3),
                        dataset=dataset,
                        batch_size=4,
                        num_workers=2,
                        server_address=server.address,
                        namespace=namespace,
                        eval_every=1,
                        seed=1,
                    ).run(timeout=300)
                    deadline = time.monotonic() + 5.0
                    while server._conns and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert not server._conns
                gc.collect()
        assert not [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]

    def test_hybrid_over_tcp(self, dataset):
        with TcpSMBServer(capacity=1 << 26) as server:
            manager = DistributedTrainingManager(
                spec_factory=lambda: small_spec(batch=4),
                config=make_config(iterations=4),
                dataset=dataset,
                batch_size=4,
                num_workers=4,
                group_size=2,
                server_address=server.address,
                seed=1,
            )
            result = manager.run(timeout=300)
        assert len(result.histories) == 4


class TestFailureInjection:
    def test_update_thread_failure_surfaces_as_worker_error(self, dataset):
        """If the flush path dies (here: every ACCUMULATE fails), the
        main thread reports it instead of hanging."""
        server = SMBServer(capacity=1 << 22)
        client = SMBClient.in_process(server)
        net = Net(small_spec(batch=4), seed=0)
        flat = FlatParams(net)
        global_w = client.create_array("W_g", flat.count)
        global_w.write(flat.get_vector())
        worker = build_engine(
            rank=0,
            net=net,
            config=make_config(iterations=10),
            global_weights=global_w,
            batches=dataset.minibatches(4, seed=1),
        )
        # Sabotage the write side only: reads of W_g still succeed.
        client.transport = FaultInjectingTransport(
            client.transport, FaultPlan(error_rate=1.0, ops=("ACCUMULATE",))
        )
        with pytest.raises(WorkerError, match="update thread failed"):
            worker.run()

    def test_capacity_exhaustion_fails_cleanly(self, dataset):
        """A server too small for the weight buffers refuses the CREATE
        ("cannot allocate", propagated through the SPMD launcher), not a
        hang."""
        tiny = SMBServer(capacity=1024)  # far below the model size
        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=make_config(iterations=2),
            dataset=dataset,
            batch_size=4,
            num_workers=2,
            server=tiny,
            seed=1,
        )
        with pytest.raises(SMBError, match="^cannot allocate"):
            manager.run(timeout=60)

    def test_worker_exception_aborts_peers(self, dataset):
        """A crashing rank unwinds the whole job instead of hanging the
        master in the SHM-key broadcast."""
        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=make_config(iterations=50),
            dataset=dataset,
            batch_size=4,
            num_workers=2,
            seed=1,
        )
        original = manager._rank_main

        def sabotaged(comm):
            if comm.rank == 1:
                raise RuntimeError("data pipeline failure")
            return original(comm)

        manager._rank_main = sabotaged
        with pytest.raises(RuntimeError, match="data pipeline failure"):
            manager.run(timeout=120)
