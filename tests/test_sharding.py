"""Tests for multi-SMB-server parameter striping (the future-work feature)."""

import numpy as np
import pytest

from repro.caffe import Net, SolverConfig, SyntheticImageDataset
from repro.caffe.params import FlatParams
from repro.core.config import ShmCaffeConfig
from repro.perfmodel import model_profile, shmcaffe_a, shmcaffe_multi_server
from repro.smb import (
    PlacementError,
    SMBClient,
    SMBServer,
    TcpSMBServer,
    attach_sharded_array,
    create_sharded_array,
    shard_counts,
)

from .helpers import build_engine
from .test_netspec import small_spec


def make_clients(num_servers, capacity=1 << 22):
    servers = [SMBServer(capacity=capacity) for _ in range(num_servers)]
    clients = [SMBClient.in_process(server) for server in servers]
    return servers, clients


class TestShardCounts:
    def test_even_split(self):
        assert shard_counts(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread_over_first_shards(self):
        assert shard_counts(10, 3) == [4, 3, 3]

    def test_single_shard(self):
        assert shard_counts(7, 1) == [7]

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_counts(0, 1)
        with pytest.raises(ValueError):
            shard_counts(5, 0)
        with pytest.raises(ValueError):
            shard_counts(2, 3)


class TestShardedArray:
    def test_roundtrip_across_servers(self):
        _, clients = make_clients(3)
        array = create_sharded_array(clients, "W_g", 100)
        values = np.arange(100, dtype=np.float32)
        array.write(values)
        np.testing.assert_array_equal(array.read(), values)
        assert array.num_shards == 3
        assert array.count == 100

    def test_stripes_live_on_their_own_servers(self):
        """``W_g.shard<i>`` on server ``i`` and nowhere else."""
        servers, clients = make_clients(3)
        create_sharded_array(clients, "W_g", 10)
        for index, nbytes in enumerate((4 * 4, 3 * 4, 3 * 4)):
            assert servers[index].pool.by_name(
                f"W_g.shard{index}"
            ).size == nbytes
        inventory = [
            {
                entry["name"]: entry["nbytes"]
                for entry in client.list_segments()["segments"]
            }
            for client in clients
        ]
        assert inventory == [
            {"W_g.shard0": 16}, {"W_g.shard1": 12}, {"W_g.shard2": 12},
        ]

    def test_attach_by_broadcast_keys(self):
        servers, master_clients = make_clients(2)
        array = create_sharded_array(master_clients, "W_g", 20)
        array.write(np.full(20, 3.5, dtype=np.float32))

        slave_clients = [SMBClient.in_process(s) for s in servers]
        view = attach_sharded_array(
            slave_clients, "W_g", array.shm_keys, 20
        )
        np.testing.assert_allclose(view.read(), 3.5)

    def test_write_size_checked(self):
        _, clients = make_clients(2)
        array = create_sharded_array(clients, "W", 10)
        with pytest.raises(ValueError):
            array.write(np.zeros(11, dtype=np.float32))

    def test_key_count_mismatch_rejected(self):
        """Clients that do not cover the layout: typed, before any op."""
        _, clients = make_clients(2)
        with pytest.raises(PlacementError):
            attach_sharded_array(clients, "x", [1], 10)
        with pytest.raises(PlacementError):
            attach_sharded_array(clients, "x", [1, 2, 3], 10)

    def test_version_monotone(self):
        _, clients = make_clients(2)
        array = create_sharded_array(clients, "W", 8)
        v0 = array.version()
        array.write(np.zeros(8, dtype=np.float32))
        assert array.version() > v0

    def test_over_tcp_servers(self):
        with TcpSMBServer(capacity=1 << 22) as s1, TcpSMBServer(
            capacity=1 << 22
        ) as s2:
            clients = [
                SMBClient.connect(s1.address),
                SMBClient.connect(s2.address),
            ]
            array = create_sharded_array(clients, "W_g", 50)
            values = np.linspace(0, 1, 50).astype(np.float32)
            array.write(values)
            np.testing.assert_allclose(array.read(), values)
            for client in clients:
                client.close()


class TestWorkerOnShardedBuffers:
    def test_seasgd_worker_runs_unchanged(self):
        """ShardedArray is a drop-in for RemoteArray in the worker."""
        dataset = SyntheticImageDataset(
            num_classes=4, image_size=8, train_per_class=30,
            test_per_class=5, noise=0.6, seed=2,
        )
        _, clients = make_clients(3)
        net = Net(small_spec(batch=4), seed=0)
        flat = FlatParams(net)
        global_w = create_sharded_array(clients, "W_g", flat.count)
        global_w.write(flat.get_vector())

        worker = build_engine(
            rank=0,
            net=net,
            config=ShmCaffeConfig(
                solver=SolverConfig(base_lr=0.05, momentum=0.9),
                moving_rate=0.5,
                max_iterations=6,
            ),
            global_weights=global_w,
            batches=dataset.minibatches(4, seed=1),
        )
        history = worker.run()
        assert history.completed_iterations == 6
        # The striped global weights moved with the replica.
        gap = np.abs(global_w.read() - flat.get_vector()).max()
        assert gap < 1.0


class TestMultiServerModel:
    def test_comm_divided_by_server_count(self):
        model = model_profile("vgg16")
        one = shmcaffe_multi_server(model, 16, 1)
        four = shmcaffe_multi_server(model, 16, 4)
        assert four.comm_ms < one.comm_ms / 2

    def test_single_server_matches_shmcaffe_a(self):
        model = model_profile("resnet_50")
        multi = shmcaffe_multi_server(model, 8, 1)
        single = shmcaffe_a(model, 8)
        assert multi.comm_ms == pytest.approx(single.comm_ms)

    def test_local_update_not_striped(self):
        model = model_profile("resnet_50")
        four = shmcaffe_multi_server(model, 8, 4)
        single = shmcaffe_a(model, 8)
        assert four.components["t_ulw"] == pytest.approx(
            single.components["t_ulw"]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            shmcaffe_multi_server(model_profile("vgg16"), 8, 0)
