"""Consistent-hash placement across an SMB fleet.

:mod:`repro.smb.fleet` decides which server of a fleet hosts each
segment.  The properties that matter:

* determinism — every process derives the same home from the same fleet
  (no directory service);
* balance — virtual nodes spread load within a reasonable factor;
* minimal movement — adding one server to a K-ring changes the home of
  ~1/K of the names (where *new* arrays land; nothing moves a live one).
"""

import numpy as np
import pytest

from repro.smb import SMBClient, SMBServer
from repro.smb.fleet import (
    HashRingPlacement,
    PlacementError,
    attach_sharded_array,
    create_sharded_array,
)


def locate(placement, names):
    return {name: placement.server_for(name) for name in names}


class TestHashRing:
    def test_deterministic_across_instances(self):
        servers = ["s0", "s1", "s2"]
        a = HashRingPlacement(servers)
        b = HashRingPlacement(list(servers))
        names = [f"seg{i}" for i in range(200)]
        assert locate(a, names) == locate(b, names)

    def test_server_order_does_not_matter(self):
        # The ring is built from hashed (server, replica) points, so the
        # registration order of the fleet is irrelevant.
        names = [f"seg{i}" for i in range(200)]
        forward = locate(HashRingPlacement(["s0", "s1", "s2"]), names)
        shuffled = locate(HashRingPlacement(["s2", "s0", "s1"]), names)
        assert forward == shuffled

    def test_load_spread_within_bounds(self):
        placement = HashRingPlacement(["s0", "s1", "s2"])
        names = [f"layer{i}.shard{j}" for i in range(500) for j in range(6)]
        counts = {server: 0 for server in placement.servers}
        for name in names:
            counts[placement.server_for(name)] += 1
        expected = len(names) / 3
        for server, count in counts.items():
            assert 0.5 * expected < count < 1.5 * expected, (
                f"{server} holds {count} of {len(names)}"
            )

    def test_adding_a_server_moves_about_one_kth(self):
        names = [f"seg{i}" for i in range(3000)]
        before = locate(HashRingPlacement(["s0", "s1", "s2"]), names)
        grown = HashRingPlacement(["s0", "s1", "s2"])
        grown.add_server("s3")
        after = locate(grown, names)
        moved = sum(1 for n in names if before[n] != after[n])
        # Ideal is 1/4; allow slack for ring variance.
        assert 0.10 * len(names) < moved < 0.45 * len(names)
        # Every move lands on the new server — nothing shuffles between
        # the old ones.
        assert all(
            after[n] == "s3" for n in names if before[n] != after[n]
        )

    def test_removing_a_server_moves_only_its_names(self):
        names = [f"seg{i}" for i in range(1000)]
        ring = HashRingPlacement(["s0", "s1", "s2"])
        before = locate(ring, names)
        ring.remove_server("s1")
        after = locate(ring, names)
        for name in names:
            if before[name] != "s1":
                assert after[name] == before[name]
            else:
                assert after[name] in ("s0", "s2")

    def test_validation(self):
        with pytest.raises(PlacementError):
            HashRingPlacement([])
        with pytest.raises(PlacementError):
            HashRingPlacement(["s0", "s0"])
        with pytest.raises(PlacementError):
            HashRingPlacement(["s0"], replicas=0)
        ring = HashRingPlacement(["s0", "s1"])
        with pytest.raises(PlacementError):
            ring.add_server("s0")
        with pytest.raises(PlacementError):
            ring.remove_server("nope")
        ring.remove_server("s1")
        with pytest.raises(PlacementError):
            ring.remove_server("s0")  # never empty the fleet


def _fleet(n):
    """n in-process servers with one client each, as a placement fleet."""
    servers = {f"s{i}": SMBServer(capacity=1 << 22) for i in range(n)}
    clients = {
        sid: SMBClient.in_process(server)
        for sid, server in servers.items()
    }
    return servers, clients


class TestPlacedArrays:
    def test_create_read_write_round_trip(self):
        _, clients = _fleet(3)
        placement = HashRingPlacement(sorted(clients))
        array = create_sharded_array(
            clients, "W_g", 1000, placement=placement
        )
        values = np.arange(1000, dtype=np.float32)
        array.write(values)
        np.testing.assert_array_equal(array.read(), values)
        # Each stripe really lives where the policy says.
        for index in range(array.num_shards):
            name = f"W_g.shard{index}"
            hosts = [
                server for server, client in clients.items()
                if any(
                    entry["name"] == name
                    for entry in client.list_segments()["segments"]
                )
            ]
            assert hosts == [placement.server_for(name)]

    def test_attach_resolves_homes_via_policy(self):
        _, clients = _fleet(2)
        placement = HashRingPlacement(sorted(clients))
        created = create_sharded_array(clients, "W_g", 64, placement=placement)
        created.write(np.ones(64, dtype=np.float32))
        view = attach_sharded_array(
            clients, "W_g", created.shm_keys, 64, placement=placement
        )
        np.testing.assert_array_equal(
            view.read(), np.ones(64, dtype=np.float32)
        )

    def test_missing_client_is_an_error(self):
        _, clients = _fleet(2)
        placement = HashRingPlacement(["s0", "s1", "ghost"])
        with pytest.raises(PlacementError):
            create_sharded_array(clients, "W_g", 64, placement=placement)

    def test_attach_needs_a_client_for_every_home(self):
        """The slave side checks coverage too: a typed error, never a
        ``KeyError`` from the stripe whose home has no client."""
        _, clients = _fleet(3)
        placement = HashRingPlacement(sorted(clients))
        created = create_sharded_array(
            clients, "W_g", 64, placement=placement
        )
        for gone in sorted(clients):
            partial = {k: v for k, v in clients.items() if k != gone}
            with pytest.raises(PlacementError, match=gone):
                attach_sharded_array(
                    partial, "W_g", created.shm_keys, 64, placement=placement
                )
        # A bare list of clients cannot answer "who is s1?".
        with pytest.raises(PlacementError):
            attach_sharded_array(
                list(clients.values()), "W_g", created.shm_keys, 64,
                placement=placement,
            )
