"""Consistent-hash routing across an SMB fleet.

:class:`~repro.serve.gateway.HashRingPlacement` decides which server of a
fleet a name routes to (the HTTP gateway's replica pick).  The
properties that matter:

* determinism — every process derives the same home from the same fleet
  (no directory service);
* balance — virtual nodes spread load within a reasonable factor;
* minimal movement — the rings of two fleets one server apart disagree
  on ~1/K of the names (nothing moves a live segment).
"""

import pytest

from repro.serve.gateway import RING_REPLICAS, HashRingPlacement, _hash64


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
        servers = ["s0", "s1", "s2"]
        placement = HashRingPlacement(servers)
        names = [f"layer{i}.shard{j}" for i in range(500) for j in range(6)]
        counts = {server: 0 for server in servers}
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
        after = locate(HashRingPlacement(["s0", "s1", "s2", "s3"]), names)
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
        before = locate(HashRingPlacement(["s0", "s1", "s2"]), names)
        after = locate(HashRingPlacement(["s0", "s2"]), names)
        for name in names:
            if before[name] != "s1":
                assert after[name] == before[name]
            else:
                assert after[name] in ("s0", "s2")

    def test_a_one_server_fleet_takes_every_name(self):
        placement = HashRingPlacement(["only"])
        names = [f"seg{i}" for i in range(200)]
        assert set(locate(placement, names).values()) == {"only"}

    def test_a_name_past_the_last_point_wraps_to_the_first(self):
        servers = ["s0", "s1", "s2"]
        points = sorted(
            (_hash64(f"{server}#{replica}"), server)
            for server in servers
            for replica in range(RING_REPLICAS)
        )
        last_point, first_owner = points[-1][0], points[0][1]
        past_last = next(
            name
            for name in (f"seg{i}" for i in range(1_000_000))
            if _hash64(name) >= last_point
        )
        assert HashRingPlacement(servers).server_for(past_last) == (
            first_owner
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRingPlacement([])
        with pytest.raises(ValueError):
            HashRingPlacement(["s0", "s0"])

