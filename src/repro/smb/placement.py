"""Segment placement across a fleet of SMB servers.

:mod:`repro.smb.sharding` stripes one logical array over K servers with a
*static* layout: stripe ``i`` lives on server ``i``.  That is the right
degenerate case for a fixed fleet, but the paper's multi-server plan
(Sec. V: "multiple SMB servers") meets elastic membership
(:mod:`repro.smb.membership`) the moment servers join or leave a live
run — and a static layout would then remap almost every segment.

This module generalises the layout decision into a *placement policy*:

* :class:`StripedPlacement` — static striping, the degenerate policy:
  stripe index modulo fleet size.  Deterministic and
  perfectly balanced, but adding one server reshuffles ~everything.
* :class:`HashRingPlacement` — a consistent-hash ring with virtual
  nodes.  Each server owns ``replicas`` points on a 64-bit ring; a
  segment lands on the first point clockwise of its name's hash.
  Adding or removing one server moves only ``~1/K`` of the segments,
  which is what makes live rebalancing affordable.
* :func:`plan_moves` / :func:`rebalance` — compute which segments sit on
  the wrong server under a (new) placement, then migrate each one live
  with a **create → copy → swap → free** sequence: the segment is
  created and written on its target server *before* the source copy is
  freed, so a crash mid-migration leaves a duplicate (harmless — the
  next rebalance converges), never a hole.  Callers serialise
  migrations against concurrent lookups by passing the membership
  registry's lock (or any context manager) as ``lock``.

Placement keys are segment *names* (bare, tenant-relative): the name is
the only property that survives a server restart, so the ring gives a
stable home without any central key table.
"""

from __future__ import annotations

import bisect
import hashlib
import logging
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .client import SMBClient
from .errors import SMBError
from .sharding import ShardedArray, shard_counts

logger = logging.getLogger(__name__)

#: Virtual nodes per server on the hash ring.  Enough that per-server
#: load variance stays within a few percent for realistic fleets; small
#: enough that ring construction is trivially cheap.
DEFAULT_REPLICAS = 64


class PlacementError(SMBError):
    """A placement decision or migration could not be carried out."""


def _hash64(key: str) -> int:
    """Stable 64-bit hash of a ring key (not Python's salted ``hash``)."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class Placement:
    """Maps segment names onto servers of a fleet.

    A placement is a pure function over the current server set; it holds
    no per-segment state, so every process that knows the fleet derives
    the same answer — the property that lets workers locate stripes
    without a directory service.
    """

    def __init__(self, servers: Sequence[str]) -> None:
        if not servers:
            raise PlacementError("placement needs at least one server")
        if len(set(servers)) != len(servers):
            raise PlacementError(f"duplicate server ids in {list(servers)}")
        self._servers: List[str] = list(servers)

    @property
    def servers(self) -> List[str]:
        """Current fleet, in registration order."""
        return list(self._servers)

    def server_for(self, name: str) -> str:
        """The server id that should hold segment ``name``."""
        raise NotImplementedError

    def locate(self, names: Sequence[str]) -> Dict[str, str]:
        """Vector form of :meth:`server_for`."""
        return {name: self.server_for(name) for name in names}


class StripedPlacement(Placement):
    """The static layout: stripe index modulo fleet size.

    Segment names produced by :func:`repro.smb.sharding.create_sharded_array`
    end in ``.shard<i>``; that index picks the server.  Names without a
    stripe suffix fall back to the name hash (deterministic, but with
    full reshuffle on fleet changes — that is the degenerate part).
    """

    def server_for(self, name: str) -> str:
        stem, dot, suffix = name.rpartition(".shard")
        if dot and suffix.isdigit():
            return self._servers[int(suffix) % len(self._servers)]
        return self._servers[_hash64(name) % len(self._servers)]


class HashRingPlacement(Placement):
    """Consistent hashing with virtual nodes over the fleet.

    ``replicas`` virtual points per server smooth the load; lookups are
    a binary search over the sorted ring.  :meth:`add_server` and
    :meth:`remove_server` rebuild the ring — O(K * replicas), trivially
    cheap next to the data moves they imply.
    """

    def __init__(
        self, servers: Sequence[str], replicas: int = DEFAULT_REPLICAS
    ) -> None:
        if replicas < 1:
            raise PlacementError(f"replicas must be >= 1, got {replicas}")
        super().__init__(servers)
        self._replicas = replicas
        self._build_ring()

    def _build_ring(self) -> None:
        points = []
        for server in self._servers:
            for replica in range(self._replicas):
                points.append((_hash64(f"{server}#{replica}"), server))
        points.sort()
        self._ring_hashes = [point for point, _ in points]
        self._ring_owners = [owner for _, owner in points]

    def server_for(self, name: str) -> str:
        index = bisect.bisect(self._ring_hashes, _hash64(name))
        if index == len(self._ring_hashes):
            index = 0  # wrap: past the last point lands on the first
        return self._ring_owners[index]

    def add_server(self, server: str) -> None:
        """Join a server; only ~1/K of names move to it."""
        if server in self._servers:
            raise PlacementError(f"server {server!r} already placed")
        self._servers.append(server)
        self._build_ring()

    def remove_server(self, server: str) -> None:
        """Retire a server; only its own names move elsewhere."""
        if server not in self._servers:
            raise PlacementError(f"server {server!r} not in placement")
        if len(self._servers) == 1:
            raise PlacementError("cannot remove the last server")
        self._servers.remove(server)
        self._build_ring()


# -- placement-driven striping -----------------------------------------------

def create_placed_array(
    clients: Mapping[str, SMBClient],
    placement: Placement,
    name: str,
    count: int,
    dtype: str = "float32",
    num_shards: Optional[int] = None,
) -> ShardedArray:
    """Create a sharded array whose stripes live where the policy says.

    The stripe *order* (which slice of the logical vector stripe ``i``
    holds) is fixed by the shard index; the policy only decides which
    server hosts each stripe.  Under :class:`StripedPlacement` this
    reproduces :func:`repro.smb.sharding.create_sharded_array` exactly;
    under :class:`HashRingPlacement` stripes keep their homes when the
    fleet grows or shrinks.
    """
    ids = placement.servers
    missing = [server for server in ids if server not in clients]
    if missing:
        raise PlacementError(f"no client for server(s) {missing}")
    counts = shard_counts(count, num_shards or len(ids))
    shards = [
        clients[placement.server_for(f"{name}.shard{index}")].create_array(
            f"{name}.shard{index}", shard_count, dtype=dtype
        )
        for index, shard_count in enumerate(counts)
    ]
    return ShardedArray(shards, name=name)


def attach_placed_array(
    clients: Mapping[str, SMBClient],
    placement: Placement,
    name: str,
    shm_keys: Sequence[int],
    count: int,
    dtype: str = "float32",
) -> ShardedArray:
    """Slave-side attach: resolve each stripe's home via the policy."""
    counts = shard_counts(count, len(shm_keys))
    shards = [
        clients[placement.server_for(f"{name}.shard{index}")].attach_array(
            f"{name}.shard{index}", key, shard_count, dtype=dtype
        )
        for index, (key, shard_count) in enumerate(zip(shm_keys, counts))
    ]
    return ShardedArray(shards, name=name)


# -- live rebalancing --------------------------------------------------------

@dataclass(frozen=True)
class Move:
    """One planned (or completed) segment migration."""

    name: str
    source: str
    target: str
    nbytes: int
    #: SHM key on the target after the move (0 while only planned).
    shm_key: int = 0


def plan_moves(
    locations: Mapping[str, str], placement: Placement,
    sizes: Optional[Mapping[str, int]] = None,
) -> List[Move]:
    """Which segments sit on the wrong server under ``placement``.

    ``locations`` maps segment name -> current server id (as discovered
    from the fleet); the returned moves are deterministic and disjoint,
    so they can run in any order (or concurrently).
    """
    moves = []
    for name in sorted(locations):
        source = locations[name]
        target = placement.server_for(name)
        if target != source:
            moves.append(Move(
                name=name, source=source, target=target,
                nbytes=int(sizes[name]) if sizes else 0,
            ))
    return moves


def discover_locations(
    clients: Mapping[str, SMBClient],
) -> Dict[str, Dict[str, int]]:
    """Inventory the fleet: segment name -> {server id -> nbytes}.

    One LIST per server, scoped to each client's tenant.  A name on two
    servers is a duplicate left by an interrupted migration; rebalance
    resolves it by keeping the placement's choice and freeing the rest.
    """
    found: Dict[str, Dict[str, int]] = {}
    for server_id, client in clients.items():
        for entry in client.list_segments()["segments"]:
            found.setdefault(entry["name"], {})[server_id] = entry["nbytes"]
    return found


def rebalance(
    clients: Mapping[str, SMBClient],
    placement: Placement,
    lock: Optional[Callable[[], AbstractContextManager]] = None,
) -> List[Move]:
    """Migrate every misplaced segment to its placement home, live.

    For each misplaced segment: **create** it on the target server,
    **copy** the bytes over (read from source, write to target),
    **swap** — from here lookups on the target resolve — then **free**
    the source copy.  The order means a crash at any point leaves at
    least one complete copy; duplicates left behind are swept on the
    next call (target copy wins, stale copies freed without a transfer).

    ``lock`` is a *factory* of context managers — pass the registry's
    :meth:`~repro.smb.membership.MembershipRegistry.lock` method itself,
    not a single entered instance — invoked around each segment's
    create/copy/swap/free so directory readers never observe the
    mid-flight state; migrations between segments still interleave with
    normal traffic.  Returns the completed moves (with target SHM keys).
    """
    unknown = {
        server for server in placement.servers if server not in clients
    }
    if unknown:
        raise PlacementError(
            f"no client for placement server(s) {sorted(unknown)}"
        )
    guard = lock if lock is not None else nullcontext
    completed: List[Move] = []
    for name, copies in sorted(discover_locations(clients).items()):
        target = placement.server_for(name)
        if target not in copies:
            source = min(copies)  # deterministic pick among duplicates
            nbytes = copies[source]
            with guard():
                src_client = clients[source]
                shm_key, _ = src_client.lookup(name)
                access_key = src_client.attach(shm_key, nbytes)
                data = src_client.read(access_key, nbytes)
                dst_client = clients[target]
                new_key = dst_client.create_buffer(name, nbytes)
                dst_client.write(dst_client.attach(new_key, nbytes), data)
                src_client.free(shm_key)
                copies.pop(source)
                copies[target] = nbytes
            completed.append(Move(
                name=name, source=source, target=target,
                nbytes=nbytes, shm_key=new_key,
            ))
            logger.info(
                "rebalanced segment %r: %s -> %s (%d bytes)",
                name, source, target, nbytes,
            )
        # Sweep stale duplicates (interrupted earlier migrations).
        for extra in sorted(set(copies) - {target}):
            with guard():
                stale_key, _ = clients[extra].lookup(name)
                clients[extra].free(stale_key)
            logger.info(
                "swept stale copy of %r from %s", name, extra
            )
    return completed
