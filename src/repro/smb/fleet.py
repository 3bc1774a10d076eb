"""One logical array over a fleet of SMB servers (the paper's future work).

The evaluated system uses a single memory server, whose HCA bandwidth
bounds every exchange ("Because the communication bandwidth of the single
SMB server is bound to the bandwidth of the network interface, the
communication overhead increases significantly", Sec. III-D); the
conclusion plans "to improve the performance of the SMB framework by
using multiple SMB servers".  That claim is carried by
:func:`repro.perfmodel.shmcaffe_multi_server`; this module keeps the
data layout it models, which no training path builds:

* :class:`ShardedArray` — one logical float32 vector striped over K
  segments, each on its own SMB server: K
  :class:`~repro.smb.client.RemoteArray` stripes in stripe order behind
  the same ``read`` / ``write`` / ``accumulate`` / ``version`` surface,
  so the SEASGD worker runs on it unchanged.
* :func:`create_sharded_array` / :func:`attach_sharded_array` — the
  master/slave sides of the Fig. 2 choreography, generalised to K
  servers: stripe ``i`` lives on the ``i``-th client, creation returns
  one SHM key per stripe, and those keys are what the master
  broadcasts.
* :class:`HashRingPlacement` — a consistent-hash ring with virtual
  nodes, which the HTTP gateway routes reads by.  Each server owns
  :data:`RING_REPLICAS` points on a 64-bit ring; a name lands on the
  first point clockwise of its hash, so two rings built from fleets one
  server apart disagree on only ``~1/K`` of the names.

Striping is contiguous and balanced: shard ``i`` holds
``counts[i] ~ ceil(count / K)`` elements.  Accumulates remain per-shard
server-side additions, so the no-parameter-server property is preserved
exactly — just K accumulators instead of one.  Stripe operations run one
after another on the caller's thread; stripes are disjoint slices of the
logical vector, so the order does not change a bit.

**Version aggregation.**  ``write`` / ``accumulate`` return the *sum* of
the new per-shard versions — the same monotone scale as
:meth:`ShardedArray.version` (which also sums) — so version-based
wait/update logic observes every stripe, not just the last one written.
Per-stripe detail is available from :meth:`ShardedArray.shard_versions`.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .client import RemoteArray, SMBClient
from .errors import SMBError


class PlacementError(SMBError):
    """A fleet does not fit the layout asked of it."""


def shard_counts(count: int, num_shards: int) -> List[int]:
    """Balanced contiguous stripe sizes (first shards get the remainder)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > count:
        raise ValueError(
            f"cannot stripe {count} elements over {num_shards} shards"
        )
    base, remainder = divmod(count, num_shards)
    return [base + (1 if i < remainder else 0) for i in range(num_shards)]


class ShardedArray:
    """One logical array striped over several SMB servers.

    Drop-in for :class:`RemoteArray` from the worker's point of view; the
    shards are hidden behind the same operations, each touching only its
    own server.
    """

    def __init__(self, shards: Sequence[RemoteArray], name: str = "") -> None:
        if not shards:
            raise ValueError("need at least one shard")
        self.shards = list(shards)
        self.name = name or self.shards[0].name
        if any(s.dtype != self.shards[0].dtype for s in self.shards):
            raise ValueError("shards must share a dtype")
        self.dtype = self.shards[0].dtype
        self.count = sum(shard.count for shard in self.shards)
        offsets = np.cumsum([0] + [s.count for s in self.shards])
        self._bounds: List[Tuple[int, int]] = [
            (int(offsets[i]), int(offsets[i + 1]))
            for i in range(len(self.shards))
        ]

    @property
    def nbytes(self) -> int:
        """Logical array size in bytes."""
        return self.count * self.dtype.itemsize

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def shm_keys(self) -> List[int]:
        """Per-shard creation keys, in stripe order (what gets broadcast)."""
        return [shard.shm_key for shard in self.shards]

    def read(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather all stripes into one contiguous array.

        Each stripe is read *directly into its slice* of the destination
        (``RemoteArray.read(out=...)``), so the gather costs zero
        intermediate allocations.
        """
        if out is None:
            out = np.empty(self.count, dtype=self.dtype)
        else:
            if not isinstance(out, np.ndarray):
                raise TypeError(
                    f"out must be a numpy array, got {type(out).__name__}"
                )
            if out.dtype != self.dtype or out.size != self.count:
                raise ValueError(
                    f"out must hold {self.count} x {self.dtype}, "
                    f"got {out.size} x {out.dtype}"
                )
            if not out.flags.c_contiguous or not out.flags.writeable:
                raise ValueError("out must be C-contiguous and writable")
        flat = out.reshape(-1)
        for shard, (lo, hi) in zip(self.shards, self._bounds):
            shard.read(out=flat[lo:hi])
        return out

    def write(self, values: np.ndarray) -> int:
        """Scatter a full-length array across the stripes.

        Returns the sum of the new per-shard versions — consistent with
        :meth:`version`, so callers comparing against a previously
        observed aggregate see *every* stripe's mutation.
        """
        values = self._full_length(values)
        return sum(
            shard.write(values[lo:hi])
            for shard, (lo, hi) in zip(self.shards, self._bounds)
        )

    def accumulate(self, values: np.ndarray, scale: float = 1.0) -> int:
        """Per-shard server-side ``self += scale * values`` (eq. (7), K-way).

        Each stripe's slice of ``values`` rides in one payload ACCUMULATE
        to its own server.  Returns the sum of the new per-shard versions.
        """
        values = self._full_length(values)
        return sum(
            shard.accumulate(values[lo:hi], scale=scale)
            for shard, (lo, hi) in zip(self.shards, self._bounds)
        )

    def _full_length(self, values: np.ndarray) -> np.ndarray:
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if values.size != self.count:
            raise ValueError(
                f"expected {self.count} elements, got {values.size}"
            )
        return values

    def shard_versions(self) -> List[int]:
        """Per-stripe mutation counters, in stripe order."""
        return [shard.version() for shard in self.shards]

    def version(self) -> int:
        """Sum of shard versions (monotone under any mutation).

        The same aggregate :meth:`write` and :meth:`accumulate` return, so
        ``array.write(v) == array.version()`` holds in the absence of
        concurrent mutators.
        """
        return sum(self.shard_versions())

    def free(self) -> None:
        """Deallocate every stripe."""
        for shard in self.shards:
            shard.free()


def _stripe_names(name: str, num_stripes: int) -> List[str]:
    return [f"{name}.shard{index}" for index in range(num_stripes)]


def create_sharded_array(
    clients: Sequence[SMBClient],
    name: str,
    count: int,
    dtype: str = "float32",
) -> ShardedArray:
    """Master-side creation: stripe ``i`` on the ``i``-th client.

    Args:
        clients: One connected client per SMB server, in stripe order.
        name: Logical name; stripe ``i`` is stored as ``<name>.shard<i>``.
        count: Total element count.
        dtype: Element type.
    """
    counts = shard_counts(count, len(clients))
    return ShardedArray(
        [
            client.create_array(stripe, stripe_count, dtype=dtype)
            for stripe, client, stripe_count in zip(
                _stripe_names(name, len(clients)), clients, counts
            )
        ],
        name=name,
    )


def attach_sharded_array(
    clients: Sequence[SMBClient],
    name: str,
    shm_keys: Sequence[int],
    count: int,
    dtype: str = "float32",
) -> ShardedArray:
    """Slave-side attachment from the broadcast per-shard SHM keys.

    Raises:
        PlacementError: ``clients`` is not one client per key, checked
            before any request is sent.
    """
    if len(clients) != len(shm_keys):
        raise PlacementError(
            f"need one client per stripe in stripe order: got "
            f"{len(clients)} client(s) for {len(shm_keys)} stripe(s)"
        )
    counts = shard_counts(count, len(shm_keys))
    return ShardedArray(
        [
            client.attach_array(stripe, key, stripe_count, dtype=dtype)
            for stripe, client, key, stripe_count in zip(
                _stripe_names(name, len(shm_keys)), clients, shm_keys, counts
            )
        ],
        name=name,
    )


# -- which server a name routes to -------------------------------------------

#: Virtual nodes per server on the hash ring.  Enough that per-server
#: load variance stays within a few percent for realistic fleets; small
#: enough that ring construction is trivially cheap.
RING_REPLICAS = 64


def _hash64(key: str) -> int:
    """Stable 64-bit hash of a ring key (not Python's salted ``hash``)."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRingPlacement:
    """Maps names onto the servers of a fixed fleet by consistent hashing.

    The ring is a pure function of the server set; it holds no per-name
    state, so every process that knows the fleet derives the same answer
    without a directory service.  :data:`RING_REPLICAS` virtual points
    per server smooth the load; lookups are a binary search over the
    sorted ring.
    """

    def __init__(self, servers: Sequence[str]) -> None:
        if not servers:
            raise PlacementError("placement needs at least one server")
        if len(set(servers)) != len(servers):
            raise PlacementError(f"duplicate server ids in {list(servers)}")
        points = sorted(
            (_hash64(f"{server}#{replica}"), server)
            for server in servers
            for replica in range(RING_REPLICAS)
        )
        self._ring_hashes = [point for point, _ in points]
        self._ring_owners = [owner for _, owner in points]

    def server_for(self, name: str) -> str:
        """The server id that should hold ``name``."""
        index = bisect.bisect(self._ring_hashes, _hash64(name))
        if index == len(self._ring_hashes):
            index = 0  # wrap: past the last point lands on the first
        return self._ring_owners[index]
