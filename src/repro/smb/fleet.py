"""One logical array over a fleet of SMB servers (the paper's future work).

The evaluated system uses a single memory server, whose HCA bandwidth
bounds every exchange ("Because the communication bandwidth of the single
SMB server is bound to the bandwidth of the network interface, the
communication overhead increases significantly", Sec. III-D); the
conclusion plans "to improve the performance of the SMB framework by
using multiple SMB servers".  This module implements that plan:

* :class:`ShardedArray` — one logical float32 vector striped over K
  segments, each on its own SMB server.  It exposes the same
  ``read`` / ``write`` / ``accumulate`` / ``accumulate_into`` /
  ``version`` surface as :class:`~repro.smb.client.RemoteArray`, so the
  SEASGD worker runs on it unchanged (duck typing is the integration
  test).
* :func:`create_sharded_array` / :func:`attach_sharded_array` — the
  master/slave sides of the Fig. 2 choreography, generalised to K
  servers: creation returns one SHM key per shard, and those keys are
  what the master broadcasts.  *Which* server hosts stripe ``i`` is a
  policy: with no placement it is the ``i``-th client (the static layout
  of a fixed fleet); with a :class:`HashRingPlacement` stripes keep their
  homes when the fleet grows or shrinks.
* :class:`HashRingPlacement` — a consistent-hash ring with virtual
  nodes.  Each server owns ``replicas`` points on a 64-bit ring; a
  segment lands on the first point clockwise of its name's hash.
  Adding or removing one server changes the home of only ``~1/K`` of
  the names.  Growing the ring changes where *new* arrays land; nothing
  here moves a live segment — that needs a write fence and a carried
  version, which no part of the system offers.

Striping is contiguous and balanced: shard ``i`` holds
``counts[i] ~ ceil(count / K)`` elements.  Accumulates remain per-shard
server-side additions, so the no-parameter-server property is preserved
exactly — just K accumulators instead of one.

Placement keys are segment *names* (bare, tenant-relative): the name is
the only property that survives a server restart, so the ring gives a
stable home without any central key table.

**Parallel fan-out.**  Shard operations run concurrently on a small
shared thread pool (one task per remote shard; the first stripe runs on
the calling thread), so K servers give ~K-way transfer overlap instead
of a sequential walk that re-serialises the very bottleneck striping was
meant to remove.  Stripes are disjoint slices of the logical vector, so
parallel execution is bit-exact with the sequential order.

**Version aggregation.**  ``write`` / ``accumulate`` / ``accumulate_into``
return the *sum* of the new per-shard versions — the same monotone scale
as :meth:`ShardedArray.version` (which also sums) — so version-based
wait/update logic observes every stripe, not just the last one written.
Per-stripe detail is available from :meth:`ShardedArray.shard_versions`.
"""

from __future__ import annotations

import atexit
import bisect
import hashlib
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import (
    Callable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from .client import RemoteArray, SMBClient
from .errors import SMBError

T = TypeVar("T")

#: A fleet as the create/attach pair takes it: clients in stripe order
#: (no placement), or keyed by server id (with one).
Fleet = Union[Sequence[SMBClient], Mapping[str, SMBClient]]

#: Upper bound on fan-out worker threads shared by every ShardedArray in
#: the process.  Shard requests block in socket syscalls (or short
#: segment copies), so a modest pool gives full overlap for realistic
#: shard counts without unbounded thread growth.
MAX_FANOUT_THREADS = 16

_executor: Optional[ThreadPoolExecutor] = None
_executor_lock = threading.Lock()


def _fanout_executor() -> ThreadPoolExecutor:
    """The process-wide shard fan-out pool (created on first use).

    Torn down at interpreter exit (``atexit``) so shutdown never races
    pool threads against module teardown.
    """
    global _executor
    with _executor_lock:
        if _executor is None:
            workers = min(MAX_FANOUT_THREADS, max(4, os.cpu_count() or 4))
            _executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="smb-shard"
            )
        return _executor


def _shutdown_fanout_executor() -> None:
    global _executor
    with _executor_lock:
        executor, _executor = _executor, None
    if executor is not None:
        executor.shutdown(wait=False)


atexit.register(_shutdown_fanout_executor)


def _fan_out(tasks: Sequence[Callable[[], T]]) -> List[T]:
    """Run shard tasks concurrently; results in task order.

    The first task runs on the calling thread (it would otherwise idle
    in ``result()``), the rest on the shared pool.  Exceptions propagate
    after every submitted task has settled, so no shard op is silently
    abandoned mid-flight.
    """
    if len(tasks) == 1:
        return [tasks[0]()]
    pool = _fanout_executor()
    futures: List[Future] = [pool.submit(task) for task in tasks[1:]]
    results: List[T] = []
    first_error: Optional[BaseException] = None
    try:
        results.append(tasks[0]())
    except BaseException as exc:  # noqa: BLE001 - re-raised below
        first_error = exc
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error
    return results


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
    own server — and, since each shard has its own server (and its own
    client transport), operations fan out concurrently.
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
        """Gather all stripes into one contiguous array (parallel).

        Each stripe is read *directly into its slice* of the destination
        (``RemoteArray.read(out=...)``), so the gather costs zero
        intermediate allocations; the K per-server transfers overlap on
        the fan-out pool.
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
        _fan_out([
            (lambda s=shard, lo=lo, hi=hi: s.read(out=flat[lo:hi]))
            for shard, (lo, hi) in zip(self.shards, self._bounds)
        ])
        return out

    def write(self, values: np.ndarray) -> int:
        """Scatter a full-length array across the stripes (parallel).

        Returns the sum of the new per-shard versions — consistent with
        :meth:`version`, so callers comparing against a previously
        observed aggregate see *every* stripe's mutation.
        """
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if values.size != self.count:
            raise ValueError(
                f"expected {self.count} elements, got {values.size}"
            )
        versions = _fan_out([
            (lambda s=shard, lo=lo, hi=hi: s.write(values[lo:hi]))
            for shard, (lo, hi) in zip(self.shards, self._bounds)
        ])
        return sum(versions)

    def accumulate(self, values: np.ndarray, scale: float = 1.0) -> int:
        """Per-shard server-side ``self += scale * values`` (eq. (7), K-way).

        Each stripe's slice of ``values`` rides in one payload ACCUMULATE
        to its own server; the K requests run concurrently.  Returns the
        sum of the new per-shard versions.
        """
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if values.size != self.count:
            raise ValueError(
                f"expected {self.count} elements, got {values.size}"
            )
        versions = _fan_out([
            (lambda s=shard, lo=lo, hi=hi: s.accumulate(
                values[lo:hi], scale=scale
            ))
            for shard, (lo, hi) in zip(self.shards, self._bounds)
        ])
        return sum(versions)

    def accumulate_into(self, dst: "ShardedArray", scale: float = 1.0) -> int:
        """Per-shard server-side ``dst += scale * self`` (eq. (7), K-way).

        Both arrays must be striped identically (same shard layout on the
        same servers), which :func:`attach_sharded_array` guarantees for
        buffers created by :func:`create_sharded_array`.  The K
        accumulates run concurrently (they touch disjoint servers);
        returns the sum of the destination's new per-shard versions.
        """
        if not isinstance(dst, ShardedArray):
            raise TypeError("destination must be a ShardedArray")
        if dst.num_shards != self.num_shards or dst.count != self.count:
            raise ValueError(
                f"stripe layout mismatch: {self.num_shards}x{self.count} "
                f"vs {dst.num_shards}x{dst.count}"
            )
        versions = _fan_out([
            (lambda s=src_shard, d=dst_shard: s.accumulate_into(
                d, scale=scale
            ))
            for src_shard, dst_shard in zip(self.shards, dst.shards)
        ])
        return sum(versions)

    def shard_versions(self) -> List[int]:
        """Per-stripe mutation counters, in stripe order (parallel)."""
        return _fan_out([
            (lambda s=shard: s.version()) for shard in self.shards
        ])

    def version(self) -> int:
        """Sum of shard versions (monotone under any mutation).

        The same aggregate :meth:`write`, :meth:`accumulate` and
        :meth:`accumulate_into` return, so ``array.write(v) ==
        array.version()`` holds in the absence of concurrent mutators.
        """
        return sum(self.shard_versions())

    def free(self) -> None:
        """Deallocate every stripe."""
        for shard in self.shards:
            shard.free()


# -- which server hosts which segment --------------------------------------

#: Virtual nodes per server on the hash ring.  Enough that per-server
#: load variance stays within a few percent for realistic fleets; small
#: enough that ring construction is trivially cheap.
DEFAULT_REPLICAS = 64


class PlacementError(SMBError):
    """A placement decision could not be carried out."""


def _hash64(key: str) -> int:
    """Stable 64-bit hash of a ring key (not Python's salted ``hash``)."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRingPlacement:
    """Maps segment names onto servers of a fleet by consistent hashing.

    The ring is a pure function over the current server set; it holds no
    per-segment state, so every process that knows the fleet derives the
    same answer — the property that lets workers locate stripes without
    a directory service.  ``replicas`` virtual points per server smooth
    the load; lookups are a binary search over the sorted ring.
    :meth:`add_server` and :meth:`remove_server` rebuild the ring —
    O(K * replicas), trivially cheap next to the data moves they imply.
    """

    def __init__(
        self, servers: Sequence[str], replicas: int = DEFAULT_REPLICAS
    ) -> None:
        if not servers:
            raise PlacementError("placement needs at least one server")
        if len(set(servers)) != len(servers):
            raise PlacementError(f"duplicate server ids in {list(servers)}")
        if replicas < 1:
            raise PlacementError(f"replicas must be >= 1, got {replicas}")
        self._servers: List[str] = list(servers)
        self._replicas = replicas
        self._build_ring()

    @property
    def servers(self) -> List[str]:
        """Current fleet, in registration order."""
        return list(self._servers)

    def _build_ring(self) -> None:
        points = []
        for server in self._servers:
            for replica in range(self._replicas):
                points.append((_hash64(f"{server}#{replica}"), server))
        points.sort()
        self._ring_hashes = [point for point, _ in points]
        self._ring_owners = [owner for _, owner in points]

    def server_for(self, name: str) -> str:
        """The server id that should hold segment ``name``."""
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


# -- create / attach ---------------------------------------------------------

def _stripe_homes(
    clients: Fleet,
    placement: Optional[HashRingPlacement],
    name: str,
    num_stripes: int,
) -> List[Tuple[str, SMBClient]]:
    """``(segment name, hosting client)`` for each stripe, in stripe order.

    The only code that knows how a stripe is named, and the one place
    that checks the clients cover the layout.
    """
    names = [f"{name}.shard{index}" for index in range(num_stripes)]
    if placement is None:
        if isinstance(clients, Mapping) or len(clients) != num_stripes:
            raise PlacementError(
                f"need one client per stripe in stripe order: got "
                f"{len(clients)} client(s) for {num_stripes} stripe(s)"
            )
        return list(zip(names, clients))
    if not isinstance(clients, Mapping):
        raise PlacementError("a placement needs clients keyed by server id")
    missing = [server for server in placement.servers if server not in clients]
    if missing:
        raise PlacementError(f"no client for placement server(s) {missing}")
    return [
        (stripe, clients[placement.server_for(stripe)]) for stripe in names
    ]


def create_sharded_array(
    clients: Fleet,
    name: str,
    count: int,
    dtype: str = "float32",
    placement: Optional[HashRingPlacement] = None,
) -> ShardedArray:
    """Master-side creation: one stripe per server of the fleet.

    The stripe *order* (which slice of the logical vector stripe ``i``
    holds) is fixed by the shard index; ``placement`` only decides which
    server hosts each stripe.

    Args:
        clients: One connected client per SMB server — a sequence in
            stripe order, or (with ``placement``) a mapping keyed by
            server id.
        name: Logical name; stripe ``i`` is stored as ``<name>.shard<i>``.
        count: Total element count.
        dtype: Element type.
        placement: Where each stripe lives; ``None`` puts stripe ``i`` on
            the ``i``-th client.
    """
    num_stripes = len(clients if placement is None else placement.servers)
    counts = shard_counts(count, num_stripes)
    homes = _stripe_homes(clients, placement, name, num_stripes)
    return ShardedArray(
        [
            client.create_array(stripe, stripe_count, dtype=dtype)
            for (stripe, client), stripe_count in zip(homes, counts)
        ],
        name=name,
    )


def attach_sharded_array(
    clients: Fleet,
    name: str,
    shm_keys: Sequence[int],
    count: int,
    dtype: str = "float32",
    placement: Optional[HashRingPlacement] = None,
) -> ShardedArray:
    """Slave-side attachment from the broadcast per-shard SHM keys."""
    counts = shard_counts(count, len(shm_keys))
    homes = _stripe_homes(clients, placement, name, len(shm_keys))
    return ShardedArray(
        [
            client.attach_array(stripe, key, stripe_count, dtype=dtype)
            for (stripe, client), key, stripe_count in zip(
                homes, shm_keys, counts
            )
        ],
        name=name,
    )
