"""Parameter-serving read tier: replicas and their snapshot rings.

Training hammers the primary SMB pool with writes and accumulates; the
*serving* side of the house — evaluation jobs, checkpoint shippers, the
HTTP model gateway — only ever reads, and mostly reads the same few
segments (``W_g``) over and over.  Pointing that read fan-out at the
primary steals bandwidth from the training loop.  This module adds the
read tier the ShmCaffe deployment story implies.

:class:`ReplicaServer` subscribes to a configurable set of primary
segments with ``wait_update`` long-polls, publishes each update as one
immutable ``bytes`` stamped with the *primary's* version number, and
retains the last ``ring_depth`` versions per segment in a snapshot ring
so version-pinned reads keep working after the primary has moved on.
The ring and every :meth:`ReplicaServer.read` share that one object: an
applied version is held once, and a read copies and locks nothing.  The
replica opens no SMB port; :class:`~repro.serve.gateway.ModelGateway`
is the read tier's only network door.

The replica is where the wait/version bugfix sweep pays off: its
subscription loops run ``wait_update(last_seen, timeout=None)`` forever,
so a primary that recovers *below* ``last_seen`` must surface
:class:`~repro.smb.errors.VersionRegressionError` (rather than park the
loop) for the replica to resync.  The snapshot ring is deliberately kept
across a resync: pinned reads of pre-crash versions still serve.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from time import monotonic
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..telemetry import TelemetrySession, resolve as _resolve_telemetry
from .client import SMBClient
from .errors import (
    NotificationTimeout,
    SMBError,
    UnknownKeyError,
    VersionRegressionError,
    is_retryable,
)
from .memory import DEFAULT_TENANT

logger = logging.getLogger(__name__)

#: Snapshot versions retained per mirrored segment.
DEFAULT_RING_DEPTH = 8


class VersionNotAvailableError(SMBError):
    """A pinned read asked for a version nobody retains any more.

    Raised by :meth:`ReplicaServer.read` when the requested version is
    not the replica's current one, has aged out of the snapshot ring,
    and the primary has moved past it too.  Fatal: the bytes are gone.
    """

    def __init__(self, name: str, requested: int, current: int) -> None:
        super().__init__(
            f"version {requested} of segment {name!r} is not available "
            f"(current is {current}; older snapshots aged out of the ring)"
        )
        self.name = name
        self.requested = requested
        self.current = current


class _SnapshotRing:
    """Last-``depth`` versions of one segment, oldest evicted first."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self._lock = threading.Lock()
        self._snapshots: "OrderedDict[int, bytes]" = OrderedDict()

    def push(self, version: int, data: bytes) -> None:
        with self._lock:
            self._snapshots[version] = data
            self._snapshots.move_to_end(version)
            while len(self._snapshots) > self.depth:
                self._snapshots.popitem(last=False)

    def get(self, version: int) -> Optional[bytes]:
        with self._lock:
            return self._snapshots.get(version)

    def versions(self) -> List[int]:
        with self._lock:
            return list(self._snapshots)


class _Subscription:
    """Book-keeping for one mirrored segment."""

    def __init__(self, name: str, ring_depth: int) -> None:
        self.name = name
        self.ring = _SnapshotRing(ring_depth)
        self.ready = threading.Event()
        #: The published ``(version, bytes)``: swapped whole by the one
        #: subscription thread, so readers need no lock to see a pair.
        self.current: Tuple[int, bytes] = (0, b"")
        self.resyncs = 0
        self.last_update_at: Optional[float] = None

    @property
    def version(self) -> int:
        return self.current[0]


class ReplicaServer:
    """Read-only mirror of a chosen set of primary segments.

    Read in-process through :meth:`read`, which returns the published
    ``(version, bytes)`` pair at the *primary's* version numbers.  One
    daemon thread per segment runs the subscription loop: ``wait_update``
    long-poll, ``read_into``, publish.

    ``connect`` is a zero-argument factory returning a *fresh*
    :class:`SMBClient` bound to the primary — transport-agnostic and
    tenant-aware (pin the tenant in the factory).  Each subscription
    thread gets its own client so long-polls never serialise behind one
    notify channel; one more client serves pinned-read fallbacks.

    Staleness bound: a replica read lags the primary by at most one
    notification round-trip plus one segment read (milliseconds on
    loopback); :data:`serve/replica/lag` records how many primary
    versions each apply coalesced.
    """

    def __init__(
        self,
        connect: Callable[[], SMBClient],
        segments: Sequence[str],
        tenant: str = DEFAULT_TENANT,
        ring_depth: int = DEFAULT_RING_DEPTH,
        telemetry: Optional[TelemetrySession] = None,
        name: str = "replica",
    ) -> None:
        if not segments:
            raise ValueError("a replica needs at least one segment to mirror")
        if ring_depth < 1:
            raise ValueError(f"ring_depth must be >= 1, got {ring_depth}")
        self.name = name
        self.tenant = tenant
        self._connect = connect
        self._registry = _resolve_telemetry(telemetry).registry
        self._subs: Dict[str, _Subscription] = {
            seg: _Subscription(seg, ring_depth) for seg in segments
        }
        self._threads: List[threading.Thread] = []
        self._clients: List[SMBClient] = []
        self._clients_lock = threading.Lock()
        self._stopping = threading.Event()
        self._started = False
        self._fallback: Optional[SMBClient] = None
        self._fallback_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ReplicaServer":
        if self._started:
            raise RuntimeError("replica already started")
        self._started = True
        for sub in self._subs.values():
            thread = threading.Thread(
                target=self._run_subscription,
                args=(sub,),
                name=f"{self.name}-sub-{sub.name}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def stop(self) -> None:
        """Stop subscriptions; closing the clients wakes parked waits."""
        self._stopping.set()
        with self._clients_lock:
            clients = list(self._clients)
            self._clients.clear()
        for client in clients:
            client.close()
        with self._fallback_lock:
            if self._fallback is not None:
                self._fallback.close()
                self._fallback = None
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until every subscription finished its initial sync."""
        deadline = monotonic() + timeout if timeout is not None else None
        for sub in self._subs.values():
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = max(deadline - monotonic(), 0.0)
            if not sub.ready.wait(remaining):
                return False
        return True

    # -- the read API the gateway programs against ------------------------

    def serves(self, name: str, tenant: Optional[str] = None) -> bool:
        """Whether this replica mirrors ``name`` (in ``tenant``)."""
        if tenant is not None and tenant != self.tenant:
            return False
        return name in self._subs

    def read(
        self,
        name: str,
        version: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> Tuple[int, bytes]:
        """Serve one versioned read; returns ``(version, bytes)``.

        ``version=None`` (or the current version) returns the published
        snapshot itself — the same immutable ``bytes`` for every reader,
        no copy, no lock.  Another pinned ``v`` is served from the
        snapshot ring; only on a ring miss does the replica fall back
        to one primary read — and only a primary still *at* ``v`` can
        satisfy it.

        Raises:
            UnknownKeyError: ``name`` is not a segment this replica
                mirrors (or it has not finished its initial sync).
            VersionNotAvailableError: The pinned version is gone
                everywhere.
        """
        sub = self._subs.get(name)
        if sub is None or not sub.ready.is_set():
            raise UnknownKeyError(0)
        current, data = published = sub.current
        if version is None or version == current:
            self._count_read(len(data))
            return published
        snapshot = sub.ring.get(version)
        if snapshot is not None:
            self._registry.inc("serve/replica/ring_hit")
            self._count_read(len(snapshot))
            return version, snapshot
        return self._primary_fallback(sub, version, current)

    def _primary_fallback(
        self, sub: _Subscription, version: int, current: int
    ) -> Tuple[int, bytes]:
        """Last resort for a pinned miss: ask the primary directly.

        Useful when the replica lags (the reader pinned a version the
        primary just minted): the primary is still at that version, so
        the read both serves the request and warms the mirror.
        """
        self._registry.inc("serve/replica/fallback")
        try:
            client = self._fallback_client()
            shm_key, nbytes = client.lookup(sub.name)
            access_key = client.attach(shm_key, nbytes)
            buf = bytearray(nbytes)
            got = client.read_into(access_key, buf)
        except SMBError as exc:
            raise VersionNotAvailableError(
                sub.name, version, current
            ) from exc
        if got != version:
            raise VersionNotAvailableError(sub.name, version, current)
        data = bytes(buf)
        sub.ring.push(got, data)
        self._count_read(len(data))
        return got, data

    def _fallback_client(self) -> SMBClient:
        with self._fallback_lock:
            if self._fallback is None:
                self._fallback = self._connect()
            return self._fallback

    def version(self, name: str) -> int:
        """The replica's current version of ``name`` (0 before sync)."""
        sub = self._subs.get(name)
        if sub is None:
            raise UnknownKeyError(0)
        return sub.version

    def lag_info(self) -> Dict[str, Dict[str, object]]:
        """Per-segment mirror state (diagnostics, CLI)."""
        return {
            name: {
                "version": sub.version,
                "ready": sub.ready.is_set(),
                "resyncs": sub.resyncs,
                "ring": sub.ring.versions(),
            }
            for name, sub in self._subs.items()
        }

    # -- subscription machinery -------------------------------------------

    def _count_read(self, nbytes: int) -> None:
        registry = self._registry
        registry.inc("serve/replica/reads")
        registry.inc(f"serve/replica/tenant/{self.tenant}/reads")
        registry.inc("serve/replica/bytes_read", nbytes)

    def _make_client(self) -> Optional[SMBClient]:
        """One subscription client, tracked so stop() can wake its wait."""
        if self._stopping.is_set():
            return None
        client = self._connect()
        with self._clients_lock:
            if self._stopping.is_set():
                client.close()
                return None
            self._clients.append(client)
        return client

    def _run_subscription(self, sub: _Subscription) -> None:
        """Mirror one segment until stop(): sync, long-poll, apply."""
        while not self._stopping.is_set():
            try:
                client = self._make_client()
            except SMBError:
                # Primary down and the factory has no grace window of
                # its own; keep knocking until stop() or it comes back.
                self._stopping.wait(0.2)
                continue
            if client is None:
                return
            try:
                self._subscribe_once(client, sub)
                return  # clean exit (stop() closed the client)
            except SMBError as exc:
                if self._stopping.is_set():
                    return
                if not is_retryable(exc):
                    logger.error(
                        "replica %s: subscription for %r failed: %s",
                        self.name, sub.name, exc,
                    )
                    return
                logger.warning(
                    "replica %s: connection to primary lost for %r (%s); "
                    "reconnecting", self.name, sub.name, exc,
                )
                self._stopping.wait(0.2)
            finally:
                with self._clients_lock:
                    if client in self._clients:
                        self._clients.remove(client)
                client.close()

    def _subscribe_once(self, client: SMBClient, sub: _Subscription) -> None:
        """One subscription session over one client connection."""
        shm_key, nbytes = client.lookup(sub.name)
        access_key = client.attach(shm_key, nbytes)
        buf = bytearray(nbytes)
        version = client.read_into(access_key, buf)
        self._apply(sub, bytes(buf), version, force=False)
        while not self._stopping.is_set():
            try:
                new = client.wait_update(access_key, sub.version, timeout=None)
            except NotificationTimeout:
                continue
            except VersionRegressionError as regress:
                # The primary recovered below our mirror.  Resync from
                # the recovered state — forcing the publish so our version
                # matches the primary again — but KEEP the ring:
                # pinned reads of pre-crash versions must still serve.
                sub.resyncs += 1
                self._registry.inc("serve/replica/resyncs")
                logger.warning(
                    "replica %s: primary regressed for %r (%s); resyncing",
                    self.name, sub.name, regress,
                )
                version = client.read_into(access_key, buf)
                self._apply(sub, bytes(buf), version, force=True)
                continue
            version = client.read_into(access_key, buf)
            if version < new:
                # A racing writer cannot roll READ below the version the
                # wait reported; a *recovery* between the two calls can.
                # Treat it as a regression: force-resync to what we read.
                sub.resyncs += 1
                self._registry.inc("serve/replica/resyncs")
                self._apply(sub, bytes(buf), version, force=True)
                continue
            self._apply(sub, bytes(buf), version, force=False)

    def _apply(
        self,
        sub: _Subscription,
        data: bytes,
        version: int,
        force: bool,
    ) -> None:
        """Publish one snapshot (ring and readers share ``data``); only a
        forced resync may publish at or below the current version."""
        previous = sub.version
        if not force and version <= previous and sub.ready.is_set():
            return
        sub.ring.push(version, data)
        sub.current = (version, data)
        sub.last_update_at = monotonic()
        self._registry.inc("serve/replica/updates")
        if version > previous:
            # How many primary versions this apply coalesced: 0 means
            # the mirror saw every update, N means N were skipped
            # while we were reading/applying the previous one.
            self._registry.observe(
                "serve/replica/lag", float(version - previous - 1)
            )
        sub.ready.set()
