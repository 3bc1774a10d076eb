"""The Soft Memory Box server.

Two layers live here:

* :class:`SMBServer` — the transport-agnostic request processor.  It owns a
  :class:`~repro.smb.memory.MemoryPool` and maps each protocol
  :class:`~repro.smb.protocol.Op` onto pool/segment operations.  Cumulative
  global-weight updates are processed **exclusively** per destination
  segment, exactly as the paper requires for eq. (7): the per-segment lock
  taken inside :meth:`~repro.smb.memory.Segment.accumulate_from` is the
  unit of exclusivity, so accumulates into *different* destinations run
  concurrently (the paper's T.A3 only requires exclusivity per
  global-weight segment).
* :class:`TcpSMBServer` — a selector-based event-loop TCP front-end.  One
  loop thread owns every socket (non-blocking, per-connection state
  machines reusing pooled receive/read buffers); operations that may block
  — snapshots, accumulates, bulk data ops — are handed to a small worker
  pool instead of costing a thread per connection, and notification waits
  park as event-style segment waiters that occupy no thread at all.  This
  mirrors
  the paper's single memory server multiplexing many Infiniband queue
  pairs: hundreds of clients, a handful of threads.

The server also keeps :class:`ServerStats` (bytes moved, op counts) which the
Fig. 7 bandwidth benchmark reads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import os
import selectors
import socket
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter as _perf_counter
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from time import monotonic as _monotonic

import numpy as np

from ..telemetry import Counter, Gauge, MetricsRegistry, TelemetrySession
from ..telemetry import current as _telemetry_current
from .errors import (
    NotificationTimeout,
    QuotaExceededError,
    ServerClosingError,
    SMBError,
    SMBProtocolError,
    to_wire,
)
from .journal import (
    RENDEZVOUS_NAME,
    DurabilityStore,
    JournalError,
    PoolImage,
    SegmentImage,
    write_rendezvous,
)
from .memory import (
    DEFAULT_POOL_CAPACITY,
    DEFAULT_TENANT,
    MemoryPool,
    Segment,
    SegmentWaiter,
    enter_bulk_priority,
)
from .protocol import (
    HANDSHAKE_TIMEOUT,
    HEADER_SIZE,
    HELLO,
    MAX_TENANT_NAME,
    TENANT_LEN_STRUCT,
    WAIT_SCALE_POLL,
    Message,
    Op,
    Status,
    decode_tenant_record,
    payload_length,
)

logger = logging.getLogger(__name__)

#: Trace-lane pid for the SMB server (workers occupy their rank).
SMB_SERVER_TRACE_PID = 9999

_FLOAT32 = np.dtype(np.float32)


def _accumulate_dtype(message: Message) -> np.dtype:
    """An ACCUMULATE's element dtype: its payload names it, and an empty
    payload means float32, so the hot-path frame is header-only."""
    if not message.payload_nbytes:
        return _FLOAT32
    name = bytes(message.payload).decode()
    try:
        return np.dtype(name)
    except TypeError as exc:
        raise SMBError(f"bad accumulate dtype {name!r}: {exc}") from exc


class ServerStats:
    """Counters one server maintains for bandwidth/benchmark reporting.

    They live in this server's own :class:`~repro.telemetry.MetricsRegistry`,
    which STATS, TENANT_STATS and every reader below see.  Given the
    registry of a recording telemetry ``session``, each instrument is
    mirrored into it under the same name, so the session sums every
    server in it.  :meth:`record` resolves the counters of an ``(op,
    tenant)`` pair once: after that an op is one dict lookup and one
    ``Counter.inc`` per counter, no name built and no registry lock
    taken.  Byte totals and per-op counts live in *separate namespaces*
    (``bytes_read`` vs ``ops/READ``), so an opcode can never shadow the
    byte counters the Fig. 7 benchmark reads.
    """

    def __init__(self, session: Optional[MetricsRegistry] = None) -> None:
        self.registry = MetricsRegistry()
        self._registries = tuple(r for r in (self.registry, session) if r is not None)
        # (op, tenant) -> (counters bumped by 1, counters bumped by nbytes)
        self._resolved: Dict[Tuple[Op, Optional[str]], Tuple[Tuple[Counter, ...], ...]] = {}

    def counters_of(self, *names: str) -> Tuple[Counter, ...]:
        """Counters ``names`` of this server, and of the session if any."""
        return tuple(r.counter(n) for n in names for r in self._registries)

    def gauges_of(self, name: str) -> Tuple[Gauge, ...]:
        """Gauge ``name`` of this server, and of the session if any."""
        return tuple(r.gauge(name) for r in self._registries)

    def inc(self, name: str, amount: int = 1) -> None:
        """Bump counter ``name`` off the op path (recovery, denials)."""
        for counter in self.counters_of(name):
            counter.inc(amount)

    def record(
        self, op: Op, nbytes: int = 0, tenant: Optional[str] = None
    ) -> None:
        """Account one operation of ``op`` moving ``nbytes`` payload bytes.

        With ``tenant`` given, the same accounting is mirrored into the
        per-namespace counters (``smb/tenant/<ns>/*``) that back
        TENANT_STATS and the multi-tenant billing view.
        """
        resolved = self._resolved.get((op, tenant))
        if resolved is None:
            # Racing threads resolve the same counters: the registry
            # creates each name once.
            scopes = ["smb/server/"] + ([] if tenant is None else [f"smb/tenant/{tenant}/"])
            direction = ("bytes_read" if op is Op.READ else "bytes_written"
                         if op in (Op.WRITE, Op.ACCUMULATE) else "")
            moved = [scope + direction for scope in scopes] if direction else []
            resolved = self._resolved[(op, tenant)] = (
                self.counters_of(f"smb/server/ops/{op.name}",
                                 *[scope + "ops" for scope in scopes[1:]]),
                self.counters_of(*moved),
            )
        ops, moved_by = resolved
        for counter in ops:
            counter.inc()
        for counter in moved_by:
            counter.inc(nbytes)

    def tenant_counters(self, tenant: str) -> Dict[str, float]:
        """Per-namespace telemetry of this server: ops, bytes, denials,
        queue depth (its registry holds counters and gauges only)."""
        prefix = f"smb/tenant/{tenant}/"
        return {
            name[len(prefix):]: getattr(self.registry.get(name), "value")
            for name in self.registry.names()
            if name.startswith(prefix)
        }

    @property
    def bytes_read(self) -> int:
        """Total payload bytes served by READ operations."""
        return self.registry.counter("smb/server/bytes_read").value

    @property
    def bytes_written(self) -> int:
        """Total payload bytes absorbed by WRITE/ACCUMULATE operations."""
        return self.registry.counter("smb/server/bytes_written").value

    @property
    def op_counts(self) -> Dict[str, int]:
        """Per-opcode operation counts."""
        prefix = "smb/server/ops/"
        return {
            name[len(prefix):]: self.registry.counter(name).value
            for name in self.registry.names()
            if name.startswith(prefix)
        }

    def counters(self) -> Dict[str, int]:
        """A plain-dict copy safe to serialise: ``bytes_read``,
        ``bytes_written`` and one key per opcode (no opcode is named like a
        byte counter), the shape ``SMBClient.stats()`` relies on."""
        return {"bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written, **self.op_counts}


class SMBServer:
    """Transport-agnostic SMB request processor.

    One instance may be driven directly by in-process clients (see
    :func:`~repro.smb.transport.InProcTransport`) and simultaneously by a
    :class:`TcpSMBServer` front-end; the pool and its locks make both safe.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_POOL_CAPACITY,
        telemetry: Optional[TelemetrySession] = None,
        journal_dir: Optional[Union[str, os.PathLike]] = None,
        snapshot_interval: float = 30.0,
        journal_ops: bool = True,
    ) -> None:
        self.pool = MemoryPool(capacity)
        self._telemetry = telemetry
        tel = telemetry if telemetry is not None else _telemetry_current()
        # Always-on counting (the Fig. 7 benchmark reads it regardless of
        # telemetry mode), mirrored into a recording session's registry.
        self.stats = ServerStats(tel.registry if tel.enabled else None)
        # Requests waiting on (or holding) a destination segment's
        # accumulate exclusivity, moved by ±1 so a session's copy sums its
        # servers — the autoscale controller's direct read on the
        # serialised-T.A3 bottleneck.
        self._accumulate_queue = self.stats.gauges_of("smb/server/queue/accumulate")
        self._closing = threading.Event()
        # -- durability (off unless a journal directory is given) --------
        #: Restart counter: 0 for a fresh pool, +1 per recovery.  Carried
        #: in ATTACH responses so clients can observe server restarts.
        self.epoch = 0
        self._store: Optional[DurabilityStore] = None
        self._snapshot_interval = snapshot_interval
        self._last_snapshot = _monotonic()
        self._journal_lock = threading.Lock()
        if journal_dir is not None:
            self._store = DurabilityStore(journal_dir, journal_ops=journal_ops)
            if self._store.has_state():
                self._recover()
            else:
                # Seed the directory so a crash before the first interval
                # still leaves a recoverable (empty) generation behind.
                self._write_snapshot_locked()

    def _recover(self) -> None:
        """Rehydrate pool, key table, versions and epoch from disk: the
        snapshot is restored, then every journaled record goes through
        :meth:`_apply`, the step the live dispatcher takes."""
        assert self._store is not None
        image, records = self._store.recover()
        for entry in image.tenants:
            self.pool.create_tenant(
                str(entry["name"]),
                int(entry["quota"]) if entry.get("quota") else None,
            )
        for seg in image.segments:
            self.pool.restore_segment(
                name=seg.name,
                shm_key=seg.shm_key,
                data=seg.data,
                version=seg.version,
                owner=seg.owner,
            )
        self.pool.advance_keys(image.shm_minted, image.access_minted)
        replayed = 0
        for record in records:
            try:
                self._apply(record)
            except (SMBError, ValueError) as exc:
                raise JournalError(
                    f"journaled {record.op.name} of key {record.key:#x} "
                    f"does not replay: {exc}"
                ) from exc
            replayed += 1
        # Every life writes at least its baseline snapshot, so each newer
        # (hence unreadable) one may be a life that announced one more
        # epoch: repeating it would re-mint that life's access keys.
        self.epoch = image.epoch + 1 + self._store.snapshots_after(image.seq)
        # Attaches are not journaled, so ``access_minted`` undershoots
        # whatever the dead life handed out after its last snapshot;
        # epoch-salting the sequence makes collisions impossible instead
        # of merely unlikely.
        self.pool.reseed_access_keys(self.epoch)
        self.stats.inc("smb/recovery/recoveries")
        restored = len(self.pool.segments())
        self.stats.inc("smb/recovery/restored_segments", restored)
        logger.info(
            "recovered %d segment(s) from %s, %d journaled op(s) replayed "
            "(epoch %d)", restored, self._store.directory, replayed,
            self.epoch,
        )
        # The recovered image plus any replayed journal becomes the new
        # baseline snapshot, so the next crash recovers from one file.
        self._write_snapshot_locked()

    def _pool_image(self) -> PoolImage:
        segments = [
            SegmentImage(
                name=segment.name,
                shm_key=segment.shm_key,
                data=segment.buffer.copy(),
                version=segment.version,
                owner=segment.owner,
            )
            for segment in self.pool.segments().values()
        ]
        tenants = [
            {"name": name, "quota": grant.quota}
            for name, grant in sorted(self.pool.tenants().items())
            if name != DEFAULT_TENANT or grant.quota is not None
        ]
        return PoolImage(
            capacity=self.pool.capacity,
            epoch=self.epoch,
            seq=0,  # assigned by the store
            shm_minted=self.pool.shm_minted,
            access_minted=self.pool.access_minted,
            segments=segments,
            tenants=tenants,
        )

    def _write_snapshot_locked(self) -> int:
        """Write a snapshot; caller holds (or doesn't need) the journal
        lock — this is the unsynchronised core."""
        assert self._store is not None
        seq = self._store.write_snapshot(self._pool_image())
        self._last_snapshot = _monotonic()
        self.stats.inc("smb/recovery/snapshots")
        return seq

    def take_snapshot(self) -> int:
        """Force a durable snapshot now; returns its sequence number."""
        if self._store is None:
            raise SMBError("server has no journal directory configured")
        with self._journal_lock:
            return self._write_snapshot_locked()

    @property
    def journaled(self) -> bool:
        """True when a durability store is configured — i.e. every
        mutation serialises on the journal lock."""
        return self._store is not None

    def _mutation_guard(self) -> contextlib.AbstractContextManager:
        """Lock held across {mutate + journal-append} so the journal's
        record order always matches the pool's effect order.  A no-op
        when durability is off — the hot path stays lock-free."""
        if self._store is None:
            return contextlib.nullcontext()
        return self._journal_lock

    def _apply(self, record: Message, tenant: Optional[str] = None) -> int:
        """Apply one mutation, given in its journal form (SHM keys,
        qualified names), with the one pool or segment call it names;
        returns the new version, or 0 for ops without one.

        The dispatcher reaches it through :meth:`_commit`; recovery feeds
        it every journaled record.  It never journals.  ``tenant`` scopes
        a FREE to its owner (a replayed FREE was checked while live).
        """
        op = record.op
        if op is Op.WRITE:
            segment = self.pool.by_shm_key(record.key)
            return segment.write(record.offset, record.payload)
        if op is Op.ACCUMULATE:
            dst = self.pool.by_shm_key(record.key)
            return dst.accumulate_from(
                self.pool.by_shm_key(record.key2),
                dtype=_accumulate_dtype(record),
                scale=record.scale,
                offset=record.offset,
                count=record.count or None,
            )
        if op is Op.FREE:
            self.pool.free(record.key, tenant)
            return 0
        if op is Op.TENANT_CREATE:
            self.pool.create_tenant(
                bytes(record.payload).decode(),
                record.count if record.count > 0 else None,
            )
            return 0
        if op is Op.CREATE:
            # Reached by replay only: a live CREATE mints its key through
            # this same pool.create call before it has a record to journal.
            ns, bare = MemoryPool.split_name(bytes(record.payload).decode())
            key = self.pool.create(bare, record.count, tenant=ns).shm_key
            if key != record.key:
                raise JournalError(f"the pool minted {key:#x} instead")
            return 0
        raise SMBError(f"not a mutation: {op!r}")

    def _refuse_if_closing(self) -> None:
        """Refuse a mutation once :meth:`close` began.  The caller holds
        :meth:`_mutation_guard`, as the close does: a mutation journals
        before the store closes or is refused, never acknowledged and
        lost."""
        if self._closing.is_set():
            raise ServerClosingError("server is shutting down")

    def _commit(self, record: Message, tenant: Optional[str] = None) -> int:
        """Apply a live mutation and journal that same record, both under
        :meth:`_mutation_guard`; returns what :meth:`_apply` returns."""
        with self._mutation_guard():
            self._refuse_if_closing()
            version = self._apply(record, tenant)
            self._journal(record)
        return version

    def _journal(self, record: Message) -> None:
        """Append one mutation record; caller holds the journal lock."""
        if self._store is None:
            return
        self._store.append(record)
        if _monotonic() - self._last_snapshot >= self._snapshot_interval:
            self._write_snapshot_locked()

    def close(self) -> None:
        """Refuse mutations; answer every parked and later WAIT_UPDATE
        whose segment has not changed with :class:`ServerClosingError`.

        Every segment's waits end (:meth:`~repro.smb.memory.Segment.end_waits`):
        a wait blocked in :meth:`handle` (an in-process caller, a shm
        connection thread) wakes, and a wait parked in a
        :class:`TcpSMBServer` on this core is handed back as a poll.

        With durability on, a final snapshot is written so a *clean*
        shutdown always restarts bit-exactly regardless of journal mode.
        """
        self._close(snapshot=True)

    def _close(self, snapshot: bool) -> None:
        """The body of :meth:`close`.  ``snapshot=False`` is what a dying
        process leaves (:meth:`TcpSMBServer.kill`): waits woken, the
        journal handle released, no final snapshot.  Every later mutation
        is refused with :class:`ServerClosingError`."""
        with self._mutation_guard():
            self._closing.set()
            if self._store is not None:
                if snapshot:
                    try:
                        self._write_snapshot_locked()
                    except OSError:
                        logger.exception("final snapshot failed during close")
                self._store.close()
        self.pool.for_each(Segment.end_waits)

    def handle(
        self,
        request: Message,
        out: Optional[memoryview] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Message:
        """Process one request and return the response message.

        Protocol errors never escape: every :class:`SMBError` is converted
        into an ``ERROR`` response carrying the message text so remote
        clients can re-raise a faithful exception.  With telemetry
        recording, every request is timed into a per-opcode histogram
        and (in trace mode) emitted on the server's trace lane.

        ``tenant`` is the caller's namespace (established by the
        connection handshake, or pinned on an in-process transport);
        name-based ops are scoped to it and CREATE admission is checked
        against its quota grant.

        ``out`` is the in-process zero-copy seam: a READ whose result fits
        is copied *once*, segment to caller buffer, under the segment
        lock — the function-call analogue of a one-sided RDMA Read — and
        the response payload is a view of ``out``.
        """
        tel = self._telemetry
        if tel is None:
            tel = _telemetry_current()
        if not tel.enabled:
            return self._handle(request, out, tenant)
        trace = tel.trace
        if trace is not None:
            trace.name_process(SMB_SERVER_TRACE_PID, "smb-server")
        ts_us = trace.now_us() if trace is not None else 0.0
        start = _perf_counter()
        response = self._handle(request, out, tenant)
        elapsed = _perf_counter() - start
        tel.registry.observe(
            f"smb/server/time/{request.op.name}", elapsed
        )
        if response.status is not Status.OK:
            tel.registry.inc(
                f"smb/server/errors/{response.status.name}"
            )
        if trace is not None:
            # One tid per handler thread so concurrent requests render
            # as parallel tracks instead of overlapping on one line.
            trace.complete(
                name=request.op.name, pid=SMB_SERVER_TRACE_PID,
                tid=threading.get_ident() & 0xFFFF,
                ts_us=ts_us, dur_us=elapsed * 1e6, cat="smb",
            )
        return response

    def _handle(
        self,
        request: Message,
        out: Optional[memoryview] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Message:
        try:
            return self._dispatch(request, out, tenant)
        except NotificationTimeout as exc:
            return Message(op=request.op, status=Status.TIMEOUT,
                           payload=str(exc).encode())
        except SMBError as exc:
            if isinstance(exc, QuotaExceededError):
                self.stats.inc(f"smb/tenant/{exc.tenant}/quota_denials")
            return Message(op=request.op, status=Status.ERROR,
                           payload=to_wire(exc))

    def _track_accumulate_queue(self, delta: int) -> None:
        """Move the ``smb/server/queue/accumulate`` depth gauge."""
        for gauge in self._accumulate_queue:
            gauge.add(delta)

    def _dispatch(
        self,
        req: Message,
        out: Optional[memoryview] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Message:
        if req.op is Op.CREATE:
            name = bytes(req.payload).decode()
            with self._mutation_guard():
                self._refuse_if_closing()
                try:
                    segment = self.pool.create(
                        name, req.count, tenant=tenant
                    )
                except ValueError as exc:
                    raise SMBProtocolError(str(exc)) from exc
                # Journal the *qualified* name: replay must land the
                # segment back in its namespace, not in ``default``.
                self._journal(Message(op=Op.CREATE, key=segment.shm_key,
                                      count=req.count,
                                      payload=segment.name.encode()))
            self.stats.record(req.op, tenant=tenant)
            return Message(op=req.op, key=segment.shm_key)

        if req.op is Op.ATTACH:
            expected = req.count if req.count else None
            segment = self.pool.by_shm_key(req.key)
            access_key = self.pool.attach(req.key, expected)
            self.stats.record(req.op, tenant=tenant)
            # key2/count were unused in ATTACH responses; they now carry
            # the server epoch and segment version so re-attaching
            # clients can verify what survived a restart.
            return Message(op=req.op, key=access_key, key2=self.epoch,
                           count=segment.version)

        if req.op is Op.LOOKUP:
            segment = self.pool.by_name(bytes(req.payload).decode(), tenant)
            self.stats.record(req.op, tenant=tenant)
            return Message(op=req.op, key=segment.shm_key,
                           count=segment.size)

        if req.op is Op.READ:
            segment = self.pool.by_access_key(req.key)
            data: "memoryview | bytes"
            # Copy and version come from one critical section (the lock
            # is re-entrant): the stamp names exactly the bytes returned.
            with segment.lock:
                if out is not None and req.count <= len(out):
                    nbytes = segment.read_into(req.offset, out[:req.count])
                    data = out[:nbytes]
                else:
                    data = segment.read(req.offset, req.count)
                version = segment.version
            self.stats.record(req.op, len(data), tenant=tenant)
            return Message(op=req.op, key=req.key, count=version,
                           payload=data)

        if req.op is Op.WRITE:
            segment = self.pool.by_access_key(req.key)
            version = self._commit(Message(
                op=Op.WRITE, key=segment.shm_key, offset=req.offset,
                payload=req.payload,
            ))
            self.stats.record(req.op, len(req.payload), tenant=tenant)
            return Message(op=req.op, key=req.key, count=version)

        if req.op is Op.ACCUMULATE:
            dst = self.pool.by_access_key(req.key)
            src = self.pool.by_access_key(req.key2)
            itemsize = _accumulate_dtype(req).itemsize
            record = Message(op=Op.ACCUMULATE, key=dst.shm_key,
                             key2=src.shm_key, offset=req.offset,
                             count=req.count, scale=req.scale,
                             payload=bytes(req.payload))
            # The SMB server "exclusively processes the cumulative update
            # requests of global weights from each worker" (paper T.A3).
            # Exclusivity is *per destination segment* — the lock taken
            # inside accumulate_from — so pushes into different segments
            # (per-worker deltas, striped W_g shards, other tenants) run
            # concurrently instead of queueing behind one global lock.
            self._track_accumulate_queue(+1)
            try:
                version = self._commit(record)
            finally:
                self._track_accumulate_queue(-1)
            # Byte accounting is dtype-aware: ``count`` is in elements of
            # ``dtype`` (and ``src.size`` is already nbytes), so a float64
            # accumulate no longer under-counts by 2x in the Fig. 7
            # bandwidth numbers.
            nbytes = (req.count * itemsize) if req.count \
                else (src.size // itemsize) * itemsize
            self.stats.record(req.op, nbytes, tenant=tenant)
            return Message(op=req.op, key=req.key, count=version)

        if req.op is Op.FREE:
            self._commit(Message(op=Op.FREE, key=req.key), tenant)
            self.stats.record(req.op, tenant=tenant)
            return Message(op=req.op)

        if req.op is Op.WAIT_UPDATE:
            # scale > 0: bounded wait; scale == 0: wait forever;
            # scale < 0: poll — one version check that never blocks.
            # A FREE or close() ends the segment's waits, so every wake
            # re-resolves the key and re-checks the closing flag.
            deadline = _monotonic() + req.scale if req.scale > 0 else None
            while True:
                segment = self.pool.by_access_key(req.key)
                version = segment.version
                if version > req.count:
                    break
                if self._closing.is_set():
                    raise ServerClosingError("server is shutting down")
                remaining = None if deadline is None else deadline - _monotonic()
                if req.scale < 0 or (remaining is not None and remaining <= 0):
                    raise NotificationTimeout(
                        req.key, req.count, max(req.scale, 0.0)
                    )
                segment.wait_for_update(req.count, remaining)
            self.stats.record(req.op, tenant=tenant)
            return Message(op=req.op, key=req.key, count=version)

        if req.op is Op.VERSION:
            segment = self.pool.by_access_key(req.key)
            self.stats.record(req.op, tenant=tenant)
            return Message(op=req.op, key=req.key, count=segment.version)

        if req.op is Op.STATS:
            # Record *before* serialising so the returned counters see
            # this very request — keeps op_counts consistent with every
            # other opcode (they were silently uncounted before).
            self.stats.record(req.op)
            payload = json.dumps(self.stats.counters()).encode()
            return Message(op=req.op, payload=payload)

        if req.op is Op.SNAPSHOT:
            seq = self.take_snapshot()
            self.stats.record(req.op)
            return Message(op=req.op, key=seq, key2=self.epoch)

        if req.op is Op.LIST:
            self.stats.record(req.op, tenant=tenant)
            # Scoped to the caller's namespace; names are reported
            # tenant-local (the names the tenant created them under).
            inventory = [
                {
                    "name": MemoryPool.split_name(segment.name)[1],
                    "nbytes": segment.size,
                    "version": segment.version,
                    "owner": segment.owner,
                }
                for segment in self.pool.segments(tenant).values()
            ]
            grant = self.pool.tenants().get(tenant)
            payload = json.dumps(
                {
                    "segments": sorted(
                        inventory, key=lambda item: item["name"]
                    ),
                    "capacity": self.pool.capacity,
                    "used": self.pool.used,
                    "tenant": tenant,
                    "quota": grant.quota if grant is not None else None,
                    "tenant_used": grant.used if grant is not None else 0,
                }
            ).encode()
            return Message(op=req.op, payload=payload)

        if req.op is Op.TENANT_CREATE:
            try:
                self._commit(Message(op=Op.TENANT_CREATE, count=req.count,
                                     payload=req.payload))
            except ValueError as exc:
                raise SMBProtocolError(str(exc)) from exc
            self.stats.record(req.op, tenant=tenant)
            # The granted quota; 0 is "bounded by pool capacity only".
            return Message(op=req.op, count=max(req.count, 0))

        if req.op is Op.TENANT_STATS:
            self.stats.record(req.op, tenant=tenant)
            stats = self.pool.tenant_stats()
            for ns, entry in stats.items():
                entry["counters"] = self.stats.tenant_counters(ns)
            payload = json.dumps(stats).encode()
            return Message(op=req.op, payload=payload)

        raise SMBError(f"unhandled opcode: {req.op!r}")


#: Ops the event loop always hands to the blocking pool (snapshots hit
#: disk).  ``WAIT_UPDATE`` is deliberately *not* here: waits are served
#: event-style through :meth:`~repro.smb.memory.Segment.add_waiter`, so
#: a parked wait costs a dict entry, never a pool thread — a fleet of
#: waiters can therefore never exhaust the pool and starve the very
#: ACCUMULATE/WRITE that would wake them.
_ALWAYS_OFFLOAD = frozenset({Op.SNAPSHOT})

#: Transfer size (bytes) above which a data op leaves the loop thread.
#: Below it, the segment copy is cheaper than a pool handoff; above it,
#: running inline would stall every other connection for the copy's
#: duration.  ACCUMULATE always offloads regardless of size — it can
#: block on the destination segment's exclusivity.
OFFLOAD_BYTES = 64 * 1024


class _Connection:
    """Per-connection protocol state machine driven by the event loop.

    The machine cycles ``HELLO -> (HEADER -> [PAYLOAD] -> BUSY/WRITE)*``;
    while BUSY (request being processed, possibly on the worker pool) the
    socket is unregistered from the selector, which both enforces the
    protocol's strict request/response alternation and makes the pooled
    buffers safe to reuse: no new bytes can land in ``recv_buf`` until
    the response built from it (and from ``read_buf``) is fully flushed.

    ``out_views`` belongs to whoever holds the connection: in BUSY the
    thread that ran the request (the loop inline, a pool thread when
    offloaded) sends what the socket takes without blocking; in WRITE the
    loop sends the rest.  Only the loop registers the socket.
    """

    HELLO, HEADER, PAYLOAD, BUSY, WRITE = range(5)

    __slots__ = (
        "sock", "peer", "state", "have", "need", "hbuf",
        "recv_buf", "read_buf", "request", "out_views",
        "dead", "tenant", "hello_deadline",
    )

    def __init__(self, sock: socket.socket, peer: object) -> None:
        self.sock = sock
        self.peer = peer
        self.state = _Connection.HELLO
        self.have = 0
        self.need = len(HELLO)
        self.hbuf = bytearray(
            max(HEADER_SIZE,
                len(HELLO) + TENANT_LEN_STRUCT.size + MAX_TENANT_NAME)
        )
        self.tenant = DEFAULT_TENANT
        self.hello_deadline = _monotonic() + HANDSHAKE_TIMEOUT
        # Pooled per-connection buffers: request payloads (WRITE data)
        # land in recv_buf, READ responses are built in read_buf.  Grown
        # on demand to the largest payload seen, so steady-state training
        # traffic allocates nothing payload-sized.
        self.recv_buf = bytearray(1 << 16)
        self.read_buf = bytearray(0)
        self.request: Optional[Message] = None
        self.out_views: List[memoryview] = []
        self.dead = False

    def expect_header(self) -> None:
        """The response left whole: read the next request's header."""
        self.request = None
        self.state = _Connection.HEADER
        self.have, self.need = 0, HEADER_SIZE


class _PendingWait:
    """Bookkeeping for one parked WAIT_UPDATE (see ``_begin_wait``):
    the request rewritten as the poll that answers it."""

    __slots__ = ("poll", "segment", "waiter", "deadline")

    def __init__(
        self,
        poll: Message,
        segment: Segment,
        waiter: SegmentWaiter,
        deadline: Optional[float],
    ) -> None:
        self.poll = poll
        self.segment = segment
        self.waiter = waiter
        self.deadline = deadline


class _TenantLanes:
    """Per-tenant deficit-round-robin queue in front of the worker pool.

    The *slow lane*: every offloaded request is enqueued under its
    connection's tenant, and lanes drain into the pool in DRR order.
    Each tenant earns :data:`QUANTUM` bytes of service credit per round
    and pays a request's transfer size per dispatch, so a tenant
    streaming 64 MiB ACCUMULATEs collects credit across ~64 rounds per
    dispatch while a tenant issuing 64 KiB reads dispatches every round:
    byte-fair, not op-fair ("RPC Considered Harmful" — bulk transfers
    must not queue ahead of another tenant's control traffic).

    A monopoly guard additionally holds any one tenant at
    ``max_inflight - 2`` pool threads *while another tenant has work
    queued*; a solo tenant still gets the whole pool, so single-job
    deployments behave exactly as before.

    Small control ops never come here — they run inline on the loop
    thread (the *fast lane*).  Queue depths are exported as
    ``smb/tenant/<ns>/queue_depth`` gauges.
    """

    QUANTUM = 1 << 20   # bytes of service credit per tenant per round
    MIN_COST = 1 << 10  # floor, so header-only ops still pay something

    def __init__(
        self,
        pool: ThreadPoolExecutor,
        max_inflight: int,
        stats: ServerStats,
    ) -> None:
        self._pool = pool
        self._max_inflight = max(1, max_inflight)
        self._tenant_cap = max(1, self._max_inflight - 2)
        self._stats = stats
        self._depth_gauges: Dict[str, Tuple[Gauge, ...]] = {}
        self._lock = threading.Lock()
        self._queues: Dict[str, Deque[Tuple[int, Callable[[], None]]]] = {}
        self._deficits: Dict[str, int] = {}
        self._active: Deque[str] = deque()
        self._inflight = 0
        self._inflight_by: Dict[str, int] = {}
        self._closed = False

    def submit(
        self, tenant: str, cost: int, task: Callable[[], None]
    ) -> None:
        """Enqueue one offloaded request for ``tenant`` (any thread)."""
        cost = max(int(cost), self.MIN_COST)
        with self._lock:
            if self._closed:
                return
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
                self._depth_gauges[tenant] = self._stats.gauges_of(
                    f"smb/tenant/{tenant}/queue_depth"
                )
            if not queue and tenant not in self._active:
                self._active.append(tenant)
                self._deficits.setdefault(tenant, 0)
            queue.append((cost, task))
            self._note_depth(tenant)
            self._pump_locked()

    def queue_depth(self, tenant: str) -> int:
        with self._lock:
            queue = self._queues.get(tenant)
            return len(queue) if queue else 0

    def _note_depth(self, tenant: str) -> None:
        depth = len(self._queues[tenant])
        for gauge in self._depth_gauges[tenant]:
            gauge.set(depth)

    def _capped_locked(self, tenant: str) -> bool:
        """Monopoly guard: at the cap *and* someone else is waiting."""
        if self._inflight_by.get(tenant, 0) < self._tenant_cap:
            return False
        return any(
            other != tenant and self._queues.get(other)
            for other in self._active
        )

    def _pick_locked(
        self,
    ) -> Optional[Tuple[str, Callable[[], None]]]:
        while self._active:
            tenant = self._active[0]
            queue = self._queues.get(tenant)
            if not queue:
                # Burst over: leave the round and surrender leftover
                # credit, so an idle tenant cannot hoard deficit.
                self._active.popleft()
                self._deficits[tenant] = 0
                continue
            if self._capped_locked(tenant):
                if not any(
                    self._queues.get(other)
                    and not self._capped_locked(other)
                    for other in self._active
                ):
                    return None  # everyone runnable is capped; wait
                self._active.rotate(-1)
                continue
            cost, task = queue[0]
            if self._deficits[tenant] >= cost:
                queue.popleft()
                self._deficits[tenant] -= cost
                self._note_depth(tenant)
                return tenant, task
            self._deficits[tenant] += self.QUANTUM
            self._active.rotate(-1)
        return None

    def _pump_locked(self) -> None:
        while self._inflight < self._max_inflight:
            picked = self._pick_locked()
            if picked is None:
                return
            tenant, task = picked
            self._inflight += 1
            self._inflight_by[tenant] = self._inflight_by.get(tenant, 0) + 1
            try:
                self._pool.submit(self._run, tenant, task)
            except RuntimeError:
                # Pool shut down mid-stop: drop the queues; teardown
                # severs every connection they would have answered.
                self._closed = True
                self._inflight -= 1
                self._inflight_by[tenant] -= 1
                self._queues.clear()
                self._active.clear()
                return

    def _run(self, tenant: str, task: Callable[[], None]) -> None:
        try:
            task()
        finally:
            with self._lock:
                self._inflight -= 1
                self._inflight_by[tenant] = max(
                    0, self._inflight_by.get(tenant, 1) - 1
                )
                self._pump_locked()


class TcpSMBServer:
    """Selector-based event-loop TCP front-end for an :class:`SMBServer`.

    Usage::

        with TcpSMBServer(capacity=1 << 28) as server:
            client = SMBClient.connect(server.address)
            ...

    One loop thread owns every socket: connections are non-blocking and
    advance a :class:`_Connection` state machine as bytes arrive, so a
    connected-but-idle client costs a few kilobytes of buffer instead of
    a parked thread — hundreds of clients, a handful of threads.

    Two kinds of work leave the loop thread:

    * ops that can block (``SNAPSHOT`` hits disk, ``ACCUMULATE`` may
      queue on the destination segment's exclusivity, and — with a
      journal configured — every mutation, since the journal lock can be
      held across a whole accumulate plus snapshot), and
    * bulk data ops moving more than :data:`OFFLOAD_BYTES`

    are executed on a small shared worker pool, and the pool thread that
    ran the op also sends its response, non-blockingly, as far as the
    socket takes it; the loop is woken only to re-arm the connection or
    to finish a send the socket refused, so no pool thread ever waits on
    a slow reader.  Small control ops (attach, version, a control-block
    read) are served inline — no handoff latency on the fast path.

    ``WAIT_UPDATE`` takes neither path: a wait registers an event-style
    waiter on the segment (:meth:`~repro.smb.memory.Segment.add_waiter`)
    and the loop moves on — a parked wait costs a dict entry, not a pool
    thread, so any number of waiters leaves the pool free for the
    mutation that will wake them.  Timeouts are expired by the loop
    (the ``select`` timeout tracks the nearest wait deadline); however a
    wait ends, the core answers it as a poll.

    Lifecycle: :meth:`stop` drains the worker pool, closes the core,
    severs *every* connection (idle and parked ones included) and joins
    the loop thread — it returns with zero live handler threads, and no
    peer stays blocked in ``recv``.  :meth:`kill` is the abrupt variant
    for chaos drills.  No wire op stops the server: stopping is the
    operator's call on the server object, never a tenant's.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int = DEFAULT_POOL_CAPACITY,
        core: Optional[SMBServer] = None,
        telemetry: Optional[TelemetrySession] = None,
        journal_dir: Optional[Union[str, os.PathLike]] = None,
        snapshot_interval: float = 30.0,
        journal_ops: bool = True,
        workers: Optional[int] = None,
    ) -> None:
        self.core = core if core is not None else SMBServer(
            capacity,
            telemetry=telemetry,
            journal_dir=journal_dir,
            snapshot_interval=snapshot_interval,
            journal_ops=journal_ops,
        )
        self._journal_dir = journal_dir
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(512)
        self._listener.setblocking(False)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._stop = threading.Event()
        self._clean_stop = True
        self._loop_thread: Optional[threading.Thread] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._conns: Dict[socket.socket, _Connection] = {}
        # Blocking-op pool: bulk data ops, accumulates, snapshots and
        # the completion of a woken wait (a parked wait holds no thread).
        if workers is None:
            workers = max(8, min(32, (os.cpu_count() or 4) * 2))
        # Pool threads run at background CPU priority: they carry only
        # bulk and blocking work, while the loop thread serves every
        # latency-bound control op inline — so on a saturated host the
        # scheduler keeps small ops fast instead of queueing them
        # behind whole-model accumulates.
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="smb-worker",
            initializer=enter_bulk_priority,
        )
        # Slow lane: offloaded (bulk / blocking) work drains through a
        # per-tenant deficit-round-robin queue, so no tenant's burst can
        # monopolize the pool threads while others have work queued.
        self._lanes = _TenantLanes(self._pool, workers, self.core.stats)
        # Send outcomes posted by pool tasks; the loop drains after a
        # wakeup byte.  (conn, sent) — True: the response left whole,
        # False: the socket refused the rest, None: the handler crashed
        # or the peer is gone, and the connection must be closed.
        self._completions: Deque[
            Tuple[_Connection, Optional[bool]]
        ] = deque()
        # Parked WAIT_UPDATEs, keyed by connection.  Registered and
        # expired on the loop thread; completed (claim-arbitrated) from
        # whichever mutator thread bumps the segment version.
        self._waiters: Dict[_Connection, _PendingWait] = {}
        self._waiters_lock = threading.Lock()
        # Connections still in HELLO (loop thread only); each is dropped
        # at its ``hello_deadline``.  Empty in steady state, so the loop
        # never scans established connections.
        self._handshaking: Set[_Connection] = set()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "TcpSMBServer":
        """Begin serving on the event-loop thread.

        With a journal directory configured, the rendezvous file is
        (re)published first: a restarted server usually lands on a new
        ephemeral port, and clients in their grace window re-resolve the
        address through this file.
        """
        if self._journal_dir is not None:
            write_rendezvous(
                os.path.join(os.fspath(self._journal_dir), RENDEZVOUS_NAME),
                self.address,
                epoch=self.core.epoch,
            )
        self._loop_thread = threading.Thread(
            target=self._loop_main, name="smb-loop", daemon=True
        )
        self._loop_thread.start()
        return self

    def _wake_loop(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (OSError, ValueError):
            pass  # loop already tearing down; it will notice the flag

    def stop(self) -> None:
        """Stop serving; returns with **zero** live handler threads.

        Every connection — including idle ones whose peers are parked in
        ``recv`` — is severed, waits are woken through
        :meth:`SMBServer.close`, the worker pool is drained and the loop
        thread joined.
        """
        self._shutdown(clean=True)

    def kill(self) -> None:
        """Die abruptly: sever every connection, skip the clean-shutdown
        snapshot.  Chaos drills use this to emulate ``kill -9`` on an
        in-process server — recovery must come from the journal
        directory, exactly as it would after a real process death.
        """
        self._shutdown(clean=False)

    def _shutdown(self, clean: bool) -> None:
        self._clean_stop = clean
        self._stop.set()
        self._wake_loop()
        if self._loop_thread is not None and self._loop_thread.is_alive():
            self._loop_thread.join(timeout=10.0)
        else:
            # Never started (or already gone): release resources inline.
            self._teardown(clean)

    def __enter__(self) -> "TcpSMBServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- event loop ------------------------------------------------------

    def _loop_main(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        try:
            while not self._stop.is_set():
                timeout = None
                deadline = self._next_wait_deadline()
                if deadline is not None:
                    timeout = max(0.0, deadline - _monotonic())
                events = self._selector.select(timeout)
                self._expire_waits()
                for key, _mask in events:
                    if key.data is None:
                        self._accept_ready()
                    elif key.data == "wake":
                        self._drain_wakeups()
                    else:
                        self._service(key.data, _mask)
                    if self._stop.is_set():
                        break
        except Exception:  # noqa: BLE001 - the loop must not die silently
            logger.exception("SMB event loop crashed")
        finally:
            self._teardown(clean=self._clean_stop)

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed mid-stop
            try:
                sock.setblocking(False)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                sock.close()
                continue
            conn = _Connection(sock, peer)
            self._conns[sock] = conn
            self._handshaking.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            return
        while self._completions:
            conn, sent = self._completions.popleft()
            if not conn.dead:
                self._rearm(conn, sent)

    def _service(self, conn: _Connection, mask: int) -> None:
        if conn.dead:
            return
        if mask & selectors.EVENT_WRITE:
            self._flush(conn)
        if conn.dead or conn.state == _Connection.WRITE:
            return
        if mask & selectors.EVENT_READ:
            self._readable(conn)

    def _readable(self, conn: _Connection) -> None:
        """Advance the read side of the state machine as far as the
        kernel allows without blocking."""
        while not conn.dead:
            if conn.state == _Connection.HELLO:
                target = memoryview(conn.hbuf)[conn.have:conn.need]
            elif conn.state == _Connection.HEADER:
                target = memoryview(conn.hbuf)[conn.have:conn.need]
            elif conn.state == _Connection.PAYLOAD:
                target = memoryview(conn.recv_buf)[conn.have:conn.need]
            else:  # BUSY/WRITE: spurious readiness, e.g. pipelined bytes
                return
            try:
                received = conn.sock.recv_into(target)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._close_conn(conn)
                return
            if received == 0:
                self._close_conn(conn)  # peer went away; normal teardown
                return
            conn.have += received
            if conn.have < conn.need:
                continue
            if conn.state == _Connection.HELLO:
                if not self._advance_hello(conn):
                    return
            elif conn.state == _Connection.HEADER:
                paylen = payload_length(conn.hbuf)
                if paylen == 0:
                    self._begin_request(conn, b"")
                    return
                if paylen > self.core.pool.capacity:
                    # No valid request carries more bytes than the pool
                    # can hold; refuse before the length costs memory.
                    logger.warning(
                        "frame from %s declares %d payload bytes (pool "
                        "holds %d); dropping connection",
                        conn.peer, paylen, self.core.pool.capacity,
                    )
                    self._close_conn(conn)
                    return
                if paylen > len(conn.recv_buf):
                    conn.recv_buf = bytearray(paylen)
                conn.state = _Connection.PAYLOAD
                conn.have, conn.need = 0, paylen
            else:  # PAYLOAD complete
                payload = memoryview(conn.recv_buf)[:conn.need]
                self._begin_request(conn, payload)
                return

    def _advance_hello(self, conn: _Connection) -> bool:
        """Advance the handshake state machine one completed read.

        The magic is followed by a u16 length and that many UTF-8
        tenant-name bytes, parsed incrementally by growing ``conn.need``.
        Returns ``False`` once the connection was rejected (and closed).
        """
        prefix = len(HELLO) + TENANT_LEN_STRUCT.size
        if conn.need == len(HELLO):
            if conn.hbuf[:len(HELLO)] == HELLO:
                conn.need = prefix
                return True
        elif conn.need == prefix:
            (length,) = TENANT_LEN_STRUCT.unpack(
                conn.hbuf[len(HELLO):prefix]
            )
            if 0 < length <= MAX_TENANT_NAME:
                conn.need = prefix + length
                return True
        else:
            try:
                conn.tenant = decode_tenant_record(
                    bytes(conn.hbuf[prefix:conn.need])
                )
            except SMBProtocolError:
                pass  # falls through to the rejection below
            else:
                self._handshaking.discard(conn)
                conn.expect_header()
                return True
        logger.warning("rejecting non-SMB client from %s", conn.peer)
        self._close_conn(conn)
        return False

    def _begin_request(self, conn: _Connection, payload: "bytes | memoryview") -> None:
        try:
            request = Message.decode(bytes(conn.hbuf[:HEADER_SIZE]), payload)
        except SMBError:
            logger.warning(
                "malformed frame from %s; dropping connection", conn.peer
            )
            self._close_conn(conn)
            return
        # The pooled buffer is sized by the peer's ``count``, so only up
        # to what the pool can hold; beyond that ``Segment.read`` range-
        # checks before it allocates and the peer gets the typed error.
        out: Optional[memoryview] = None
        if (request.op is Op.READ
                and 0 < request.count <= self.core.pool.capacity):
            if request.count > len(conn.read_buf):
                conn.read_buf = bytearray(request.count)
            out = memoryview(conn.read_buf)
        conn.request = request
        # While the request is in flight the socket leaves the selector:
        # strict request/response means the peer has nothing to send, and
        # the pooled buffers must not be overwritten mid-dispatch.
        conn.state = _Connection.BUSY
        self._selector.unregister(conn.sock)
        if request.op is Op.WAIT_UPDATE:
            self._begin_wait(conn, request)
        elif self._needs_offload(request):
            # The same ceiling bounds the fairness charge: the lanes walk
            # cost / QUANTUM rounds under their lock, on this thread.
            self._lanes.submit(
                conn.tenant,
                min(self._request_cost(request), self.core.pool.capacity),
                lambda: self._process(conn, request, out),
            )
        else:
            self._handle_inline(conn, request, out)

    @staticmethod
    def _request_cost(request: Message) -> int:
        """Approximate transfer bytes a request moves (DRR accounting)."""
        op = request.op
        if op in (Op.READ, Op.CREATE):
            return request.count
        if op is Op.WRITE:
            return request.payload_nbytes
        if op is Op.ACCUMULATE:
            # ``count`` is in elements; float32 is the wire default and
            # close enough for fairness accounting.  count == 0 means
            # "whole source segment" — charge a full quantum.
            return request.count * 4 if request.count \
                else _TenantLanes.QUANTUM
        if op is Op.SNAPSHOT:
            return _TenantLanes.QUANTUM
        return _TenantLanes.MIN_COST

    def _needs_offload(self, request: Message) -> bool:
        op = request.op
        if op in _ALWAYS_OFFLOAD or op is Op.ACCUMULATE:
            return True
        if self.core.journaled and op in (Op.WRITE, Op.CREATE, Op.FREE):
            # Every mutation serialises on the journal lock, which an
            # offloaded ACCUMULATE may hold across a full accumulate plus
            # a snapshot write; queueing on it would stall the loop (and
            # with it every connection), so mutations never run inline
            # when durability is on.
            return True
        if op is Op.READ:
            return request.count >= OFFLOAD_BYTES
        if op is Op.WRITE:
            return request.payload_nbytes >= OFFLOAD_BYTES
        if op is Op.CREATE:
            return request.count >= OFFLOAD_BYTES  # zeroing a big segment
        return False

    def _handle_inline(
        self, conn: _Connection, request: Message, out: Optional[memoryview]
    ) -> None:
        """Serve a request on the loop thread, with the same crash guard
        as the pool path: an unexpected exception from one frame — a
        non-UTF-8 name payload, a bad dtype string — costs that one
        connection, never the event loop."""
        try:
            response = self.core.handle(request, out, tenant=conn.tenant)
        except Exception:  # noqa: BLE001 - keep the server alive
            logger.exception("SMB handler crashed for peer %s", conn.peer)
            self._close_conn(conn)
            return
        self._start_write(conn, response)

    def _process(
        self, conn: _Connection, request: Message, out: Optional[memoryview]
    ) -> None:
        """Worker-pool body: run one request, send its response from this
        thread as far as the socket takes it, post how far it got."""
        sent: Optional[bool] = None
        try:
            response = self.core.handle(request, out, tenant=conn.tenant)
            sent = self._try_send(conn, response)
        except Exception:  # noqa: BLE001 - keep the server alive
            logger.exception("SMB handler crashed for peer %s", conn.peer)
        self._completions.append((conn, sent))
        self._wake_loop()

    # -- WAIT_UPDATE, event-style ---------------------------------------

    def _begin_wait(self, conn: _Connection, request: Message) -> None:
        """Park a WAIT_UPDATE without occupying any thread.

        The loop only parks and expires waits; the core answers every
        one.  A waiter callback is registered on the segment, and until
        it fires the wait is one ``_waiters`` entry — hundreds of parked
        waiters leave the worker pool entirely free for the ops that
        wake them.  Whenever the wait ends here — already satisfied, or
        no segment to park on, woken by a mutation, a FREE or the core's
        close, or expired — the core is handed the request rewritten as
        a poll, so its answer (OK, ``UnknownKeyError``,
        ``ServerClosingError``, ``TIMEOUT``) and its telemetry are the
        ones every doorway gets.
        """
        if request.scale < 0:
            self._handle_inline(conn, request, None)
            return
        poll = dataclasses.replace(request, scale=WAIT_SCALE_POLL)
        try:
            segment = self.core.pool.by_access_key(request.key)
        except SMBError:
            self._handle_inline(conn, poll, None)  # the core raises it too
            return
        deadline = _monotonic() + request.scale if request.scale > 0 else None

        def _on_update(_version: int) -> None:
            # Runs on whichever thread bumped the version or ended the
            # waits; the lane hop keeps response encoding off that thread
            # (and a woken wait queues fairly behind its tenant's bulk).
            with self._waiters_lock:
                self._waiters.pop(conn, None)
            self._lanes.submit(
                conn.tenant,
                _TenantLanes.MIN_COST,
                lambda: self._process(conn, poll, None),
            )

        # Registered under the lock the callback takes first, so a wake
        # that races the registration still finds the entry to pop.
        with self._waiters_lock:
            waiter = segment.add_waiter(request.count, _on_update)
            if waiter is not None:
                self._waiters[conn] = _PendingWait(
                    poll, segment, waiter, deadline
                )
        if waiter is None:  # satisfied, freed or closing: answer now
            self._handle_inline(conn, poll, None)

    def _next_wait_deadline(self) -> Optional[float]:
        with self._waiters_lock:
            deadlines = [
                p.deadline for p in self._waiters.values()
                if p.deadline is not None
            ]
        deadlines.extend(c.hello_deadline for c in self._handshaking)
        return min(deadlines) if deadlines else None

    def _expire_handshakes(self) -> None:
        """Drop connections whose hello is overdue (loop thread)."""
        now = _monotonic()
        for conn in [
            c for c in self._handshaking if now >= c.hello_deadline
        ]:
            logger.warning(
                "handshake from %s timed out; dropping connection",
                conn.peer,
            )
            self._close_conn(conn)

    def _expire_waits(self) -> None:
        """Time out parked waits (and unfinished handshakes) whose
        deadline has passed (loop thread)."""
        if self._handshaking:
            self._expire_handshakes()
        if not self._waiters:
            return
        now = _monotonic()
        expired: List[Tuple[_Connection, _PendingWait]] = []
        with self._waiters_lock:
            for conn, pending in list(self._waiters.items()):
                if pending.deadline is None or now < pending.deadline:
                    continue
                if pending.waiter.claim():
                    del self._waiters[conn]
                    expired.append((conn, pending))
                # claim lost: a mutator is finishing this wait right now
                # and pops the entry itself.
        for conn, pending in expired:
            pending.segment.remove_waiter(pending.waiter)
            self._handle_inline(conn, pending.poll, None)

    def _cancel_wait(self, conn: _Connection) -> None:
        with self._waiters_lock:
            pending = self._waiters.pop(conn, None)
        if pending is not None and pending.waiter.claim():
            pending.segment.remove_waiter(pending.waiter)

    def _start_write(self, conn: _Connection, response: Message) -> None:
        self._rearm(conn, self._try_send(conn, response))

    def _try_send(self, conn: _Connection, response: Message) -> Optional[bool]:
        """Send ``response`` from the thread holding the BUSY connection."""
        conn.out_views = [memoryview(response.encode_header())]
        view = response.payload_view()
        if view.nbytes:
            conn.out_views.append(view)
        return self._send(conn)

    def _send(self, conn: _Connection) -> Optional[bool]:
        """Send ``conn.out_views`` without blocking: ``True`` once all gone,
        ``False`` if the socket refused the rest, ``None`` if the peer is gone."""
        views = conn.out_views
        while views:
            try:
                sent = conn.sock.sendmsg(views)
            except (BlockingIOError, InterruptedError):
                return False
            except OSError:
                return None
            while sent:
                first = views[0]
                if sent >= first.nbytes:
                    sent -= first.nbytes
                    views.pop(0)
                else:
                    views[0] = first[sent:]
                    sent = 0
        return True

    def _rearm(self, conn: _Connection, sent: Optional[bool]) -> None:
        """After a response's first send, one ``register``: for the next
        request, or for the rest of the response (loop thread)."""
        if sent is None:
            self._close_conn(conn)
        elif sent:
            conn.expect_header()
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        else:
            conn.state = _Connection.WRITE
            self._selector.register(conn.sock, selectors.EVENT_WRITE, conn)

    def _flush(self, conn: _Connection) -> None:
        sent = self._send(conn)  # False: the selector calls back
        if sent is None:
            self._close_conn(conn)
        elif sent:
            conn.expect_header()
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)

    def _close_conn(self, conn: _Connection) -> None:
        if conn.dead:
            return
        conn.dead = True
        self._handshaking.discard(conn)
        self._cancel_wait(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        self._conns.pop(conn.sock, None)
        try:
            conn.sock.close()
        except OSError:
            pass

    def _teardown(self, clean: bool) -> None:
        """Release every socket and wake every parked wait (loop thread,
        or the caller's thread if the loop never ran)."""
        try:
            self._listener.close()
        except OSError:
            pass
        # Drain the pool before closing the core: an offloaded mutation
        # (every mutation of a journaled server) then commits *and*
        # journals before the store closes, and its pool thread sends its
        # own answer before the sockets below close or are re-issued.
        self._pool.shutdown(wait=True)
        self.core._close(snapshot=clean)
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        self._conns.clear()
        if self._selector is not None:
            try:
                self._selector.close()
            except OSError:
                pass
            self._selector = None
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
