"""Client library for the Soft Memory Box.

This is the API ShmCaffe's distributed training manager programs against
(paper Sec. III-A/III-B): create remote shared memory, attach by SHM key,
RDMA-style read/write, server-side accumulation (from another segment, or
from the request's own payload), and update notification.

Two convenience layers sit on top of the raw byte operations:

* :class:`RemoteArray` — a typed window onto a segment, reading and writing
  NumPy arrays.  The global weight buffer ``W_g`` (paper Fig. 5) is a
  ``RemoteArray``; a worker's ``ΔW_x`` rides in the request that adds it
  (:meth:`RemoteArray.accumulate`).
* :class:`ControlBlock` — a small int64 segment used for sharing training
  progress (``Iter_x`` counters and a stop flag) between workers, which is
  how ShmCaffe aligns termination (paper Sec. III-E).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import threading
import time
from time import perf_counter as _perf_counter
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..telemetry import TelemetrySession, resolve as _resolve_telemetry
from . import errors
from .memory import DEFAULT_TENANT
from .protocol import Buffer, Message, Op, Status, encode_wait_timeout
from .retry import NO_RETRY, RetryPolicy
from .server import SMBServer
from .transport import InProcTransport, TcpTransport, Transport

logger = logging.getLogger(__name__)


def _writable_byte_view(out: object) -> memoryview:
    """Normalise a caller-supplied output buffer to a writable byte view.

    Accepts a NumPy array, ``bytearray`` or ``memoryview`` (anything
    exposing a writable C-contiguous buffer).  This is the contract of
    every ``read_into``-style API: the bytes land *in this buffer*, so it
    must be flat, writable and contiguous.
    """
    view = memoryview(out)  # type: ignore[arg-type]
    if view.readonly:
        raise ValueError("output buffer must be writable")
    if view.format == "B" and view.ndim == 1:
        return view
    try:
        return view.cast("B")
    except TypeError as exc:
        raise ValueError(
            f"output buffer must be C-contiguous: {exc}"
        ) from exc


def _aliases(payload: Buffer, view: memoryview) -> bool:
    """Whether ``payload`` is already a view of ``view``'s backing buffer."""
    return isinstance(payload, memoryview) and payload.obj is view.obj


#: Ops whose ``key`` slot carries an access key (``key2`` too for a
#: segment-form ACCUMULATE; 0, the payload form's mark, maps to itself)
#: and therefore must be re-mapped after a server restart.
_ACCESS_KEY_OPS = frozenset(
    {Op.READ, Op.WRITE, Op.ACCUMULATE, Op.VERSION, Op.WAIT_UPDATE}
)


@dataclasses.dataclass
class _Attachment:
    """Client-side record of one segment attachment.

    The *held* access key is what the caller (``RemoteArray`` etc.)
    keeps; access keys die with the server process, so after a restart
    the client transparently re-attaches by the stable SHM key and maps
    the held key onto the freshly minted ``current`` key.
    """

    held_key: int
    shm_key: int
    expected_nbytes: Optional[int]
    current_key: int
    epoch: int
    version: int
    #: A server recovery rolled this segment back below a version the
    #: caller had already seen.  ``wait_update`` surfaces it as a typed
    #: :class:`~repro.smb.errors.VersionRegressionError` (instead of
    #: parking forever against the recovered epoch); the flag clears
    #: once the caller waits from a version the recovered epoch covers.
    regressed: bool = False


class SMBClient:
    """Handle to one SMB server, usable from one worker's threads.

    Construct via :meth:`in_process` (shared-address-space emulation of
    RDMA) or :meth:`connect` (TCP, true multi-process sharing).

    Args:
        transport: The request/response channel to the server.
        telemetry: Session receiving op timings/byte counters; defaults
            to the process-wide session current at construction.
        retry_policy: Transient-fault handling (see
            :class:`~repro.smb.retry.RetryPolicy`).  The default fails
            fast (no retries), preserving pre-fault-tolerance semantics;
            pass :data:`~repro.smb.retry.DEFAULT_RETRY_POLICY` or your
            own for resilient operation.
    """

    def __init__(
        self,
        transport: Transport,
        telemetry: Optional[TelemetrySession] = None,
        retry_policy: Optional[RetryPolicy] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        #: The request/response path to the server.  Public so a chaos
        #: layer can wrap it (:class:`~repro.smb.faults.FaultInjectingTransport`).
        self.transport = transport
        #: Namespace this client's name-based ops resolve in.  The
        #: transport carries it on the wire (the hello); this copy
        #: is informational — shown in telemetry and admin tooling.
        self.tenant = tenant
        self._telemetry = _resolve_telemetry(telemetry)
        self._retry = retry_policy if retry_policy is not None else NO_RETRY
        self._retry_rng = self._retry.make_rng()
        # held access key -> attachment record / current server key.  The
        # map lets every op keep using the key the caller was handed even
        # after a server restart invalidated it (see _try_reattach).
        self._attach_lock = threading.Lock()
        self._attachments: Dict[int, _Attachment] = {}
        self._key_map: Dict[int, int] = {}
        #: Last server epoch observed via ATTACH (None before the first).
        self.server_epoch: Optional[int] = None
        #: How many transparent re-attachments this client performed.
        self.reattachments = 0

    @classmethod
    def in_process(
        cls,
        server: SMBServer,
        telemetry: Optional[TelemetrySession] = None,
        retry_policy: Optional[RetryPolicy] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> "SMBClient":
        """Attach directly to an in-process server core."""
        return cls(
            InProcTransport(server, tenant=tenant),
            telemetry, retry_policy, tenant=tenant,
        )

    @classmethod
    def connect(
        cls,
        address: Tuple[str, int],
        telemetry: Optional[TelemetrySession] = None,
        retry_policy: Optional[RetryPolicy] = None,
        rendezvous: Optional[Union[str, os.PathLike]] = None,
        server_down_grace: float = 0.0,
        tenant: str = DEFAULT_TENANT,
    ) -> "SMBClient":
        """Connect to a :class:`~repro.smb.server.TcpSMBServer`.

        Args:
            address: Static server endpoint.
            telemetry: Session receiving op timings/byte counters.
            retry_policy: Transient-fault handling.
            rendezvous: Optional ``endpoint.json`` path published by a
                journaled server; re-read on every reconnect so the
                client finds a restarted server on a fresh port.
            server_down_grace: Seconds each (re)connect keeps retrying a
                dead endpoint before giving up — the bounded window that
                turns a server restart into a recoverable outage.
            tenant: Namespace every name-based op (CREATE/LOOKUP/FREE)
                resolves in; carried in the connection handshake.
        """
        policy = retry_policy if retry_policy is not None else NO_RETRY
        transport = TcpTransport(
            address,
            timeout=policy.connect_timeout,
            request_timeout=policy.request_timeout,
            rendezvous=rendezvous,
            server_down_grace=server_down_grace,
            tenant=tenant,
        )
        return cls(transport, telemetry, retry_policy, tenant=tenant)

    @classmethod
    def connect_local(
        cls,
        path: Union[str, os.PathLike],
        telemetry: Optional[TelemetrySession] = None,
        retry_policy: Optional[RetryPolicy] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> "SMBClient":
        """Connect to a co-located server over its shared-memory doorway.

        ``path`` is the UNIX socket published by a
        :class:`~repro.smb.shm_transport.ShmSMBServer`.  Data moves
        through a per-connection shared-memory block instead of the TCP
        stack, so large co-located READ/WRITE is a single memcpy.
        """
        from .shm_transport import ShmTransport

        policy = retry_policy if retry_policy is not None else NO_RETRY
        transport = ShmTransport(
            path, timeout=policy.request_timeout, tenant=tenant
        )
        return cls(transport, telemetry, retry_policy, tenant=tenant)

    def close(self) -> None:
        """Release the underlying transport."""
        self.transport.close()

    def __enter__(self) -> "SMBClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- raw segment operations ------------------------------------------

    def _call(
        self, request: Message, out: Optional[memoryview] = None
    ) -> Message:
        tel = self._telemetry
        if not tel.enabled:
            return self._call_raw(request, out)
        start = _perf_counter()
        response = self._call_raw(request, out)
        elapsed = _perf_counter() - start
        name = request.op.name
        tel.registry.observe(f"smb/client/time/{name}", elapsed)
        if request.op is Op.READ:
            tel.registry.inc("smb/client/bytes_read", len(response.payload))
        elif request.op is Op.WRITE or (
            request.op is Op.ACCUMULATE and not request.key2
        ):
            tel.registry.inc(
                "smb/client/bytes_written", request.payload_nbytes
            )
        return response

    def _call_raw(
        self, request: Message, out: Optional[memoryview] = None
    ) -> Message:
        """One operation, retried per the client's policy.

        Transient failures (see :func:`repro.smb.errors.is_retryable`)
        are re-issued up to ``max_attempts`` times with jittered
        exponential backoff; a persistent fault surfaces as a plain
        :class:`~repro.smb.errors.SMBError` ("... failed after N
        attempt(s) ...", chained from the last transient error), fatal
        like a server verdict, so the training layer degrades instead of
        crashing.  Fatal server verdicts (unknown key, capacity, range)
        propagate immediately.
        """
        policy = self._retry
        attempt = 0
        reattached: set = set()
        while True:
            attempt += 1
            try:
                response = self.transport.request(
                    self._translate(request), out
                )
            except errors.SMBError as exc:
                if not errors.is_retryable(exc):
                    raise
                if attempt >= policy.max_attempts:
                    if policy.max_attempts > 1:
                        raise errors.SMBError(
                            f"{request.op.name} failed after {attempt} "
                            f"attempt(s); last error: "
                            f"{type(exc).__name__}: {exc}"
                        ) from exc
                    raise  # retries disabled: keep the original error
                self._count_retry(request.op)
                time.sleep(policy.backoff(attempt, self._retry_rng))
                continue
            if response.status is Status.TIMEOUT:
                # scale < 0 is the poll encoding, not a real duration.
                raise errors.NotificationTimeout(
                    request.key, request.count, max(request.scale, 0.0)
                )
            if response.status is Status.ERROR:
                exc = errors.from_wire(response.payload)
                # A restarted server forgot every access key it ever
                # minted.  If the unknown key belongs to one of our
                # registered attachments, re-attach by the stable SHM
                # key and re-issue the op (bounded: once per held key
                # per call).
                if (
                    isinstance(exc, errors.UnknownKeyError)
                    and request.op in _ACCESS_KEY_OPS
                    and self._try_reattach(exc.key, reattached)
                ):
                    if request.op is Op.WAIT_UPDATE:
                        # Re-issuing a wait past the recovered version
                        # would park forever; surface the regression
                        # instead of silently re-arming.
                        self._check_regression(request.key, request.count)
                    continue
                raise exc
            if self._attachments and request.op in _ACCESS_KEY_OPS:
                # Track the newest version seen per attachment so a
                # post-restart re-attach can tell how much (if anything)
                # the recovered buffer lost.
                record = self._attachments.get(request.key)
                if record is not None and response.count > record.version:
                    record.version = response.count
            return response

    def _translate(self, request: Message) -> Message:
        """Re-map held access keys onto the server's current keys."""
        if not self._key_map or request.op not in _ACCESS_KEY_OPS:
            return request
        key = self._key_map.get(request.key, request.key)
        key2 = request.key2
        if request.op is Op.ACCUMULATE:
            key2 = self._key_map.get(request.key2, request.key2)
        if key == request.key and key2 == request.key2:
            return request
        return dataclasses.replace(request, key=key, key2=key2)

    def _register_attachment(
        self,
        held_key: int,
        shm_key: int,
        expected_nbytes: Optional[int],
        epoch: int,
        version: int,
    ) -> None:
        with self._attach_lock:
            self._attachments[held_key] = _Attachment(
                held_key=held_key,
                shm_key=shm_key,
                expected_nbytes=expected_nbytes,
                current_key=held_key,
                epoch=epoch,
                version=version,
            )
            self.server_epoch = epoch

    def _try_reattach(self, dead_key: int, reattached: set) -> bool:
        """Re-attach the segment whose *current* key the server rejected.

        Returns True when the held->current mapping was refreshed and the
        caller should re-issue its request; False when the key is not one
        of ours (a genuinely unknown key must surface to the caller).
        """
        with self._attach_lock:
            record = next(
                (a for a in self._attachments.values()
                 if a.current_key == dead_key),
                None,
            )
        if record is None or record.held_key in reattached:
            return False
        reattached.add(record.held_key)
        response = self._call(
            Message(
                op=Op.ATTACH,
                key=record.shm_key,
                count=record.expected_nbytes or 0,
            )
        )
        with self._attach_lock:
            new_epoch = response.key2
            if record.epoch != new_epoch:
                logger.info(
                    "server restart observed for segment shm_key=%#x: "
                    "epoch %d -> %d, version %d -> %d",
                    record.shm_key, record.epoch, new_epoch,
                    record.version, response.count,
                )
            if response.count < record.version:
                # Snapshot-only durability may restore an older buffer;
                # the lost deltas are bounded by the snapshot cadence
                # (see docs/fault_tolerance.md) but worth surfacing.
                logger.warning(
                    "segment shm_key=%#x came back at version %d "
                    "(last seen %d): deltas since the last snapshot "
                    "were lost",
                    record.shm_key, response.count, record.version,
                )
                record.regressed = True
            record.current_key = response.key
            record.epoch = new_epoch
            record.version = response.count
            self._key_map[record.held_key] = response.key
            self.server_epoch = new_epoch
            self.reattachments += 1
        self._telemetry.registry.inc("smb/recovery/reattach")
        return True

    def _count_retry(self, op: Op) -> None:
        registry = self._telemetry.registry
        registry.inc("smb/client/retries")
        registry.inc(f"smb/client/retries/{op.name}")

    def create_buffer(self, name: str, nbytes: int) -> int:
        """Create a named segment; returns its SHM key (master worker)."""
        response = self._call(
            Message(op=Op.CREATE, count=nbytes, payload=name.encode())
        )
        return response.key

    def lookup(self, name: str) -> Tuple[int, int]:
        """Resolve a segment name to ``(shm_key, size_in_bytes)``."""
        response = self._call(Message(op=Op.LOOKUP, payload=name.encode()))
        return response.key, response.count

    def attach(self, shm_key: int, expected_nbytes: Optional[int] = None) -> int:
        """Exchange a broadcast SHM key for an access key (slave worker).

        The attachment is remembered client-side: if the server restarts
        and forgets the access key, any later op transparently
        re-attaches by this SHM key and keeps the returned key valid
        from the caller's point of view.
        """
        response = self._call(
            Message(op=Op.ATTACH, key=shm_key, count=expected_nbytes or 0)
        )
        self._register_attachment(
            held_key=response.key,
            shm_key=shm_key,
            expected_nbytes=expected_nbytes,
            epoch=response.key2,
            version=response.count,
        )
        return response.key

    @staticmethod
    def _check_payload(op: Op, expected: int, payload: Buffer) -> None:
        """Reject short/oversized response payloads loudly.

        A stale or truncated response would otherwise surface far
        downstream as a wrong-sized array, far harder to debug than a
        loud :class:`~repro.smb.errors.SMBProtocolError` here.
        """
        got = len(payload)
        if got != expected:
            raise errors.SMBProtocolError(
                f"{op.name} carried {got} payload byte(s), expected "
                f"{expected}"
            )

    def read(self, access_key: int, nbytes: int, offset: int = 0) -> bytes:
        """RDMA-Read ``nbytes`` from the segment.

        Raises:
            errors.SMBProtocolError: If the response payload length does
                not match ``nbytes``.
        """
        response = self._call(
            Message(op=Op.READ, key=access_key, offset=offset, count=nbytes)
        )
        self._check_payload(Op.READ, nbytes, response.payload)
        payload = response.payload
        return payload if isinstance(payload, bytes) else bytes(payload)

    def read_into(
        self,
        access_key: int,
        out: Union[np.ndarray, bytearray, memoryview],
        offset: int = 0,
    ) -> int:
        """RDMA-Read ``len(out)`` bytes straight into ``out`` (zero-copy).

        The steady-state read primitive: the response payload is received
        (TCP) or copied (in-process) directly into the caller's buffer —
        no intermediate bytes objects, no model-size garbage per
        iteration.  Returns the segment's version at read time.

        Args:
            out: Writable C-contiguous buffer (NumPy array, bytearray or
                memoryview); its byte length is the read size.
            offset: Byte offset into the segment.

        Raises:
            errors.SMBProtocolError: If the server returned a payload of
                a different length (``out`` may then hold partial data).
        """
        view = _writable_byte_view(out)
        nbytes = view.nbytes
        response = self._call(
            Message(op=Op.READ, key=access_key, offset=offset, count=nbytes),
            out=view,
        )
        self._check_payload(Op.READ, nbytes, response.payload)
        if not _aliases(response.payload, view):
            # Transport could not use the buffer (e.g. a wrapper that
            # ignores ``out``); land the bytes where the caller asked.
            np.frombuffer(view, dtype=np.uint8)[:] = np.frombuffer(
                response.payload, dtype=np.uint8
            )
        return response.count

    def write(
        self,
        access_key: int,
        data: Union[bytes, bytearray, memoryview, np.ndarray],
        offset: int = 0,
    ) -> int:
        """RDMA-Write bytes/array into the segment; returns new version.

        A C-contiguous NumPy array is sent as a memoryview of its own
        storage (vectored send) — no ``tobytes()`` copy; non-contiguous
        input is compacted first because the wire needs contiguity.
        """
        payload: Buffer
        if isinstance(data, np.ndarray):
            payload = memoryview(np.ascontiguousarray(data)).cast("B")
        else:
            payload = data
        response = self._call(
            Message(
                op=Op.WRITE, key=access_key, offset=offset, payload=payload
            )
        )
        return response.count

    def accumulate(
        self,
        dst_access_key: int,
        src_access_key: int,
        count: int = 0,
        scale: float = 1.0,
        offset: int = 0,
        dtype: str = "float32",
    ) -> int:
        """Server-side ``dst += scale * src`` over ``count`` elements.

        ``count == 0`` means "the whole source segment".  This is the
        segment form of the paper's eq. (7), where a worker has written
        ``ΔW_x`` to its private segment; :meth:`accumulate_values` sends
        the elements themselves.

        ``dtype`` names the element type both regions are interpreted as;
        it rides in the (otherwise unused) request payload, and an empty
        payload means float32 — the hot-path frame stays header-only.
        """
        response = self._call(
            Message(
                op=Op.ACCUMULATE,
                key=dst_access_key,
                key2=src_access_key,
                offset=offset,
                count=count,
                scale=scale,
                payload=b"" if dtype == "float32" else dtype.encode(),
            )
        )
        return response.count

    def accumulate_values(
        self,
        dst_access_key: int,
        values: np.ndarray,
        scale: float = 1.0,
        offset: int = 0,
    ) -> int:
        """Server-side ``dst += scale * values`` in one request.

        The payload form of eq. (7): the float32 ``values`` ride in the
        request (``key2 == 0`` marks it, ``count`` is their number) and
        the server adds them straight from the doorway's buffer, so
        ``W_g += ΔW_x`` needs no ``ΔW_x`` segment.  ``offset`` is a byte
        offset into ``dst``.  Returns the new version of ``dst``.
        """
        values = np.ascontiguousarray(values, dtype=np.float32)
        response = self._call(
            Message(
                op=Op.ACCUMULATE,
                key=dst_access_key,
                offset=offset,
                count=values.size,
                scale=scale,
                payload=memoryview(values).cast("B"),
            )
        )
        return response.count

    def free(self, shm_key: int) -> None:
        """Deallocate a segment."""
        self._call(Message(op=Op.FREE, key=shm_key))

    def version(self, access_key: int) -> int:
        """Current mutation counter of a segment."""
        return self._call(Message(op=Op.VERSION, key=access_key)).count

    def wait_update(
        self,
        access_key: int,
        version: int,
        timeout: Optional[float] = None,
    ) -> int:
        """Block until the segment advances past ``version``.

        Args:
            access_key: Segment to watch.
            version: Last version the caller has seen.
            timeout: Seconds to wait.  ``None`` (the default) waits
                forever; ``0.0`` polls — one immediate version check
                that raises :class:`~repro.smb.errors.NotificationTimeout`
                if the segment has not advanced, instead of parking.

        Returns:
            The new version.

        Raises:
            errors.NotificationTimeout: If the timeout expired first (or
                a ``0.0`` poll found no update).
            errors.VersionRegressionError: If the server recovered to a
                state whose segment version is *below* ``version`` —
                this wait could never complete; re-read the segment and
                wait from the recovered version instead.
        """
        self._check_regression(access_key, version)
        response = self._call(
            Message(op=Op.WAIT_UPDATE, key=access_key, count=version,
                    scale=encode_wait_timeout(timeout))
        )
        return response.count

    def _check_regression(self, access_key: int, version: int) -> None:
        """Refuse a wait that a recovery-induced regression made futile.

        A segment that came back below the caller's ``version`` may
        never re-reach it; waiting would park forever.  Waiting from a
        version the recovered segment already covers proves the caller
        resynced, so the flag clears.
        """
        with self._attach_lock:
            record = self._attachments.get(access_key)
            if record is None or not record.regressed:
                return
            if version > record.version:
                raise errors.VersionRegressionError(
                    record.shm_key, version, record.version, record.epoch
                )
            record.regressed = False

    def stats(self) -> dict:
        """Server statistics (bytes moved, op counts)."""
        response = self._call(Message(op=Op.STATS))
        return json.loads(response.payload.decode())

    def create_tenant(self, name: str, quota: Optional[int] = None) -> int:
        """Provision (or re-provision) a namespace with a byte quota.

        Administrative: any connection may issue it, matching the trust
        model of ``FREE``.  ``quota=None`` means unlimited.
        Returns the effective quota (0 encodes unlimited on the wire).
        """
        response = self._call(
            Message(
                op=Op.TENANT_CREATE,
                count=quota if quota is not None else 0,
                payload=name.encode(),
            )
        )
        return response.count

    def tenant_stats(self) -> dict:
        """Per-namespace usage, quotas and op counters (administration)."""
        response = self._call(Message(op=Op.TENANT_STATS))
        return json.loads(response.payload.decode())

    def request_snapshot(self) -> Tuple[int, int]:
        """Force the server to write a durable snapshot *now*.

        Returns:
            ``(seq, epoch)`` of the snapshot just written.

        Raises:
            errors.SMBError: If the server runs without a journal
                directory (durability disabled).
        """
        response = self._call(Message(op=Op.SNAPSHOT))
        return response.key, response.key2

    # -- typed conveniences -----------------------------------------------

    def create_array(
        self, name: str, count: int, dtype: str = "float32"
    ) -> "RemoteArray":
        """Create a segment sized for ``count`` elements and attach to it."""
        nbytes = count * np.dtype(dtype).itemsize
        shm_key = self.create_buffer(name, nbytes)
        access_key = self.attach(shm_key, nbytes)
        return RemoteArray(self, name, shm_key, access_key, count, dtype)

    def attach_array(
        self, name: str, shm_key: int, count: int, dtype: str = "float32"
    ) -> "RemoteArray":
        """Attach to an existing segment by its broadcast SHM key."""
        nbytes = count * np.dtype(dtype).itemsize
        access_key = self.attach(shm_key, nbytes)
        return RemoteArray(self, name, shm_key, access_key, count, dtype)


class RemoteArray:
    """Typed view of one remote segment (e.g. ``W_g``)."""

    def __init__(
        self,
        client: SMBClient,
        name: str,
        shm_key: int,
        access_key: int,
        count: int,
        dtype: str = "float32",
    ) -> None:
        self._client = client
        self.name = name
        self.shm_key = shm_key
        self.access_key = access_key
        self.count = count
        self.dtype = np.dtype(dtype)

    @property
    def nbytes(self) -> int:
        """Segment size in bytes."""
        return self.count * self.dtype.itemsize

    def _check_out(self, out: np.ndarray) -> np.ndarray:
        """Validate a caller-supplied read destination."""
        if not isinstance(out, np.ndarray):
            raise TypeError(
                f"out must be a numpy array, got {type(out).__name__}"
            )
        if out.dtype != self.dtype:
            raise ValueError(
                f"out dtype {out.dtype} != segment dtype {self.dtype}"
            )
        if out.size != self.count:
            raise ValueError(
                f"out holds {out.size} elements, segment has {self.count}"
            )
        if not out.flags.c_contiguous or not out.flags.writeable:
            raise ValueError("out must be C-contiguous and writable")
        return out

    def read(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Fetch the whole segment as a typed array (RDMA Read).

        Args:
            out: Optional preallocated destination (same dtype and element
                count, C-contiguous, writable).  When given, the segment
                bytes are received *directly into it* and ``out`` itself
                is returned — the steady-state SEASGD loop reuses one
                buffer instead of allocating a model-size array per
                iteration.  Without ``out`` a fresh array is allocated
                (still filled in place: one copy total).
        """
        if out is None:
            out = np.empty(self.count, dtype=self.dtype)
        else:
            out = self._check_out(out)
        self._client.read_into(self.access_key, out)
        return out

    def read_into(self, out: np.ndarray) -> int:
        """Fill ``out`` from the segment; returns the version read.

        Same zero-copy path as :meth:`read` with ``out=``, exposed
        separately for callers that want the version number.
        """
        return self._client.read_into(self.access_key, self._check_out(out))

    def write(self, values: np.ndarray) -> int:
        """Overwrite the whole segment (RDMA Write).

        Contiguous float32 input is sent without any userspace copy
        (vectored send of a memoryview onto ``values``).
        """
        values = np.ascontiguousarray(values, dtype=self.dtype)
        if values.size != self.count:
            raise ValueError(
                f"expected {self.count} elements, got {values.size}"
            )
        return self._client.write(self.access_key, values)

    def accumulate(self, values: np.ndarray, scale: float = 1.0) -> int:
        """Server-side ``self += scale * values`` in one request (eq. (7)).

        ``values`` (``count`` float32 elements) rides in the request, so
        a contiguous float32 array is sent without a userspace copy.
        """
        if self.dtype != np.float32:
            raise ValueError(
                f"payload accumulate adds float32, segment is {self.dtype}"
            )
        if np.size(values) != self.count:
            raise ValueError(
                f"expected {self.count} elements, got {np.size(values)}"
            )
        return self._client.accumulate_values(
            self.access_key, values, scale=scale
        )

    def accumulate_into(self, dst: "RemoteArray", scale: float = 1.0) -> int:
        """Server-side ``dst += scale * self`` (eq. (7), segment form)."""
        if dst.count != self.count:
            raise ValueError(
                f"element count mismatch: {self.count} vs {dst.count}"
            )
        if dst.dtype != self.dtype:
            raise ValueError(
                f"dtype mismatch: {self.dtype.name} vs {dst.dtype.name}"
            )
        return self._client.accumulate(
            dst.access_key,
            self.access_key,
            count=self.count,
            scale=scale,
            dtype=self.dtype.name,
        )

    def version(self) -> int:
        """Current mutation counter."""
        return self._client.version(self.access_key)

    def wait_update(
        self, version: int, timeout: Optional[float] = None
    ) -> int:
        """Block until someone mutates the segment.

        ``timeout=None`` waits forever; ``0.0`` polls (see
        :meth:`SMBClient.wait_update`).
        """
        return self._client.wait_update(self.access_key, version, timeout)

    def free(self) -> None:
        """Deallocate the segment on the server."""
        self._client.free(self.shm_key)


@dataclasses.dataclass(frozen=True)
class SlotClaim:
    """Proof of a successful slot claim: the slot and its generation."""

    slot: int
    generation: int


class ControlView(NamedTuple):
    """One decoded READ of a :class:`ControlBlock`."""

    #: Each slot's completed-iteration count, live or dead (0 if FREE).
    progress: np.ndarray
    #: Which slots are held by live workers.
    alive: np.ndarray
    #: The shared stop flag (``STOP_CLEAR`` means keep training).
    stop: int


class ControlBlock:
    """Shared training-progress block (paper Sec. III-E, "control info").

    Layout (``2 * capacity + 1`` int64 values): one *progress* word per
    unit of capacity, then one *generation* counter per slot, then the
    shared stop flag.  Workers publish their own progress word and decide
    when to terminate from one :meth:`view`: a single READ of the whole
    block, decoded.

    Slots are **dynamically allocated** so the fleet can change size
    mid-run (elastic membership).  The generation counters are the one
    authority on who owns a slot, and only :meth:`claim`,
    :meth:`release` and :meth:`mark_dead` write them — callers
    serialise those (the membership registry's lock, or the launcher's
    disjoint slot assignment):

    * a never-claimed slot is generation 0 and is FREE: invisible to the
      termination criteria;
    * :meth:`claim` takes the lowest claimable slot (or a requested one),
      bumps its generation and resets its progress to 0;
    * :meth:`release` bumps the generation of a retiring worker's slot,
      which leaves it FREE for a later joiner;
    * a worker that loses its SMB path for good is marked **dead**:
      :meth:`mark_dead` bumps the generation and records the completed
      count.  Survivors see that in their :meth:`view` and rescale
      their termination criteria over the live fleet.  Dead
      slots stay claimable.

    Every progress word carries the generation it was written under
    beside its state (live progress, or a dead worker's completed
    count), so :meth:`publish_progress` is one WRITE with no READ
    before it.  The reader checks the stamp: a word whose generation is
    not its slot's counter decodes as FREE.  A stale writer — a retired
    or dead worker's late publish — still lands, but it counts for
    nothing and can never make a slot live.

    A fixed fleet is the degenerate elastic fleet: :meth:`create` writes
    every slot FREE and each launch participant claims its own group id,
    so every slot starts at generation 1, progress 0.
    """

    STOP_CLEAR = 0
    #: A progress word is its generation (below 2**23) above 40 bits of
    #: state: the progress ``p`` (live) or ``-(completed + 1)`` (dead),
    #: in 40-bit two's complement.
    _STATE_BITS = 40
    _MASK = (1 << _STATE_BITS) - 1
    _SIGN = 1 << (_STATE_BITS - 1)

    def __init__(self, array: RemoteArray, capacity: int) -> None:
        expected = 2 * capacity + 1
        if array.count != expected or array.dtype != np.dtype("int64"):
            raise ValueError(
                f"control block needs {expected} int64 slots, "
                f"got {array.count} x {array.dtype}"
            )
        self._array = array
        self.capacity = capacity

    @classmethod
    def create(
        cls, client: SMBClient, name: str, capacity: int
    ) -> "ControlBlock":
        """Master-side creation of the control segment, every slot FREE."""
        array = client.create_array(name, 2 * capacity + 1, dtype="int64")
        block = cls(array, capacity)
        block.reset()
        return block

    def reset(self) -> None:
        """Write every slot FREE (generation 0) and clear the stop flag.

        Also used when a run adopts a control segment that survived a
        server recovery: the previous run's counters must not leak into
        the new fleet's termination decisions.
        """
        self._array.write(np.zeros(2 * self.capacity + 1, dtype=np.int64))

    @classmethod
    def attach(
        cls, client: SMBClient, name: str, shm_key: int, capacity: int
    ) -> "ControlBlock":
        """Slave-side attachment using the broadcast SHM key."""
        array = client.attach_array(
            name, shm_key, 2 * capacity + 1, dtype="int64"
        )
        return cls(array, capacity)

    @property
    def shm_key(self) -> int:
        """Creation key to broadcast to other workers."""
        return self._array.shm_key

    # -- raw slot IO -------------------------------------------------------

    @classmethod
    def _encode(cls, generation: int, state: int) -> int:
        return (generation << cls._STATE_BITS) | (state & cls._MASK)

    def _write_word(self, index: int, value: int) -> None:
        data = np.asarray([value], dtype=np.int64)
        self._array._client.write(
            self._array.access_key, data, offset=index * 8
        )

    def _read(self) -> Tuple[np.ndarray, ControlView]:
        """One READ: ``(generation counters, decoded view)``.

        A word stamped with anything but its slot's (nonzero) generation
        is FREE: not alive, progress 0 — like dead slots, excluded from
        every criterion.
        """
        block = self._array.read()
        words = block[: self.capacity]
        generations = block[self.capacity: 2 * self.capacity]
        states = ((words & self._MASK) ^ self._SIGN) - self._SIGN
        stamps = words >> self._STATE_BITS
        held = (stamps == generations) & (generations > 0)
        alive = held & (states >= 0)
        progress = np.where(held, np.where(alive, states, -states - 1), 0)
        stop = int(block[2 * self.capacity])
        return generations, ControlView(progress, alive, stop)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.capacity:
            raise ValueError(f"rank {slot} out of range")

    def _bump(self, slot: int, generation: int, state: Optional[int]) -> None:
        """Move ``slot`` past ``generation``, if that is still its
        counter; then stamp ``state`` (if any) under the new one."""
        self._check_slot(slot)
        if int(self._read()[0][slot]) != generation:
            return  # a stale holder: its exit counts for nothing
        self._write_word(self.capacity + slot, generation + 1)
        if state is not None:
            self._write_word(slot, self._encode(generation + 1, state))

    # -- slot allocation ---------------------------------------------------

    def claim(
        self, slot: Optional[int] = None
    ) -> SlotClaim:
        """Claim a slot for a (re)joining worker; returns its generation.

        Claimable slots are FREE ones and **dead** ones (a re-joiner
        takes a dead worker's slot over).  Without an explicit ``slot``
        the lowest claimable slot wins; with one, that exact slot must
        be claimable.  Raises :class:`~repro.smb.errors.MembershipError`
        when every slot (or the asked-for one) is held by a live worker:
        fatal, since retrying returns the same answer until some member
        leaves or dies.

        Not atomic against concurrent claims — the membership registry
        (or the launcher's disjoint slot assignment) serialises them.
        """
        generations, view = self._read()
        if slot is None:
            open_slots = np.flatnonzero(~view.alive)
            if open_slots.size:
                slot = int(open_slots[0])
        else:
            self._check_slot(slot)
            if bool(view.alive[slot]):
                slot = None
        if slot is None:
            raise errors.MembershipError(
                f"all {self.capacity} membership slot(s) are claimed by "
                "live workers"
            )
        generation = int(generations[slot]) + 1
        self._write_word(self.capacity + slot, generation)
        self._write_word(slot, self._encode(generation, 0))
        return SlotClaim(slot=slot, generation=generation)

    def release(self, slot: int, generation: int) -> None:
        """Return a retiring worker's slot to the FREE pool.

        Bumps the slot's generation past the holder's, so every stamp
        that holder ever wrote — or still writes — decodes as FREE.  A
        ``generation`` that is no longer the slot's changes nothing.
        """
        self._bump(slot, generation, None)

    # -- progress protocol -------------------------------------------------

    def publish_progress(
        self, rank: int, iteration: int, generation: int
    ) -> None:
        """Record that the holder of slot ``rank`` at ``generation``
        completed ``iteration`` iterations: one stamped WRITE."""
        self._check_slot(rank)
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        self._write_word(rank, self._encode(generation, iteration))

    def mark_dead(
        self, rank: int, completed_iterations: int, generation: int
    ) -> None:
        """Record that the holder of slot ``rank`` at ``generation`` lost
        its SMB path after ``completed_iterations``.

        Bumps the generation (the dead worker's late writes count for
        nothing) and stamps the completed count under the new one;
        survivors see the worker as dead and rescale their stop
        criteria.  The slot stays claimable by a re-joining worker.  A
        ``generation`` that is no longer the slot's changes nothing.
        """
        self._bump(rank, generation, -(completed_iterations + 1))

    def view(self) -> ControlView:
        """``(progress, alive, stop)`` for the whole fleet, from one READ.

        ``progress`` holds each worker's completed-iteration count whether
        it is alive or dead; ``alive`` is the boolean liveness mask.
        """
        return self._read()[1]

    def signal_stop(self, code: int = 1) -> None:
        """Raise the shared stop flag with a nonzero reason code."""
        if code == self.STOP_CLEAR:
            raise ValueError("stop code must be nonzero")
        self._write_word(2 * self.capacity, code)
