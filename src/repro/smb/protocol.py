"""Wire protocol between SMB clients and the TCP SMB server.

The real Soft Memory Box speaks RDMA verbs over a modified Reliable Datagram
Sockets module; we emulate the same *operations* over a plain TCP stream.
Every exchange is a request/response pair:

``[ header ][ payload bytes ]``

The header is a fixed-size packed struct (:data:`HEADER_FORMAT`) carrying the
opcode, up to two keys, a byte offset, an element count, a float scale and
the payload length.  Strings (segment names) and bulk data travel in the
payload.

The framed *format* is deliberately simple, but the hot path is engineered
for zero userspace copies ("RPC Considered Harmful": one-sided, copy-free
data movement is what makes RDMA-class systems fast):

* **Sends are vectored.**  :func:`send_message` hands the header and the
  payload to ``socket.sendmsg`` as two iovecs, so a payload — which may be
  a ``memoryview`` straight onto a NumPy parameter array — is never
  concatenated into a fresh ``header + payload`` bytes object.
* **Receives land in caller buffers.**  :func:`recv_message` accepts an
  optional writable ``out`` memoryview; a well-formed ``OK`` payload that
  fits is read with ``recv_into`` directly into it (one kernel→user copy,
  zero intermediate allocations).  Without ``out``, the payload is read
  into a single preallocated ``bytearray`` instead of the historical
  chunk-list + ``b"".join`` (which cost two copies).

:class:`Message.payload` therefore accepts ``bytes``, ``bytearray`` or a
C-contiguous ``memoryview``; :meth:`Message.encode` produces the
contiguous frame, used as the test oracle for the journal's on-disk bytes.
"""

from __future__ import annotations

import enum
import socket
import struct
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import SMBConnectionError, SMBProtocolError
from .memory import DEFAULT_TENANT

#: opcode(B) status(B) key(q) key2(q) offset(q) count(q) scale(d) paylen(I)
HEADER_FORMAT = "!BBqqqqdI"
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)
_HEADER = struct.Struct(HEADER_FORMAT)


def payload_length(header: Buffer) -> int:
    """The payload byte count a frame header declares: what a reader must
    take next.  ``header`` may run past the header's end."""
    return _HEADER.unpack_from(header)[-1]


#: Seconds a freshly accepted connection gets to complete the handshake
#: below before the server gives up on it — a peer that connects and never
#: speaks must not pin a handler thread or a selector slot until stop().
HANDSHAKE_TIMEOUT = 10.0

#: Magic bytes every connection opens with, so a stray client that connects
#: to the wrong port fails immediately instead of hanging mid-protocol.
#: The magic is always followed by a tenant-name record (u16 length +
#: UTF-8 bytes) that scopes every name-based op on the connection.
HELLO = b"SMB2"

#: Length prefix of the tenant-name record that follows the magic.
TENANT_LEN_STRUCT = struct.Struct("!H")

#: ``WAIT_UPDATE`` timeout wire encoding, carried in the ``scale`` slot.
#: ``scale > 0`` is a bounded wait in seconds; ``scale == 0`` waits
#: forever (the slot's zero value, so an untimed wait needs no flag);
#: ``scale < 0`` is a **poll** — one immediate version check that returns
#: ``TIMEOUT`` instead of parking anything.  Clients map the API contract
#: (``timeout=None`` forever, ``0.0`` poll) onto these with
#: :func:`encode_wait_timeout`.
WAIT_SCALE_FOREVER = 0.0
WAIT_SCALE_POLL = -1.0


def encode_wait_timeout(timeout: Optional[float]) -> float:
    """Map an API-level wait timeout onto the ``scale`` wire encoding."""
    if timeout is None:
        return WAIT_SCALE_FOREVER
    if timeout < 0:
        raise ValueError(
            f"timeout must be >= 0 (or None for forever), got {timeout}"
        )
    if timeout == 0.0:
        return WAIT_SCALE_POLL
    return timeout

#: Upper bound on the tenant-name record, so a corrupt length prefix
#: cannot make the server wait on a multi-kilobyte "name".
MAX_TENANT_NAME = 255


def encode_hello(tenant: str = DEFAULT_TENANT) -> bytes:
    """The handshake bytes a client opens a connection with."""
    encoded = tenant.encode("utf-8")
    if not encoded or len(encoded) > MAX_TENANT_NAME or "/" in tenant:
        raise SMBProtocolError(f"invalid tenant name: {tenant!r}")
    return HELLO + TENANT_LEN_STRUCT.pack(len(encoded)) + encoded


def decode_tenant_record(raw: bytes) -> str:
    """Validate + decode the name bytes of a hello's tenant record."""
    try:
        tenant = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SMBProtocolError(f"undecodable tenant name: {exc}") from exc
    if not tenant or "/" in tenant:
        raise SMBProtocolError(f"invalid tenant name: {tenant!r}")
    return tenant


def read_hello(sock: socket.socket) -> str:
    """Consume a connection's handshake and return its tenant.

    The blocking-socket counterpart of the event-loop server's
    incremental hello parser, used by the shared-memory doorbell server.
    """
    magic = recv_exact(sock, len(HELLO))
    if magic != HELLO:
        raise SMBProtocolError(f"bad protocol hello: {magic!r}")
    (length,) = TENANT_LEN_STRUCT.unpack(
        recv_exact(sock, TENANT_LEN_STRUCT.size)
    )
    if length == 0 or length > MAX_TENANT_NAME:
        raise SMBProtocolError(f"bad tenant record length: {length}")
    return decode_tenant_record(recv_exact(sock, length))

#: Payload types a message may carry.  ``memoryview`` payloads enable the
#: zero-copy send/receive paths; they must be 1-D, C-contiguous views of
#: bytes (use :func:`as_byte_view` to normalise).
Buffer = Union[bytes, bytearray, memoryview]

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


def as_byte_view(data: Buffer) -> memoryview:
    """Normalise any contiguous buffer to a flat ``uint8`` memoryview.

    Accepts ``bytes``/``bytearray``/``memoryview`` and anything else
    exposing the buffer protocol (e.g. a NumPy array).  Raises
    :class:`SMBProtocolError` for non-contiguous inputs — the zero-copy
    paths require contiguity, and silently copying here would defeat them.
    """
    view = memoryview(data)
    if view.format == "B" and view.ndim == 1:
        return view
    try:
        return view.cast("B")
    except TypeError as exc:
        raise SMBProtocolError(
            f"payload buffer must be C-contiguous bytes: {exc}"
        ) from exc


class Op(enum.IntEnum):
    """Operations the SMB server understands (paper Sec. III-B API)."""

    CREATE = 1          # create a named segment            -> shm_key
    ATTACH = 2          # shm_key -> access_key (RDMA rkey)
    READ = 3            # RDMA Read
    WRITE = 4           # RDMA Write
    ACCUMULATE = 5      # dst += scale * src (server-side)
    FREE = 6            # deallocate a segment
    WAIT_UPDATE = 7     # block until version > given
    VERSION = 8         # current segment version
    STATS = 9           # server statistics snapshot
    # 10 is reserved (it was SHUTDOWN): refused like any unknown opcode
    # and never reused, because journals on disk store opcode numbers.
    LOOKUP = 11         # name -> shm_key (late joiners)
    # 12 is reserved (it was LIST, which no caller read): refused like
    # any unknown opcode.
    SNAPSHOT = 13       # force a durable snapshot -> snapshot seq
    TENANT_CREATE = 14  # create / re-grant a namespace quota (admin)
    TENANT_STATS = 15   # per-namespace quota/usage/dispatch stats


class Status(enum.IntEnum):
    """Response status codes."""

    OK = 0
    ERROR = 1
    TIMEOUT = 2


@dataclass
class Message:
    """One framed protocol message (request or response).

    Field meaning depends on the opcode; unused numeric fields are zero.
    ``key`` carries the primary key or a returned key, ``key2`` the second
    key for ACCUMULATE (source) or the source offset slot is reused via
    ``count`` conventions documented per-op in :mod:`repro.smb.client`.

    ``payload`` may be a ``memoryview`` (zero-copy send/receive); such a
    view is only guaranteed valid until the next operation on the
    transport or buffer that produced it — callers that need to retain
    payload bytes must copy (``bytes(message.payload)``).
    """

    op: Op
    status: Status = Status.OK
    key: int = 0
    key2: int = 0
    offset: int = 0
    count: int = 0
    scale: float = 1.0
    payload: Buffer = field(default=b"", repr=False)

    def payload_view(self) -> memoryview:
        """The payload as a flat byte view (no copy)."""
        return as_byte_view(self.payload)

    @property
    def payload_nbytes(self) -> int:
        """Byte length of the payload regardless of its container type."""
        payload = self.payload
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        return as_byte_view(payload).nbytes

    def encode_header(self) -> bytes:
        """Serialise the fixed-size header only (for vectored sends)."""
        return struct.pack(
            HEADER_FORMAT,
            int(self.op),
            int(self.status),
            self.key,
            self.key2,
            self.offset,
            self.count,
            self.scale,
            self.payload_nbytes,
        )

    def encode(self) -> bytes:
        """Serialise to one contiguous header + payload frame.

        This is the *copying* representation: the contiguous frame, used
        as the test oracle for the journal's on-disk bytes.  The socket
        and journal paths use :meth:`encode_header` plus the payload view
        instead.
        """
        payload = self.payload
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        return self.encode_header() + payload

    @classmethod
    def decode(cls, header: bytes, payload: Buffer) -> "Message":
        """Rebuild a message from its framed parts."""
        op, status, key, key2, offset, count, scale, paylen = struct.unpack(
            HEADER_FORMAT, header
        )
        got = len(payload) if isinstance(payload, (bytes, bytearray)) \
            else as_byte_view(payload).nbytes
        if paylen != got:
            raise SMBProtocolError(
                f"payload length mismatch: header says {paylen}, "
                f"got {got}"
            )
        try:
            return cls(
                op=Op(op),
                status=Status(status),
                key=key,
                key2=key2,
                offset=offset,
                count=count,
                scale=scale,
                payload=payload,
            )
        except ValueError as exc:
            raise SMBProtocolError(str(exc)) from exc


def recv_exact_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` completely from the socket or raise on EOF.

    The zero-copy receive primitive: bytes land directly in the caller's
    buffer via ``recv_into``; no intermediate chunks are allocated.
    """
    while len(view):
        try:
            received = sock.recv_into(view)
        except OSError as exc:
            raise SMBConnectionError(f"socket receive failed: {exc}") from exc
        if not received:
            raise SMBConnectionError("connection closed mid-message")
        view = view[received:]


def recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    """Read exactly ``nbytes`` from a socket or raise on EOF."""
    buf = bytearray(nbytes)
    recv_exact_into(sock, memoryview(buf))
    return bytes(buf)


def sendall_vectored(
    sock: socket.socket, header: bytes, payload: memoryview
) -> None:
    """Send header + payload as two iovecs, finishing any partial send."""
    sent = sock.sendmsg([header, payload])
    total = len(header) + len(payload)
    if sent >= total:
        return
    # Partial send (large payload vs. socket buffer): finish with
    # sendall over the remaining views — still no concatenation.
    if sent < len(header):
        sock.sendall(header[sent:])
        sock.sendall(payload)
    else:
        sock.sendall(payload[sent - len(header):])


def send_message(sock: socket.socket, message: Message) -> None:
    """Write one framed message to a socket (vectored, copy-free).

    The payload — whether ``bytes`` or a memoryview onto a NumPy array —
    is handed to the kernel as its own iovec; the historical
    ``header + payload`` concatenation (a full payload-sized copy per
    send) no longer happens.  Falls back to ``sendall`` on platforms
    without ``sendmsg``.
    """
    try:
        view = message.payload_view()
        header = message.encode_header()
        if view.nbytes == 0:
            sock.sendall(header)
        elif _HAS_SENDMSG:
            sendall_vectored(sock, header, view)
        else:  # pragma: no cover - non-POSIX fallback
            sock.sendall(header + view.tobytes())
    except OSError as exc:
        raise SMBConnectionError(f"socket send failed: {exc}") from exc


def recv_message(
    sock: socket.socket, out: Optional[memoryview] = None
) -> Message:
    """Read one framed message from a socket.

    Args:
        sock: Connected socket positioned at a frame boundary.
        out: Optional writable byte view.  An ``OK`` payload that fits in
            ``out`` is received *directly into it* and the returned
            message's ``payload`` is a view of ``out`` — the zero-copy
            read path.  Error/oversized payloads never touch ``out``;
            they fall back to a private buffer, so a failed read cannot
            clobber the caller's array with an error blob.
    """
    header = bytearray(HEADER_SIZE)
    recv_exact_into(sock, memoryview(header))
    fields = struct.unpack(HEADER_FORMAT, header)
    status, paylen = fields[1], fields[-1]
    payload: Buffer
    if paylen == 0:
        payload = b""
    elif (
        out is not None
        and status == int(Status.OK)
        and paylen <= len(out)
    ):
        view = out[:paylen]
        recv_exact_into(sock, view)
        payload = view
    else:
        buf = bytearray(paylen)
        recv_exact_into(sock, memoryview(buf))
        payload = bytes(buf)
    return Message.decode(bytes(header), payload)
