"""Client-side transports for talking to an SMB server.

The client library (:mod:`repro.smb.client`) is transport-agnostic: it sends
:class:`~repro.smb.protocol.Message` requests and receives responses.  Two
transports implement that contract:

* :class:`InProcTransport` — calls straight into an in-process
  :class:`~repro.smb.server.SMBServer`.  This is the high-fidelity stand-in
  for RDMA: no serialisation, no syscalls, just a function call into the
  memory pool, which is how kernel-bypass one-sided verbs behave from the
  application's point of view.
* :class:`TcpTransport` — frames messages over a TCP socket to a
  :class:`~repro.smb.server.TcpSMBServer`, for genuinely multi-process runs
  (the repro band's "emulate ... over sockets").

Both are safe for use by the two threads of a ShmCaffe worker; each
request/response exchange is serialised by an internal lock, **except**
``WAIT_UPDATE``, which must never hold that lock: a notification wait can
block for seconds while the other thread still needs to read/write/
accumulate.  :class:`TcpTransport` therefore runs waits on a dedicated
second connection (the *notification channel*), and both transports chop a
long wait into bounded slices so ``close()`` wakes a blocked waiter
promptly instead of letting shutdown hang.

Fault tolerance: every TCP request observes a per-request deadline, and a
connection that dies is re-established (with a fresh protocol handshake)
on the next request — the retry layer in :class:`~repro.smb.client.SMBClient`
turns that into a transparent reconnect-and-retry.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import threading
from time import monotonic, sleep
from typing import Callable, Optional, Protocol, Tuple, Union

from .errors import SMBConnectionError, TransportClosedError
from .journal import read_rendezvous
from .memory import DEFAULT_TENANT
from .protocol import Message, Op, Status, encode_hello, recv_message, send_message
from .server import SMBServer

#: Upper bound on one server-side blocking slice of a WAIT_UPDATE.  Small
#: enough that close() wakes a waiter quickly; large enough that re-arming
#: the wait is not a busy loop.
WAIT_SLICE = 0.25

#: Pause between connect attempts while inside a server-down grace window.
RECONNECT_PAUSE = 0.2


class Transport(Protocol):
    """What the SMB client needs from a transport."""

    def request(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        """Send one request and return the server's response.

        ``out`` is the zero-copy receive seam: when given, a successful
        response payload that fits is delivered *into* ``out`` (and the
        returned message's ``payload`` is a view of it) instead of being
        allocated.  Transports that cannot honour ``out`` may ignore it —
        the client detects aliasing and copies as a fallback.
        """
        ...

    def close(self) -> None:
        """Release transport resources and wake any blocked waiter."""
        ...


def _sliced_wait(
    exchange: Callable[[Message], Message],
    message: Message,
    closed: threading.Event,
    slice_seconds: float = WAIT_SLICE,
) -> Message:
    """Run one WAIT_UPDATE as a sequence of bounded server-side waits.

    The caller's timeout semantics are preserved (``scale == 0`` waits
    forever, ``scale < 0`` polls, otherwise the deadline is honoured to
    within one slice), but no single exchange blocks longer than
    ``slice_seconds`` — so a concurrent :meth:`Transport.close` is
    observed promptly and shutdown cannot hang on a notification that
    will never come.
    """
    if message.scale < 0:
        # Poll: a single non-blocking exchange; a TIMEOUT response (the
        # segment has not advanced) propagates for the client to raise.
        if closed.is_set():
            raise TransportClosedError("transport closed while waiting")
        return exchange(message)
    deadline = monotonic() + message.scale if message.scale > 0 else None
    while True:
        if closed.is_set():
            raise TransportClosedError("transport closed while waiting")
        remaining = slice_seconds
        if deadline is not None:
            remaining = min(remaining, deadline - monotonic())
            if remaining <= 0:
                remaining = 1e-3  # at least one (instant) version check
        response = exchange(
            dataclasses.replace(message, scale=remaining)
        )
        if response.status is not Status.TIMEOUT:
            return response
        if deadline is not None and monotonic() >= deadline:
            return response  # genuine timeout; client raises from it


class InProcTransport:
    """Direct function-call transport into an in-process server core.

    There is no wire handshake to carry the tenant, so the namespace is
    pinned at construction and passed with every call — the in-process
    analogue of the wire hello.
    """

    def __init__(
        self, server: SMBServer, tenant: str = DEFAULT_TENANT
    ) -> None:
        self._server = server
        self._tenant = tenant
        self._lock = threading.Lock()
        self._closed = threading.Event()

    def request(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        if self._closed.is_set():
            raise TransportClosedError("transport is closed")
        # WAIT_UPDATE may block for a long time; never hold the exchange
        # lock across it or the worker's other thread would stall too.
        if message.op is Op.WAIT_UPDATE:
            return _sliced_wait(
                lambda msg: self._server.handle(msg, tenant=self._tenant),
                message,
                self._closed,
            )
        with self._lock:
            return self._server.handle(message, out, tenant=self._tenant)

    def close(self) -> None:
        self._closed.set()


class TcpTransport:
    """Framed request/response transport over TCP, with fault tolerance.

    Two connections are held against the server:

    * the **command channel** — every ordinary request/response pair,
      serialised under a lock;
    * the **notification channel** — opened lazily for ``WAIT_UPDATE``
      only, so a blocked wait never serialises the worker's other thread.

    Either connection that dies (peer reset, timeout, server restart) is
    torn down and re-established — including the protocol ``HELLO``
    handshake — on the next request that needs it.  Every exchange
    observes ``request_timeout``; an overdue response surfaces as
    :class:`SMBConnectionError`, which the client's retry policy treats
    as transient.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: float = 10.0,
        request_timeout: float = 30.0,
        rendezvous: Optional[Union[str, os.PathLike]] = None,
        server_down_grace: float = 0.0,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        self._address = address
        self._tenant = tenant
        self._hello = encode_hello(tenant)
        self._connect_timeout = timeout
        self._request_timeout = request_timeout
        self._rendezvous = rendezvous
        self._server_down_grace = server_down_grace
        self._lock = threading.Lock()
        self._notify_lock = threading.Lock()
        self._closed = threading.Event()
        self._sock: Optional[socket.socket] = self._connect()
        self._notify_sock: Optional[socket.socket] = None
        #: Whether the notification channel has ever been opened; its
        #: first lazy connect is an open, not a reconnect.
        self._notify_connected_once = False
        self.reconnects = 0

    # -- connection management -------------------------------------------

    def _resolve_address(self) -> Tuple[str, int]:
        """Current server endpoint: rendezvous file, else static address.

        A restarted server usually binds a new ephemeral port and
        republishes it through the rendezvous file; re-reading the file
        on *every* attempt is what lets a client inside its grace window
        find the new endpoint without any out-of-band coordination.
        """
        if self._rendezvous is not None:
            resolved = read_rendezvous(self._rendezvous)
            if resolved is not None:
                return resolved
        return self._address

    def _connect(self) -> socket.socket:
        """Open one handshaken connection to the server.

        With ``server_down_grace > 0`` a refused/failed connection is not
        terminal: attempts repeat (re-resolving the rendezvous each time)
        until the grace window expires, turning a server restart into a
        bounded outage instead of a run-killing error.
        """
        grace = self._server_down_grace
        deadline = monotonic() + grace if grace > 0 else None
        last_exc: Optional[OSError] = None
        address = self._address
        while True:
            if self._closed.is_set():
                raise TransportClosedError("transport is closed")
            address = self._resolve_address()
            sock: Optional[socket.socket] = None
            try:
                sock = socket.create_connection(
                    address, timeout=self._connect_timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(self._request_timeout)
                sock.sendall(self._hello)
                self._address = address
                return sock
            except OSError as exc:
                if sock is not None:
                    sock.close()
                last_exc = exc
            if deadline is None or monotonic() >= deadline:
                raise SMBConnectionError(
                    f"cannot connect to SMB server at {address}: {last_exc}"
                ) from last_exc
            sleep(min(RECONNECT_PAUSE, max(deadline - monotonic(), 0.0)))

    @staticmethod
    def _discard(sock: Optional[socket.socket]) -> None:
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def drop_connection(self) -> None:
        """Abort both connections (fault injection / tests).

        The next request transparently reconnects and re-handshakes; a
        thread blocked in a wait observes a connection error and lets the
        retry layer re-issue the wait.

        The notification socket is *closed without the lock* — that is
        what interrupts a waiter blocked in ``recv`` (which holds
        ``_notify_lock`` for up to a wait slice) — but the shared
        ``_notify_sock`` slot itself is only cleared under the lock, and
        only if it still holds the socket we closed.  The old code
        assigned ``None`` lock-free, so a concurrent ``_notify_exchange``
        could read ``None`` mid-exchange and crash with ``TypeError``
        instead of the retryable ``SMBConnectionError``.
        """
        with self._lock:
            self._discard(self._sock)
            self._sock = None
        notify = self._notify_sock
        self._discard(notify)  # interrupts a blocked recv, never blocks
        with self._notify_lock:
            if self._notify_sock is notify:
                self._notify_sock = None

    # -- request path -----------------------------------------------------

    def request(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        if self._closed.is_set():
            raise TransportClosedError("transport is closed")
        if message.op is Op.WAIT_UPDATE:
            return _sliced_wait(self._notify_exchange, message, self._closed)
        with self._lock:
            if self._sock is None:
                self._sock = self._connect()
                self.reconnects += 1
            try:
                send_message(self._sock, message)
                return recv_message(self._sock, out)
            except SMBConnectionError:
                # Connection state is unknown (partial frame possible);
                # drop it so the next request starts clean.
                self._discard(self._sock)
                self._sock = None
                raise

    def _notify_exchange(self, message: Message) -> Message:
        """One exchange on the dedicated notification connection."""
        with self._notify_lock:
            if self._closed.is_set():
                raise TransportClosedError("transport is closed")
            if self._notify_sock is None:
                self._notify_sock = self._connect()
                # Reconnects on this channel count too; only the very
                # first (lazy) open is free.
                if self._notify_connected_once:
                    self.reconnects += 1
                self._notify_connected_once = True
            try:
                send_message(self._notify_sock, message)
                return recv_message(self._notify_sock)
            except SMBConnectionError:
                self._discard(self._notify_sock)
                self._notify_sock = None
                raise

    def close(self) -> None:
        self._closed.set()
        # Closing the sockets wakes any thread blocked in recv() with an
        # OSError -> SMBConnectionError, so shutdown never waits a slice.
        self._discard(self._sock)
        self._sock = None
        self._discard(self._notify_sock)
        self._notify_sock = None
