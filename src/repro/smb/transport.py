"""The client-side transport for talking to an SMB server.

The client library (:mod:`repro.smb.client`) is transport-agnostic: it sends
:class:`~repro.smb.protocol.Message` requests and receives responses.  One
class, :class:`ChannelTransport`, implements that contract for every
doorway; a doorway only says *how a channel is opened* and *where a
frame's bytes live*:

* :func:`InProcTransport` — the channel is a function call into an
  in-process :class:`~repro.smb.server.SMBServer`.  This is the
  high-fidelity stand-in for RDMA: no serialisation, no syscalls, which is
  how kernel-bypass one-sided verbs behave from the application's point of
  view.
* :func:`TcpTransport` — the channel frames messages over a TCP socket to
  a :class:`~repro.smb.server.TcpSMBServer`, for genuinely multi-process
  runs (the repro band's "emulate ... over sockets").
* :func:`~repro.smb.shm_transport.ShmTransport` — the channel is a UNIX
  doorbell socket plus a shared-memory block that holds the frame.

A transport is safe for use by the two threads of a ShmCaffe worker; each
request/response exchange is serialised by an internal lock, **except**
``WAIT_UPDATE``, which must never hold that lock: a notification wait can
block for seconds while the other thread still needs to read/write/
accumulate.  Waits therefore run on a dedicated second channel (the
*notification channel*), chopped into bounded slices so ``close()`` wakes
a blocked waiter promptly instead of letting shutdown hang.

Fault tolerance: a channel that dies is discarded and re-opened (with a
fresh protocol handshake) by the next request that needs it — the retry
layer in :class:`~repro.smb.client.SMBClient` turns that into a
transparent reconnect-and-retry, the same way on every doorway.
"""

from __future__ import annotations

import dataclasses
import functools
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


class Channel(Protocol):
    """One handshaken connection: where a frame's bytes live.

    ``exchange`` raises :class:`SMBConnectionError` when the connection
    is lost; ``interrupt``, from another thread, makes an ``exchange``
    blocked on the peer raise (closing a socket wakes nobody blocked in
    ``recv`` on Linux); ``close`` is idempotent.
    """

    def exchange(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message: ...

    def interrupt(self) -> None: ...

    def close(self) -> None: ...


class _Slot:
    """One of a transport's two channel positions."""

    __slots__ = ("lock", "channel", "opened")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.channel: Optional[Channel] = None
        #: Whether this position ever held a channel; the notification
        #: channel's first lazy open is an open, not a reconnect.
        self.opened = False


class ChannelTransport:
    """The command channel, the notification channel, and their upkeep.

    See the module docstring for the contract.  A lost exchange surfaces
    as :class:`SMBConnectionError` (transient to the client's retry
    policy); :attr:`reconnects` counts the channels re-opened after one.

    Args:
        open_channel: Opens one handshaken channel, or raises
            :class:`SMBConnectionError`.  The only thing that differs
            between doorways.
        server_down_grace: Seconds each (re)open keeps retrying a dead
            endpoint before giving up, turning a server restart into a
            bounded outage instead of a run-killing error.
    """

    def __init__(
        self,
        open_channel: Callable[[], Channel],
        server_down_grace: float = 0.0,
    ) -> None:
        self._open_channel = open_channel
        self._server_down_grace = server_down_grace
        self._closed = threading.Event()
        self._cmd = _Slot()
        self._notify = _Slot()
        self.reconnects = 0
        with self._cmd.lock:
            self._open(self._cmd)

    # -- channel management ----------------------------------------------

    def _open(self, slot: _Slot) -> Channel:
        """Open a channel into ``slot`` (caller holds ``slot.lock``)."""
        grace = self._server_down_grace
        deadline = monotonic() + grace if grace > 0 else None
        while True:
            if self._closed.is_set():
                raise TransportClosedError("transport is closed")
            try:
                channel = self._open_channel()
                break
            except SMBConnectionError:
                if deadline is None or monotonic() >= deadline:
                    raise
                sleep(min(RECONNECT_PAUSE, max(deadline - monotonic(), 0.0)))
        # Publish, *then* re-check: close() sets the flag before it reads
        # the slots, so one side or the other always sees this channel.
        slot.channel = channel
        if self._closed.is_set():
            self._discard(slot)
            raise TransportClosedError("transport is closed")
        if slot.opened:
            self.reconnects += 1
        slot.opened = True
        return channel

    @staticmethod
    def _discard(slot: _Slot) -> None:
        """Close and forget ``slot``'s channel (caller holds its lock)."""
        if slot.channel is not None:
            slot.channel.close()
            slot.channel = None

    def _exchange(
        self, slot: _Slot, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        with slot.lock:
            channel = slot.channel
            if channel is None:
                channel = self._open(slot)
            try:
                return channel.exchange(message, out)
            except SMBConnectionError:
                # Channel state is unknown (partial frame possible);
                # drop it so the next request starts clean.
                self._discard(slot)
                raise

    def drop_connection(self) -> None:
        """Abort both channels (fault injection / tests).

        The next request transparently re-opens and re-handshakes; a
        thread blocked in a wait observes a connection error and lets the
        retry layer re-issue the wait.

        The command channel is dropped under its lock, *between*
        exchanges: an in-flight ACCUMULATE must not be torn mid-request
        and then retried into a double application.  The notification
        channel is interrupted without the lock — that is what ends a
        waiter parked in its exchange (which holds the lock for up to a
        wait slice) — and closed under the lock only if the slot still
        holds it (the interrupted waiter discards it itself).
        """
        with self._cmd.lock:
            self._discard(self._cmd)
        notify = self._notify.channel
        if notify is not None:
            notify.interrupt()
        with self._notify.lock:
            if self._notify.channel is notify:
                self._discard(self._notify)

    # -- request path -----------------------------------------------------

    def _sliced_wait(self, message: Message) -> Message:
        """Run one WAIT_UPDATE as a sequence of bounded server-side waits.

        The caller's timeout semantics are preserved (``scale == 0`` waits
        forever, ``scale < 0`` polls, otherwise the deadline is honoured to
        within one slice), but no single exchange blocks longer than
        :data:`WAIT_SLICE` — so a concurrent :meth:`close` is observed
        promptly and shutdown cannot hang on a notification that will
        never come.
        """
        if message.scale < 0:
            # Poll: a single non-blocking exchange; a TIMEOUT response (the
            # segment has not advanced) propagates for the client to raise.
            return self._exchange(self._notify, message)
        deadline = monotonic() + message.scale if message.scale > 0 else None
        while True:
            if self._closed.is_set():
                raise TransportClosedError("transport closed while waiting")
            remaining = WAIT_SLICE
            if deadline is not None:
                remaining = min(remaining, deadline - monotonic())
                if remaining <= 0:
                    remaining = 1e-3  # at least one (instant) version check
            response = self._exchange(
                self._notify, dataclasses.replace(message, scale=remaining)
            )
            if response.status is not Status.TIMEOUT:
                return response
            if deadline is not None and monotonic() >= deadline:
                return response  # genuine timeout; client raises from it

    def request(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        if self._closed.is_set():
            raise TransportClosedError("transport is closed")
        if message.op is Op.WAIT_UPDATE:
            return self._sliced_wait(message)
        return self._exchange(self._cmd, message, out)

    def close(self) -> None:
        self._closed.set()
        # Lock-free on purpose: interrupting wakes a thread blocked in its
        # exchange (which holds the slot lock), so shutdown never waits a
        # slice.  Whoever holds the lock forgets the dead channel.
        for slot in (self._cmd, self._notify):
            channel = slot.channel
            if channel is not None:
                channel.interrupt()
                channel.close()


class _InProcChannel:
    """A function call into the server core; nothing to lose or close.

    There is no wire handshake to carry the tenant, so the namespace is
    bound here and passed with every call — the in-process analogue of
    the wire hello.
    """

    def __init__(self, server: SMBServer, tenant: str) -> None:
        self.exchange = functools.partial(server.handle, tenant=tenant)

    def interrupt(self) -> None:
        pass

    def close(self) -> None:
        pass


def InProcTransport(
    server: SMBServer, tenant: str = DEFAULT_TENANT
) -> ChannelTransport:
    """Direct function-call transport into an in-process server core."""
    return ChannelTransport(lambda: _InProcChannel(server, tenant))


class _TcpChannel:
    """One handshaken TCP connection; frames travel through the socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def exchange(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        send_message(self._sock, message)
        return recv_message(self._sock, out)

    def interrupt(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or already closed

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def TcpTransport(
    address: Tuple[str, int],
    timeout: float = 10.0,
    request_timeout: float = 30.0,
    rendezvous: Optional[Union[str, os.PathLike]] = None,
    server_down_grace: float = 0.0,
    tenant: str = DEFAULT_TENANT,
) -> ChannelTransport:
    """Framed transport over TCP to a :class:`~repro.smb.server.TcpSMBServer`.

    Every exchange observes ``request_timeout``; an overdue response
    surfaces as :class:`SMBConnectionError`.  With ``rendezvous``, the
    endpoint file is re-read on *every* open attempt: a restarted server
    usually binds a new ephemeral port and republishes it there, which is
    what lets a client inside its grace window find the new endpoint
    without any out-of-band coordination.
    """
    hello = encode_hello(tenant)

    def open_channel() -> _TcpChannel:
        nonlocal address
        target = address
        if rendezvous is not None:
            target = read_rendezvous(rendezvous) or address
        try:
            sock = socket.create_connection(target, timeout=timeout)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(request_timeout)
                sock.sendall(hello)
            except OSError:
                sock.close()
                raise
        except OSError as exc:
            raise SMBConnectionError(
                f"cannot connect to SMB server at {target}: {exc}"
            ) from exc
        address = target
        return _TcpChannel(sock)

    return ChannelTransport(open_channel, server_down_grace)
