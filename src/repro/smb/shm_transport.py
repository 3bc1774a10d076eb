"""Local shared-memory transport: co-located READ/WRITE as a memcpy.

The paper's Soft Memory Box keeps the parameter segments in host shared
memory; a worker on the *same* node as the memory server should not pay
the TCP stack to reach memory it could simply map.  This transport gives
co-located clients that path:

* the server creates one :class:`multiprocessing.shared_memory.SharedMemory`
  block per connection and hands its name to the client over a UNIX
  domain socket;
* a request is the normal wire :class:`~repro.smb.protocol.Message` frame
  written *into* the block (header at offset 0, payload at
  :data:`DATA_OFFSET`) followed by an 8-byte **doorbell** over the UNIX
  socket — the doorbell is the only thing the kernel ever moves;
* the server parses the frame in place, serves READs straight into the
  block (segment → shm, one copy, via the ``handle(request, out=...)``
  zero-copy seam) and rings the doorbell back.

So a 64 MiB READ costs one ``memcpy`` plus two 8-byte socket round-trips,
instead of 64 MiB through loopback TCP in both kernels.

**Doorbell protocol** (8-byte signed big-endian int):

* client → server, positive ``n``: a request frame of ``n`` bytes is in
  the block.
* client → server, negative ``-n``: grow the block to at least ``n``
  bytes before the next request.
* server → client, negative ``-n``: *switch blocks* — a name record
  (u16 length + UTF-8 name) follows on the socket; the new block is
  ``n`` bytes.  Sent at handshake, as the grow acknowledgement, and
  spontaneously before a response too large for the current block.
* server → client, positive ``n``: a response frame of ``n`` bytes is in
  the (possibly just-switched) block.

Strict request/response means the block is always quiescent when it is
replaced, so growth never migrates in-flight data.

The client end is a :class:`_ShmChannel` (doorbell socket + block) under
the one :class:`~repro.smb.transport.ChannelTransport`, which gives this
doorway the same command/notification channel pair, sliced waits and
reconnect-on-loss as every other.

The server end, :class:`ShmSMBServer`, serves each connection on its own
thread: co-located workers are bounded by the node's core count, and the
TCP front-end's selector loop was measured on this doorway and lost
(``smb_mix_shm``: −32 % ops/s, 3.0× ``lat_ms_p50``; the table is in
``docs/architecture.md``, "Threads of a running SMB server").  It
can share an :class:`~repro.smb.server.SMBServer` core with a
:class:`~repro.smb.server.TcpSMBServer`, giving one memory pool both a
remote and a local doorway.
"""

from __future__ import annotations

import logging
import os
import socket
import struct
import threading
from multiprocessing import shared_memory
from typing import Dict, Optional, Union

from .errors import SMBConnectionError, SMBProtocolError
from .memory import DEFAULT_TENANT
from .protocol import (
    HANDSHAKE_TIMEOUT,
    HEADER_SIZE,
    Message,
    Op,
    Status,
    encode_hello,
    payload_length,
    read_hello,
    recv_exact,
)
from .server import DEFAULT_POOL_CAPACITY, SMBServer
from .transport import ChannelTransport

logger = logging.getLogger(__name__)

#: Payload region offset inside the block (past the 46-byte header,
#: rounded up for alignment).
DATA_OFFSET = 64

#: Initial per-connection block size; grown geometrically on demand.
DEFAULT_BLOCK_SIZE = 1 << 20  # 1 MiB

_DOORBELL = struct.Struct("!q")


def _send_all(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
    except OSError as exc:
        raise SMBConnectionError(f"doorbell socket failed: {exc}") from exc


def _send_doorbell(sock: socket.socket, value: int) -> None:
    _send_all(sock, _DOORBELL.pack(value))


def _recv_doorbell(sock: socket.socket) -> int:
    return _DOORBELL.unpack(recv_exact(sock, _DOORBELL.size))[0]


def _send_name_record(sock: socket.socket, name: str) -> None:
    encoded = name.encode()
    _send_all(sock, struct.pack("!H", len(encoded)) + encoded)


def _recv_name_record(sock: socket.socket) -> str:
    (length,) = struct.unpack("!H", recv_exact(sock, 2))
    return recv_exact(sock, length).decode()


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to a server-created block without resource tracking.

    The *server* owns the block's lifetime (it unlinks on connection
    teardown); the attaching side must not also claim it.  Python 3.13
    has ``track=False`` for exactly this.  On earlier versions a plain
    attach is the least-bad option: registration is set-based, so in the
    common same-process case (tests, benchmarks, in-process co-location)
    the server's ``unlink`` still balances the books; a separate client
    process may log a spurious leaked-object note from its resource
    tracker at exit.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        return shared_memory.SharedMemory(name=name)


def _close_block(
    block: Optional[shared_memory.SharedMemory], unlink: bool = False
) -> None:
    if block is None:
        return
    try:
        block.close()
    except BufferError:
        # A view into the mapping is still alive somewhere; the mapping
        # stays until process exit, which is harmless — but the name must
        # still be released below.
        logger.warning("shm block %s closed with live views", block.name)
    except OSError:
        pass
    if unlink:
        try:
            block.unlink()
        except (FileNotFoundError, OSError):
            pass


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------


class _ShmChannel:
    """One doorbell socket plus its shared-memory block (client end)."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        timeout: float,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.shm: Optional[shared_memory.SharedMemory] = None
        try:
            self.sock.connect(os.fspath(path))
            self.sock.sendall(encode_hello(tenant))
            # Handshake is a switch record like any other.
            value = _recv_doorbell(self.sock)
            if value >= 0:
                raise SMBConnectionError(
                    f"bad shm handshake doorbell {value}"
                )
            self._attach_switch()
        except (OSError, SMBConnectionError) as exc:
            self.close()
            if isinstance(exc, SMBConnectionError):
                raise
            raise SMBConnectionError(
                f"cannot connect to SMB shm server at {path}: {exc}"
            ) from exc

    def _attach_switch(self) -> None:
        """Follow a switch record: attach the named block, drop the old."""
        new = _attach_block(_recv_name_record(self.sock))
        _close_block(self.shm)
        self.shm = new

    def ensure(self, nbytes: int) -> None:
        """Make the block at least ``nbytes`` (the server over-allocates
        geometrically, inside its ceiling)."""
        if self.shm is not None and nbytes <= self.shm.size:
            return
        _send_doorbell(self.sock, -nbytes)
        value = _recv_doorbell(self.sock)
        if value >= 0:
            raise SMBConnectionError(f"bad grow acknowledgement {value}")
        self._attach_switch()

    def exchange(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        payload = message.payload_view()
        # Grow for what we send only: the server sizes its own responses
        # (the switch loop below), after it has judged the request.
        self.ensure(DATA_OFFSET + payload.nbytes)
        assert self.shm is not None
        request_nbytes = DATA_OFFSET + payload.nbytes
        buf = self.shm.buf
        buf[:HEADER_SIZE] = message.encode_header()
        if payload.nbytes:
            buf[DATA_OFFSET:DATA_OFFSET + payload.nbytes] = payload
        # Drop our view before ringing: the server may switch blocks for
        # a large response, and a block with exported views cannot close.
        buf = None
        _send_doorbell(self.sock, request_nbytes)
        value = _recv_doorbell(self.sock)
        while value < 0:  # server grew the block for a large response
            self._attach_switch()
            value = _recv_doorbell(self.sock)
        buf = self.shm.buf
        header = bytes(buf[:HEADER_SIZE])
        paylen = payload_length(header)
        if out is not None and paylen <= len(out):
            out[:paylen] = buf[DATA_OFFSET:DATA_OFFSET + paylen]
            return Message.decode(header, out[:paylen])
        return Message.decode(header, bytes(buf[DATA_OFFSET:DATA_OFFSET + paylen]))

    def interrupt(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or already closed

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
        _close_block(self.shm)
        self.shm = None


def ShmTransport(
    path: Union[str, os.PathLike],
    timeout: float = 30.0,
    tenant: str = DEFAULT_TENANT,
) -> ChannelTransport:
    """Client transport over a local :class:`ShmSMBServer`.

    The doorway's whole contribution is the channel: a lost doorbell
    socket is discarded and re-opened (fresh block, fresh handshake) by
    :class:`~repro.smb.transport.ChannelTransport` like any other.
    """
    return ChannelTransport(lambda: _ShmChannel(path, timeout, tenant))


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------


class ShmSMBServer:
    """UNIX-socket + shared-memory front-end for an :class:`SMBServer`.

    Usage::

        with ShmSMBServer(path="/tmp/smb.sock", capacity=1 << 28) as server:
            client = SMBClient.connect_local(server.path)
            ...

    Pass ``core=`` to share one memory pool with a
    :class:`~repro.smb.server.TcpSMBServer`: remote workers come in over
    TCP, co-located workers take the shm path, both see the same
    segments.

    Each connection gets a dedicated thread and a dedicated block, and
    every op runs start to finish on that thread: a doorbell costs one
    wake-up, where the TCP front-end's loop → lane → pool → wake-up
    path, tried here, tripled the median latency of ``smb_mix_shm``.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        capacity: int = DEFAULT_POOL_CAPACITY,
        core: Optional[SMBServer] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        self.core = core if core is not None else SMBServer(capacity)
        self.path = os.fspath(path)
        self._block_size = block_size
        if os.path.exists(self.path):
            os.unlink(self.path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.path)
        self._listener.listen(64)
        self._stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        # Live connections and the thread serving each.  The accept
        # thread adds an entry before it starts that thread; the handler
        # removes its own on the way out.
        self._conns: Dict[socket.socket, threading.Thread] = {}
        self._conns_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ShmSMBServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="smb-shm-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Sever every connection and join every handler thread.

        Returns with no ``smb-shm*`` thread alive, so nothing a client
        sends afterwards can be applied.
        """
        self._stop.set()
        try:
            # Closing alone does not wake a thread blocked in accept() or
            # recv() on an AF_UNIX socket; shutdown() does.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self.core.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        # The accept thread is gone, so the table can only shrink now.
        with self._conns_lock:
            conns = dict(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it first
        for handler in conns.values():
            handler.join(timeout=5.0)
        if os.path.exists(self.path):
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self) -> "ShmSMBServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- internals -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed during stop()
            handler = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="smb-shm-conn",
                daemon=True,
            )
            with self._conns_lock:
                self._conns[conn] = handler
                handler.start()

    def _switch_block(
        self,
        conn: socket.socket,
        old: Optional[shared_memory.SharedMemory],
        size: int,
    ) -> shared_memory.SharedMemory:
        """Allocate a fresh block, announce it, retire the old one.

        Only called between frames (strict request/response), so no views
        into ``old`` exist and it closes cleanly.
        """
        block = shared_memory.SharedMemory(create=True, size=size)
        _send_doorbell(conn, -block.size)
        _send_name_record(conn, block.name)
        _close_block(old, unlink=True)
        return block

    def _serve_frame(
        self,
        conn: socket.socket,
        block: shared_memory.SharedMemory,
        tenant: str = DEFAULT_TENANT,
    ) -> shared_memory.SharedMemory:
        """Parse, dispatch and answer one request frame.

        All views into the block live and die inside this frame's scope,
        so the caller's loop can always switch or retire the block
        between frames without tripping over exported buffers.
        """
        buf = block.buf
        header = bytes(buf[:HEADER_SIZE])
        paylen = payload_length(header)
        request = Message.decode(
            header, buf[DATA_OFFSET:DATA_OFFSET + paylen]
        )
        op, count = request.op, request.count
        out: Optional[memoryview] = None
        if op is Op.READ and count > 0:
            out = buf[DATA_OFFSET:]
        response = self.core.handle(request, out, tenant=tenant)
        view = response.payload_view()
        nbytes = view.nbytes
        resp_header = response.encode_header()
        if DATA_OFFSET + nbytes > block.size:
            # Response (a STATS/LIST/SNAPSHOT body, typically) outgrew
            # the block: materialise it, drop every view into the old
            # block, switch, then land it in the new one.
            data = bytes(view)
            del view, request, response, out, buf
            block = self._switch_block(conn, block, DATA_OFFSET + len(data))
            buf = block.buf
            buf[DATA_OFFSET:DATA_OFFSET + len(data)] = data
        else:
            # A successful READ served through ``out`` is already in the
            # block (that is the one-copy path); anything else still
            # needs the payload landed.
            in_place = (
                op is Op.READ
                and out is not None
                and count <= len(out)
                and response.status is Status.OK
            )
            if nbytes and not in_place:
                buf[DATA_OFFSET:DATA_OFFSET + nbytes] = view
        buf[:HEADER_SIZE] = resp_header
        _send_doorbell(conn, DATA_OFFSET + nbytes)
        return block

    def _serve_connection(self, conn: socket.socket) -> None:
        block: Optional[shared_memory.SharedMemory] = None
        try:
            # Bound the handshake, then block freely between frames (an
            # idle-but-handshaken client is a legitimate parked worker).
            conn.settimeout(HANDSHAKE_TIMEOUT)
            try:
                tenant = read_hello(conn)
            except SMBProtocolError as exc:
                logger.warning(
                    "rejecting non-SMB client on shm socket: %s", exc
                )
                return
            conn.settimeout(None)
            block = self._switch_block(conn, None, self._block_size)
            while True:
                value = _recv_doorbell(conn)
                if self._stop.is_set():
                    break  # a doorbell that raced stop() is not served
                if value < 0:
                    # No valid frame is larger than the header region
                    # plus everything the pool can hold; refuse before
                    # the length costs memory.
                    ceiling = DATA_OFFSET + self.core.pool.capacity
                    if -value > ceiling:
                        logger.warning(
                            "shm client asked for a %d-byte block (pool "
                            "allows %d); dropping connection",
                            -value, ceiling,
                        )
                        break
                    block = self._switch_block(
                        conn, block,
                        min(max(-value, 2 * block.size), ceiling),
                    )
                    continue
                block = self._serve_frame(conn, block, tenant)
        except SMBConnectionError:
            pass  # peer went away; normal teardown
        except Exception:  # noqa: BLE001 - keep the server alive
            logger.exception("SMB shm handler crashed")
        finally:
            with self._conns_lock:
                self._conns.pop(conn, None)
            try:
                conn.close()
            except OSError:
                pass
            _close_block(block, unlink=True)
