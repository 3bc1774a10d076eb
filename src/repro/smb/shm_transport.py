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

**One-sided READ.**  Only the first READ of a segment on a connection
goes through the server that way.  Its response doorbell carries the
segment's memfd (``SCM_RIGHTS``, see :mod:`repro.smb.memory`), and the
client maps it read-only.  Every later READ of that access key is the
RDMA Read of the paper: the client copies straight out of the segment
under its seqlock (read word 0, copy, re-read word 0) and no server
thread wakes.  It falls back to the RPC READ when the range does not
fit, the doorbell socket is not quiet (a dead server shows HUP), the
segment's waits ended (FREE, server close), or :data:`ONE_SIDED_TRIES`
copies all raced a mutation.  The server does not count a one-sided
READ; the client's telemetry does.

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
  the (possibly just-switched) block.  The response to a connection's
  first successful READ of an access key carries that segment's memfd
  as ancillary data; a client that does not map it drops it unread.

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
import mmap
import os
import platform
import select
import socket
import struct
import threading
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from .errors import SMBConnectionError, SMBProtocolError, UnknownKeyError
from .memory import DEFAULT_TENANT, ENDED_WORD, HEADER_BYTES, SEQ_WORD
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

#: Seqlock copies a one-sided READ tries before it falls back to the RPC.
ONE_SIDED_TRIES = 4

#: The seqlock read relies on x86-64 keeping loads in order and stores in
#: order (Python has no fences); elsewhere every READ stays an RPC.
ONE_SIDED = platform.machine().lower() in ("x86_64", "amd64")

#: One-sided copies of at least this many bytes go through NumPy, which
#: releases the GIL for them, so the server's and other clients' threads
#: keep running through a 4 MiB copy (``smb_mix_shm`` ``ops_per_s`` +8 %,
#: 9 / 10 pairs); smaller ones are a memoryview copy, which costs less.
GIL_FREE_COPY_BYTES = 1 << 16

_DOORBELL = struct.Struct("!q")


def _send_all(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
    except OSError as exc:
        raise SMBConnectionError(f"doorbell socket failed: {exc}") from exc


def _send_doorbell(
    sock: socket.socket, value: int, fd: Optional[int] = None
) -> None:
    """Ring ``value``; ``fd`` rides along as ``SCM_RIGHTS`` when given."""
    data = _DOORBELL.pack(value)
    if fd is not None:
        try:
            sent = socket.send_fds(sock, [data], [fd])
        except OSError as exc:
            raise SMBConnectionError(f"doorbell socket failed: {exc}") from exc
        data = data[sent:]
    if data:
        _send_all(sock, data)


def _recv_doorbell(sock: socket.socket) -> int:
    return _DOORBELL.unpack(recv_exact(sock, _DOORBELL.size))[0]


def _recv_response_doorbell(
    sock: socket.socket, hand_off: bool
) -> Tuple[int, List[int]]:
    """Receive one doorbell, with the descriptors sent along only when
    ``hand_off`` (the kernel closes those a plain receive leaves)."""
    if not hand_off:
        return _recv_doorbell(sock), []
    try:
        data, fds, _flags, _addr = socket.recv_fds(sock, _DOORBELL.size, 1)
    except OSError as exc:
        raise SMBConnectionError(f"socket receive failed: {exc}") from exc
    try:
        if not data:
            raise SMBConnectionError("connection closed mid-message")
        if len(data) < _DOORBELL.size:
            data += recv_exact(sock, _DOORBELL.size - len(data))
    except SMBConnectionError:
        for fd in fds:
            os.close(fd)
        raise
    return _DOORBELL.unpack(data)[0], fds


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


class _SegmentMapping:
    """A client's read-only mapping of one segment: header words + data.

    The mapping (and the descriptor ``mmap`` keeps) goes with the last
    reference to it, so a READ racing the channel's ``close()`` still
    finishes on a valid mapping.
    """

    __slots__ = ("words", "data", "array")

    def __init__(self, fd: int) -> None:
        mapping = mmap.mmap(fd, 0, prot=mmap.PROT_READ)
        view = memoryview(mapping)
        self.words = view[:HEADER_BYTES].cast("Q")
        self.data = view[HEADER_BYTES:]
        self.array = np.frombuffer(mapping, dtype=np.uint8, offset=HEADER_BYTES)

    @property
    def ended(self) -> bool:
        """Whether the segment's waits ended (FREE or server close)."""
        return bool(self.words[ENDED_WORD])

    def read(self, message: Message, out: memoryview) -> Optional[Message]:
        """One seqlock READ of ``message``'s range into ``out``, or
        ``None`` when every try raced a mutation or the waits ended."""
        offset, count = message.offset, message.count
        dst = out[:count]
        src: "memoryview | np.ndarray"
        target: "memoryview | np.ndarray"
        if count >= GIL_FREE_COPY_BYTES:
            src = self.array[offset:offset + count]
            target = np.frombuffer(dst, dtype=np.uint8)
        else:
            src, target = self.data[offset:offset + count], dst
        words = self.words
        for _ in range(ONE_SIDED_TRIES):
            seq = words[SEQ_WORD]
            if words[ENDED_WORD]:
                return None
            if seq & 1:
                continue  # a mutation is in flight
            target[:] = src
            if words[SEQ_WORD] == seq and not words[ENDED_WORD]:
                return Message(op=Op.READ, key=message.key, count=seq >> 1,
                               payload=dst)
        return None


class _ShmChannel:
    """One doorbell socket plus its shared-memory block (client end).

    It also holds the segment mappings this connection was handed
    (access key → :class:`_SegmentMapping`) and serves READs of them
    one-sided (module docstring).
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        timeout: float,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.shm: Optional[shared_memory.SharedMemory] = None
        self._maps: Dict[int, _SegmentMapping] = {}
        self._poller = select.poll()
        self._poller.register(self.sock, select.POLLIN)
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
        if message.op is Op.READ and ONE_SIDED:
            mapping = self._maps.get(message.key)
            if mapping is None:
                return self._rpc(message, out, hand_off=True)
            if (
                out is not None
                and 0 < message.count <= len(out)
                and 0 <= message.offset
                and message.offset + message.count <= len(mapping.data)
                and not self._poller.poll(0)
            ):
                response = mapping.read(message, out)
                if response is not None:
                    return response
            if mapping.ended:
                self._maps.pop(message.key, None)
        response = self._rpc(message, out)
        if message.op is Op.FREE:
            # The freed segment's mapping is dead weight from now on.
            self._maps = {k: m for k, m in self._maps.items() if not m.ended}
        return response

    def _map(self, key: int, fds: List[int]) -> None:
        """Map the memfd a READ response carried (and close every fd)."""
        try:
            if fds and key not in self._maps:
                self._maps[key] = _SegmentMapping(fds[0])
        except (OSError, ValueError) as exc:
            logger.warning("cannot map segment of key %#x: %s", key, exc)
        finally:
            for fd in fds:
                os.close(fd)

    def _rpc(
        self,
        message: Message,
        out: Optional[memoryview] = None,
        hand_off: bool = False,
    ) -> Message:
        """One request through the block; ``hand_off`` receives (and
        maps) the memfd a successful READ's response may carry."""
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
        value, fds = _recv_response_doorbell(self.sock, hand_off)
        while value < 0:  # server grew the block for a large response
            self._attach_switch()
            value, fds = _recv_response_doorbell(self.sock, hand_off)
        if fds:
            self._map(message.key, fds)
        buf = self.shm.buf
        header = bytes(buf[:HEADER_SIZE])
        paylen = payload_length(header)
        # As over TCP, an error payload never lands in ``out``: it is
        # decoded from bytes.  (Header byte 1 is the status.)
        if out is not None and header[1] == Status.OK and paylen <= len(out):
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
        self._maps = {}  # each mapping goes with its last reader


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

    def _shared_fd(self, access_key: int) -> Optional[int]:
        """A duplicate memfd of the segment behind ``access_key``, or
        ``None`` if it is gone or no longer handed out."""
        try:
            return self.core.pool.by_access_key(access_key).share_fd()
        except UnknownKeyError:
            return None

    def _serve_frame(
        self,
        conn: socket.socket,
        block: shared_memory.SharedMemory,
        tenant: str,
        handed: Set[int],
    ) -> shared_memory.SharedMemory:
        """Parse, dispatch and answer one request frame.

        All views into the block live and die inside this frame's scope,
        so the caller's loop can always switch or retire the block
        between frames without tripping over exported buffers.

        ``handed`` holds the access keys whose memfd this connection was
        already sent: the first successful READ of any other key sends
        it with the response doorbell.
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
        hand_off = (
            op is Op.READ
            and response.status is Status.OK
            and request.key not in handed
        )
        key = request.key
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
        fd: Optional[int] = None
        if hand_off:
            handed.add(key)
            fd = self._shared_fd(key)
        try:
            _send_doorbell(conn, DATA_OFFSET + nbytes, fd)
        finally:
            if fd is not None:
                os.close(fd)
        return block

    def _serve_connection(self, conn: socket.socket) -> None:
        block: Optional[shared_memory.SharedMemory] = None
        handed: Set[int] = set()
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
                block = self._serve_frame(conn, block, tenant, handed)
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
