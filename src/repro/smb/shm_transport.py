"""Local shared-memory transport: co-located READ/WRITE as a memcpy.

The paper's Soft Memory Box keeps the parameter segments in host shared
memory; a worker on the *same* node as the memory server should not pay
the TCP stack to reach memory it could simply map.  This transport gives
co-located clients that path:

* the server creates one connection block per connection — a memfd from
  the allocator segments use (:func:`repro.smb.memory.map_memfd`) — and
  hands its descriptor to the client on the handshake doorbell over a
  UNIX domain socket (``SCM_RIGHTS``);
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

**Doorbell protocol** (8-byte big-endian int, always positive):

* server → client, at handshake: the block is ``n`` bytes; its memfd
  rides along.
* client → server: a request frame of ``n`` bytes is in the block.
* server → client: a response frame of ``n`` bytes is in the block.  The
  response to a connection's first successful READ of an access key
  carries that segment's memfd as ancillary data; a client that does not
  map it drops it unread.

**Growth in place.**  The block starts at :data:`BLOCK_SIZE` bytes and
is sealed against shrinking, so a mapping never outruns the file.  A
side about to write a frame that does not fit grows the file
(``ftruncate``, never smaller) and remaps; a side rung with an ``n``
past its mapping remaps.  The client grows only for what it sends: the
server sizes its responses, after it has judged the request.  The server
drops a connection whose doorbell is not positive, is above
``DATA_OFFSET + pool.capacity`` or is above the file's size, before it
maps anything.  An outgrown mapping goes with its last view; no block is
closed while its connection lives.

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
import weakref
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from .errors import SMBConnectionError, SMBProtocolError, UnknownKeyError
from .memory import (
    DEFAULT_TENANT,
    ENDED_WORD,
    F_SEAL_SEAL,
    F_SEAL_SHRINK,
    HEADER_BYTES,
    SEQ_WORD,
    map_memfd,
)
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

#: Initial per-connection block size; grown in place on demand.
BLOCK_SIZE = 1 << 20  # 1 MiB

#: A block may grow but never shrink (so no mapping of it outruns the
#: file and a client's truncation cannot fault the server), and its seals
#: are final.
BLOCK_SEALS = F_SEAL_SHRINK | F_SEAL_SEAL

#: Seqlock copies a one-sided READ tries before it falls back to the RPC.
ONE_SIDED_TRIES = 4

#: The seqlock read relies on x86-64 keeping loads in order and stores in
#: order (Python has no fences); elsewhere every READ stays an RPC.
ONE_SIDED = platform.machine().lower() in ("x86_64", "amd64")

#: Every payload copy on this doorway (:func:`_copy`) of at least this
#: many bytes goes through NumPy, which releases the GIL for it, so the
#: server's and other clients' threads keep running through a 4 MiB
#: copy; smaller ones are a memoryview copy, which costs less.
GIL_FREE_COPY_BYTES = 1 << 16

_DOORBELL = struct.Struct("!q")


def _copy(dst: memoryview, src: memoryview) -> None:
    """Copy the byte view ``src`` into the byte view ``dst`` of its size:
    the one copy path of this doorway (:data:`GIL_FREE_COPY_BYTES`)."""
    if src.nbytes >= GIL_FREE_COPY_BYTES:
        np.frombuffer(dst, np.uint8)[:] = np.frombuffer(src, np.uint8)
    else:
        dst[:] = src


def _send_doorbell(
    sock: socket.socket, value: int, fd: Optional[int] = None
) -> None:
    """Ring ``value``; ``fd`` rides along as ``SCM_RIGHTS`` when given."""
    data = _DOORBELL.pack(value)
    try:
        if fd is not None:
            data = data[socket.send_fds(sock, [data], [fd]):]
        if data:
            sock.sendall(data)
    except OSError as exc:
        raise SMBConnectionError(f"doorbell socket failed: {exc}") from exc


def _recv_doorbell(sock: socket.socket) -> int:
    return _DOORBELL.unpack(recv_exact(sock, _DOORBELL.size))[0]


def _recv_response_doorbell(
    sock: socket.socket, hand_off: bool
) -> Tuple[int, List[int]]:
    """Receive one doorbell (a response, or the handshake), with the
    descriptors sent along only when ``hand_off`` (the kernel closes
    those a plain receive leaves)."""
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


class _Block:
    """One connection's block as one side maps it: the memfd and a view.

    The descriptor is closed when the last reference to the block goes,
    and each outgrown mapping with its last view, so a frame racing the
    channel's ``close()`` still finishes on valid memory.
    """

    __slots__ = ("fd", "buf", "__weakref__")

    def __init__(self, fd: int, mapping: Optional[mmap.mmap] = None) -> None:
        self.fd = fd
        weakref.finalize(self, os.close, fd)
        self.buf = memoryview(mmap.mmap(fd, 0) if mapping is None else mapping)

    def fit(self, nbytes: int, grow: bool) -> bool:
        """Map at least ``nbytes`` of the block.  A writer (``grow``)
        extends a shorter file first; a reader gets ``False`` instead."""
        if nbytes <= len(self.buf):
            return True
        if os.fstat(self.fd).st_size < nbytes:
            if not grow:
                return False
            os.ftruncate(self.fd, nbytes)
        self.buf = memoryview(mmap.mmap(self.fd, nbytes))
        return True


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------


class _SegmentMapping:
    """A client's read-only mapping of one segment: header words + data.

    The mapping (and the descriptor ``mmap`` keeps) goes with the last
    reference to it, so a READ racing the channel's ``close()`` still
    finishes on a valid mapping.
    """

    __slots__ = ("words", "data")

    def __init__(self, fd: int) -> None:
        view = memoryview(mmap.mmap(fd, 0, prot=mmap.PROT_READ))
        self.words = view[:HEADER_BYTES].cast("Q")
        self.data = view[HEADER_BYTES:]

    @property
    def ended(self) -> bool:
        """Whether the segment's waits ended (FREE or server close)."""
        return bool(self.words[ENDED_WORD])

    def read(self, message: Message, out: memoryview) -> Optional[Message]:
        """One seqlock READ of ``message``'s range into ``out``, or
        ``None`` when every try raced a mutation or the waits ended."""
        offset, count = message.offset, message.count
        dst, src = out[:count], self.data[offset:offset + count]
        words = self.words
        for _ in range(ONE_SIDED_TRIES):
            seq = words[SEQ_WORD]
            if words[ENDED_WORD]:
                return None
            if seq & 1:
                continue  # a mutation is in flight
            _copy(dst, src)
            if words[SEQ_WORD] == seq and not words[ENDED_WORD]:
                return Message(op=Op.READ, key=message.key, count=seq >> 1,
                               payload=dst)
        return None


class _ShmChannel:
    """One doorbell socket plus its connection block (client end).

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
        self._maps: Dict[int, _SegmentMapping] = {}
        self._poller = select.poll()
        self._poller.register(self.sock, select.POLLIN)
        try:
            self.sock.connect(os.fspath(path))
            self.sock.sendall(encode_hello(tenant))
            # The handshake doorbell carries the block's memfd.
            value, fds = _recv_response_doorbell(self.sock, hand_off=True)
            if value <= 0 or not fds:
                for fd in fds:
                    os.close(fd)
                raise SMBConnectionError(
                    f"bad shm handshake doorbell {value}"
                )
            self.block = _Block(fds[0])
        except (OSError, SMBConnectionError) as exc:
            self.close()
            if isinstance(exc, SMBConnectionError):
                raise
            raise SMBConnectionError(
                f"cannot connect to SMB shm server at {path}: {exc}"
            ) from exc

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
        block = self.block
        payload = message.payload_view()
        request_nbytes = DATA_OFFSET + payload.nbytes
        # Grow for what we send only: the server sizes its own responses,
        # after it has judged the request.
        block.fit(request_nbytes, grow=True)
        buf = block.buf
        buf[:HEADER_SIZE] = message.encode_header()
        if payload.nbytes:
            _copy(buf[DATA_OFFSET:request_nbytes], payload)
        _send_doorbell(self.sock, request_nbytes)
        value, fds = _recv_response_doorbell(self.sock, hand_off)
        if fds:
            self._map(message.key, fds)
        if value < DATA_OFFSET or not block.fit(value, grow=False):
            raise SMBConnectionError(f"bad shm response doorbell {value}")
        buf = block.buf
        header = bytes(buf[:HEADER_SIZE])
        paylen = payload_length(header)
        # As over TCP, an error payload never lands in ``out``: it is
        # decoded from bytes.  (Header byte 1 is the status.)
        if out is not None and header[1] == Status.OK and paylen <= len(out):
            _copy(out[:paylen], buf[DATA_OFFSET:DATA_OFFSET + paylen])
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
    ) -> None:
        if not hasattr(os, "memfd_create"):
            raise RuntimeError(
                "ShmSMBServer needs os.memfd_create (Linux): each "
                "connection's block is a memfd handed to the client"
            )
        self.core = core if core is not None else SMBServer(capacity)
        self.path = os.fspath(path)
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
        block: _Block,
        tenant: str,
        handed: Set[int],
    ) -> None:
        """Parse, dispatch and answer one request frame.

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
        op, count, key = request.op, request.count, request.key
        out: Optional[memoryview] = None
        if op is Op.READ and count > 0:
            out = buf[DATA_OFFSET:]
        response = self.core.handle(request, out, tenant=tenant)
        ok = response.status is Status.OK
        view = response.payload_view()
        nbytes = view.nbytes
        # A successful READ served through ``out`` is already in the
        # block (that is the one-copy path); anything else still needs
        # the payload landed.
        in_place = op is Op.READ and out is not None and count <= len(out)
        if nbytes and not (in_place and ok):
            # A response that outgrew the block (a connection's first
            # large READ, a STATS/LIST body) grows it first.
            block.fit(DATA_OFFSET + nbytes, grow=True)
            buf = block.buf
            _copy(buf[DATA_OFFSET:DATA_OFFSET + nbytes], view)
        buf[:HEADER_SIZE] = response.encode_header()
        fd: Optional[int] = None
        if op is Op.READ and ok and key not in handed:
            handed.add(key)
            fd = self._shared_fd(key)
        try:
            _send_doorbell(conn, DATA_OFFSET + nbytes, fd)
        finally:
            if fd is not None:
                os.close(fd)

    def _serve_connection(self, conn: socket.socket) -> None:
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
            fd, mapping = map_memfd(BLOCK_SIZE, BLOCK_SEALS)
            block = _Block(fd, mapping)
            _send_doorbell(conn, BLOCK_SIZE, fd)
            # No valid frame is larger than the header region plus
            # everything the pool can hold.
            ceiling = DATA_OFFSET + self.core.pool.capacity
            while True:
                value = _recv_doorbell(conn)
                if self._stop.is_set():
                    break  # a doorbell that raced stop() is not served
                # Judge the length before it is mapped: the shm twin of
                # the TCP ``paylen`` bound.
                if not 0 < value <= ceiling or not block.fit(value, grow=False):
                    logger.warning(
                        "shm client rang a %d-byte frame (pool allows %d, "
                        "its block holds %d); dropping connection",
                        value, ceiling, os.fstat(fd).st_size,
                    )
                    break
                self._serve_frame(conn, block, tenant, handed)
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
