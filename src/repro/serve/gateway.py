"""HTTP/REST gateway over a fleet of SMB read replicas.

The training fabric speaks the binary SMB protocol; everything *outside*
it — evaluation harnesses, model registries, a curious engineer with
``curl`` — wants plain HTTP.  This gateway exposes versioned parameter
reads:

    GET /v1/models/<tenant>/<name>             -> current snapshot
    GET /v1/models/<tenant>/<name>?version=N   -> pinned snapshot
    GET /healthz                               -> liveness + fleet state

Responses carry the segment version both as ``X-SMB-Version`` and as a
strong ``ETag`` (``"v<version>"``), so ordinary HTTP conditional requests
(``If-None-Match``) short-circuit to ``304 Not Modified`` without moving
model bytes.  Requests are routed to a replica by consistent hashing
(:class:`HashRingPlacement`, built once from the fleet's replica names)
over ``tenant/name``, with failover to any other replica that mirrors
the segment, so the read fan-out spreads across the fleet and never
touches the training primary (except a replica's own pinned-read
fallback).

Stdlib only: a :class:`socketserver.ThreadingTCPServer` whose handler is
a keep-alive HTTP/1.1 loop (bounded, hand-split head; one vectored send
per response).  This is a parameter-serving data path, not a hardened
public endpoint — put a real proxy in front for anything internet-facing.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import logging
import socket
import socketserver
import threading
from email.utils import formatdate
from http import HTTPStatus
from time import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from ..smb.errors import SMBError, UnknownKeyError
from ..smb.protocol import sendall_vectored
from ..smb.serving import ReplicaServer, VersionNotAvailableError
from ..telemetry import TelemetrySession, resolve as _resolve_telemetry

logger = logging.getLogger(__name__)

#: Request-head bounds: bytes per line, header lines per request.
_MAX_LINE = 65536
_MAX_HEADERS = 100

_REASONS = {status.value: status.phrase.encode() for status in HTTPStatus}

#: Virtual nodes per replica on the hash ring.  Enough that per-replica
#: load variance stays within a few percent for realistic fleets; small
#: enough that ring construction is trivially cheap.
RING_REPLICAS = 64


def _hash64(key: str) -> int:
    """Stable 64-bit hash of a ring key (not Python's salted ``hash``)."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRingPlacement:
    """Maps names onto the members of a fixed fleet by consistent hashing.

    The ring is a pure function of the member set; it holds no per-name
    state, so every process that knows the fleet derives the same answer
    without a directory service.  Each member owns :data:`RING_REPLICAS`
    points on a 64-bit ring and a name lands on the first point
    clockwise of its hash, so two rings built from fleets one member
    apart disagree on only ``~1/K`` of the names.

    Raises:
        ValueError: The fleet is empty or names a member twice.
    """

    def __init__(self, servers: Sequence[str]) -> None:
        if not servers:
            raise ValueError("placement needs at least one server")
        if len(set(servers)) != len(servers):
            raise ValueError(f"duplicate server ids in {list(servers)}")
        points = sorted(
            (_hash64(f"{server}#{replica}"), server)
            for server in servers
            for replica in range(RING_REPLICAS)
        )
        self._ring_hashes = [point for point, _ in points]
        self._ring_owners = [owner for _, owner in points]

    def server_for(self, name: str) -> str:
        """The server id that should hold ``name``."""
        index = bisect.bisect(self._ring_hashes, _hash64(name))
        if index == len(self._ring_hashes):
            index = 0  # wrap: past the last point lands on the first
        return self._ring_owners[index]


class ModelGateway:
    """Routes versioned HTTP parameter reads onto a replica fleet.

    Args:
        replicas: The fleet, at least one.  Each replica's ``name`` must
            be unique — it is the placement key its virtual ring nodes
            hash under, so gateways over two fleets one replica apart
            route only ``~1/K`` of the segment keyspace differently.  An
            empty fleet or a repeated name is a ``ValueError``, raised
            before any socket is bound.
        host/port: Bind address (``port=0`` picks an ephemeral port).
        telemetry: Session for the per-tenant read counters
            (``serve/gateway/tenant/<t>/reads``); defaults to the
            process-wide session current at construction.
    """

    def __init__(
        self,
        replicas: Sequence[ReplicaServer],
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Optional[TelemetrySession] = None,
    ) -> None:
        names = [replica.name for replica in replicas]
        self._placement = HashRingPlacement(names)  # checks the fleet
        self._replicas: Dict[str, ReplicaServer] = {
            replica.name: replica for replica in replicas
        }
        self._registry = _resolve_telemetry(telemetry).registry
        self._failover = [self._replicas[name] for name in sorted(names)]
        self._server = _Server((host, port), self)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        bound = self._server.server_address
        return str(bound[0]), int(bound[1])

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ModelGateway":
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="model-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every open connection, join every thread."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join()
            self._thread = None
        for connection in list(self._server.connections):
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it first
        self._server.server_close()  # joins the handler threads

    def __enter__(self) -> "ModelGateway":
        return self if self._thread is not None else self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- routing ----------------------------------------------------------

    def _candidates(self, tenant: str, name: str) -> List[ReplicaServer]:
        """Replicas to try, placement's pick first, then any that serve.

        Failover order after the primary pick is deterministic (sorted
        by replica name) so retried requests behave reproducibly.
        """
        picked = self._placement.server_for(f"{tenant}/{name}")
        replica = self._replicas.get(picked)
        ordered = [other for other in self._failover if other is not replica]
        if replica is not None:
            ordered.insert(0, replica)
        return [r for r in ordered if r.serves(name, tenant)]

    def read(
        self, tenant: str, name: str, version: Optional[int] = None
    ) -> Tuple[int, bytes]:
        """One routed read; tries failover candidates on replica errors.

        Raises:
            UnknownKeyError: No replica in the fleet mirrors the segment.
            VersionNotAvailableError: The pinned version is gone from
                every candidate.
        """
        candidates = self._candidates(tenant, name)
        if not candidates:
            raise UnknownKeyError(0)
        last: Optional[SMBError] = None
        for replica in candidates:
            try:
                got, data = replica.read(name, version=version, tenant=tenant)
            except SMBError as exc:
                last = exc
                continue
            self._count_read(tenant, len(data))
            return got, data
        assert last is not None
        raise last

    def healthz(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "replicas": {
                name: replica.lag_info()
                for name, replica in self._replicas.items()
            },
        }

    def _count_read(self, tenant: str, nbytes: int) -> None:
        registry = self._registry
        registry.inc("serve/gateway/reads")
        registry.inc(f"serve/gateway/tenant/{tenant}/reads")
        registry.inc("serve/gateway/bytes_read", nbytes)


class _Server(socketserver.ThreadingTCPServer):
    """Accept loop that knows its open connections, so stop() can end them."""

    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], gateway: ModelGateway) -> None:
        super().__init__(address, _Handler)
        self.gateway = gateway
        self.connections: Set[socket.socket] = set()
        self._date: Tuple[int, bytes] = (0, b"")

    def process_request(self, request: Any, client_address: Any) -> None:
        self.connections.add(request)  # before its thread exists
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        self.connections.discard(request)
        super().shutdown_request(request)

    def date(self) -> bytes:
        """The ``Date`` header value, formatted at most once a second."""
        stamp, now = self._date, int(time())
        if stamp[0] != now:
            stamp = self._date = (now, formatdate(now, usegmt=True).encode())
        return stamp[1]


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a keep-alive loop of bounded head, route, one send."""

    server: _Server
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except OSError:
            pass  # the peer went away, or stop() shut the connection

    def _serve_one(self) -> bool:
        """Answer one request; False once the connection has to close."""
        readline = self.rfile.readline
        lines = [readline(_MAX_LINE + 1)]
        while lines[-1] not in (b"\r\n", b"\n", b""):
            if len(lines[-1]) > _MAX_LINE or len(lines) > _MAX_HEADERS + 1:
                error = {"error": "request head too large"}
                return self._send_json(431, error, True)
            lines.append(readline(_MAX_LINE + 1))
        if not lines[-1]:
            return False  # end of stream between requests (or mid-head)
        words = lines[0].split()
        if len(words) != 3 or words[2] not in (b"HTTP/1.1", b"HTTP/1.0"):
            return self._send_json(400, {"error": "bad request line"}, True)
        if words[0] != b"GET":
            return self._send_json(501, {"error": "unsupported method"}, True)
        headers: Dict[bytes, bytes] = {}
        for line in lines[1:-1]:
            field, _, value = line.partition(b":")
            headers[field.strip().lower()] = value.strip()
        connection = headers.get(b"connection", b"").lower()
        close = connection == b"close" or (
            words[2] == b"HTTP/1.0" and connection != b"keep-alive"
        )
        logger.debug("gateway: %r", lines[0])
        parsed = urlparse(words[1].decode("iso-8859-1"))
        if parsed.path == "/healthz":
            return self._send_json(200, self.server.gateway.healthz(), close)
        parts = [unquote(p) for p in parsed.path.split("/") if p]
        if len(parts) != 4 or parts[:2] != ["v1", "models"]:
            return self._send_json(404, {"error": "not found"}, close)
        tenant, name = parts[2], parts[3]
        version: Optional[int] = None
        raw = parse_qs(parsed.query).get("version") if parsed.query else None
        if raw:
            try:
                version = int(raw[0])
            except ValueError:
                error = f"bad version: {raw[0]!r}"
                return self._send_json(400, {"error": error}, close)
        try:
            got, data = self.server.gateway.read(tenant, name, version)
        except VersionNotAvailableError as exc:
            return self._send_json(404, {
                "error": "version not available",
                "requested": exc.requested, "current": exc.current,
            }, close)
        except SMBError:
            error = f"unknown model {tenant}/{name}"
            return self._send_json(404, {"error": error}, close)
        fields = b'ETag: "v%d"\r\nX-SMB-Version: %d\r\n' % (got, got)
        if headers.get(b"if-none-match") == b'"v%d"' % got:
            return self._send(304, fields, b"", close)  # no model bytes read
        fields += b"Content-Type: application/octet-stream\r\n"
        return self._send(200, fields, data, close)

    def _send_json(self, code: int, body: Dict[str, object], close: bool) -> bool:
        fields = b"Content-Type: application/json\r\n"
        return self._send(code, fields, json.dumps(body).encode(), close)

    def _send(self, code: int, fields: bytes, body: bytes, close: bool) -> bool:
        """One response, one vectored send; returns whether to keep alive."""
        if close:
            fields += b"Connection: close\r\n"
        head = (
            b"HTTP/1.1 %d %s\r\nServer: SMBGateway/1.0\r\nDate: %s\r\n"
            b"Content-Length: %d\r\n%s\r\n"
        ) % (code, _REASONS[code], self.server.date(), len(body), fields)
        # sendmsg([head, body]); a short send is finished from the views.
        sendall_vectored(self.connection, head, memoryview(body))
        return not close
