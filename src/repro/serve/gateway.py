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
(:class:`~repro.smb.fleet.HashRingPlacement`) over ``tenant/name``,
with failover to any other replica that mirrors the segment, so the
read fan-out spreads across the fleet and never touches the training
primary (except a replica's own pinned-read fallback).

Stdlib only: :class:`http.server.ThreadingHTTPServer` on a daemon
thread.  This is a parameter-serving data path, not a hardened public
endpoint — put a real proxy in front for anything internet-facing.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from ..smb.errors import SMBError, UnknownKeyError
from ..smb.fleet import HashRingPlacement, Placement
from ..smb.serving import ReplicaServer, VersionNotAvailableError
from ..telemetry import TelemetrySession
from ..telemetry import current as _telemetry_current

logger = logging.getLogger(__name__)


class ModelGateway:
    """Routes versioned HTTP parameter reads onto a replica fleet.

    Args:
        replicas: The fleet.  Each replica's ``name`` must be unique —
            it is the placement key its virtual ring nodes hash under.
        host/port: Bind address (``port=0`` picks an ephemeral port).
        placement: Routing policy over replica names; defaults to a
            :class:`HashRingPlacement` so growing the fleet only moves
            ``~1/K`` of the segment keyspace.
        telemetry: Session for the per-tenant read counters
            (``serve/gateway/tenant/<t>/reads``); falls back to the
            ambient session.
    """

    def __init__(
        self,
        replicas: Sequence[ReplicaServer],
        host: str = "127.0.0.1",
        port: int = 0,
        placement: Optional[Placement] = None,
        telemetry: Optional[TelemetrySession] = None,
    ) -> None:
        if not replicas:
            raise ValueError("gateway needs at least one replica")
        names = [replica.name for replica in replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"replica names must be unique, got {names}")
        self._replicas: Dict[str, ReplicaServer] = {
            replica.name: replica for replica in replicas
        }
        self._placement = (
            placement if placement is not None else HashRingPlacement(names)
        )
        self._telemetry = telemetry
        self._httpd = ThreadingHTTPServer(
            (host, port), _Handler, bind_and_activate=True
        )
        self._httpd.daemon_threads = True
        self._httpd.gateway = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        bound = self._httpd.server_address
        return str(bound[0]), int(bound[1])

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ModelGateway":
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="model-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

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
        ordered: List[ReplicaServer] = []
        replica = self._replicas.get(picked)
        if replica is not None and replica.serves(name, tenant):
            ordered.append(replica)
        for other_name in sorted(self._replicas):
            other = self._replicas[other_name]
            if other is not replica and other.serves(name, tenant):
                ordered.append(other)
        return ordered

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
        tel = self._telemetry
        if tel is None:
            tel = _telemetry_current()
        if tel.enabled:
            tel.registry.inc("serve/gateway/reads")
            tel.registry.inc(f"serve/gateway/tenant/{tenant}/reads")
            tel.registry.inc("serve/gateway/bytes_read", nbytes)


class _Handler(BaseHTTPRequestHandler):
    """Request handler: parses the route, delegates to the gateway."""

    server_version = "SMBGateway/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def _gateway(self) -> ModelGateway:
        return self.server.gateway  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        logger.debug("gateway: %s", format % args)

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._send_json(200, self._gateway.healthz())
            return
        parts = [unquote(p) for p in parsed.path.split("/") if p]
        if len(parts) != 4 or parts[:2] != ["v1", "models"]:
            self._send_json(404, {"error": "not found"})
            return
        tenant, name = parts[2], parts[3]
        version: Optional[int] = None
        raw = parse_qs(parsed.query).get("version")
        if raw:
            try:
                version = int(raw[0])
            except ValueError:
                self._send_json(
                    400, {"error": f"bad version: {raw[0]!r}"}
                )
                return
        try:
            got, data = self._gateway.read(tenant, name, version=version)
        except VersionNotAvailableError as exc:
            self._send_json(
                404,
                {
                    "error": "version not available",
                    "requested": exc.requested,
                    "current": exc.current,
                },
            )
            return
        except SMBError:
            self._send_json(404, {"error": f"unknown model {tenant}/{name}"})
            return
        etag = f'"v{got}"'
        if self.headers.get("If-None-Match") == etag:
            self.send_response(304)
            self.send_header("ETag", etag)
            self.send_header("X-SMB-Version", str(got))
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(data)))
        self.send_header("ETag", etag)
        self.send_header("X-SMB-Version", str(got))
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, code: int, body: Dict[str, object]) -> None:
        payload = json.dumps(body).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
