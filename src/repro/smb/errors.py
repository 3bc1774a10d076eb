"""Exception hierarchy for the Soft Memory Box (SMB) framework.

The paper's SMB server is a thin remote-memory service: it can fail in a
small number of well-defined ways (unknown keys, exhausted capacity,
out-of-range accesses, protocol violations).  Every failure surfaces as a
subclass of :class:`SMBError` so callers can catch the whole family with one
``except`` clause.

Failures split into two fault classes the retry layer cares about:

* **transient** — the transport hiccuped (lost connection, injected fault,
  request timed out on the wire).  :func:`is_retryable` returns True and
  :class:`~repro.smb.retry.RetryPolicy` governs how often to try again.
* **fatal** — the server understood the request and rejected it (unknown
  key, capacity, range).  Retrying would return the same answer, so these
  propagate immediately.

Server-side errors cross the TCP wire via :func:`to_wire`/:func:`from_wire`,
which round-trip the *constructor arguments* so structured attributes (e.g.
:attr:`CapacityError.available`) survive the hop instead of being dropped by
a message-only reconstruction.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple, Type


class SMBError(Exception):
    """Base class for all SMB failures."""


class SMBConnectionError(SMBError):
    """The transport to the SMB server failed (connect, send, or receive).

    Transient by definition: the request may never have reached the server,
    so the retry layer treats this whole subtree (except
    :class:`TransportClosedError` and :class:`RetryExhaustedError`) as
    safe to try again.
    """


class TransportClosedError(SMBConnectionError):
    """The local transport was closed; no amount of retrying will help."""


class FaultInjectedError(SMBConnectionError):
    """A :class:`~repro.smb.faults.FaultInjectingTransport` fired (chaos)."""


class RetryExhaustedError(SMBConnectionError):
    """A transient failure persisted through every allowed retry attempt.

    Raised by :class:`~repro.smb.client.SMBClient` with the last transient
    error as ``__cause__``; the training layer reads this as "the SMB
    server is gone for me" and degrades (marks the worker dead) instead of
    crashing the job.
    """

    def __init__(self, op: str, attempts: int, last_error: str) -> None:
        super().__init__(
            f"{op} failed after {attempts} attempt(s); last error: "
            f"{last_error}"
        )
        self.op = op
        self.attempts = attempts
        self.last_error = last_error


class SMBProtocolError(SMBError):
    """A malformed or unexpected message was seen on the wire."""


class PayloadSizeError(SMBProtocolError):
    """A payload did not match the byte count its message declares.

    A short (or oversized) READ payload silently yields a wrong-sized —
    or stale — array downstream, which is far harder to debug than a
    loud protocol failure at the call site.  The client validates every
    READ/read_into payload length and raises this instead; the server
    refuses a payload ACCUMULATE whose payload is not ``count`` float32
    elements with it, before touching memory.
    """

    def __init__(self, op: str, expected: int, got: int) -> None:
        super().__init__(
            f"{op} carried {got} payload byte(s), expected {expected}"
        )
        self.op = op
        self.expected = expected
        self.got = got


class UnknownKeyError(SMBError):
    """An SHM key or access key does not name a live segment."""

    def __init__(self, key: int) -> None:
        super().__init__(f"unknown SMB key: {key:#x}")
        self.key = key


class CapacityError(SMBError):
    """The server's granted memory pool cannot satisfy an allocation."""

    def __init__(self, requested: int, available: int) -> None:
        super().__init__(
            f"cannot allocate {requested} bytes; only {available} available"
        )
        self.requested = requested
        self.available = available


class QuotaExceededError(CapacityError):
    """A tenant's CREATE was denied by its namespace byte quota.

    The pool itself may have room — admission is checked against the
    *tenant's grant* first (see :meth:`MemoryPool.create_tenant`), so one
    namespace filling up never consumes another namespace's headroom.
    Fatal like :class:`CapacityError`: retrying returns the same answer
    until the tenant frees segments or an admin raises the grant.
    """

    def __init__(
        self, tenant: str, requested: int, quota: int, used: int
    ) -> None:
        SMBError.__init__(
            self,
            f"tenant {tenant!r} over quota: requested {requested} bytes "
            f"with {used}/{quota} already used"
        )
        self.tenant = tenant
        self.requested = requested
        self.quota = quota
        self.used = used
        self.available = max(0, quota - used)


class SegmentRangeError(SMBError):
    """A read/write/accumulate touched bytes outside a segment."""

    def __init__(self, offset: int, nbytes: int, size: int) -> None:
        super().__init__(
            f"access [{offset}, {offset + nbytes}) exceeds segment size {size}"
        )
        self.offset = offset
        self.nbytes = nbytes
        self.size = size


class SegmentExistsError(SMBError):
    """A named segment was created twice."""

    def __init__(self, name: str) -> None:
        super().__init__(f"segment already exists: {name!r}")
        self.name = name


class AccessDeniedError(SMBError):
    """An operation was attempted with a key lacking the required rights."""


class NotificationTimeout(SMBError):
    """A wait-for-update request expired before the segment changed."""

    def __init__(self, key: int, version: int, timeout: float) -> None:
        super().__init__(
            f"segment {key:#x} did not advance past version {version} "
            f"within {timeout:.3f}s"
        )
        self.key = key
        self.version = version
        self.timeout = timeout


class VersionRegressionError(SMBError):
    """A segment came back at a *lower* version after server recovery.

    Snapshot-only durability can restore an older buffer; a subscription
    loop built on ``wait_update(last_seen)`` would then park forever —
    the recovered segment may never re-reach ``last_seen``.  The client
    raises this instead so the caller (a replica) resyncs
    from the recovered version rather than hanging.  Fatal on purpose:
    retrying the same wait returns the same answer.
    """

    def __init__(
        self, shm_key: int, last_seen: int, current: int, epoch: int
    ) -> None:
        super().__init__(
            f"segment shm_key={shm_key:#x} regressed to version {current} "
            f"(last seen {last_seen}) after recovery to epoch {epoch}; "
            "re-read the segment and wait from the recovered version"
        )
        self.shm_key = shm_key
        self.last_seen = last_seen
        self.current = current
        self.epoch = epoch


class ServerClosingError(SMBError):
    """The server is shutting down and will not serve this request."""


class MembershipError(SMBError):
    """The elastic-membership protocol was violated (registry or slots)."""


class SlotsExhaustedError(MembershipError):
    """Every control-block slot is held by a live worker; nobody can join.

    Raised by ``ControlBlock.claim``.  Fatal by construction: the fleet is
    at capacity and retrying the claim returns the same answer until some
    member leaves or dies, so the retry layer never re-issues it.  A
    joiner that meets it ends before training and its handle records the
    error (``ElasticWorkerHandle.error``); ``spawn_worker`` returns before
    the claim runs, so the autoscale supervisor never sees it.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__(
            f"all {capacity} membership slot(s) are claimed by live workers"
        )
        self.capacity = capacity


# -- fault classification ---------------------------------------------------

def is_retryable(exc: BaseException) -> bool:
    """Whether a failed SMB operation is worth re-issuing.

    Connection-level failures are transient (the peer may come back, the
    transport reconnects); everything the server *decided* (unknown key,
    capacity, range, denied access) is deterministic and fatal.  A closed
    local transport and an already-exhausted retry budget are terminal by
    construction.
    """
    if isinstance(exc, (TransportClosedError, RetryExhaustedError)):
        return False
    return isinstance(exc, SMBConnectionError)


# -- wire representation ----------------------------------------------------

#: Constructor-argument attribute names per error class, in positional
#: order.  Only classes with structured constructors appear here; the rest
#: round-trip as a plain message.
_WIRE_ARGS: Dict[str, Tuple[str, ...]] = {
    "PayloadSizeError": ("op", "expected", "got"),
    "UnknownKeyError": ("key",),
    "CapacityError": ("requested", "available"),
    "QuotaExceededError": ("tenant", "requested", "quota", "used"),
    "SegmentRangeError": ("offset", "nbytes", "size"),
    "SegmentExistsError": ("name",),
    "NotificationTimeout": ("key", "version", "timeout"),
    "VersionRegressionError": ("shm_key", "last_seen", "current", "epoch"),
    "RetryExhaustedError": ("op", "attempts", "last_error"),
    "SlotsExhaustedError": ("capacity",),
}

_WIRE_TYPES: Dict[str, Type[SMBError]] = {}


def _wire_types() -> Dict[str, Type[SMBError]]:
    if not _WIRE_TYPES:
        stack: list = [SMBError]
        while stack:
            cls = stack.pop()
            _WIRE_TYPES[cls.__name__] = cls
            stack.extend(cls.__subclasses__())
    return _WIRE_TYPES


def to_wire(exc: SMBError) -> bytes:
    """Serialise an SMB error for an ``ERROR`` response payload.

    Format: ``ClassName:{json}`` where the JSON object carries the
    human-readable ``message`` and, when the class has a structured
    constructor whose attributes are all present, its positional ``args``.
    """
    name = type(exc).__name__
    body: Dict[str, object] = {"message": str(exc)}
    fields = _WIRE_ARGS.get(name)
    if fields is not None:
        try:
            body["args"] = [getattr(exc, field) for field in fields]
        except AttributeError:
            pass  # half-constructed instance; message-only fallback
    return f"{name}:{json.dumps(body)}".encode()


def from_wire(payload: bytes) -> SMBError:
    """Rebuild the error an ``ERROR`` response payload describes.

    Structured classes are reconstructed through their real constructor so
    attribute-inspecting handlers keep working across the TCP hop; anything
    unrecognised (foreign class name, plain-text ``Name:detail`` payloads,
    un-JSON-decodable detail) degrades to a message-only instance of the
    closest known class.
    """
    text = payload.decode(errors="replace")
    name, _, detail = text.partition(":")
    cls = _wire_types().get(name, SMBError)
    message = detail
    args = None
    try:
        body = json.loads(detail)
    except (json.JSONDecodeError, ValueError):
        body = None
    if isinstance(body, dict):
        message = str(body.get("message", detail))
        args = body.get("args")
    if args is not None:
        try:
            return cls(*args)
        except (TypeError, ValueError):
            pass  # constructor drifted; fall back to message-only
    exc = SMBError.__new__(cls)
    Exception.__init__(exc, message)
    return exc
