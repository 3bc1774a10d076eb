"""Exception hierarchy for the Soft Memory Box (SMB) framework.

The paper's SMB server is a thin remote-memory service: it can fail in a
small number of well-defined ways (unknown keys, exhausted capacity,
out-of-range accesses, protocol violations).  Every failure is an
:class:`SMBError`, so callers can catch the whole family with one ``except``
clause.  A subclass exists only where some caller decides on it (retry,
re-attach, adopt a segment, count a quota denial, resync a replica, leave
the fleet); every other verdict is a plain :class:`SMBError` with its
message.

Failures split into two fault classes the retry layer cares about:

* **transient** — the transport hiccuped (lost connection, injected fault,
  request timed out on the wire).  :func:`is_retryable` returns True and
  :class:`~repro.smb.retry.RetryPolicy` governs how often to try again.
* **fatal** — the server understood the request and rejected it (unknown
  key, capacity, range), or the retry budget is spent.  Retrying would
  return the same answer, so these propagate immediately.

Server-side errors cross the TCP wire via :func:`to_wire`/:func:`from_wire`,
which round-trip the *constructor arguments* so structured attributes (e.g.
:attr:`QuotaExceededError.available`) survive the hop instead of being
dropped by a message-only reconstruction.
"""

from __future__ import annotations

import json
from typing import Dict, Tuple, Type


class SMBError(Exception):
    """Base class for all SMB failures.

    A plain ``SMBError`` is a verdict no caller tells apart from another
    (out of capacity, out of range, access denied, server closing, retries
    exhausted): fatal, and read only by its message.
    """


class SMBConnectionError(SMBError):
    """The transport to the SMB server failed (connect, send, or receive).

    Transient by definition: the request may never have reached the server,
    so the retry layer treats this whole subtree (except
    :class:`TransportClosedError`) as safe to try again.  An injected
    chaos fault is one of these too.
    """


class TransportClosedError(SMBConnectionError):
    """The local transport was closed; no amount of retrying will help."""


class SMBProtocolError(SMBError):
    """A malformed or unexpected message was seen on the wire, including a
    payload whose byte count does not match what its message declares."""


class UnknownKeyError(SMBError):
    """An SHM key or access key does not name a live segment."""

    def __init__(self, key: int) -> None:
        super().__init__(f"unknown SMB key: {key:#x}")
        self.key = key


class QuotaExceededError(SMBError):
    """A tenant's CREATE was denied by its namespace byte quota.

    The pool itself may have room — admission is checked against the
    *tenant's grant* first (see :meth:`MemoryPool.create_tenant`), so one
    namespace filling up never consumes another namespace's headroom.
    Fatal like every server verdict: retrying returns the same answer
    until the tenant frees segments or an admin raises the grant.
    """

    def __init__(
        self, tenant: str, requested: int, quota: int, used: int
    ) -> None:
        super().__init__(
            f"tenant {tenant!r} over quota: requested {requested} bytes "
            f"with {used}/{quota} already used"
        )
        self.tenant = tenant
        self.requested = requested
        self.quota = quota
        self.used = used
        self.available = max(0, quota - used)


class SegmentExistsError(SMBError):
    """A named segment was created twice."""

    def __init__(self, name: str) -> None:
        super().__init__(f"segment already exists: {name!r}")
        self.name = name


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


class MembershipError(SMBError):
    """The elastic-membership protocol was violated (registry or slots),
    including a claim when every control-block slot is held by a live
    worker."""


# -- fault classification ---------------------------------------------------

def is_retryable(exc: BaseException) -> bool:
    """Whether a failed SMB operation is worth re-issuing.

    Connection-level failures are transient (the peer may come back, the
    transport reconnects); everything the server *decided* (unknown key,
    capacity, range, denied access) is deterministic and fatal.  A closed
    local transport is terminal by construction, and an exhausted retry
    budget surfaces as a plain :class:`SMBError`.
    """
    return isinstance(exc, SMBConnectionError) and not isinstance(
        exc, TransportClosedError
    )


# -- wire representation ----------------------------------------------------

#: Constructor-argument attribute names per error class, in positional
#: order.  Only classes with structured constructors appear here; the rest
#: round-trip as a plain message.
_WIRE_ARGS: Dict[str, Tuple[str, ...]] = {
    "UnknownKeyError": ("key",),
    "QuotaExceededError": ("tenant", "requested", "quota", "used"),
    "SegmentExistsError": ("name",),
    "NotificationTimeout": ("key", "version", "timeout"),
    "VersionRegressionError": ("shm_key", "last_seen", "current", "epoch"),
}

#: The classes :func:`from_wire` rebuilds by name, fixed at import so a
#: first decode never races a half-built table.  Errors defined outside
#: this module (``JournalError``, ``VersionNotAvailableError``) never
#: cross the wire; an unlisted name decodes to a plain :class:`SMBError`.
_WIRE_TYPES: Dict[str, Type[SMBError]] = {
    cls.__name__: cls
    for cls in (
        SMBError, SMBConnectionError, TransportClosedError,
        SMBProtocolError, UnknownKeyError, QuotaExceededError,
        SegmentExistsError, NotificationTimeout, VersionRegressionError,
        MembershipError,
    )
}


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
    named class, or of :class:`SMBError` when the name is not in
    :data:`_WIRE_TYPES`.
    """
    text = payload.decode(errors="replace")
    name, _, detail = text.partition(":")
    cls = _WIRE_TYPES.get(name, SMBError)
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
