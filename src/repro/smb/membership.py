"""Elastic membership: a versioned job registry for a live training run.

The ``endpoint.json`` rendezvous (:mod:`repro.smb.journal`) answers one
question — *where is the server right now* — for clients that were already
part of the job.  Elastic membership generalises it into a small registry
a worker that was **not** part of the launch can join through.  One
registry holds one job (paper Sec. III-E: one job's workers share one
control block):

* the **server** map says where the SMB server is, and the **job
  document** carries the job spec (segment-name prefix, model element
  count, the ``W_g`` and control-block SHM keys, the slot capacity,
  hyper-parameters); the master publishes both once;
* the **member table** holds one record per live worker — the slot and
  generation its control-block claim returned, a ``status`` (``active``
  or ``retiring``), and a heartbeat-renewed lease.  A member whose lease
  expires is presumed dead and its record evicted; its slot stays as the
  control block holds it;
* a monotonic **membership epoch** bumps on every join/leave/eviction, so
  any observer can cheaply detect "the fleet changed" without diffing the
  table; a **version** bumps on *every* mutation (heartbeats included).

Slots have one allocator, the control block
(:meth:`~repro.smb.client.ControlBlock.claim`); the registry records the
claim.  The whole registry is one JSON document in a directory,
published with the same write-temp + ``os.replace`` discipline as the
rendezvous file (:func:`repro.smb.journal.publish_json`) so concurrent
readers never see a partial document.  Cross-process mutual exclusion
uses an ``O_CREAT | O_EXCL`` lock file next to it; claims of
control-block slots are serialised through this lock —
:meth:`MembershipRegistry.join` runs the claim inside it — which is what
makes the (non-atomic) claim race-free.

A late joiner's protocol (`docs/membership.md`):

1. :meth:`MembershipRegistry.read` until a job document appears;
2. attach ``W_g`` and the control block by the SHM keys in the job
   document;
3. :meth:`MembershipRegistry.join` with the control block's
   ``claim`` — it takes the lowest FREE or dead slot, and the registry
   records that slot and generation with a fresh lease;
4. seed the replica from ``W_g`` (its ``ΔW_x`` rides a payload
   ACCUMULATE into ``W_g``, so it creates no segment of its own), train,
   heartbeat on iteration boundaries (the heartbeat answers whether a
   retire was requested); on retire, release the slot; on every exit,
   :meth:`MembershipRegistry.leave`.

Telemetry: mutations feed ``smb/membership/*`` counters (joins, leaves,
retires, lease expiries) and gauges (epoch, live member count), which the
``repro telemetry report`` membership section reads.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..telemetry import TelemetrySession, resolve as _resolve_telemetry
from .client import SlotClaim
from .errors import MembershipError
from .journal import publish_json, read_json

PathLike = Union[str, os.PathLike]

#: Registry document schema version; bumped on incompatible changes.
#: A document holds one job; any other format is refused with
#: :class:`MembershipError`.
REGISTRY_FORMAT = 3

#: File names inside a registry directory.
REGISTRY_NAME = "registry.json"
REGISTRY_LOCK_NAME = "registry.lock"

#: Seconds to wait for the cross-process lock before declaring the
#: registry wedged; a lock file older than this is treated as leaked by a
#: dead process and broken.
LOCK_TIMEOUT = 10.0

#: Default lease duration; generous against this emulation's iteration
#: times so only a genuinely wedged worker expires.
DEFAULT_LEASE = 30.0

MEMBER_ACTIVE = "active"
MEMBER_RETIRING = "retiring"


@dataclass
class MemberRecord:
    """One live worker as the registry sees it."""

    member_id: str
    slot: int
    generation: int
    status: str = MEMBER_ACTIVE
    joined_at: float = 0.0
    lease_expires: float = 0.0
    heartbeats: int = 0

    def to_doc(self) -> Dict[str, object]:
        return {
            "member_id": self.member_id,
            "slot": self.slot,
            "generation": self.generation,
            "status": self.status,
            "joined_at": self.joined_at,
            "lease_expires": self.lease_expires,
            "heartbeats": self.heartbeats,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "MemberRecord":
        return cls(
            member_id=str(doc["member_id"]),
            slot=int(doc["slot"]),  # type: ignore[arg-type]
            generation=int(doc.get("generation", 0)),  # type: ignore[arg-type]
            status=str(doc.get("status", MEMBER_ACTIVE)),
            joined_at=float(doc.get("joined_at", 0.0)),  # type: ignore[arg-type]
            lease_expires=float(doc.get("lease_expires", 0.0)),  # type: ignore[arg-type]
            heartbeats=int(doc.get("heartbeats", 0)),  # type: ignore[arg-type]
        )


@dataclass
class RegistryView:
    """A decoded snapshot of the registry document: one job and its
    member table."""

    version: int = 0
    epoch: int = 0
    server: Dict[str, object] = field(default_factory=dict)
    job: Dict[str, object] = field(default_factory=dict)
    members: Dict[str, MemberRecord] = field(default_factory=dict)

    def live_members(self) -> List[MemberRecord]:
        """Members holding an unexpired record, join order."""
        return sorted(self.members.values(), key=lambda m: m.joined_at)

    def to_doc(self) -> Dict[str, object]:
        return {
            "format": REGISTRY_FORMAT,
            "version": self.version,
            "epoch": self.epoch,
            "server": self.server,
            "job": self.job,
            "members": {
                member_id: record.to_doc()
                for member_id, record in self.members.items()
            },
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, object]) -> "RegistryView":
        fmt = doc.get("format")
        if fmt != REGISTRY_FORMAT:
            raise MembershipError(
                f"unsupported registry format {fmt!r}"
            )
        members_doc = doc.get("members")
        if not isinstance(members_doc, dict):
            raise MembershipError("registry document has no member table")
        return cls(
            version=int(doc.get("version", 0)),  # type: ignore[arg-type]
            epoch=int(doc.get("epoch", 0)),  # type: ignore[arg-type]
            server=dict(doc.get("server", {})),  # type: ignore[arg-type]
            job=dict(doc.get("job", {})),  # type: ignore[arg-type]
            members={
                str(member_id): MemberRecord.from_doc(entry)
                for member_id, entry in members_doc.items()
            },
        )


class MembershipRegistry:
    """The registry service: one JSON document, atomically republished.

    Args:
        directory: Registry directory (created if missing); holds
            ``registry.json`` plus its lock file.
        lease: Seconds a member record stays valid without a heartbeat.
        telemetry: Session receiving the ``smb/membership/*`` counters;
            defaults to the process-wide session current at construction.
        clock: Injectable time source (tests freeze it to drive lease
            expiry deterministically).
    """

    def __init__(
        self,
        directory: PathLike,
        lease: float = DEFAULT_LEASE,
        telemetry: Optional[TelemetrySession] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if lease <= 0:
            raise ValueError(f"lease must be > 0, got {lease}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / REGISTRY_NAME
        self._lock_path = self.directory / REGISTRY_LOCK_NAME
        self.lease = lease
        self._clock = clock
        self._registry = _resolve_telemetry(telemetry).registry

    # -- telemetry ---------------------------------------------------------

    def _count(self, event: str, amount: int = 1) -> None:
        self._registry.inc(f"smb/membership/{event}", amount)

    def _publish(self, view: RegistryView) -> None:
        view.version += 1
        publish_json(self.path, view.to_doc())
        self._registry.set("smb/membership/epoch", view.epoch)
        self._registry.set("smb/membership/live", len(view.members))

    # -- locking -----------------------------------------------------------

    def _acquire_lock(self) -> None:
        deadline = time.monotonic() + LOCK_TIMEOUT
        while True:
            try:
                fd = os.open(
                    self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                return
            except FileExistsError:
                if time.monotonic() >= deadline:
                    # A holder that outlives the whole timeout is treated
                    # as a leaked lock from a dead process: break it once
                    # and retry (the next contender starts a fresh wait).
                    try:
                        age = time.time() - self._lock_path.stat().st_mtime
                    except OSError:
                        continue  # holder just released; retry
                    if age >= LOCK_TIMEOUT:
                        try:
                            os.unlink(self._lock_path)
                        except OSError:
                            pass
                        deadline = time.monotonic() + LOCK_TIMEOUT
                        continue
                    raise MembershipError(
                        f"registry lock {self._lock_path} held for "
                        f">{LOCK_TIMEOUT:.1f}s"
                    )
                time.sleep(0.002)

    def _release_lock(self) -> None:
        try:
            os.unlink(self._lock_path)
        except OSError:
            pass

    # -- read path ---------------------------------------------------------

    def read(self) -> RegistryView:
        """Current registry snapshot (empty view before first publish)."""
        doc = read_json(self.path)
        if doc is None:
            return RegistryView()
        return RegistryView.from_doc(doc)

    def wait_for_job(
        self, timeout: float = 30.0, poll: float = 0.01
    ) -> RegistryView:
        """Block until the master has published the job."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.read()
            if view.job:
                return view
            if time.monotonic() >= deadline:
                raise MembershipError(
                    f"no job published in {self.path} "
                    f"within {timeout:.1f}s"
                )
            time.sleep(poll)

    def live_count(self) -> int:
        """The job's unexpired member records right now."""
        view = self.read()
        now = self._clock()
        return sum(1 for m in view.members.values() if m.lease_expires > now)

    # -- mutations ---------------------------------------------------------

    def _mutate(self, fn: Callable[[RegistryView], None]) -> int:
        """Read-modify-publish under the cross-process lock.

        Returns how many lapsed records this critical section evicted.
        """
        self._acquire_lock()
        try:
            view = self.read()
            expired = self._expire_locked(view)
            fn(view)
            self._publish(view)
            return expired
        finally:
            self._release_lock()

    def _expire_locked(self, view: RegistryView) -> int:
        """Evict members whose lease lapsed."""
        now = self._clock()
        expired = [
            member_id for member_id, record in view.members.items()
            if record.lease_expires <= now
        ]
        for member_id in expired:
            del view.members[member_id]
        if expired:
            view.epoch += 1
            self._count("lease_expiries", len(expired))
        return len(expired)

    def publish_job(
        self, server: Dict[str, object], job: Dict[str, object]
    ) -> None:
        """Master-side: announce the job (endpoint and spec).

        Members of any previous job are dropped — a new announcement
        definitionally supersedes the old fleet.  The slot capacity is
        the job document's ``capacity``.
        """

        def apply(view: RegistryView) -> None:
            view.server = dict(server)
            view.job = dict(job)
            view.members = {}
            view.epoch += 1

        self._mutate(apply)

    def join(
        self, member_id: str, claim: Callable[[], SlotClaim]
    ) -> MemberRecord:
        """Admit a worker: run its slot ``claim``, record what it returns.

        The control block is the only slot allocator.  ``claim`` is the
        worker's own claim — ``control.claim(group_id)`` for a launch
        rank, fixed fleet or elastic, ``control.claim()`` for a joiner —
        and it runs under the registry lock, so concurrent claims are
        serialised.  The record takes the claim's slot and generation
        and a fresh lease.  Raises
        :class:`~repro.smb.errors.MembershipError` on a duplicate id or
        before the job is published (without claiming); whatever the
        claim raises propagates, and then nothing is published.
        """
        record = MemberRecord(member_id=member_id, slot=-1, generation=0)

        def apply(view: RegistryView) -> None:
            if not view.job:
                raise MembershipError(
                    "cannot join before the master publishes the job"
                )
            if member_id in view.members:
                raise MembershipError(
                    f"member id {member_id!r} already registered"
                )
            granted = claim()
            record.slot, record.generation = granted.slot, granted.generation
            now = self._clock()
            record.joined_at = now
            record.lease_expires = now + self.lease
            view.members[member_id] = record
            view.epoch += 1

        self._mutate(apply)
        self._count("joins")
        return record

    def heartbeat(self, member_id: str) -> bool:
        """Renew a member's lease (bumps version, not epoch).

        Returns whether a retire was requested for the member: the
        heartbeat is its one registry call per iteration.
        """
        retiring: List[bool] = []

        def apply(view: RegistryView) -> None:
            record = view.members.get(member_id)
            if record is None:
                raise MembershipError(
                    f"heartbeat from unknown member {member_id!r} "
                    "(lease expired?)"
                )
            record.lease_expires = self._clock() + self.lease
            record.heartbeats += 1
            retiring.append(record.status == MEMBER_RETIRING)

        self._mutate(apply)
        return retiring[0]

    def request_retire(self, member_id: str) -> bool:
        """Flag a member ``retiring``; it drains and leaves on its own.

        Returns False when the member is already gone (raced a leave or
        an expiry) — retiring an absent worker is not an error.
        """
        found = []

        def apply(view: RegistryView) -> None:
            record = view.members.get(member_id)
            if record is not None:
                record.status = MEMBER_RETIRING
                found.append(member_id)

        self._mutate(apply)
        if found:
            self._count("retires")
        return bool(found)

    def leave(self, member_id: str) -> bool:
        """Remove a member's record (its slot stays as the control block
        holds it).

        Returns False when the record was already gone (expired).
        """
        removed = []

        def apply(view: RegistryView) -> None:
            if view.members.pop(member_id, None) is not None:
                view.epoch += 1
                removed.append(member_id)

        self._mutate(apply)
        if removed:
            self._count("leaves")
        return bool(removed)

    def expire_stale(self) -> int:
        """Evict every member whose lease lapsed; returns how many this
        call evicted."""
        return self._mutate(lambda _view: None)
