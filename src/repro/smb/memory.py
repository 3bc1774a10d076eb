"""Remote shared-memory segments and the server-side memory pool.

This module models the memory half of the Soft Memory Box: a *memory
providing node* grants a fixed amount of RAM, and distributed workers carve
it into named :class:`Segment` objects.  Two kinds of keys exist, mirroring
the paper's Fig. 2:

* the **SHM key** — handed out at creation time and broadcast by the master
  worker to everyone who should share the segment;
* the **access key** — returned by the server when a worker *attaches* the
  segment, standing in for the Infiniband remote key that enables RDMA.

Segments are byte-addressed (the SMB server stores bytes, not tensors); the
client library layers dtype views on top.  Each segment carries a
monotonically increasing *version* so workers can wait for updates, which is
how ShmCaffe shares training-progress control info.

Every pool segment is one anonymous ``memfd`` mapping: a
:data:`HEADER_BYTES` header, then the data (:attr:`Segment.buffer`).
Header word 0 is a seqlock — ``2 × version``, plus 1 while a WRITE or
ACCUMULATE is in flight — and word 1 is set once the segment's waits end
(FREE, server close).  A co-located reader handed the memfd
(:meth:`Segment.share_fd`) copies the data without the server: read
word 0, copy, re-read word 0 (:mod:`repro.smb.shm_transport`).  The
memfd is sealed (:data:`SEGMENT_SEALS`) before anyone else can hold it:
a reader can neither resize it nor write it, so the seqlock, the journal
and exclusive accumulate see every mutation.  :func:`map_memfd` is the
one allocator of shared memory; the shm doorway's connection blocks come
from it too.
"""

from __future__ import annotations

import fcntl
import itertools
import mmap
import os
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import (
    QuotaExceededError,
    SegmentExistsError,
    SMBError,
    UnknownKeyError,
)

#: Default granted memory of a pool, matching the paper's 256 GB memory
#: server scaled down to something a laptop test suite can allocate.
DEFAULT_POOL_CAPACITY = 1 << 30  # 1 GiB

#: The namespace a caller that names no tenant lands in.  It is the one
#: tenant whose qualified segment names are the bare names.
DEFAULT_TENANT = "default"


def _validate_tenant(tenant: str) -> None:
    if not tenant or "/" in tenant:
        raise ValueError(f"invalid tenant name: {tenant!r}")


def _out_of_range(offset: int, nbytes: int, size: int) -> SMBError:
    """The refusal of an access that runs outside a segment."""
    return SMBError(
        f"access [{offset}, {offset + nbytes}) exceeds segment size {size}"
    )


def _no_room(requested: int, available: int) -> SMBError:
    """The refusal of an allocation the pool's grant cannot hold."""
    return SMBError(
        f"cannot allocate {requested} bytes; only {available} available"
    )

#: CPU niceness of bulk-lane threads (the TCP front-end's ``smb-worker``
#: request pool, the only pool on the SMB data path).  Bulk transfers are
#: throughput-bound and tolerate scheduling delay; small control ops are
#: latency-bound and do not.  Demoting only the bulk threads lets the OS
#: scheduler enforce that split whenever the machine is CPU-saturated: a
#: tenant streaming whole-model accumulates cannot starve another
#: tenant's 1 KiB reads off the run queue.  On an idle machine niceness
#: has no effect, so bulk throughput is unchanged when there is no one
#: to be fair to.
BULK_LANE_NICE = 10


def enter_bulk_priority(nice: int = BULK_LANE_NICE) -> None:
    """Demote the calling thread to background (bulk-lane) CPU priority.

    Linux exposes per-thread niceness through ``setpriority`` on the
    thread id; lowering priority never needs privileges.  Platforms (or
    sandboxes) without the call simply keep default priority — fairness
    then rests on the tenants taking turns at the pool alone.
    """
    try:
        os.setpriority(  # type: ignore[attr-defined]
            os.PRIO_PROCESS, threading.get_native_id(), nice
        )
    except (AttributeError, OSError):  # non-Linux, or denied by sandbox
        pass


class SegmentWaiter:
    """One registered update-notification callback (:meth:`Segment.add_waiter`).

    Four things race to finish a waiter — the version bump that
    satisfies it, the end of the segment's waits (:meth:`Segment.end_waits`),
    a timeout, and connection teardown — so completion is claim-based:
    :meth:`claim` returns ``True`` exactly once, and only the winner acts.
    """

    __slots__ = ("threshold", "_callback", "_lock", "_claimed")

    def __init__(self, threshold: int, callback: Callable[[int], None]) -> None:
        self.threshold = threshold
        self._callback = callback
        self._lock = threading.Lock()
        self._claimed = False

    def claim(self) -> bool:
        """Take ownership of completing this waiter; ``True`` exactly once."""
        with self._lock:
            if self._claimed:
                return False
            self._claimed = True
            return True

    def fire(self, version: int) -> None:
        """Invoke the callback if nothing else completed the waiter first."""
        if self.claim():
            self._callback(version)


#: Bytes in front of a segment's data in its mapping (one cache line, so
#: the data stays 64-byte aligned).  Word 0 is the seqlock, word 1 the
#: "waits ended" flag; the rest is reserved.
HEADER_BYTES = 64
#: Header word indices (uint64 words).
SEQ_WORD = 0
ENDED_WORD = 1


def _standalone_words() -> np.ndarray:
    """Header words of a segment built on a caller's buffer (no mapping)."""
    return np.zeros(HEADER_BYTES // 8, dtype=np.uint64)


#: Linux memfd seal bits (Python's ``fcntl`` names all but
#: ``F_SEAL_FUTURE_WRITE``, and only on Linux).  A memfd sealed with
#: FUTURE_WRITE keeps the writable mappings it already has but grants no
#: new one and no ``write``.
F_SEAL_SEAL, F_SEAL_SHRINK, F_SEAL_GROW, F_SEAL_FUTURE_WRITE = 0x1, 0x2, 0x4, 0x10

#: A segment never changes size and only the server's own mapping writes
#: it: a handed-out descriptor maps read-only or not at all.
SEGMENT_SEALS = F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_FUTURE_WRITE | F_SEAL_SEAL


def map_memfd(size: int, seals: int) -> Tuple[int, mmap.mmap]:
    """Allocate ``size`` zero bytes of shared memory: ``(memfd, mapping)``.

    The one allocator behind every piece of shared memory the SMB server
    hands out (segments here, connection blocks in
    :mod:`repro.smb.shm_transport`).  The memfd has no name in any
    filesystem, so nothing outlives the last mapping and the last
    descriptor, whoever holds them, and no resource tracker is involved.
    ``seals`` are added after the caller's read-write mapping exists, so
    a write seal binds only the mappings made from descriptors it hands
    out.  Without ``memfd_create`` (non-Linux) the mapping is anonymous
    and ``fd`` is ``-1``: nothing can be handed to another process.
    """
    memfd_create = getattr(os, "memfd_create", None)
    if memfd_create is None:
        return -1, mmap.mmap(-1, size)
    fd = memfd_create("smb", os.MFD_CLOEXEC | os.MFD_ALLOW_SEALING)
    try:
        os.ftruncate(fd, size)
        mapping = mmap.mmap(fd, size)
        fcntl.fcntl(fd, fcntl.F_ADD_SEALS, seals)
    except OSError:
        os.close(fd)
        raise
    return fd, mapping


def _key_sequence(start: int) -> Iterator[int]:
    """Yield an endless stream of distinct integer keys.

    Keys are deliberately non-zero and non-sequential-looking (a stride is
    applied) so tests that confuse SHM keys with access keys fail loudly
    instead of accidentally working.
    """
    return itertools.count(start, 2654435761 % (1 << 31))


@dataclass
class Segment:
    """One allocation inside the SMB server's granted memory.

    Attributes:
        name: Human-readable segment name chosen by its creator.
        shm_key: Creation key; broadcast to workers that should share this.
        buffer: Backing byte storage.  Dtype views are layered client-side.
        version: Bumped on every mutation; supports update notification.
        words: The header words a one-sided reader checks (module
            docstring); the mapping's header for a pool segment
            (:meth:`mapped`), a private array for one built on a buffer.
    """

    name: str
    shm_key: int
    buffer: np.ndarray
    tenant: str = DEFAULT_TENANT
    version: int = 0
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    words: np.ndarray = field(default_factory=_standalone_words, repr=False)
    _waiters: List[SegmentWaiter] = field(
        init=False, default_factory=list, repr=False
    )
    _waits_ended: bool = field(init=False, default=False, repr=False)
    #: The mapping's memfd, ``-1`` once its waits ended (or never mapped);
    #: ``_close_fd`` closes it exactly once, at the latest on collection.
    _fd: int = field(init=False, default=-1, repr=False)
    _close_fd: Optional[Callable[[], None]] = field(
        init=False, default=None, repr=False
    )

    def __post_init__(self) -> None:
        self.words[SEQ_WORD] = 2 * self.version

    @classmethod
    def mapped(
        cls, name: str, shm_key: int, nbytes: int, **fields: object
    ) -> "Segment":
        """A segment of ``nbytes`` zero bytes in its own sealed memfd
        mapping: the header, then the data."""
        fd, mapping = map_memfd(HEADER_BYTES + nbytes, SEGMENT_SEALS)
        words = np.frombuffer(mapping, dtype=np.uint64,
                              count=HEADER_BYTES // 8)
        data = np.frombuffer(mapping, dtype=np.uint8, count=nbytes,
                             offset=HEADER_BYTES)
        segment = cls(name=name, shm_key=shm_key, buffer=data, words=words,
                      **fields)  # type: ignore[arg-type]
        if fd >= 0:
            segment._fd = fd
            segment._close_fd = weakref.finalize(segment, os.close, fd)
        return segment

    @property
    def size(self) -> int:
        """Segment size in bytes."""
        return int(self.buffer.nbytes)

    def share_fd(self) -> Optional[int]:
        """A duplicate of the mapping's memfd for a co-located one-sided
        reader (the caller closes it), or ``None`` once the segment's
        waits ended or when it has no memfd."""
        with self.lock:
            return os.dup(self._fd) if self._fd >= 0 else None

    def _begin_mutation(self) -> None:
        """Mark a mutation in flight (segment lock held): word 0 goes odd."""
        self.words[SEQ_WORD] = 2 * self.version + 1

    def _end_mutation(self) -> int:
        """Publish the next version (segment lock held): word 0 goes even."""
        self.version += 1
        self.words[SEQ_WORD] = 2 * self.version
        return self.version

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise _out_of_range(offset, nbytes, self.size)

    def read(self, offset: int, nbytes: int) -> bytes:
        """Return ``nbytes`` bytes starting at ``offset`` (RDMA Read)."""
        self._check_range(offset, nbytes)
        with self.lock:
            return self.buffer[offset:offset + nbytes].tobytes()

    def read_into(self, offset: int, out: memoryview) -> int:
        """Copy ``len(out)`` bytes starting at ``offset`` straight into
        ``out`` (the zero-copy RDMA Read: one copy, segment to caller
        buffer, taken under the segment lock for a consistent snapshot).

        Returns the number of bytes copied.
        """
        nbytes = len(out)
        self._check_range(offset, nbytes)
        with self.lock:
            np.frombuffer(out, dtype=np.uint8)[:] = (
                self.buffer[offset:offset + nbytes]
            )
        return nbytes

    def write(self, offset: int, data: bytes) -> int:
        """Store ``data`` at ``offset`` (RDMA Write); returns new version."""
        self._check_range(offset, len(data))
        with self.lock:
            self._begin_mutation()
            self.buffer[offset:offset + len(data)] = np.frombuffer(
                data, dtype=np.uint8
            )
            version = self._end_mutation()
            ready = self._take_ready_waiters()
        for waiter in ready:
            waiter.fire(version)
        return version

    def accumulate(
        self, values: np.ndarray, scale: float = 1.0, offset: int = 0
    ) -> int:
        """Add ``scale * values`` into this segment from byte ``offset``.

        The payload form of eq. (7) (``W_g += ΔW_x`` with ``ΔW_x`` carried
        by the request itself): ``values`` is a 1-D array, typically a
        view of the request's payload, and its dtype is the element type.

        Returns:
            This segment's new version number.
        """
        return self._add(values, scale, offset, self, self)

    def accumulate_from(
        self,
        src: "Segment",
        dtype: str = "float32",
        scale: float = 1.0,
        offset: int = 0,
        src_offset: int = 0,
        count: Optional[int] = None,
    ) -> int:
        """Add ``scale * src`` into this segment element-wise.

        The segment form of eq. (7), the paper's op: the source is another
        segment.  Locks are taken in a global order (by ``shm_key``) so
        concurrent accumulates between overlapping segment pairs cannot
        deadlock.

        Args:
            src: Source segment whose contents are added into this one.
            dtype: Element type both regions are interpreted as.
            scale: Scalar multiplier applied to the source elements.
            offset: Byte offset into this (destination) segment.
            src_offset: Byte offset into the source segment.
            count: Number of *elements*; defaults to the rest of the source.

        Returns:
            The destination segment's new version number.
        """
        itemsize = np.dtype(dtype).itemsize
        if count is None:
            count = (src.size - src_offset) // itemsize
        nbytes = count * itemsize
        src._check_range(src_offset, nbytes)
        values = src.buffer[src_offset:src_offset + nbytes].view(dtype)
        first, second = sorted((self, src), key=lambda s: s.shm_key)
        return self._add(values, scale, offset, first, second)

    def _add(
        self,
        values: np.ndarray,
        scale: float,
        offset: int,
        first: "Segment",
        second: "Segment",
    ) -> int:
        """The one add kernel of both ACCUMULATE forms: ``values`` goes in
        at ``offset`` under ``first``'s then ``second``'s lock (the
        source segment and this one in ``shm_key`` order, or this one
        twice for a payload — the lock is re-entrant)."""
        nbytes = values.nbytes
        self._check_range(offset, nbytes)
        with first.lock, second.lock:
            dst_view = self.buffer[offset:offset + nbytes].view(values.dtype)
            # One in-place add on the calling thread, at every size.
            # Aliased operands (self-accumulate, overlapping ranges of one
            # segment) are exact too: NumPy's ufunc overlap detection
            # buffers the source.
            self._begin_mutation()
            if scale == 1.0:
                dst_view += values
            else:
                dst_view += scale * values
            version = self._end_mutation()
            ready = self._take_ready_waiters()
        for waiter in ready:
            waiter.fire(version)
        return version

    def wait_for_update(
        self, version: int, timeout: Optional[float] = None
    ) -> int:
        """Block until the segment version exceeds ``version``, or until
        its waits end (:meth:`end_waits`).

        A blocking wrapper over :meth:`add_waiter`.  Returns the current
        version, which may still equal ``version`` if ``timeout`` expired
        or the waits ended; callers decide whether that is an error.
        """
        fired = threading.Event()
        waiter = self.add_waiter(version, lambda _version: fired.set())
        if waiter is not None and not fired.wait(timeout):
            self.remove_waiter(waiter)
        return self.version

    def add_waiter(
        self, version: int, callback: Callable[[int], None]
    ) -> Optional[SegmentWaiter]:
        """Register ``callback(new_version)`` to fire once the segment
        version exceeds ``version``, or once its waits end.

        The one notification primitive: an event-loop server registers a
        waiter instead of parking a thread, and :meth:`wait_for_update`
        parks one on it.  Returns the waiter handle, or ``None`` if the
        version has already advanced or the waits have ended (the caller
        should answer immediately).  The callback runs on the mutating
        thread with **no segment locks held**; timeouts and cancellation
        are the caller's job (:meth:`SegmentWaiter.claim` arbitrates the
        race).
        """
        with self.lock:
            if self.version > version or self._waits_ended:
                return None
            waiter = SegmentWaiter(version, callback)
            self._waiters.append(waiter)
            return waiter

    def end_waits(self) -> None:
        """Fire every waiter now, and answer every later :meth:`add_waiter`
        at once: the segment was freed, or its server is closing.  Each
        waiter's owner then re-checks and finds out which.

        One-sided readers end too: header word 1 sends them back to the
        RPC READ, and the memfd is closed, so no new reader maps it.
        """
        with self.lock:
            self._waits_ended = True
            self.words[ENDED_WORD] = 1
            if self._close_fd is not None:
                self._close_fd()
                self._fd = -1
            ended, self._waiters = self._waiters, []
            version = self.version
        for waiter in ended:
            waiter.fire(version)

    def remove_waiter(self, waiter: SegmentWaiter) -> None:
        """Deregister a waiter (timeout or connection teardown)."""
        with self.lock:
            try:
                self._waiters.remove(waiter)
            except ValueError:
                pass  # already fired and pruned

    def _take_ready_waiters(self) -> List[SegmentWaiter]:
        """Pop every waiter the current version satisfies (lock held)."""
        if not self._waiters:
            return []
        ready = [w for w in self._waiters if self.version > w.threshold]
        if ready:
            self._waiters = [
                w for w in self._waiters if self.version <= w.threshold
            ]
        return ready


@dataclass
class TenantGrant:
    """Per-namespace admission state: the byte quota and what it holds.

    ``quota is None`` means the namespace is bounded only by the pool's
    granted capacity — what an unknown namespace auto-vivifies to on
    first contact.
    """

    name: str
    quota: Optional[int] = None
    used: int = 0
    segments: int = 0

    def stats(self) -> Dict[str, object]:
        return {
            "quota": self.quota,
            "used": self.used,
            "segments": self.segments,
        }


class MemoryPool:
    """Accounting and lookup for every segment in one SMB server.

    The pool enforces the granted-capacity limit, mints SHM keys and access
    keys, and maps both key kinds back to segments.  All public methods are
    thread-safe; the server calls them from many client-handler threads.

    Segments live in per-tenant *namespaces*: a segment created by tenant
    ``t`` is stored under the qualified name ``t/name`` (the ``default``
    tenant's qualified name is the bare name).  Bare names never contain
    ``/``, so :meth:`qualify` and :meth:`split_name` are exact inverses
    and the only code that knows the format.  Name-based operations
    (create / by_name / free / segments) are namespace-scoped; key-based
    operations are not — SHM and access keys act as capabilities, exactly
    like the Infiniband rkeys they stand in for.
    """

    def __init__(self, capacity: int = DEFAULT_POOL_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._by_shm_key: Dict[int, Segment] = {}
        self._by_name: Dict[str, Segment] = {}
        self._by_access_key: Dict[int, Segment] = {}
        self._shm_keys = _key_sequence(start=0x5348_0001)
        self._access_keys = _key_sequence(start=0x4143_0001)
        self._used = 0
        self._tenants: Dict[str, TenantGrant] = {
            DEFAULT_TENANT: TenantGrant(DEFAULT_TENANT)
        }
        # How many SHM keys were ever minted, so a restored pool can
        # advance its generator past every key a previous server life
        # handed out (see advance_keys).
        self._shm_minted = 0

    # -- tenancy ------------------------------------------------------------

    @staticmethod
    def qualify(tenant: str, name: str) -> str:
        """Map a tenant-local segment name to its pool-wide name."""
        if tenant == DEFAULT_TENANT:
            return name
        return f"{tenant}/{name}"

    @staticmethod
    def split_name(qualified: str) -> tuple:
        """Invert :meth:`qualify`: ``(tenant, bare_name)``.

        Exact, because :meth:`create` rejects ``/`` inside bare names.
        """
        if "/" in qualified:
            tenant, _, bare = qualified.partition("/")
            return tenant, bare
        return DEFAULT_TENANT, qualified

    def _grant(self, tenant: str) -> TenantGrant:
        """Fetch (auto-vivifying) a tenant's grant; ``_lock`` held."""
        grant = self._tenants.get(tenant)
        if grant is None:
            grant = TenantGrant(tenant)
            self._tenants[tenant] = grant
        return grant

    def create_tenant(
        self, tenant: str, quota: Optional[int] = None
    ) -> TenantGrant:
        """Create (or re-grant) a namespace with a byte quota.

        Idempotent on purpose — journal replay re-applies TENANT_CREATE
        records, and re-granting is how an admin resizes a quota.  A
        quota below the namespace's current usage is allowed: existing
        segments stay, further CREATEs are denied until usage drops.
        """
        _validate_tenant(tenant)
        if quota is not None and quota <= 0:
            raise ValueError(f"quota must be positive, got {quota}")
        with self._lock:
            grant = self._grant(tenant)
            grant.quota = quota
            return grant

    def tenants(self) -> Dict[str, TenantGrant]:
        """Snapshot of every namespace grant, keyed by tenant name."""
        with self._lock:
            return dict(self._tenants)

    def tenant_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-namespace admission stats (quota / used / segment count)."""
        with self._lock:
            return {
                name: grant.stats()
                for name, grant in sorted(self._tenants.items())
            }

    @property
    def capacity(self) -> int:
        """Total granted bytes."""
        return self._capacity

    @property
    def used(self) -> int:
        """Bytes currently allocated to live segments."""
        with self._lock:
            return self._used

    @property
    def available(self) -> int:
        """Bytes still allocatable."""
        with self._lock:
            return self._capacity - self._used

    def create(
        self,
        name: str,
        nbytes: int,
        tenant: str = DEFAULT_TENANT,
    ) -> Segment:
        """Create a named segment and return it (master-worker operation).

        Admission is checked against the *tenant's* quota grant before the
        pool capacity, so one namespace cannot starve another of its
        granted headroom.

        Raises:
            SegmentExistsError: If ``name`` is already live in this tenant.
            QuotaExceededError: If the tenant's quota cannot fit ``nbytes``.
            SMBError: If the pool cannot fit ``nbytes`` more.
            ValueError: If ``nbytes`` is not positive, or ``name``
                contains the namespace separator ``/``.
        """
        if nbytes <= 0:
            raise ValueError(f"segment size must be positive, got {nbytes}")
        _validate_tenant(tenant)
        if "/" in name:
            raise ValueError(f"segment name must not contain '/': {name!r}")
        qualified = self.qualify(tenant, name)
        with self._lock:
            if qualified in self._by_name:
                raise SegmentExistsError(qualified)
            # A refused CREATE leaves no grant: vivify only on admission.
            known = self._tenants.get(tenant)
            if known is not None and known.quota is not None and (
                known.used + nbytes > known.quota
            ):
                raise QuotaExceededError(
                    tenant, nbytes, known.quota, known.used
                )
            if self._used + nbytes > self._capacity:
                raise _no_room(nbytes, self._capacity - self._used)
            segment = Segment.mapped(
                qualified, next(self._shm_keys), nbytes, tenant=tenant
            )
            self._shm_minted += 1
            self._by_shm_key[segment.shm_key] = segment
            self._by_name[qualified] = segment
            self._used += nbytes
            grant = self._grant(tenant)
            grant.used += nbytes
            grant.segments += 1
            return segment

    def attach(self, shm_key: int, expected_nbytes: Optional[int] = None) -> int:
        """Grant an access key for an existing segment (slave operation).

        Mirrors Fig. 2: a worker presents the broadcast SHM key (plus the
        size it expects, which is validated) and receives the access key it
        will use for RDMA-style reads/writes.
        """
        segment = self.by_shm_key(shm_key)
        if expected_nbytes is not None and expected_nbytes != segment.size:
            raise _out_of_range(0, expected_nbytes, segment.size)
        with self._lock:
            access_key = next(self._access_keys)
            self._by_access_key[access_key] = segment
            return access_key

    def by_shm_key(self, shm_key: int) -> Segment:
        """Look a segment up by its creation key."""
        with self._lock:
            try:
                return self._by_shm_key[shm_key]
            except KeyError:
                raise UnknownKeyError(shm_key) from None

    def by_access_key(self, access_key: int) -> Segment:
        """Look a segment up by a previously granted access key."""
        with self._lock:
            try:
                return self._by_access_key[access_key]
            except KeyError:
                raise UnknownKeyError(access_key) from None

    def by_name(
        self, name: str, tenant: Optional[str] = DEFAULT_TENANT
    ) -> Segment:
        """Look a segment up by its tenant-local name.

        ``tenant=None`` treats ``name`` as already qualified (server
        internals, diagnostics); any other value scopes the lookup to
        that namespace.
        """
        qualified = name if tenant is None else self.qualify(tenant, name)
        with self._lock:
            try:
                return self._by_name[qualified]
            except KeyError:
                raise UnknownKeyError(0) from None

    def free(self, shm_key: int, tenant: Optional[str] = None) -> None:
        """Release a segment and every access key pointing at it, then end
        its waits: a parked WAIT_UPDATE wakes and finds its key gone.

        ``tenant`` scopes the release: a namespace may only free its own
        segments (``None`` skips the check — server internals).
        """
        with self._lock:
            segment = self._by_shm_key.get(shm_key)
            if segment is None:
                raise UnknownKeyError(shm_key)
            if tenant is not None and segment.tenant != tenant:
                raise SMBError(
                    f"segment {segment.name!r} belongs to tenant "
                    f"{segment.tenant!r}, not {tenant!r}"
                )
            del self._by_shm_key[shm_key]
            del self._by_name[segment.name]
            stale = [
                key for key, seg in self._by_access_key.items()
                if seg is segment
            ]
            for key in stale:
                del self._by_access_key[key]
            self._used -= segment.size
            grant = self._tenants.get(segment.tenant)
            if grant is not None:
                grant.used = max(0, grant.used - segment.size)
                grant.segments = max(0, grant.segments - 1)
        segment.end_waits()

    @property
    def shm_minted(self) -> int:
        """How many SHM keys this pool has ever minted."""
        with self._lock:
            return self._shm_minted

    def restore_segment(
        self,
        name: str,
        shm_key: int,
        data: np.ndarray,
        version: int = 0,
    ) -> Segment:
        """Rebuild a segment from durable state, keeping its SHM key.

        Recovery must preserve SHM keys: clients re-attach to a restarted
        server by the SHM key the master broadcast before the crash, so
        the key is segment identity, not a per-life handle.  Call
        :meth:`advance_keys` afterwards so freshly minted keys never
        collide with restored ones.

        ``name`` is the qualified name; the segment is accounted to the
        namespace it spells.
        """
        nbytes = int(data.nbytes)
        tenant, _ = self.split_name(name)
        with self._lock:
            if name in self._by_name:
                raise SegmentExistsError(name)
            if shm_key in self._by_shm_key:
                raise SegmentExistsError(f"shm_key {shm_key:#x}")
            if self._used + nbytes > self._capacity:
                raise _no_room(nbytes, self._capacity - self._used)
            segment = Segment.mapped(
                name, shm_key, nbytes, tenant=tenant, version=version
            )
            segment.buffer[:] = np.frombuffer(
                np.ascontiguousarray(data), dtype=np.uint8
            )
            self._by_shm_key[shm_key] = segment
            self._by_name[name] = segment
            self._used += nbytes
            grant = self._grant(tenant)
            grant.used += nbytes
            grant.segments += 1
            return segment

    def reseed_access_keys(self, salt: int) -> None:
        """Mint future access keys from a salted, disjoint subsequence.

        Access keys die with the server process, but clients may still
        *present* pre-crash keys after a recovery.  Attaches are not
        journaled, so no count can advance the generator past them: a
        recovered pool could re-mint a key some client still holds for a
        *different* segment, and that stale key would silently resolve
        instead of raising :class:`UnknownKeyError` — the error the
        client re-attach logic keys off.  Both key sequences are arithmetic with the same
        stride, so any ``0 < salt < stride`` (the server uses the
        recovery epoch) yields a sequence provably disjoint from every
        earlier life's.
        """
        if salt < 0:
            raise ValueError(f"salt must be non-negative, got {salt}")
        with self._lock:
            self._access_keys = _key_sequence(start=0x4143_0001 + salt)

    def advance_keys(self, shm_minted: int) -> None:
        """Skip the SHM key generator past a previous life's mint count.

        The generator is a deterministic arithmetic sequence, so a
        restored pool that replayed ``shm_minted`` creations would
        otherwise re-mint exactly the keys the dead server handed out,
        colliding with restored SHM keys.  Access keys are reseeded
        instead (:meth:`reseed_access_keys`).
        """
        with self._lock:
            while self._shm_minted < shm_minted:
                next(self._shm_keys)
                self._shm_minted += 1

    def segments(self, tenant: Optional[str] = None) -> Dict[str, Segment]:
        """Snapshot of live segments keyed by (qualified) name.

        ``tenant`` restricts the view to one namespace; ``None`` returns
        every segment in the pool (durability, shutdown, diagnostics).
        """
        with self._lock:
            if tenant is None:
                return dict(self._by_name)
            return {
                name: seg for name, seg in self._by_name.items()
                if seg.tenant == tenant
            }

    def for_each(self, fn: Callable[[Segment], None]) -> None:
        """Apply ``fn`` to every live segment (used by server shutdown)."""
        for segment in self.segments().values():
            fn(segment)
