"""Durability for the SMB server: snapshots, an op journal, rendezvous.

What a journal directory holds, what an append survives and how recovery
replays it are stated once, in ``docs/fault_tolerance.md``, "Durable
state".  This module frames records and never interprets one: replay
feeds them to the server's own apply step.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .errors import SMBError
from .protocol import HEADER_SIZE, Message, payload_length

logger = logging.getLogger(__name__)

PathLike = Union[str, os.PathLike]

#: Current snapshot format; bumped on incompatible layout changes.
SNAPSHOT_FORMAT = 3

#: File-name patterns inside a journal directory.
SNAPSHOT_PATTERN = "snapshot-{seq:08d}.npz"
JOURNAL_PATTERN = "journal-{seq:08d}.log"
RENDEZVOUS_NAME = "endpoint.json"
_GENERATION_GLOBS = ("snapshot-*.npz", "journal-*.log")


def _seq(path: Path) -> int:
    """The generation a snapshot or journal file name carries."""
    return int(path.stem.rpartition("-")[2])


class JournalError(SMBError):
    """A journal directory held no usable state, corrupt metadata, or a
    record the pool rejects on replay."""


# -- atomic file replacement -------------------------------------------------
#
# Every file another process may read while it is rewritten goes
# write-temp + ``os.replace``: the rendezvous file and the elastic-membership
# registry (:mod:`repro.smb.membership`), snapshots, and checkpoint files
# (:mod:`repro.core.checkpoint`).  A reader sees either the previous
# complete file or the new complete file, never a partial write.

@contextlib.contextmanager
def atomic_replace(path: PathLike, fsync: bool = True) -> Iterator[BinaryIO]:
    """Yield a binary handle whose contents replace ``path`` whole, or not
    at all.

    The temp file lands in the destination directory (``os.replace``
    requires same-filesystem) and is unlinked on failure, so a crashed
    writer leaves the previous file untouched.  With ``fsync`` the bytes
    reach the disk before the rename.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def publish_json(path: PathLike, document: Dict[str, object]) -> None:
    """Atomically replace ``path`` with ``document`` serialised as JSON
    (not fsynced: a polled document, not durable state)."""
    with atomic_replace(path, fsync=False) as handle:
        handle.write(json.dumps(document).encode())


def read_json(path: PathLike) -> Optional[Dict[str, object]]:
    """Load a published JSON document; ``None`` when unusable.

    Missing or unreadable files (and non-object payloads) return ``None``
    so pollers fall back and try again on their next attempt; with
    :func:`publish_json` on the write side a *partial* document is never
    observable.
    """
    try:
        body = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    return body if isinstance(body, dict) else None


# -- rendezvous --------------------------------------------------------------

def write_rendezvous(
    path: PathLike, address: Tuple[str, int], epoch: int = 0
) -> None:
    """Atomically publish a server's current address (and epoch)."""
    publish_json(path, {
        "host": address[0], "port": address[1], "epoch": epoch,
        "pid": os.getpid(),
    })


def read_rendezvous(path: PathLike) -> Optional[Tuple[str, int]]:
    """Resolve ``(host, port)`` from a rendezvous file; None if unusable.

    Unreadable, missing, or half-written files return ``None`` so callers
    (the transport's reconnect loop) fall back to their static address
    and try again on the next attempt.
    """
    body = read_json(path)
    if body is None:
        return None
    try:
        return str(body["host"]), int(body["port"])
    except (KeyError, ValueError, TypeError):
        return None


# -- snapshot payload --------------------------------------------------------

@dataclass
class SegmentImage:
    """One segment as captured in (or restored from) a snapshot.

    ``name`` is the pool-wide qualified name, which also spells the
    owning namespace (:meth:`~repro.smb.memory.MemoryPool.split_name`).
    """

    name: str
    shm_key: int
    data: np.ndarray  # uint8 bytes
    version: int


@dataclass
class PoolImage:
    """Everything needed to rebuild a memory pool bit-exactly."""

    capacity: int
    epoch: int
    seq: int
    shm_minted: int
    segments: List[SegmentImage] = field(default_factory=list)
    #: Tenant grants as ``{"name": str, "quota": Optional[int]}`` —
    #: usage is not stored; it is re-derived from the restored segments,
    #: which keeps the snapshot non-redundant.
    tenants: List[Dict[str, object]] = field(default_factory=list)


class DurabilityStore:
    """Snapshot + journal persistence for one server's memory pool.

    Not thread-safe by itself: the server serialises all calls behind its
    journal lock (mutation order in the journal must match effect order,
    which the coarse lock guarantees).

    Args:
        directory: The journal directory; created if missing.
        journal_ops: Append mutations between snapshots.  With ``False``
            only snapshots persist and a crash loses every delta since
            the last one (the documented lost-delta bound); with ``True``
            (default) recovery is bit-exact.
    """

    def __init__(self, directory: PathLike, journal_ops: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.journal_ops = journal_ops
        # Continue above every generation on disk, readable or not, so no
        # later snapshot or journal re-uses a dead life's file name.
        self.seq = max(
            (_seq(path) for pattern in _GENERATION_GLOBS
             for path in self.directory.glob(pattern)),
            default=0,
        )
        self._journal_file = None

    # -- write path -------------------------------------------------------

    def write_snapshot(self, image: PoolImage) -> int:
        """Persist a pool image as the next snapshot; returns its seq.

        The matching (empty) journal is opened afterwards, so any
        mutation that lands after this call is replayed on top of this
        snapshot during recovery.
        """
        self.seq += 1
        image.seq = self.seq
        meta = {
            "format": SNAPSHOT_FORMAT,
            "seq": image.seq,
            "epoch": image.epoch,
            "capacity": image.capacity,
            "shm_minted": image.shm_minted,
            "tenants": image.tenants,
            "segments": [
                {
                    "name": seg.name,
                    "shm_key": seg.shm_key,
                    "version": seg.version,
                    "nbytes": int(seg.data.nbytes),
                }
                for seg in image.segments
            ],
        }
        payload: Dict[str, np.ndarray] = {
            "__meta__": np.frombuffer(
                json.dumps(meta).encode(), dtype=np.uint8
            ).copy(),
        }
        for seg in image.segments:
            payload[f"seg/{seg.name}"] = seg.data
        path = self.directory / SNAPSHOT_PATTERN.format(seq=self.seq)
        with atomic_replace(path) as handle:
            np.savez(handle, **payload)
        self._open_journal(self.seq)
        self._prune(keep_before=self.seq)
        return self.seq

    def _open_journal(self, seq: int) -> None:
        if self._journal_file is not None:
            self._journal_file.close()
            self._journal_file = None
        if not self.journal_ops:
            return
        path = self.directory / JOURNAL_PATTERN.format(seq=seq)
        # Exclusive create: no record is ever appended to a file an
        # earlier life wrote.
        self._journal_file = open(path, "xb")

    def append(self, record: Message) -> None:
        """Log one mutation in its journal form (SHM keys in key slots);
        what that survives: ``docs/fault_tolerance.md``, "Durable state".
        """
        if self._journal_file is None:
            return
        self._journal_file.write(record.encode_header())
        self._journal_file.write(record.payload_view())
        self._journal_file.flush()

    def _prune(self, keep_before: int) -> None:
        """Drop superseded snapshot/journal generations (keep latest 2)."""
        for pattern in _GENERATION_GLOBS:
            for path in sorted(self.directory.glob(pattern))[:-2]:
                try:
                    path.unlink()
                except OSError:
                    pass

    def close(self) -> None:
        if self._journal_file is not None:
            self._journal_file.close()
            self._journal_file = None

    # -- read path --------------------------------------------------------

    def has_state(self) -> bool:
        """Whether the directory holds at least one snapshot."""
        return bool(sorted(self.directory.glob("snapshot-*.npz")))

    def snapshots_after(self, seq: int) -> int:
        """How many snapshot files on disk are newer than generation ``seq``."""
        return sum(_seq(path) > seq for path in self.directory.glob("snapshot-*.npz"))

    def recover(self) -> Tuple[PoolImage, Iterator[Message]]:
        """Load the newest usable snapshot and the records to replay on it.

        The records are those of every journal from the snapshot's seq
        up to the newest on disk, oldest first, so a fallback past an
        unreadable snapshot still replays what was journaled after it.
        Raises :class:`JournalError` when no snapshot loads.
        """
        candidates = sorted(self.directory.glob("snapshot-*.npz"),
                            reverse=True)
        last_error: Optional[Exception] = None
        for path in candidates:
            try:
                image = _load_snapshot(path)
            except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
                last_error = exc
                logger.warning("skipping unreadable snapshot %s: %s",
                               path.name, exc)
                continue
            return image, (
                record
                for journal in sorted(self.directory.glob("journal-*.log"))
                if _seq(journal) >= image.seq
                for record in _records(journal)
            )
        raise JournalError(
            f"no usable snapshot in {self.directory}"
            + (f" (last error: {last_error})" if last_error else "")
        )


def _load_snapshot(path: Path) -> PoolImage:
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode())
        if meta.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported snapshot format {meta.get('format')!r}"
            )
        segments = []
        for entry in meta["segments"]:
            data = archive[f"seg/{entry['name']}"].astype(np.uint8).copy()
            if data.nbytes != entry["nbytes"]:
                raise ValueError(
                    f"segment {entry['name']!r}: snapshot holds "
                    f"{data.nbytes} bytes, metadata says {entry['nbytes']}"
                )
            segments.append(SegmentImage(
                name=entry["name"],
                shm_key=int(entry["shm_key"]),
                data=data,
                version=int(entry["version"]),
            ))
    return PoolImage(
        capacity=int(meta["capacity"]),
        epoch=int(meta["epoch"]),
        seq=int(meta["seq"]),
        shm_minted=int(meta["shm_minted"]),
        segments=segments,
        tenants=[dict(entry) for entry in meta["tenants"]],
    )


def _records(path: Path) -> Iterator[Message]:
    """Yield a journal's records in order.  A truncated or corrupt tail
    ends the journal: the crash landed mid-append, so that op was never
    acknowledged."""
    data = path.read_bytes()
    offset = 0
    while offset + HEADER_SIZE <= len(data):
        header = data[offset:offset + HEADER_SIZE]
        end = offset + HEADER_SIZE + payload_length(header)
        if end > len(data):
            return
        try:
            record = Message.decode(header, data[offset + HEADER_SIZE:end])
        except SMBError:
            return
        offset = end
        yield record
