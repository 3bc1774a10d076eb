"""Coordinated distributed checkpoints for a ShmCaffe job.

The SMB journal (:mod:`repro.smb.journal`) makes the *parameter box*
durable; this module makes the *job* durable.  A checkpoint of a
distributed run is three things captured together at an iteration
boundary:

* the global weights ``W_g`` (the EASGD elastic centre),
* every rank's solver state — local weights, momentum history,
  iteration counter, RNG state, dataset cursor (see
  :mod:`repro.caffe.snapshot`),
* the fleet's ``Iter_x`` progress counters.

Consistency comes from the existing SMB control segment, used as the
checkpoint barrier: each rank writes its own state file *before*
publishing progress for the boundary iteration, and the master waits
(:meth:`~repro.core.termination.TerminationCoordinator.wait_for_fleet`)
until every live rank has published at least the boundary before it
reads ``W_g`` and seals the checkpoint with its manifest.  The manifest
is written last and atomically, so its presence marks a complete,
loadable checkpoint — a crash mid-checkpoint leaves the previous
generation intact.

Layout of a checkpoint directory::

    <dir>/seq-00000003/rank0000.state.npz
    <dir>/seq-00000003/rank0001.state.npz
    <dir>/seq-00000003/global.npz
    <dir>/seq-00000003/manifest.json     <- written last; completeness marker

Asynchronous workers drift, so a checkpoint is *boundary-consistent*,
not a strict cut: ``W_g`` is read after every live rank passed the
boundary and may contain a few extra accumulates from fast ranks.
EASGD's bounded-perturbation tolerance makes that algorithmically sound
(the same argument that justifies the SMB journal's lost-delta bound).
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

import numpy as np

from ..caffe.snapshot import save_solver_state
from ..smb.client import RemoteArray
from ..smb.journal import atomic_replace
from ..telemetry import TelemetrySession, resolve as _resolve_telemetry
from .termination import TerminationCoordinator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import TrainingEngine

logger = logging.getLogger(__name__)

PathLike = Union[str, os.PathLike]

CHECKPOINT_FORMAT = 1
SEQ_PATTERN = "seq-{seq:08d}"
RANK_STATE_PATTERN = "rank{rank:04d}.state.npz"
GLOBAL_NAME = "global.npz"
MANIFEST_NAME = "manifest.json"

#: Upper bound on the master's fleet wait; on timeout a best-effort
#: checkpoint is still written and marked ``barrier_ok: false``.
BARRIER_TIMEOUT = 120.0


class CheckpointError(Exception):
    """A checkpoint directory was missing, incomplete, or mismatched."""


@dataclass
class CheckpointInfo:
    """One complete checkpoint generation, as found on disk."""

    directory: Path
    seq: int
    iteration: int
    num_workers: int
    metadata: Dict[str, Any] = field(default_factory=dict)
    barrier_ok: bool = True

    @property
    def global_path(self) -> Path:
        return self.directory / GLOBAL_NAME

    def rank_state_path(self, rank: int) -> Path:
        return self.directory / RANK_STATE_PATTERN.format(rank=rank)

    def load_global_weights(self) -> np.ndarray:
        """The checkpointed ``W_g`` as a flat float32 vector."""
        with np.load(self.global_path) as archive:
            return archive["W_g"].astype(np.float32, copy=True)


def latest_checkpoint(directory: PathLike) -> Optional[CheckpointInfo]:
    """Newest *complete* checkpoint under ``directory``, or ``None``.

    Only generations whose manifest exists and parses are candidates —
    an interrupted checkpoint (no manifest yet) is invisible, which is
    exactly the crash-safety contract.
    """
    root = Path(directory)
    if not root.is_dir():
        return None
    best: Optional[CheckpointInfo] = None
    for seq_dir in sorted(root.glob("seq-*")):
        manifest = seq_dir / MANIFEST_NAME
        try:
            body = json.loads(manifest.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if body.get("format") != CHECKPOINT_FORMAT:
            continue
        info = CheckpointInfo(
            directory=seq_dir,
            seq=int(body["seq"]),
            iteration=int(body["iteration"]),
            num_workers=int(body["num_workers"]),
            metadata=dict(body.get("metadata", {})),
            barrier_ok=bool(body.get("barrier_ok", True)),
        )
        if best is None or info.seq > best.seq:
            best = info
    return best


def inspect_checkpoint(directory: PathLike) -> Dict[str, Any]:
    """Human-oriented summary of a checkpoint directory (CLI helper)."""
    root = Path(directory)
    generations: List[Dict[str, Any]] = []
    for seq_dir in sorted(root.glob("seq-*")):
        manifest = seq_dir / MANIFEST_NAME
        entry: Dict[str, Any] = {"path": str(seq_dir)}
        try:
            body = json.loads(manifest.read_text())
            entry.update(
                seq=body.get("seq"),
                iteration=body.get("iteration"),
                num_workers=body.get("num_workers"),
                barrier_ok=body.get("barrier_ok", True),
                complete=True,
            )
        except (OSError, json.JSONDecodeError):
            entry["complete"] = False
        entry["rank_states"] = sorted(
            p.name for p in seq_dir.glob("rank*.state.npz")
        )
        entry["has_global"] = (seq_dir / GLOBAL_NAME).exists()
        generations.append(entry)
    latest = latest_checkpoint(root)
    return {
        "directory": str(root),
        "generations": generations,
        "latest": None if latest is None else {
            "seq": latest.seq,
            "iteration": latest.iteration,
            "num_workers": latest.num_workers,
            "metadata": latest.metadata,
        },
    }


class CheckpointCoordinator:
    """One rank's participation in coordinated checkpointing.

    Every rank holds its own coordinator over a shared directory.  At
    each boundary (``iteration % every == 0``) the rank saves its solver
    state; the master additionally waits for the fleet barrier, reads
    ``W_g`` and seals the generation with the manifest.

    Args:
        directory: Shared checkpoint root (created if missing).
        every: Boundary interval in iterations; ``<= 0`` disables.
        rank: This worker's rank (rank 0 seals generations).
        num_workers: Fleet size recorded in (and checked against)
            manifests.
        global_weights: The master's ``W_g`` view; required on rank 0.
        termination: The rank's stop coordinator, reused as the barrier
            (master only needs it, but passing it everywhere is fine).
        metadata: Arbitrary JSON-serialisable job description stored in
            each manifest so ``repro checkpoint resume`` can rebuild the
            run without the original command line.
    """

    def __init__(
        self,
        directory: PathLike,
        every: int,
        rank: int,
        num_workers: int,
        global_weights: Optional[RemoteArray] = None,
        termination: Optional[TerminationCoordinator] = None,
        metadata: Optional[Dict[str, Any]] = None,
        telemetry: Optional[TelemetrySession] = None,
    ) -> None:
        if rank == 0 and every > 0 and global_weights is None:
            raise ValueError(
                "rank 0 needs the W_g RemoteArray to seal checkpoints"
            )
        self.directory = Path(directory)
        self.every = every
        self.rank = rank
        self.num_workers = num_workers
        self.global_weights = global_weights
        self.termination = termination
        self.metadata = dict(metadata or {})
        self._registry = _resolve_telemetry(telemetry).registry
        self.saved: List[int] = []

    # -- engine hook -------------------------------------------------------

    def maybe_checkpoint(
        self, iteration: int, engine: "TrainingEngine"
    ) -> bool:
        """Called by the engine after each iteration, *before* progress is
        published — the ordering that makes the control-segment barrier a
        durability barrier.  Returns True when a boundary was saved."""
        if self.every <= 0 or iteration % self.every != 0:
            return False
        self.save_rank_state(iteration, engine)
        if self.rank == 0:
            # The master publishes its boundary progress eagerly (its
            # state file is already durable), then waits for the rest of
            # the live fleet before sealing.
            if self.termination is not None:
                self.termination.publish(iteration)
            self.seal(iteration)
        return True

    # -- pieces ------------------------------------------------------------

    def save_rank_state(
        self, iteration: int, engine: "TrainingEngine"
    ) -> Path:
        """Atomically write this rank's solver state for a boundary."""
        seq_dir = self.directory / SEQ_PATTERN.format(seq=self._seq(iteration))
        seq_dir.mkdir(parents=True, exist_ok=True)
        path = seq_dir / RANK_STATE_PATTERN.format(rank=self.rank)
        # Write through the open handle (np.savez would append .npz to a
        # bare path).  The dataset cursor equals completed iterations:
        # the engine consumes exactly one minibatch per train_step.
        with atomic_replace(path) as handle:
            save_solver_state(engine.solver, handle, cursor=iteration)
        self.saved.append(iteration)
        self._registry.inc(f"worker{self.rank}/checkpoints")
        return path

    def seal(self, iteration: int) -> Path:
        """Master-side: barrier, read ``W_g``, write global + manifest."""
        assert self.global_weights is not None
        barrier_ok = True
        if self.termination is not None and self.num_workers > 1:
            barrier_ok = self.termination.wait_for_fleet(
                iteration, timeout=BARRIER_TIMEOUT
            )
            if not barrier_ok:
                logger.warning(
                    "checkpoint barrier at iteration %d did not converge "
                    "within %.1fs; sealing best-effort",
                    iteration, BARRIER_TIMEOUT,
                )
        seq = self._seq(iteration)
        seq_dir = self.directory / SEQ_PATTERN.format(seq=seq)
        seq_dir.mkdir(parents=True, exist_ok=True)
        with atomic_replace(seq_dir / GLOBAL_NAME) as handle:
            np.savez(handle, W_g=self.global_weights.read())
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "seq": seq,
            "iteration": iteration,
            "every": self.every,
            "num_workers": self.num_workers,
            "barrier_ok": barrier_ok,
            "rank_states": sorted(
                p.name for p in seq_dir.glob("rank*.state.npz")
            ),
            "metadata": self.metadata,
        }
        with atomic_replace(seq_dir / MANIFEST_NAME) as handle:
            handle.write(json.dumps(manifest, indent=2).encode())
        self._registry.inc("run/checkpoints")
        self._registry.set("run/checkpoints/last_iteration", iteration)
        logger.info("sealed checkpoint seq %d at iteration %d", seq, iteration)
        return seq_dir

    def _seq(self, iteration: int) -> int:
        return iteration // self.every if self.every > 0 else 0
