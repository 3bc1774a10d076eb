"""Snapshot and restore: Caffe's ``.caffemodel`` / ``.solverstate`` pair.

Caffe periodically writes the learned weights and, separately, the solver
state (iteration counter + momentum history) so training can resume
bit-exactly.  This module provides both in NumPy's ``.npz`` container:

* :func:`save_net` / :func:`load_net` — parameter blobs by name (the
  ``.caffemodel``).  Loading is name-checked, so restoring into a net
  built from a different spec fails loudly.
* :func:`save_solver_state` / :func:`load_solver_state` — iteration,
  momentum history, the net's RNG state (dropout masks) and the dataset
  cursor (the ``.solverstate``); weights are saved alongside so one file
  resumes everything *deterministically*, not just momentum/iteration-
  continuously.

All restores are dtype-checked: a blob saved as float64 cannot silently
narrow into a float32 net (or vice versa) — that would resume training
from subtly different weights and break bit-exact recovery guarantees.
"""

from __future__ import annotations

import json
import os
from typing import IO, Dict, Optional, Union

import numpy as np

from .net import Net
from .solver import SGDSolver

PathLike = Union[str, os.PathLike]
#: Snapshot sinks/sources: a filesystem path or an open binary file
#: object (callers doing atomic tmp-write-then-rename pass the handle).
FileOrPath = Union[PathLike, IO[bytes]]


class SnapshotError(Exception):
    """A snapshot did not match the net/solver it was restored into."""


def _check_dtype(name: str, stored: np.dtype, expected: np.dtype) -> None:
    if stored != expected:
        raise SnapshotError(
            f"{name}: snapshot dtype {stored} != expected {expected} "
            "(refusing to cast silently)"
        )


def _param_items(net: Net) -> Dict[str, np.ndarray]:
    items: Dict[str, np.ndarray] = {}
    for blob in net.params:
        if blob.name in items:
            raise SnapshotError(f"duplicate parameter name {blob.name!r}")
        items[blob.name] = blob.data
    return items


def save_net(net: Net, path: PathLike) -> None:
    """Write every parameter blob (weights + BN statistics) to ``path``."""
    np.savez(path, **_param_items(net))


def load_net(net: Net, path: PathLike) -> None:
    """Restore parameters saved by :func:`save_net` into ``net``.

    Raises:
        SnapshotError: On missing/extra/mis-shaped parameters.
    """
    with np.load(path) as archive:
        saved = set(archive.files)
        expected = {blob.name for blob in net.params}
        if saved != expected:
            missing = sorted(expected - saved)
            extra = sorted(saved - expected)
            raise SnapshotError(
                f"parameter mismatch: missing {missing}, unexpected {extra}"
            )
        for blob in net.params:
            stored = archive[blob.name]
            if stored.shape != blob.shape:
                raise SnapshotError(
                    f"{blob.name}: snapshot shape {stored.shape} != "
                    f"blob shape {blob.shape}"
                )
            _check_dtype(blob.name, stored.dtype, blob.data.dtype)
            blob.data[...] = stored


def save_solver_state(
    solver: SGDSolver, path: FileOrPath, cursor: Optional[int] = None
) -> None:
    """Write weights + iteration + momentum + RNG state to ``path``.

    Args:
        solver: Solver whose net/iteration/history are captured.
        cursor: Optional dataset cursor — how many minibatches the data
            pipeline has consumed — so a resumed leg fast-forwards its
            (deterministic, seeded) batch stream to the exact position
            instead of replaying data from the start.
    """
    payload = _param_items(solver.net)
    payload["__iteration__"] = np.asarray([solver.iteration], dtype=np.int64)
    for index, history in enumerate(solver.history):
        payload[f"__history__{index}"] = history
    rng = getattr(solver.net, "_rng", None)
    if rng is not None:
        payload["__rng_state__"] = np.frombuffer(
            json.dumps(rng.bit_generator.state).encode(), dtype=np.uint8
        ).copy()
    if cursor is not None:
        payload["__cursor__"] = np.asarray([cursor], dtype=np.int64)
    np.savez(path, **payload)


def load_solver_state(solver: SGDSolver, path: FileOrPath) -> Optional[int]:
    """Resume a solver from :func:`save_solver_state` output.

    Restores weights, the iteration counter (and hence the LR schedule
    position), the momentum history and — when present in the snapshot —
    the net's RNG state (so dropout masks continue the saved stream), and
    returns the dataset cursor so the caller can fast-forward its batch
    pipeline.  With all four restored, continued training is bit-identical
    to an uninterrupted run.

    Returns:
        The saved dataset cursor, or ``None`` for snapshots without one.
    """
    with np.load(path) as archive:
        if "__iteration__" not in archive.files:
            raise SnapshotError("not a solver-state snapshot (weights only?)")
        for blob in solver.net.params:
            if blob.name not in archive.files:
                raise SnapshotError(f"snapshot lacks parameter {blob.name!r}")
            stored = archive[blob.name]
            if stored.shape != blob.shape:
                raise SnapshotError(
                    f"{blob.name}: snapshot shape {stored.shape} != "
                    f"blob shape {blob.shape}"
                )
            _check_dtype(blob.name, stored.dtype, blob.data.dtype)
            blob.data[...] = stored
        solver.iteration = int(archive["__iteration__"][0])
        for index, history in enumerate(solver.history):
            key = f"__history__{index}"
            if key not in archive.files:
                raise SnapshotError(f"snapshot lacks momentum slot {index}")
            stored = archive[key]
            if stored.shape != history.shape:
                raise SnapshotError(
                    f"momentum slot {index}: shape {stored.shape} != "
                    f"{history.shape}"
                )
            _check_dtype(f"momentum slot {index}", stored.dtype,
                         history.dtype)
            history[...] = stored
        if "__rng_state__" in archive.files:
            rng = getattr(solver.net, "_rng", None)
            if rng is not None:
                rng.bit_generator.state = json.loads(
                    bytes(archive["__rng_state__"]).decode()
                )
        if "__cursor__" in archive.files:
            return int(archive["__cursor__"][0])
    return None
