"""Losing the parameter box: recovery drills and resumable synthetic jobs.

Two fault-tolerance layers protect a ShmCaffe run (see
``docs/fault_tolerance.md``):

* the SMB **journal** (:mod:`repro.smb.journal`) makes the parameter
  server itself durable — a killed server restarts from its snapshot +
  op journal and clients re-attach through the rendezvous file;
* **coordinated checkpoints** (:mod:`repro.core.checkpoint`) make the
  job durable — every rank's solver state plus ``W_g`` at a shared
  iteration boundary.

This module exercises them together and gives the CLI a job it can
rebuild from nothing but a checkpoint directory:

* :func:`job_metadata` / :func:`build_manager` — a synthetic SEASGD job
  described entirely by a JSON-serialisable dict, stored in every
  checkpoint manifest so ``repro checkpoint resume <dir>`` can continue
  a run without the original command line;
* :func:`run_server_loss_drill` — the seeded chaos drill: train against
  a journaled TCP server, ``kill -9`` the server mid-run, restart it
  from the journal on a fresh port, and verify every worker re-attaches
  within its grace window and the run completes.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, sleep
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from ..caffe import SolverConfig, SyntheticImageDataset
from ..caffe.data import Minibatch
from ..caffe.netspec import NetSpec
from ..core import (
    DistributedTrainingManager,
    ShmCaffeConfig,
    TerminationCriterion,
    TrainingResult,
    latest_checkpoint,
)
from ..smb import RetryPolicy, TcpSMBServer
from ..smb.journal import RENDEZVOUS_NAME
from ..telemetry import TelemetrySession
from ..telemetry import session as telemetry_session

PathLike = Union[str, Path]

#: Marker stored in checkpoint metadata so ``repro checkpoint resume``
#: knows the manifest describes a job this module can rebuild.
JOB_KIND = "synthetic-seasgd"


def drill_spec(batch_size: int) -> NetSpec:
    """The tiny conv net every recovery/chaos drill trains."""
    spec = NetSpec("recovery-drill")
    data = spec.input("data", (batch_size, 3, 8, 8))
    labels = spec.input("label", (batch_size,))
    top = spec.conv_relu("conv1", data, 6, kernel=3, pad=1)
    top = spec.pool("pool1", top, method="max", kernel=2, stride=2)
    top = spec.pool("gp", top, method="ave", global_pool=True)
    logits = spec.fc("fc", top, 4)
    spec.softmax_loss("loss", logits, labels)
    spec.accuracy("acc", logits, labels)
    return spec


#: Net specs a metadata-described job may name.  Keyed by the string
#: stored under ``metadata["spec"]``; each builder takes the batch size.
SPEC_BUILDERS: Dict[str, Callable[[int], NetSpec]] = {
    "drill-tiny": drill_spec,
}


def job_metadata(
    *,
    num_workers: int,
    max_iterations: int,
    checkpoint_every: int,
    batch_size: int = 4,
    seed: int = 0,
    spec: str = "drill-tiny",
    base_lr: float = 0.05,
    momentum: float = 0.9,
    moving_rate: float = 0.2,
    update_interval: int = 1,
    overlap_updates: bool = False,
    termination: TerminationCriterion = TerminationCriterion.MASTER_STOP,
    dataset: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A JSON-serialisable description of one synthetic SEASGD job.

    Stored verbatim in every checkpoint manifest; :func:`build_manager`
    turns it back into a :class:`DistributedTrainingManager`.
    """
    if spec not in SPEC_BUILDERS:
        raise ValueError(f"unknown spec {spec!r}; have {sorted(SPEC_BUILDERS)}")
    return {
        "job": JOB_KIND,
        "spec": spec,
        "num_workers": num_workers,
        "max_iterations": max_iterations,
        "checkpoint_every": checkpoint_every,
        "batch_size": batch_size,
        "seed": seed,
        "base_lr": base_lr,
        "momentum": momentum,
        "moving_rate": moving_rate,
        "update_interval": update_interval,
        "overlap_updates": overlap_updates,
        "termination": termination.value,
        "dataset": dict(dataset) if dataset is not None else {
            "num_classes": 4,
            "image_size": 8,
            "train_per_class": 40,
            "test_per_class": 8,
            "noise": 0.7,
            "seed": seed,
        },
    }


def build_manager(
    metadata: Dict[str, Any],
    *,
    resume: Optional[PathLike] = None,
    checkpoint_dir: Optional[PathLike] = None,
    max_iterations: Optional[int] = None,
    server_address: Optional[Tuple[str, int]] = None,
    rendezvous: Optional[str] = None,
    server_down_grace: float = 0.0,
    retry_policy: Optional[RetryPolicy] = None,
    telemetry: Optional[TelemetrySession] = None,
) -> DistributedTrainingManager:
    """Rebuild the job a :func:`job_metadata` dict describes.

    Args:
        metadata: The manifest metadata (must carry ``job == JOB_KIND``).
        resume: Checkpoint directory to continue from.
        checkpoint_dir: Where the rebuilt run keeps checkpointing (a
            resumed run defaults to its own ``resume`` directory so the
            next crash is covered too).
        max_iterations: Override the stored target, e.g. to extend a run.
        server_address / rendezvous / server_down_grace / retry_policy /
            telemetry: Forwarded to the manager unchanged.
    """
    kind = metadata.get("job")
    if kind != JOB_KIND:
        raise ValueError(
            f"checkpoint metadata describes job {kind!r}, not {JOB_KIND!r} "
            "— it was not taken by a run this tool knows how to rebuild"
        )
    spec_name = metadata["spec"]
    if spec_name not in SPEC_BUILDERS:
        raise ValueError(f"metadata names unknown net spec {spec_name!r}")
    batch_size = int(metadata["batch_size"])
    builder = SPEC_BUILDERS[spec_name]
    config = ShmCaffeConfig(
        solver=SolverConfig(
            base_lr=float(metadata["base_lr"]),
            momentum=float(metadata["momentum"]),
        ),
        moving_rate=float(metadata["moving_rate"]),
        update_interval=int(metadata["update_interval"]),
        max_iterations=(
            int(max_iterations) if max_iterations is not None
            else int(metadata["max_iterations"])
        ),
        termination=TerminationCriterion(metadata["termination"]),
        overlap_updates=bool(metadata["overlap_updates"]),
    )
    dataset = SyntheticImageDataset(**metadata["dataset"])
    if checkpoint_dir is None and resume is not None:
        checkpoint_dir = resume
    return DistributedTrainingManager(
        spec_factory=lambda: builder(batch_size),
        config=config,
        dataset=dataset,
        batch_size=batch_size,
        num_workers=int(metadata["num_workers"]),
        seed=int(metadata["seed"]),
        telemetry=telemetry,
        retry_policy=retry_policy,
        server_address=server_address,
        rendezvous=rendezvous,
        server_down_grace=server_down_grace,
        checkpoint_dir=(
            None if checkpoint_dir is None else str(checkpoint_dir)
        ),
        checkpoint_every=(
            int(metadata["checkpoint_every"]) if checkpoint_dir else 0
        ),
        checkpoint_metadata=metadata,
        resume=None if resume is None else str(resume),
    )


class _HeldDataset(SyntheticImageDataset):
    """A dataset that holds every rank at one minibatch until released.

    The server-loss drill holds the fleet at the first minibatch after
    the kill boundary until ``kill()`` has returned, so every rank's next
    control WRITE provably meets the dead server.
    """

    def __init__(
        self, hold_at: int, released: threading.Event, timeout: float,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.hold_at = hold_at
        self.released = released
        self.timeout = timeout

    def minibatches(
        self, batch_size: int, seed: int = 0, rank: int = 0,
        num_shards: int = 1, skip: int = 0,
    ) -> Iterator[Minibatch]:
        stream = super().minibatches(batch_size, seed, rank, num_shards, skip)
        for number, batch in enumerate(stream, start=skip + 1):
            if number == self.hold_at:
                self.released.wait(self.timeout)
            yield batch


@dataclass
class DrillReport:
    """What :func:`run_server_loss_drill` observed."""

    result: TrainingResult
    kill_iteration: int
    outage: float
    old_address: Tuple[str, int]
    new_address: Tuple[str, int]
    recovered_epoch: int
    reattachments: int
    recoveries: int
    journal_dir: str
    checkpoint_dir: str

    @property
    def completed(self) -> bool:
        """Did every worker survive the server loss and finish?"""
        return not self.result.failed_ranks


def run_server_loss_drill(
    workdir: PathLike,
    *,
    num_workers: int = 2,
    iterations: int = 8,
    checkpoint_every: int = 2,
    kill_at_iteration: int = 4,
    outage: float = 0.3,
    grace: float = 30.0,
    seed: int = 0,
    batch_size: int = 4,
    snapshot_interval: float = 30.0,
    timeout: float = 300.0,
    telemetry: Optional[TelemetrySession] = None,
) -> DrillReport:
    """Kill the parameter box mid-run, restart it from its journal.

    Sequence: a journaled :class:`TcpSMBServer` starts and the job
    trains against it over TCP with a rendezvous file and a
    ``server_down_grace`` window.  A watcher thread waits until the
    fleet has sealed a checkpoint at ``kill_at_iteration`` (so the kill
    provably lands mid-run, with durable state behind it), then
    ``kill()``-s the server — no clean-shutdown snapshot; recovery must
    come from the journal.  Every rank waits at minibatch
    ``kill_at_iteration + 1`` until ``kill()`` has returned, so each
    one's next control WRITE meets the dead server (the watcher's
    deadline releases the hold if no checkpoint is ever sealed).  After
    ``outage`` seconds a replacement
    server recovers from the same directory on a fresh ephemeral port
    and republishes the rendezvous file.  Workers re-attach
    transparently and the run completes.

    The drill is deterministic in everything but thread timing: data,
    weights and retry jitter all derive from ``seed``; only *where*
    within an iteration the kill lands varies, which is exactly the
    nondeterminism a real server loss has.
    """
    workdir = Path(workdir)
    journal_dir = workdir / "journal"
    checkpoint_dir = workdir / "checkpoints"
    metadata = job_metadata(
        num_workers=num_workers,
        max_iterations=iterations,
        checkpoint_every=checkpoint_every,
        batch_size=batch_size,
        seed=seed,
    )
    policy = RetryPolicy(
        max_attempts=8, base_backoff=0.05, max_backoff=0.5, seed=seed
    )
    if telemetry is not None:
        session_ctx: Any = contextlib.nullcontext(telemetry)
    else:
        session_ctx = telemetry_session("metrics")
    replacement: Dict[str, TcpSMBServer] = {}
    server: Optional[TcpSMBServer] = None
    killed = threading.Event()
    try:
        with session_ctx as tel:
            server = TcpSMBServer(
                port=0,
                journal_dir=journal_dir,
                snapshot_interval=snapshot_interval,
                telemetry=tel,
            ).start()
            old_address = server.address

            def _watch_and_kill() -> None:
                deadline = monotonic() + timeout
                while monotonic() < deadline:
                    info = latest_checkpoint(checkpoint_dir)
                    if info is not None and (
                        info.iteration >= kill_at_iteration
                    ):
                        break
                    sleep(0.02)
                server.kill()
                killed.set()
                sleep(outage)
                replacement["server"] = TcpSMBServer(
                    port=0, journal_dir=journal_dir,
                    snapshot_interval=snapshot_interval,
                    telemetry=tel,
                ).start()

            manager = build_manager(
                metadata,
                checkpoint_dir=checkpoint_dir,
                server_address=old_address,
                rendezvous=str(journal_dir / RENDEZVOUS_NAME),
                server_down_grace=grace,
                retry_policy=policy,
                telemetry=tel,
            )
            manager.dataset = _HeldDataset(
                kill_at_iteration + 1, killed, timeout, **metadata["dataset"]
            )
            watcher = threading.Thread(
                target=_watch_and_kill, name="drill-killer", daemon=True
            )
            watcher.start()
            result = manager.run(timeout=timeout)
            watcher.join(timeout=timeout)
            counters = tel.registry.snapshot()
    finally:
        new_server = replacement.get("server")
        if new_server is not None:
            new_server.stop()
        elif server is not None:
            # The run finished before the kill fired; clean up server 1.
            with contextlib.suppress(Exception):
                server.stop()

    def _counter(name: str) -> int:
        entry = counters.get(name)
        return int(entry["value"]) if entry else 0

    return DrillReport(
        result=result,
        kill_iteration=kill_at_iteration,
        outage=outage,
        old_address=old_address,
        new_address=(
            new_server.address if new_server is not None else old_address
        ),
        recovered_epoch=(
            new_server.core.epoch if new_server is not None else 0
        ),
        reattachments=_counter("smb/recovery/reattach"),
        recoveries=_counter("smb/recovery/recoveries"),
        journal_dir=str(journal_dir),
        checkpoint_dir=str(checkpoint_dir),
    )
