"""Elastic-membership drill: grow, drain and reclaim a live fleet.

The fault drills in :mod:`repro.experiments.recovery` exercise workers
*losing* things (their server, their process); this drill exercises the
membership layer (:mod:`repro.smb.membership`) changing the fleet on
purpose while a run is in flight:

1. a 2-worker SEASGD job starts with ``AVERAGE_ITERATIONS`` termination
   and an elastic control block sized to ``max_workers`` slots;
2. once the launch fleet has demonstrably progressed (``join_at``
   registry heartbeats), a third worker joins **through the registry** —
   job discovery, slot claim, warm start from ``W_g``;
3. once the joiner has progressed (``retire_after`` heartbeats), it is
   asked to retire; it drains out after a full iteration, releases its
   slot back to FREE and leaves the registry;
4. a fourth worker then joins and must **reclaim the retired slot** at a
   higher generation — the churn signature the control block's
   generation stamps exist to make detectable;
5. the run completes with every member (launch + joiners) folded into
   the rescaled AVERAGE termination decision.

Everything but thread timing derives from ``seed``; the assertions are
structural (who held which slot at which generation, who retired, did
the fleet terminate) and hold under any interleaving.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, sleep
from typing import Any, Dict, List, Optional, Union

from ..caffe import SolverConfig, SyntheticImageDataset
from ..core import (
    DistributedTrainingManager,
    ElasticWorkerHandle,
    ShmCaffeConfig,
    TerminationCriterion,
    TrainingResult,
)
from ..telemetry import TelemetrySession
from ..telemetry import session as telemetry_session
from .recovery import drill_spec

PathLike = Union[str, Path]


@dataclass
class ElasticDrillReport:
    """What :func:`run_elastic_drill` observed."""

    result: TrainingResult
    #: The mid-run joiner (spawned at ``join_at``, later retired).
    joiner: Optional[ElasticWorkerHandle]
    #: The post-retire joiner that should reclaim the freed slot.
    replacement: Optional[ElasticWorkerHandle]
    #: Final membership epoch (counts every join/leave/expiry).
    final_epoch: int
    #: ``smb/membership/*`` counter values at the end of the run.
    membership_counters: Dict[str, int] = field(default_factory=dict)
    registry_dir: str = ""
    #: Driver-phase notes for the CLI report (what fired, in order).
    events: List[str] = field(default_factory=list)

    @property
    def joiner_retired(self) -> bool:
        """Did the mid-run joiner drain out via the retire path?"""
        return bool(
            self.joiner is not None
            and self.joiner.history is not None
            and self.joiner.history.retired
        )

    @property
    def slot_reclaimed(self) -> bool:
        """Did the replacement take the retired slot at a newer generation?"""
        return bool(
            self.joiner is not None
            and self.replacement is not None
            and self.replacement.slot == self.joiner.slot
            and self.replacement.generation is not None
            and self.joiner.generation is not None
            and self.replacement.generation > self.joiner.generation
        )

    @property
    def completed(self) -> bool:
        """Launch fleet finished, joiner retired, and its slot reclaimed."""
        return (
            not self.result.failed_ranks
            and self.joiner is not None
            and self.joiner.error is None
            and self.joiner_retired
            and self.replacement is not None
            and self.replacement.error is None
            and self.slot_reclaimed
        )


def run_elastic_drill(
    workdir: PathLike,
    *,
    num_workers: int = 2,
    max_workers: int = 4,
    iterations: int = 60,
    join_at: int = 5,
    retire_after: int = 3,
    seed: int = 0,
    batch_size: int = 4,
    timeout: float = 300.0,
    telemetry: Optional[TelemetrySession] = None,
) -> ElasticDrillReport:
    """Join a worker mid-run, retire one, reclaim its slot; see module doc.

    The drill is driven off **registry heartbeats** (one per member
    iteration), so each phase provably starts only after the previous
    fleet shape has trained: the joiner enters a moving run, the retire
    lands on a progressing member, the replacement reclaims a genuinely
    freed slot.
    """
    if join_at < 1 or retire_after < 1:
        raise ValueError("join_at and retire_after must be >= 1")
    workdir = Path(workdir)
    registry_dir = workdir / "registry"
    config = ShmCaffeConfig(
        solver=SolverConfig(base_lr=0.05, momentum=0.9),
        moving_rate=0.2,
        update_interval=2,
        max_iterations=iterations,
        termination=TerminationCriterion.AVERAGE_ITERATIONS,
    )
    dataset = SyntheticImageDataset(
        num_classes=4, image_size=8, train_per_class=40, test_per_class=8,
        noise=0.7, seed=seed,
    )
    if telemetry is not None:
        session_ctx: Any = contextlib.nullcontext(telemetry)
    else:
        session_ctx = telemetry_session("metrics")
    events: List[str] = []
    out: Dict[str, ElasticWorkerHandle] = {}
    with session_ctx as tel:
        manager = DistributedTrainingManager(
            spec_factory=lambda: drill_spec(batch_size),
            config=config,
            dataset=dataset,
            batch_size=batch_size,
            num_workers=num_workers,
            seed=seed,
            telemetry=tel,
            registry_dir=str(registry_dir),
            elastic=True,
            max_workers=max_workers,
        )
        registry = manager.registry
        assert registry is not None

        def _beats(member_id: str) -> Optional[int]:
            record = registry.read().members.get(member_id)
            return None if record is None else record.heartbeats

        def _wait_beats(
            member_id: str,
            target: int,
            deadline: float,
            handle: Optional[ElasticWorkerHandle] = None,
        ) -> bool:
            """True once the member has ``target`` heartbeats.

            False when it finished (left the registry / its thread
            returned) before getting there — the run ended under the
            driver.  A spawned member that has not *joined yet* is
            waited for, not treated as gone.
            """
            while monotonic() < deadline:
                beats = _beats(member_id)
                if beats is not None and beats >= target:
                    return True
                if handle is not None:
                    if handle.join(0.0):
                        return False
                elif beats is None:
                    # A launch member is registered before run() opens
                    # the spawn gate; absence means it already left.
                    return False
                sleep(0.005)
            return False

        def _drive() -> None:
            deadline = monotonic() + timeout
            # The spawn gate opens only after every launch member holds
            # its slot and registry record, so "rank0 absent" below can
            # only mean it already left.
            if not manager._job_ready.wait(timeout):
                events.append("job was never published")
                return
            if not _wait_beats("rank0", join_at, deadline):
                events.append("launch fleet finished before the join fired")
                return
            joiner = manager.spawn_worker(timeout=timeout)
            out["joiner"] = joiner
            events.append(
                f"{joiner.member_id} joined after rank0 reached "
                f"{join_at} heartbeat(s)"
            )
            if not _wait_beats(
                joiner.member_id, retire_after, deadline, handle=joiner
            ):
                events.append(
                    f"{joiner.member_id} finished before the retire fired"
                )
                return
            manager.retire_worker(joiner.member_id)
            events.append(
                f"retire requested for {joiner.member_id} after "
                f"{retire_after} heartbeat(s)"
            )
            if not joiner.join(max(deadline - monotonic(), 1.0)):
                events.append(f"{joiner.member_id} failed to drain in time")
                return
            events.append(
                f"{joiner.member_id} drained (slot {joiner.slot} freed)"
            )
            replacement = manager.spawn_worker(timeout=timeout)
            out["replacement"] = replacement
            events.append(f"{replacement.member_id} joined to reclaim")

        driver = threading.Thread(
            target=_drive, name="elastic-driver", daemon=True
        )
        driver.start()
        result = manager.run(timeout=timeout)
        driver.join(timeout=timeout)

        counters = {
            name: int(metric["value"])
            for name, metric in tel.registry.snapshot().items()
            if name.startswith(("smb/membership/", "autoscale/decisions/"))
            and "value" in metric
        }
        final_epoch = registry.read().epoch

    return ElasticDrillReport(
        result=result,
        joiner=out.get("joiner"),
        replacement=out.get("replacement"),
        final_epoch=final_epoch,
        membership_counters=counters,
        registry_dir=str(registry_dir),
        events=events,
    )
