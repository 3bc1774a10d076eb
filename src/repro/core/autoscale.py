"""Autoscaling for elastic fleets, driven by the eq.-(8) phase timers.

The paper's cost model (eq. (8)) splits an iteration into computation
(``comp``) and the SMB exchange terms (``wwi``, ``ugw``, ``rgw`` plus the
``block`` stall).  Those same phase histograms, already collected per
worker by :mod:`repro.telemetry`, double as an autoscaling signal:

* a **low** communication share means the SMB server has headroom — more
  workers would raise aggregate throughput, so the controller *grows* the
  fleet (up to ``max_workers``);
* a **high** communication share — or a deep server-side accumulate
  queue (the ``smb/server/queue/accumulate`` gauge, the paper's
  serialised T.A3 bottleneck) — means workers already spend their time
  contending for the exchange path, so the controller *retires* one.

Decisions are made over the **delta** of the phase sums since the last
controller step (a rolling window, not the run-to-date average), with a
warm-up guard and a cooldown between actions so one noisy window cannot
flap the fleet.

:class:`AutoscaleController` is pure decision logic (easy to unit-test);
:class:`AutoscaleSupervisor` is the thin polling thread that applies
decisions through the
:class:`~repro.core.trainer.DistributedTrainingManager`'s
``spawn_worker`` / ``retire_worker`` hooks.
"""

from __future__ import annotations

import logging
import re
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from ..telemetry import TelemetrySession
from ..telemetry.registry import Gauge, Histogram

logger = logging.getLogger(__name__)

#: Phases charged to communication in the comm/comp ratio: the SMB
#: exchange terms of eq. (8) plus the overlap stall.  ``ulw`` is the
#: local elastic update — replica-side compute, not server pressure.
COMM_PHASES = ("wwi", "ugw", "rgw", "block")

_PHASE_RE = re.compile(r"^worker\d+/phase/([a-z_]+)$")

GROW = "grow"
SHRINK = "shrink"
HOLD = "hold"


@dataclass(frozen=True)
class AutoscalePolicy:
    """Thresholds and bounds for one controller.

    Args:
        min_workers: Never retire below this live count.
        max_workers: Never grow above this live count (also the control
            block's slot capacity in elastic runs).
        low_comm_ratio: Grow while the fleet's comm share of an iteration
            stays under this.
        high_comm_ratio: Shrink once the comm share exceeds this.
        max_queue_depth: Shrink once the server's accumulate queue gauge
            exceeds this many pending requests.
        cooldown_steps: Controller steps to hold after any grow/shrink
            before acting again (lets the new fleet's telemetry settle).
    """

    min_workers: int = 1
    max_workers: int = 4
    low_comm_ratio: float = 0.25
    high_comm_ratio: float = 0.65
    max_queue_depth: float = 4.0
    cooldown_steps: int = 2

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers {self.max_workers} < min_workers "
                f"{self.min_workers}"
            )
        if not 0.0 <= self.low_comm_ratio < self.high_comm_ratio <= 1.0:
            raise ValueError(
                "need 0 <= low_comm_ratio < high_comm_ratio <= 1, got "
                f"{self.low_comm_ratio} / {self.high_comm_ratio}"
            )


@dataclass(frozen=True)
class FleetSignals:
    """One controller step's view of the live telemetry."""

    #: Comm share of (comm + comp) time over the window; ``None`` while
    #: the window holds no new phase samples (warm-up or idle fleet).
    comm_ratio: Optional[float]
    #: Instantaneous server-side accumulate queue depth.
    queue_depth: float
    #: Live worker count (the registry's unexpired member records).
    live: int


@dataclass(frozen=True)
class ScaleDecision:
    """What one controller step decided, and why."""

    action: str  # GROW | SHRINK | HOLD
    reason: str
    signals: FleetSignals


class AutoscaleController:
    """Pure decision logic: telemetry deltas in, one decision out.

    Args:
        policy: Bounds and thresholds.
        telemetry: Session whose registry holds the phase histograms and
            the server queue gauge (the run's shared session).
        live_source: Zero-argument live-worker count, e.g.
            :meth:`~repro.smb.membership.MembershipRegistry.live_count`
            (the unexpired member records; ``shmcaffe.train`` wires it).
    """

    def __init__(
        self,
        policy: AutoscalePolicy,
        telemetry: TelemetrySession,
        live_source: Callable[[], int],
    ) -> None:
        self.policy = policy
        self.telemetry = telemetry
        self.live_source = live_source
        self._last_comm = 0.0
        self._last_comp = 0.0
        self._cooldown = 0

    # -- signal extraction -------------------------------------------------

    def _phase_sums(self) -> "tuple[float, float]":
        """Current run-to-date (comm, comp) second totals, all workers."""
        comm = comp = 0.0
        registry = self.telemetry.registry
        for name in registry.names():
            match = _PHASE_RE.match(name)
            if not match:
                continue
            metric = registry.get(name)
            if not isinstance(metric, Histogram):
                continue
            phase = match.group(1)
            if phase == "comp":
                comp += metric.sum
            elif phase in COMM_PHASES:
                comm += metric.sum
        return comm, comp

    def signals(self) -> FleetSignals:
        """Read the window's signals and advance the window."""
        comm, comp = self._phase_sums()
        delta_comm = max(comm - self._last_comm, 0.0)
        delta_comp = max(comp - self._last_comp, 0.0)
        self._last_comm, self._last_comp = comm, comp
        total = delta_comm + delta_comp
        ratio = delta_comm / total if total > 0.0 else None
        queue = self.telemetry.registry.get("smb/server/queue/accumulate")
        depth = queue.value if isinstance(queue, Gauge) else 0.0
        return FleetSignals(
            comm_ratio=ratio,
            queue_depth=float(depth),
            live=int(self.live_source()),
        )

    # -- decision ----------------------------------------------------------

    def step(self) -> ScaleDecision:
        """Evaluate one control step; counts it in telemetry."""
        signals = self.signals()
        decision = self._decide(signals)
        if decision.action != HOLD:
            self._cooldown = self.policy.cooldown_steps
        self.telemetry.registry.inc(f"autoscale/decisions/{decision.action}")
        return decision

    def _decide(self, signals: FleetSignals) -> ScaleDecision:
        policy = self.policy
        if self._cooldown > 0:
            self._cooldown -= 1
            return ScaleDecision(
                HOLD, f"cooling down ({self._cooldown} step(s) left)",
                signals,
            )
        if signals.comm_ratio is None:
            return ScaleDecision(
                HOLD, "no new phase samples in the window", signals
            )
        if signals.live > policy.min_workers and (
            signals.queue_depth > policy.max_queue_depth
        ):
            return ScaleDecision(
                SHRINK,
                f"accumulate queue depth {signals.queue_depth:.0f} > "
                f"{policy.max_queue_depth:.0f}",
                signals,
            )
        if signals.live > policy.min_workers and (
            signals.comm_ratio > policy.high_comm_ratio
        ):
            return ScaleDecision(
                SHRINK,
                f"comm ratio {signals.comm_ratio:.2f} > "
                f"{policy.high_comm_ratio:.2f}",
                signals,
            )
        if signals.live < policy.max_workers and (
            signals.comm_ratio < policy.low_comm_ratio
        ):
            return ScaleDecision(
                GROW,
                f"comm ratio {signals.comm_ratio:.2f} < "
                f"{policy.low_comm_ratio:.2f}",
                signals,
            )
        return ScaleDecision(
            HOLD,
            f"comm ratio {signals.comm_ratio:.2f} within band",
            signals,
        )


class ElasticManager(Protocol):
    """The spawn/retire surface the supervisor drives."""

    def spawn_worker(self) -> object: ...

    def retire_worker(self, member_id: Optional[str] = None) -> bool: ...


class AutoscaleSupervisor:
    """Polling thread applying controller decisions to a live run.

    Grow spawns one elastic worker through the manager; shrink retires
    one (the manager picks its youngest elastic member).  Spawn failures
    at capacity are expected races and only logged.
    """

    def __init__(
        self,
        manager: ElasticManager,
        controller: AutoscaleController,
        interval: float = 0.5,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.manager = manager
        self.controller = controller
        self.interval = interval
        self.decisions: "list[ScaleDecision]" = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "AutoscaleSupervisor":
        self._thread = threading.Thread(
            target=self._loop, name="autoscale", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            decision = self.controller.step()
            self.decisions.append(decision)
            try:
                if decision.action == GROW:
                    self.manager.spawn_worker()
                elif decision.action == SHRINK:
                    self.manager.retire_worker()
            except Exception:  # noqa: BLE001 - supervisor must not die
                logger.exception(
                    "autoscale %s failed; holding", decision.action
                )
