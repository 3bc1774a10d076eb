"""Termination alignment across asynchronous workers (paper Sec. III-E).

Asynchronous workers drift apart in wall-clock progress; without
coordination the fast ones idle on their GPUs waiting for the stragglers.
ShmCaffe avoids a master-side coordinator thread by sharing per-worker
progress counters through an SMB control segment and letting every worker
apply one of three predefined stop criteria locally.

Fault tolerance: a worker whose SMB path dies for good calls
:meth:`TerminationCoordinator.mark_failed`, which tries to flip its
control-block slot to the dead encoding (see
:class:`~repro.smb.client.ControlBlock`).  When the mark lands, survivors
*rescale* their criteria over the live fleet — ``AVERAGE_ITERATIONS``
averages only live counters, and under ``MASTER_STOP`` a dead master is
replaced by first-finisher semantics.  The mark is best effort: it goes
over the dying worker's own transport, and when that transport is what
died (every ``FaultPlan`` kill) it fails.  Survivors then see a live slot
whose count no longer moves: ``AVERAGE_ITERATIONS`` keeps the frozen
count in its mean, and ``MASTER_STOP`` survivors run to the ``2 x
target`` backstop.  Either way worker loss ends the job rather than
hanging it.
"""

from __future__ import annotations

from time import monotonic, sleep

from ..smb.client import ControlBlock
from .config import TerminationCriterion

#: Stop-flag codes written into the control block.
STOP_MASTER_DONE = 1
STOP_FIRST_FINISHER = 2

#: Seconds between :meth:`TerminationCoordinator.wait_for_fleet` reads of
#: the control block.
FLEET_POLL = 0.05


class TerminationCoordinator:
    """One worker's view of the shared stop protocol.

    Args:
        control: The shared SMB control block.
        rank: This worker's control-block slot (the launch path assigns
            slot == rank; elastic joiners use whatever slot they claimed).
        criterion: Which Sec. III-E rule is active.
        target_iterations: The per-worker iteration budget; under
            ``AVERAGE_ITERATIONS`` it is the target for the *mean* progress
            of all workers instead.
        generation: This worker's slot generation from its
            :meth:`~repro.smb.client.ControlBlock.claim`.  When set, every
            publish is generation-checked, so a worker whose slot was
            reclaimed (elastic churn) fails loudly instead of corrupting
            its successor's counter.  ``None`` keeps the unstamped
            fixed-fleet behaviour.
    """

    def __init__(
        self,
        control: ControlBlock,
        rank: int,
        criterion: TerminationCriterion,
        target_iterations: int,
        generation: "int | None" = None,
    ) -> None:
        if target_iterations < 1:
            raise ValueError(
                f"target_iterations must be >= 1, got {target_iterations}"
            )
        self.control = control
        self.rank = rank
        self.criterion = criterion
        self.target_iterations = target_iterations
        self.generation = generation
        self._is_master = rank == 0

    def publish(self, completed_iterations: int) -> None:
        """Report this worker's completed iteration count to everyone."""
        self.control.publish_progress(
            self.rank, completed_iterations, generation=self.generation
        )

    def mark_failed(self, completed_iterations: int) -> None:
        """Declare this worker dead after ``completed_iterations``.

        Survivors that observe the dead slot rescale; this worker must not
        publish again afterwards.  The write goes over this worker's own
        transport, so it raises when that transport is the one that died.
        """
        self.control.mark_dead(
            self.rank, completed_iterations, generation=self.generation
        )

    def wait_for_fleet(self, minimum: int, timeout: float) -> bool:
        """Block until every *live* worker's progress reaches ``minimum``.

        The coordinated-checkpoint barrier: the master waits here before
        reading ``W_g`` so every surviving rank has durably saved its own
        state for the boundary first.  Dead workers are excluded; a
        raised stop flag or an empty live fleet ends the wait early.

        Returns True when the fleet reached ``minimum``; False on
        timeout/stop (callers decide whether a best-effort checkpoint is
        still worth writing).
        """
        deadline = monotonic() + timeout
        while True:
            progress, alive = self.control.live_progress()
            if not alive.any():
                return False
            if int(progress[alive].min()) >= minimum:
                return True
            if self.control.stop_code() != ControlBlock.STOP_CLEAR:
                return False
            if monotonic() >= deadline:
                return False
            sleep(FLEET_POLL)

    def should_stop(self, completed_iterations: int) -> bool:
        """Evaluate the active criterion after an iteration.

        Every worker is also bounded by ``2 * target_iterations`` as a
        safety backstop so a lost stop flag cannot spin a worker forever.
        """
        if completed_iterations >= 2 * self.target_iterations:
            return True

        if self.criterion is TerminationCriterion.MASTER_STOP:
            if self._is_master:
                if completed_iterations >= self.target_iterations:
                    self.control.signal_stop(STOP_MASTER_DONE)
                    return True
                return False
            if self.control.stop_code() != ControlBlock.STOP_CLEAR:
                return True
            # Degraded mode: if the master died its stop flag will never
            # come, so survivors fall back to first-finisher semantics.
            _, alive = self.control.live_progress()
            if not bool(alive[0]):
                if completed_iterations >= self.target_iterations:
                    self.control.signal_stop(STOP_FIRST_FINISHER)
                    return True
            return False

        if self.criterion is TerminationCriterion.FIRST_FINISHER:
            if completed_iterations >= self.target_iterations:
                self.control.signal_stop(STOP_FIRST_FINISHER)
                return True
            return self.control.stop_code() != ControlBlock.STOP_CLEAR

        # AVERAGE_ITERATIONS: stop once the fleet's mean progress reaches
        # the target; each worker evaluates this locally from the shared
        # counters, so they all stop within one iteration of each other.
        # Dead workers are excluded from the mean — the surviving fleet's
        # average is what must reach the target (degraded-mode rescale).
        progress, alive = self.control.live_progress()
        if not alive.any():
            return completed_iterations >= self.target_iterations
        return float(progress[alive].mean()) >= self.target_iterations
