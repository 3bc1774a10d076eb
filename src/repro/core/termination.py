"""Termination alignment across asynchronous workers (paper Sec. III-E).

Asynchronous workers drift apart in wall-clock progress; without
coordination the fast ones idle on their GPUs waiting for the stragglers.
ShmCaffe avoids a master-side coordinator thread by sharing per-worker
progress counters through an SMB control segment and letting every worker
apply one of three predefined stop criteria locally.

Fault tolerance: when a worker's SMB path dies for good, its launcher
marks its control-block slot dead on its behalf, over a clean client
(see :class:`~repro.smb.client.ControlBlock` and
``DistributedTrainingManager._participant``).  Survivors *rescale* their
criteria over the live fleet — ``AVERAGE_ITERATIONS`` averages only live
counters, and under ``MASTER_STOP`` a dead master is replaced by
first-finisher semantics — so worker loss ends the job rather than
hanging it.  Every ``2 x target`` backstop stays as the last resort.
"""

from __future__ import annotations

from time import monotonic, sleep
from typing import Optional

from ..smb.client import ControlBlock, ControlView
from .config import TerminationCriterion

#: Stop-flag codes written into the control block.
STOP_MASTER_DONE = 1
STOP_FIRST_FINISHER = 2

#: Seconds between :meth:`TerminationCoordinator.wait_for_fleet` reads of
#: the control block.
FLEET_POLL = 0.05


class TerminationCoordinator:
    """One worker's view of the shared stop protocol.

    A decision — one :meth:`should_stop`, one :meth:`wait_for_fleet` poll
    — reads the control block at most once, through
    :meth:`~repro.smb.client.ControlBlock.view`.  The coordinator keeps
    the last view it took, and :meth:`live_count` answers from it, so an
    elastic worker's ``alpha = beta / p`` rescale costs no READ of its
    own once the first decision is made.

    Args:
        control: The shared SMB control block.
        rank: This worker's control-block slot (the launch path assigns
            slot == rank; elastic joiners use whatever slot they claimed).
        criterion: Which Sec. III-E rule is active.
        target_iterations: The per-worker iteration budget; under
            ``AVERAGE_ITERATIONS`` it is the target for the *mean* progress
            of all workers instead.
        generation: This worker's slot generation, as its
            :meth:`~repro.smb.client.ControlBlock.claim` returned it.
            Every publish is stamped with it, so a worker whose slot was
            released, marked dead or reclaimed writes words that count
            for nothing.
    """

    def __init__(
        self,
        control: ControlBlock,
        rank: int,
        criterion: TerminationCriterion,
        target_iterations: int,
        generation: int,
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
        #: The last view read: a decision's, or :meth:`live_count`'s
        #: before the first decision.
        self._last_view: Optional[ControlView] = None

    def _view(self) -> ControlView:
        """One READ of the control block, kept for :meth:`live_count`."""
        self._last_view = self.control.view()
        return self._last_view

    def live_count(self) -> int:
        """Live slots in the last decision's view: the elastic exchange's
        ``p``.  Before the first decision it takes a view of its own."""
        view = self._last_view if self._last_view is not None else self._view()
        return int(view.alive.sum())

    def publish(self, completed_iterations: int) -> None:
        """Report this worker's completed iteration count to everyone."""
        self.control.publish_progress(
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
            progress, alive, stop = self._view()
            if not alive.any():
                return False
            if int(progress[alive].min()) >= minimum:
                return True
            if stop != ControlBlock.STOP_CLEAR or monotonic() >= deadline:
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
            _, alive, stop = self._view()
            if stop != ControlBlock.STOP_CLEAR:
                return True
            # Degraded mode: if the master died its stop flag will never
            # come, so survivors fall back to first-finisher semantics.
            if not bool(alive[0]) and (
                completed_iterations >= self.target_iterations
            ):
                self.control.signal_stop(STOP_FIRST_FINISHER)
                return True
            return False

        if self.criterion is TerminationCriterion.FIRST_FINISHER:
            if completed_iterations >= self.target_iterations:
                self.control.signal_stop(STOP_FIRST_FINISHER)
                return True
            return self._view().stop != ControlBlock.STOP_CLEAR

        # AVERAGE_ITERATIONS: stop once the fleet's mean progress reaches
        # the target; each worker evaluates this locally from the shared
        # counters, so they all stop within one iteration of each other.
        # Dead workers are excluded from the mean — the surviving fleet's
        # average is what must reach the target (degraded-mode rescale).
        progress, alive, _ = self._view()
        if not alive.any():
            return completed_iterations >= self.target_iterations
        return float(progress[alive].mean()) >= self.target_iterations
