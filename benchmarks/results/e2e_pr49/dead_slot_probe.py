"""Does a lost worker's dead-slot mark land?  (No: it rides the dead transport.)

Runs the tier-1 seeded job three ways with rank 2 (or the master, rank 0)
killed by a ``FaultPlan`` and spies on ``TerminationCoordinator.mark_failed``:
prints each rank's completed iterations, the failed ranks and what the
mark raised.  Run from the repository root:

    PYTHONPATH=src:. python benchmarks/results/e2e_pr49/dead_slot_probe.py
"""

from repro.core import TerminationCriterion
from repro.core.termination import TerminationCoordinator
from repro.smb.faults import FaultPlan
from tests.test_engine_equivalence import TestEngineDegradation, run_job

seen = []
original = TerminationCoordinator.mark_failed


def spy(self, completed):
    try:
        original(self, completed)
        seen.append(("ok", self.rank))
    except Exception as exc:
        seen.append((type(exc).__name__, self.rank))
        raise


TerminationCoordinator.mark_failed = spy
AVERAGE = TerminationCriterion.AVERAGE_ITERATIONS
for group_size, criterion, workers, target, killed in (
    (1, AVERAGE, 4, 8, 2),
    (2, AVERAGE, 4, 8, 2),
    (1, TerminationCriterion.MASTER_STOP, 3, 5, 0),
):
    seen.clear()
    result = run_job(
        num_workers=workers, group_size=group_size, iterations=target,
        criterion=criterion, retry_policy=TestEngineDegradation.FAST_RETRY,
        fault_plan=FaultPlan(kill_rank=killed, kill_after=12),
    )
    print(group_size, criterion.name, target,
          [h.completed_iterations for h in result.histories],
          result.failed_ranks, seen)
