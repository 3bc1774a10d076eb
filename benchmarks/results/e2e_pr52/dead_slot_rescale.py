"""Do survivors rescale once a lost worker's slot is marked dead?

Runs the tier-1 seeded job with one rank killed by a ``FaultPlan`` in the
three scenarios of ``benchmarks/results/e2e_pr49/dead_slot_probe.py``
(kill after 12 requests), then the dead master killed at the eighth
request, iteration 0's READ of ``W_g``, which every schedule sends.
Prints each rank's completed iterations and the failed ranks.  Run from
the repository root:

    PYTHONPATH=src:. python benchmarks/results/e2e_pr52/dead_slot_rescale.py
"""

from repro.core import TerminationCriterion
from repro.smb.faults import FaultPlan
from tests.test_engine_equivalence import TestEngineDegradation, run_job

AVERAGE = TerminationCriterion.AVERAGE_ITERATIONS
MASTER_STOP = TerminationCriterion.MASTER_STOP
for group_size, criterion, workers, target, killed, kill_after in (
    (1, AVERAGE, 4, 8, 2, 12),
    (2, AVERAGE, 4, 8, 2, 12),
    (1, MASTER_STOP, 3, 5, 0, 12),
    (1, MASTER_STOP, 3, 5, 0, 7),
):
    result = run_job(
        num_workers=workers, group_size=group_size, iterations=target,
        criterion=criterion, retry_policy=TestEngineDegradation.FAST_RETRY,
        fault_plan=FaultPlan(kill_rank=killed, kill_after=kill_after),
    )
    print(group_size, criterion.name, target, kill_after,
          [h.completed_iterations for h in result.histories],
          result.failed_ranks)
