"""How many times does each rank READ the control block per run?

Runs the tier-1 seeded job (two workers, target 16, overlap off) under
each Sec. III-E criterion and counts every ``RemoteArray.read`` of the
control block a rank's ``TerminationCoordinator`` holds.  Prints each
rank's completed iterations beside its READs.  The worker threads race,
so the iteration counts vary from run to run; the READs per iteration do
not.  Run from the repository root:

    PYTHONPATH=src:. python benchmarks/results/e2e_pr53/control_reads.py
"""

import collections

from repro.core import termination
from repro.core.config import TerminationCriterion
from repro.smb.client import RemoteArray
from tests.test_engine_equivalence import run_job

reads = collections.Counter()
ranks = {}
coordinator_init = termination.TerminationCoordinator.__init__
array_read = RemoteArray.read


def traced_init(self, control, rank, *args, **kwargs):
    ranks[id(control._array)] = rank
    coordinator_init(self, control, rank, *args, **kwargs)


def counted_read(self, *args, **kwargs):
    if id(self) in ranks:
        reads[ranks[id(self)]] += 1
    return array_read(self, *args, **kwargs)


termination.TerminationCoordinator.__init__ = traced_init
RemoteArray.read = counted_read
for criterion in TerminationCriterion:
    reads.clear()
    ranks.clear()
    result = run_job(
        num_workers=2, iterations=16, overlap=False, criterion=criterion
    )
    print(
        criterion.name,
        "iterations", [h.completed_iterations for h in result.histories],
        "control-block READs", [reads[rank] for rank in range(2)],
    )
