"""How often does an elastic worker read the control block?

Runs the two-launch-rank elastic job of ``tests/test_membership.py``
(``elastic_manager``, room for four, AVERAGE target 20) three times and
counts, per rank, the calls of ``ControlBlock.view`` and the READs of
the control segment (``RemoteArray.read`` on it; a slot claim READs
without a view).  Prints each rank's completed iterations beside both.
The worker threads race, so the iteration counts vary from run to run;
the reads per iteration do not.  Run from the repository root:

    PYTHONPATH=src:. python benchmarks/results/e2e_pr54/control_reads.py
"""

import collections
import tempfile
import threading
from pathlib import Path

from repro.smb import SMBServer
from repro.smb.client import ControlBlock, RemoteArray
from tests.test_membership import elastic_manager

views = collections.Counter()
reads = collections.Counter()
view = ControlBlock.view
array_read = RemoteArray.read


def counted_view(self):
    views[threading.current_thread().name] += 1
    return view(self)


def counted_read(self, *args, **kwargs):
    if self.name.endswith("control"):
        reads[threading.current_thread().name] += 1
    return array_read(self, *args, **kwargs)


ControlBlock.view = counted_view
RemoteArray.read = counted_read
for run in range(3):
    views.clear()
    reads.clear()
    with tempfile.TemporaryDirectory() as tmp:
        manager = elastic_manager(Path(tmp), SMBServer(capacity=1 << 24), 20)
        result = manager.run(timeout=120)
    iterations = [h.completed_iterations for h in result.histories]
    ranks = sorted(views)
    print(
        "iterations", iterations,
        "view() calls", [views[r] for r in ranks],
        "control READs", [reads[r] for r in sorted(reads)],
        "threads", ranks,
    )
