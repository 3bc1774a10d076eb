"""sha256[:16] of ``final_global_weights`` for the seeded fixed-fleet
runs of ``tests/test_engine_equivalence.py`` ``run_job``.

``*_sync`` and ``smb_asgd`` run with overlap off; ``*_inline`` run the
update thread's work inline (``OverlapDriver.submit`` calls the thunk),
as the stale-read golden test does.  Two trees that compute the same
bits print the same lines.  Run from the repository root:

    PYTHONPATH=src:. python benchmarks/results/e2e_pr53/final_weights.py
"""

import hashlib

import numpy as np

from repro.core import OverlapDriver
from tests.test_engine_equivalence import run_job


def digest(result):
    weights = np.ascontiguousarray(result.final_global_weights, dtype=np.float32)
    return hashlib.sha256(weights.tobytes()).hexdigest()[:16]


print("a_sync", digest(run_job(overlap=False)))
print("hybrid_sync", digest(
    run_job(num_workers=2, group_size=2, iterations=5, overlap=False)
))
print("smb_asgd", digest(run_job(overlap=False, algorithm="smb_asgd")))
OverlapDriver.submit = lambda self, thunk: thunk()
print("stale_inline", digest(run_job(stale=True)))
print("a_overlap_inline", digest(run_job(overlap=True)))
print("hybrid_overlap_inline", digest(
    run_job(num_workers=2, group_size=2, iterations=5, overlap=True)
))
