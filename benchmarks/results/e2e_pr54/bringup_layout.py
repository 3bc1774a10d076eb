"""The control block's words once a fixed fleet is up.

Runs three seeded fixed-fleet jobs (SEASGD with three workers, the same
with a membership registry, HSGD with two groups of two), holds every
launch rank at the launch barrier, and prints the control segment's raw
int64 words (progress words, generation counters, stop flag) as the
master reads them there, before anyone trains.  Two trees that bring a
fleet up the same way print the same lines.  Run from the repository
root:

    PYTHONPATH=src:. python benchmarks/results/e2e_pr54/bringup_layout.py
"""

import tempfile

from repro.caffe import SolverConfig
from repro.core import DistributedTrainingManager, ShmCaffeConfig
from repro.core import trainer
from repro.smb import SMBClient, SMBServer
from tests.test_engine_equivalence import golden_dataset
from tests.test_netspec import small_spec

barrier = trainer.mpi.barrier
words = []


def held_barrier(comm):
    """The launch barrier, then the master's read, then a second one."""
    barrier(comm)
    if comm.is_master:
        with SMBClient.in_process(SERVER) as client:
            shm_key, nbytes = client.lookup("control")
            block = client.attach_array(
                "control", shm_key, nbytes // 8, dtype="int64"
            )
            words.append([hex(int(w)) for w in block.read()])
    barrier(comm)


trainer.mpi.barrier = held_barrier
for label, workers, group_size, registry in (
    ("seasgd_3", 3, 1, False),
    ("seasgd_3_registry", 3, 1, True),
    ("hsgd_2x2", 4, 2, False),
):
    SERVER = SMBServer(capacity=1 << 24)
    words.clear()
    with tempfile.TemporaryDirectory() as tmp:
        DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=ShmCaffeConfig(
                solver=SolverConfig(base_lr=0.05, momentum=0.9),
                max_iterations=3, overlap_updates=False,
            ),
            dataset=golden_dataset(),
            batch_size=4,
            num_workers=workers,
            group_size=group_size,
            server=SERVER,
            seed=3,
            registry_dir=f"{tmp}/registry" if registry else None,
        ).run(timeout=120)
    print(label, *words)
