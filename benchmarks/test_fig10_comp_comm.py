"""Fig. 10 bench: per-iteration computation/communication, four platforms."""

import pytest

from repro.experiments import fig10_comp_comm


def test_fig10_comp_comm(record):
    result = fig10_comp_comm.run()
    record("fig10_comp_comm", result)

    rows = {(row["platform"], row["gpus"]): row for row in result.rows}

    # ShmCaffe's communication beats every baseline at both scales.
    for gpus in (8, 16):
        shm = rows[("shmcaffe", gpus)]["comm_ms"]
        assert shm < rows[("caffe_mpi", gpus)]["comm_ms"]
        assert shm < rows[("caffe", gpus)]["comm_ms"]

    # Paper: ShmCaffe communication ~5.3x faster than Caffe-MPI at 16.
    ratio = (
        rows[("caffe_mpi", 16)]["comm_ms"] / rows[("shmcaffe", 16)]["comm_ms"]
    )
    assert ratio == pytest.approx(5.3, rel=0.35)

    # Computation time is platform-independent (same GPUs, same model).
    comps = {row["comp_ms"] for row in result.rows}
    assert max(comps) - min(comps) < 1.0
