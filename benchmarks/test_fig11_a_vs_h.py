"""Fig. 11 bench: ShmCaffe-A vs ShmCaffe-H convergence as workers scale.

Real training.  The paper's shape to reproduce: asynchronous SEASGD
accuracy slips as the worker count grows while the hybrid variant stays
close to the single-GPU anchor.
"""

from repro.experiments import fig11_a_vs_h


def test_fig11_async_vs_hybrid(record):
    result = fig11_a_vs_h.run(quick=True, worker_counts=(4, 16))
    record("fig11_a_vs_h", result)

    accuracy = {
        (row["variant"], row["gpus"]): row["final_acc"]
        for row in result.rows
    }
    anchor = accuracy[("caffe", 1)]

    # Async degrades with scale...
    assert accuracy[("shmcaffe_a", 16)] < accuracy[("shmcaffe_a", 4)] + 0.02
    # ...and the hybrid resists the degradation at 16 workers.
    assert accuracy[("shmcaffe_h", 16)] >= accuracy[("shmcaffe_a", 16)]
    # The hybrid stays within striking distance of the 1-GPU anchor.
    assert accuracy[("shmcaffe_h", 16)] > anchor - 0.25
    # Small scale: everything works.
    assert accuracy[("shmcaffe_a", 4)] > 0.5
    assert accuracy[("shmcaffe_h", 4)] > 0.5
