"""Fig. 15 bench: communication time, ShmCaffe-A vs ShmCaffe-H."""

from repro.experiments import fig15_comm_compare


def test_fig15_a_vs_h(record):
    result = fig15_comm_compare.run()
    record("fig15_comm_compare", result)

    by_key = {(row["model"], row["gpus"]): row for row in result.rows}

    # Paper: at 16 GPUs hybrid wins total iteration time for every model.
    for model in ("inception_v1", "resnet_50", "inception_resnet_v2",
                  "vgg16"):
        row = by_key[(model, 16)]
        assert row["H_iter_ms"] < row["A_iter_ms"]

    # The hybrid advantage grows with model size at 16 GPUs.
    gains = [
        by_key[(model, 16)]["A_comm_ms"] - by_key[(model, 16)]["H_comm_ms"]
        for model in ("inception_v1", "resnet_50", "inception_resnet_v2",
                      "vgg16")
    ]
    assert all(b > a for a, b in zip(gains, gains[1:]))
