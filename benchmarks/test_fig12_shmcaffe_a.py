"""Figs. 12-13 / Table V bench: ShmCaffe-A comp/comm sweep, 4 models.

Alongside the calibrated analytic sweep, the discrete-event simulation is
run at the headline configurations as an independent mechanism-level
cross-check (it must rank configurations the same way).
"""

import pytest

from repro.experiments import fig12_table5
from repro.perfmodel import model_profile, simulate_seasgd_contention


def test_table5_shmcaffe_a(record):
    result = fig12_table5.run()
    record("fig12_table5_shmcaffe_a", result)

    rows = {(row["model"], row["workers"]): row for row in result.rows}

    # Paper's stated communication ratios, within tolerance.
    assert rows[("inception_v1", 8)]["comm_pct"] == pytest.approx(
        16.3, abs=6.0
    )
    assert rows[("inception_v1", 16)]["comm_pct"] == pytest.approx(
        26.0, abs=8.0
    )
    assert rows[("resnet_50", 8)]["comm_pct"] == pytest.approx(30.0, abs=6.0)
    assert rows[("resnet_50", 16)]["comm_pct"] == pytest.approx(
        56.0, abs=8.0
    )
    assert rows[("inception_resnet_v2", 16)]["comm_pct"] == pytest.approx(
        65.0, abs=10.0
    )

    # VGG16 blows up immediately: already communication-bound at 2 GPUs.
    assert rows[("vgg16", 2)]["comm_pct"] > 50.0

    # Communication grows monotonically with workers for every model.
    for model in ("inception_v1", "resnet_50", "inception_resnet_v2",
                  "vgg16"):
        series = [
            rows[(model, n)]["comm_ms"] for n in (1, 2, 4, 8, 16)
        ]
        assert series[0] == 0.0
        assert all(b > a for a, b in zip(series[1:], series[2:]))


def test_table5_desim_cross_check(record):
    lines = ["desim cross-check (mechanism-level, no protocol overheads):"]
    for name in ("inception_v1", "resnet_50"):
        model = model_profile(name)
        series = []
        for workers in (2, 8, 16):
            outcome = simulate_seasgd_contention(
                model, workers, iterations=25, seed=0
            )
            series.append(outcome.mean_comm_ms)
            lines.append(
                f"  {name} @{workers}: comm {outcome.mean_comm_ms:.1f} ms "
                f"({outcome.mean_comm_ratio * 100:.1f}%)"
            )
        assert series[0] < series[1] < series[2]
    record("fig12_desim_crosscheck", "\n".join(lines))
