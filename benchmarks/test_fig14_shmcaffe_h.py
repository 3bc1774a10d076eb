"""Fig. 14 / Table VI bench: ShmCaffe-H comp/comm over Table III configs."""

import pytest

from repro.experiments import fig14_table6


def test_table6_shmcaffe_h(record):
    result = fig14_table6.run()
    record("fig14_table6_shmcaffe_h", result)

    rows = {(row["model"], row["config"]): row for row in result.rows}

    # Paper headline: Inception-ResNet-v2 at 16 GPUs drops from 65% (A)
    # to ~30.7% under S4 x A4.
    hybrid_pct = rows[("inception_resnet_v2", "16 (S4 x A4)")]["comm_pct"]
    assert hybrid_pct == pytest.approx(30.7, abs=10.0)

    # The all-synchronous 4 (S4) reference never touches SMB: its
    # communication (intra-node allreduce + straggler wait) stays well
    # below the 16-GPU hybrid's for the small models.
    assert rows[("inception_v1", "4 (S4)")]["comm_pct"] < 25.0
    assert (
        rows[("inception_v1", "4 (S4)")]["comm_ms"]
        < rows[("inception_v1", "16 (S4 x A4)")]["comm_ms"]
    )

    # VGG16 stays communication-heavy even hybrid at 16 GPUs (paper: ~80%
    # with 16 GPUs in 4 machines; multi-node expansion unsuitable).
    assert rows[("vgg16", "16 (S4 x A4)")]["comm_pct"] > 50.0


def test_table6_group_width_tradeoff():
    # At 8 GPUs, wider sync groups (S4 x A2) put fewer participants on
    # SMB than (S2 x A4): SMB read contention must be lower.
    from repro.perfmodel import model_profile, shmcaffe_h

    model = model_profile("inception_resnet_v2")
    wide = shmcaffe_h(model, 8, 4)   # 2 groups on SMB
    narrow = shmcaffe_h(model, 8, 2)  # 4 groups on SMB
    assert wide.components["t_rgw"] < narrow.components["t_rgw"]
