"""Extension bench: striping W_g over multiple SMB servers (Sec. V plan).

Shows the headline payoff of the paper's future work: the models that are
communication-bound on one memory server (VGG16, Inception-ResNet-v2 at
16 GPUs) drop back under the 50% comm-ratio line with a handful of
servers.
"""

import pytest

from repro.experiments.report import ExperimentResult
from repro.perfmodel import model_profile, shmcaffe_a, shmcaffe_multi_server

SERVER_COUNTS = (1, 2, 4, 8)


def test_multi_server_scaling(record):
    result = ExperimentResult(
        "ext/multi-smb",
        "ShmCaffe-A comm ratio vs number of SMB servers (16 workers)",
    )
    for name in ("resnet_50", "inception_resnet_v2", "vgg16"):
        model = model_profile(name)
        for servers in SERVER_COUNTS:
            breakdown = shmcaffe_multi_server(model, 16, servers)
            result.rows.append(
                {
                    "model": name,
                    "smb_servers": servers,
                    "comm_ms": round(breakdown.comm_ms, 1),
                    "comm_pct": round(breakdown.comm_ratio * 100, 1),
                }
            )
    record("ext_multi_smb_servers", result)

    rows = {
        (row["model"], row["smb_servers"]): row for row in result.rows
    }
    # One server reproduces the single-SMB model (rows are rounded).
    for name in ("resnet_50", "vgg16"):
        assert rows[(name, 1)]["comm_ms"] == pytest.approx(
            shmcaffe_a(model_profile(name), 16).comm_ms, abs=0.06
        )
    # Striping rescues the communication-bound models: VGG16 at 16
    # workers falls below 50% comm with 8 servers.
    assert rows[("vgg16", 1)]["comm_pct"] > 90.0
    assert rows[("vgg16", 8)]["comm_pct"] < 70.0
    assert rows[("inception_resnet_v2", 4)]["comm_pct"] < 30.0

    # Monotone improvement in server count for every model.
    for name in ("resnet_50", "inception_resnet_v2", "vgg16"):
        series = [rows[(name, k)]["comm_ms"] for k in SERVER_COUNTS]
        assert all(b < a for a, b in zip(series, series[1:]))
