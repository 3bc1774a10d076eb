"""Fig. 7 bench: SMB server aggregated R/W bandwidth vs process count.

Regenerates the modelled paper-scale curve beside a live measurement of
this repo's SMB server (in-process transport, the RDMA stand-in), and
checks that the live aggregate bandwidth saturates as clients are added.
"""

import pytest

from repro.experiments import fig07_bandwidth
from repro.perfmodel import measure_smb_bandwidth, modeled_bandwidth_gbs


def test_fig7_bandwidth_table(record):
    result = fig07_bandwidth.run(
        measure=True, buffer_mb=1.0, operations=10
    )
    record("fig07_smb_bandwidth", result)

    # Paper shape: the modelled curve rises monotonically and saturates
    # at 6.7 GB/s (96% of the 7 GB/s HCA).
    modeled = result.column("modeled_gbs")
    assert all(b > a for a, b in zip(modeled, modeled[1:]))
    assert modeled[-1] == pytest.approx(6.72, rel=0.02)


def test_fig7_measured_shape_saturates(record):
    # The live measurement must show diminishing per-process returns:
    # aggregated throughput does not scale linearly from 2 to 16 clients.
    two = measure_smb_bandwidth(2, buffer_mb=1.0, operations=10).gbs
    sixteen = measure_smb_bandwidth(16, buffer_mb=1.0, operations=10).gbs
    record(
        "fig07_saturation_check",
        f"measured: 2 procs = {two:.2f} GB/s, 16 procs = {sixteen:.2f} "
        f"GB/s (linear scaling would be {8 * two:.2f})",
    )
    assert sixteen < 8 * two


def test_fig7_modeled_utilisation():
    assert modeled_bandwidth_gbs(32) / 7.0 == pytest.approx(0.96, abs=0.01)
