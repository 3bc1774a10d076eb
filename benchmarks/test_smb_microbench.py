"""SMB operation micro-benchmarks: read / write / accumulate latencies.

Not a paper figure, but the foundation the Fig. 7 claim rests on: the SMB
server's per-operation cost.  Measures both transports — the in-process
core (the RDMA stand-in) and real TCP framing — and the one timing
assertion on two-tenant fairness (time is asserted here, behaviour in
``tests/``).
"""

import numpy as np
import pytest

from repro.smb import SMBClient, SMBServer, TcpSMBServer

PAYLOAD_ELEMENTS = 1 << 18  # 1 MiB of float32


@pytest.fixture(scope="module")
def inproc():
    server = SMBServer(capacity=1 << 26)
    client = SMBClient.in_process(server)
    array = client.create_array("bench", PAYLOAD_ELEMENTS)
    delta = client.create_array("bench_delta", PAYLOAD_ELEMENTS)
    delta.write(np.ones(PAYLOAD_ELEMENTS, dtype=np.float32))
    return client, array, delta


@pytest.fixture(scope="module")
def tcp():
    server = TcpSMBServer(capacity=1 << 26).start()
    client = SMBClient.connect(server.address)
    array = client.create_array("bench", PAYLOAD_ELEMENTS)
    delta = client.create_array("bench_delta", PAYLOAD_ELEMENTS)
    delta.write(np.ones(PAYLOAD_ELEMENTS, dtype=np.float32))
    yield client, array, delta
    client.close()
    server.stop()


class TestInProcessOps:
    def test_read_1mib(self, benchmark, inproc):
        _, array, _ = inproc
        out = benchmark(array.read)
        assert out.size == PAYLOAD_ELEMENTS

    def test_write_1mib(self, benchmark, inproc):
        _, array, _ = inproc
        payload = np.zeros(PAYLOAD_ELEMENTS, dtype=np.float32)
        benchmark(array.write, payload)

    def test_accumulate_1mib(self, benchmark, inproc):
        _, array, delta = inproc
        benchmark(delta.accumulate_into, array)


class TestTcpOps:
    def test_read_1mib(self, benchmark, tcp):
        _, array, _ = tcp
        out = benchmark(array.read)
        assert out.size == PAYLOAD_ELEMENTS

    def test_write_1mib(self, benchmark, tcp):
        _, array, _ = tcp
        payload = np.zeros(PAYLOAD_ELEMENTS, dtype=np.float32)
        benchmark(array.write, payload)

    def test_accumulate_1mib(self, benchmark, tcp):
        # Accumulate ships no payload over the wire (server-side compute):
        # it should be far cheaper than a write of the same region.
        _, array, delta = tcp
        benchmark(delta.accumulate_into, array)


class TestTenantFairness:
    def test_small_tenant_p95_stays_within_3x_under_bulk_load(self):
        """A small tenant's control-op p95 beside another tenant's bulk
        stream, at bench-quick scale.

        One retry absorbs scheduler noise on saturated CI runners; the
        committed-baseline CI gate is the tight (2x) enforcement.
        """
        from repro.smb import bench

        worst = None
        for _ in range(2):
            result = bench._measure_tenancy(
                bench.TENANCY_BULK_SIZE_QUICK, iterations=150
            )
            worst = result.fairness_ratio
            if worst < 3.0:
                break
        assert worst < 3.0, (
            f"contended p95 {result.contended_p95_s * 1e3:.3f} ms is "
            f"{worst:.2f}x the uncontended "
            f"{result.uncontended_p95_s * 1e3:.3f} ms"
        )
