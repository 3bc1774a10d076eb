"""Server accounting with several servers in one telemetry session.

Each server's STATS and TENANT_STATS count that server's ops only; a
recording session gets a mirror of every server's counters, so it sums
them.  The accumulate-queue gauge the autoscale controller reads from
the session, and each tenant's queue-depth gauge, are likewise sums over
the session's servers, never the depth of whichever server touched them
last.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.smb import SMBClient, SMBServer, TcpSMBServer
from repro.smb.protocol import Op
from repro.smb.server import ServerStats
from repro.telemetry import TelemetrySession


def _serve(doorway, session):
    """A client of a new server recording into ``session``, and the
    server's stop."""
    if doorway == "inproc":
        server = SMBServer(capacity=1 << 20, telemetry=session)
        return SMBClient.in_process(server), server.close
    server = TcpSMBServer(capacity=1 << 20, telemetry=session).start()
    return SMBClient.connect(server.address), server.stop


@pytest.mark.parametrize("doorway", ["inproc", "tcp"])
def test_stats_count_only_their_own_server(doorway):
    session = TelemetrySession("metrics")
    a, stop_a = _serve(doorway, session)
    b, stop_b = _serve(doorway, session)
    try:
        array = a.create_array("w", 16)
        array.write(np.ones(16, dtype=np.float32))
        array.read()
        assert b.stats() == {"bytes_read": 0, "bytes_written": 0, "STATS": 1}
        assert b.tenant_stats()["default"]["counters"] == {"ops": 1}
        stats = a.stats()
        assert (stats["CREATE"], stats["WRITE"], stats["READ"]) == (1, 1, 1)
        assert (stats["bytes_read"], stats["bytes_written"]) == (64, 64)
        # The session mirrors both servers: A's four data ops and STATS,
        # B's STATS and TENANT_STATS (STATS has no tenant).
        registry = session.registry
        assert registry.counter("smb/server/ops/WRITE").value == 1
        assert registry.counter("smb/server/ops/STATS").value == 2
        assert registry.counter("smb/tenant/default/ops").value == 5
    finally:
        a.close()
        b.close()
        stop_a()
        stop_b()


def test_accumulate_gauge_sums_the_session_servers():
    session = TelemetrySession("metrics")
    gauge = session.registry.gauge("smb/server/queue/accumulate")
    server_a = SMBServer(capacity=1 << 20, telemetry=session)
    server_b = SMBServer(capacity=1 << 20, telemetry=session)
    arrays = []
    for server in (server_a, server_b):
        client = SMBClient.in_process(server)
        dst = client.create_array("w", 16)
        src = client.create_array("d", 16)
        src.write(np.ones(16, dtype=np.float32))
        arrays.append((dst, src))
    (dst_a, src_a), (dst_b, src_b) = arrays
    held = server_a.pool.by_shm_key(dst_a.shm_key).lock
    with held:
        waiting = threading.Thread(target=src_a.accumulate_into, args=(dst_a,))
        waiting.start()
        deadline = time.monotonic() + 10.0
        while gauge.value < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert gauge.value == 1  # A's ACCUMULATE waits for the lock
        src_b.accumulate_into(dst_b)
        assert gauge.value == 1  # B's finished one does not hide A's
    waiting.join(10.0)
    assert not waiting.is_alive()
    assert gauge.value == 0
    assert np.array_equal(dst_a.read(), np.ones(16, dtype=np.float32))


def test_tenant_queue_gauge_sums_the_session_servers():
    """Each server holds one queued ACCUMULATE of tenant ``t``: each
    server's gauge reads 1, and the session's reads their sum."""
    session = TelemetrySession("metrics")
    servers = [
        TcpSMBServer(capacity=1 << 20, workers=2, telemetry=session).start()
        for _ in range(2)
    ]
    clients, threads, held = [], [], []
    name = "smb/tenant/t/queue_depth"
    try:
        for server in servers:
            owner = SMBClient.connect(server.address, tenant="t")
            clients.append(owner)
            dst = owner.create_array("w", 16)
            lock = server.core.pool.by_shm_key(dst.shm_key).lock
            lock.acquire()
            held.append(lock)
            # Two ACCUMULATEs hold both pool threads; the third queues.
            for _ in range(3):
                client = SMBClient.connect(server.address, tenant="t")
                clients.append(client)
                array = client.attach_array("w", dst.shm_key, 16)
                thread = threading.Thread(
                    target=array.accumulate,
                    args=(np.ones(16, dtype=np.float32),),
                )
                thread.start()
                threads.append(thread)
            gauge = server.core.stats.registry.gauge(name)
            deadline = time.monotonic() + 10.0
            while gauge.value < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
        assert [s.core.stats.registry.gauge(name).value for s in servers] == [1, 1]
        assert session.registry.gauge(name).value == 2
    finally:
        for lock in held:
            lock.release()
        for thread in threads:
            thread.join(10.0)
        for client in clients:
            client.close()
        for server in servers:
            server.stop()
    assert not any(thread.is_alive() for thread in threads)
    assert session.registry.gauge(name).value == 0


def test_concurrent_first_use_loses_no_update():
    """Threads racing to resolve the same (op, tenant) pair, and then to
    bump it, lose no increment in the server's registry or the session."""
    session = TelemetrySession("metrics")
    stats = ServerStats(session.registry)
    threads, rounds = 8, 500
    start = threading.Barrier(threads)

    def bump(index):
        start.wait(10.0)
        for _ in range(rounds):
            stats.record(Op.WRITE, 4, tenant=f"t{index % 2}")
            stats.record(Op.READ, 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=bump, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    total = threads * rounds
    assert stats.counters() == {"bytes_read": total, "bytes_written": 4 * total,
                                "READ": total, "WRITE": total}
    assert stats.tenant_counters("t0") == {"bytes_written": 2 * total, "ops": total // 2}
    for registry in (stats.registry, session.registry):
        assert registry.counter("smb/tenant/t1/ops").value == total // 2
        assert registry.counter("smb/server/ops/WRITE").value == total
