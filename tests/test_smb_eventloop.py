"""Event-loop front-end: lifecycle, dispatch and accounting regressions.

The selector rewrite of :class:`TcpSMBServer` changed how connections are
owned (one loop thread + a bounded worker pool instead of a thread per
client).  These tests pin the behaviours the rewrite fixed:

* ``stop()`` returns with **zero** live handler threads, idle
  connections included (the threaded server closed only the listener and
  left handlers parked in ``recv`` forever);
* ``stop()`` unblocks every client parked in a wait promptly, and no
  frame a tenant can send stops the server (opcode 10 is refused, and a
  frame declaring more payload than its op may carry costs only its
  connection);
* offloaded requests queue per tenant and tenants take turns, so one
  tenant's backlog does not queue ahead of another tenant's request;
* an offloaded op's response leaves from the pool thread that ran it,
  a slow reader never holds that thread, and stopping mid-response is
  a severed connection, not a crash;
* ``STATS`` and ``TENANT_STATS`` are themselves counted in the server
  stats;
* ACCUMULATE byte accounting and arithmetic honour the element dtype
  (the old path hardcoded 4-byte float32 everywhere, so a float64
  accumulate was both miscounted and numerically wrong);
* journal replay of a dtype-carrying ACCUMULATE restores bit-exact
  state.
"""

import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.smb import SMBClient, TcpSMBServer
from repro.smb.errors import (
    NotificationTimeout,
    SMBConnectionError,
    SMBError,
)
from repro.smb.protocol import (
    HEADER_FORMAT,
    HEADER_SIZE,
    HELLO,
    Message,
    Op,
    Status,
    encode_hello,
)
from repro.smb.server import MAX_NAME_PAYLOAD
from repro.telemetry import TelemetrySession


def _raw_connect(address, tenant="default"):
    """A bare protocol connection, bypassing SMBClient (and its
    client-side wait slicing / retry machinery)."""
    sock = socket.create_connection(address, timeout=10.0)
    sock.sendall(encode_hello(tenant))
    return sock


def _raw_recv_exact(sock, n):
    data = bytearray()
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data.extend(chunk)
    return bytes(data)


def _raw_response(sock):
    header = _raw_recv_exact(sock, HEADER_SIZE)
    paylen = struct.unpack(HEADER_FORMAT, header)[-1]
    payload = _raw_recv_exact(sock, paylen) if paylen else b""
    return Message.decode(header, payload)


def _smb_threads():
    return [
        t for t in threading.enumerate()
        if t.is_alive() and t.name.startswith(("smb-loop", "smb-worker"))
    ]


class TestServerLifecycle:
    def test_stop_leaves_zero_handler_threads(self):
        before = set(map(id, _smb_threads()))
        server = TcpSMBServer(capacity=1 << 22).start()
        clients = [SMBClient.connect(server.address) for _ in range(4)]
        arr = clients[0].create_array("w", 256)
        arr.write(np.arange(256, dtype=np.float32))
        # Three clients stay connected but idle — the regression case.
        server.stop()
        leftover = [t for t in _smb_threads() if id(t) not in before]
        assert leftover == [], f"threads survived stop(): {leftover}"
        for client in clients:
            client.close()

    def test_stop_severs_idle_connections(self):
        server = TcpSMBServer(capacity=1 << 22).start()
        active = SMBClient.connect(server.address)
        idle = SMBClient.connect(server.address)
        arr = active.create_array("w", 64)
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < 5.0
        with pytest.raises(SMBError):
            idle.attach_array("w", arr.shm_key, 64)
        active.close()
        idle.close()

    def test_shutdown_unblocks_peer_connections(self):
        server = TcpSMBServer(capacity=1 << 22).start()
        first = SMBClient.connect(server.address)
        second = SMBClient.connect(server.address)
        arr = first.create_array("w", 64)
        view = second.attach_array("w", arr.shm_key, 64)
        unblocked = threading.Event()

        def parked_wait():
            try:
                view.wait_update(view.version(), timeout=30.0)
            except Exception:
                pass
            finally:
                unblocked.set()

        waiter = threading.Thread(target=parked_wait)
        waiter.start()
        time.sleep(0.2)  # let the wait park server-side
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        assert unblocked.wait(timeout=5.0), (
            "peer stayed blocked in its wait after server.stop()"
        )
        waiter.join(timeout=5.0)
        stopper.join(timeout=5.0)
        assert not stopper.is_alive()
        first.close()
        second.close()

    def test_stop_is_idempotent(self):
        server = TcpSMBServer(capacity=1 << 22).start()
        server.stop()
        server.stop()

    def test_many_concurrent_clients(self):
        """A small fleet through the one loop thread, all correct."""
        fleet = 16
        with TcpSMBServer(capacity=1 << 24) as server:
            boot = SMBClient.connect(server.address)
            target = boot.create_array("w", 1024)
            target.write(np.zeros(1024, dtype=np.float32))
            errors = []

            def worker(index):
                try:
                    client = SMBClient.connect(server.address)
                    view = client.attach_array("w", target.shm_key, 1024)
                    delta = client.create_array(f"d{index}", 1024)
                    delta.write(np.ones(1024, dtype=np.float32))
                    for _ in range(5):
                        delta.accumulate_into(view)
                    client.close()
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(fleet)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            result = target.read()
            assert np.array_equal(
                result, np.full(1024, fleet * 5, dtype=np.float32)
            )
            boot.close()


class TestEventStyleWaits:
    """WAIT_UPDATE must never occupy a worker-pool thread while parked.

    The regression: offloaded waits pinned their pool thread for the
    whole wait, so enough concurrent untimed waits exhausted the pool
    and the ACCUMULATE that would have woken them queued behind them
    forever — a server-wide deadlock.
    """

    def test_parked_waits_do_not_exhaust_worker_pool(self):
        server = TcpSMBServer(capacity=1 << 22, workers=2).start()
        socks = []
        try:
            boot = SMBClient.connect(server.address)
            target = boot.create_array("w", 256)
            delta = boot.create_array("d", 256)
            target.write(np.zeros(256, dtype=np.float32))
            delta.write(np.ones(256, dtype=np.float32))
            version = target.version()
            # Six *untimed* raw waits against a two-thread pool: under
            # the old design the first two pin both pool threads forever
            # and the accumulate below can never run.
            for _ in range(6):
                sock = _raw_connect(server.address)
                sock.sendall(Message(
                    op=Op.WAIT_UPDATE, key=target.access_key,
                    count=version, scale=0.0,
                ).encode())
                socks.append(sock)
            time.sleep(0.3)  # let every wait park server-side
            done = threading.Event()

            def push():
                delta.accumulate_into(target)
                done.set()

            threading.Thread(target=push, daemon=True).start()
            assert done.wait(timeout=10.0), (
                "ACCUMULATE starved behind parked waits (pool exhausted)"
            )
            for sock in socks:
                response = _raw_response(sock)
                assert response.status is Status.OK
                assert response.count > version
            boot.close()
        finally:
            for sock in socks:
                sock.close()
            server.stop()

    def test_raw_timed_wait_expires_server_side(self):
        with TcpSMBServer(capacity=1 << 22) as server:
            client = SMBClient.connect(server.address)
            arr = client.create_array("w", 64)
            sock = _raw_connect(server.address)
            start = time.monotonic()
            sock.sendall(Message(
                op=Op.WAIT_UPDATE, key=arr.access_key,
                count=arr.version(), scale=0.3,
            ).encode())
            response = _raw_response(sock)
            elapsed = time.monotonic() - start
            assert response.status is Status.TIMEOUT
            assert 0.2 <= elapsed < 5.0
            sock.close()
            client.close()

    def test_client_wait_timeout_still_raises(self):
        with TcpSMBServer(capacity=1 << 22) as server:
            client = SMBClient.connect(server.address)
            arr = client.create_array("w", 64)
            start = time.monotonic()
            with pytest.raises(NotificationTimeout):
                arr.wait_update(arr.version(), timeout=0.4)
            assert time.monotonic() - start < 5.0
            client.close()


def _wait_until(predicate, timeout=10.0):
    """Poll ``predicate`` until it holds; time only caps the wait."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.001)
    return predicate()


class TestTenantTurns:
    """Offloaded requests queue per tenant and tenants take turns, so a
    tenant's request waits behind at most one request of another
    tenant, never behind that tenant's whole backlog."""

    def test_a_tenant_is_not_queued_behind_another_backlog(self):
        session = TelemetrySession("metrics")
        gauge = session.registry.gauge
        server = TcpSMBServer(
            capacity=1 << 20, workers=2, telemetry=session
        ).start()
        clients = []

        def attach(tenant):
            client = SMBClient.connect(server.address, tenant=tenant)
            clients.append(client)
            return client.attach_array("W_g", w_g.shm_key, 16)

        try:
            owner = SMBClient.connect(server.address, tenant="a")
            clients.append(owner)
            w_g = owner.create_array("W_g", 16)
            pushers = [attach("a") for _ in range(6)]
            late = attach("b")
            versions = {}

            def push(name, array):
                versions[name] = array.accumulate(
                    np.ones(16, dtype=np.float32)
                )

            threads = [
                threading.Thread(target=push, args=(f"a{i}", array))
                for i, array in enumerate(pushers)
            ]
            with server.core.pool.by_shm_key(w_g.shm_key).lock:
                for thread in threads:
                    thread.start()
                # Two of a's ACCUMULATEs hold both pool threads, parked
                # on the lock; four more wait in a's queue.
                assert _wait_until(lambda: (
                    gauge("smb/server/queue/accumulate").value == 2
                    and gauge("smb/tenant/a/queue_depth").value == 4
                ))
                threads.append(
                    threading.Thread(target=push, args=("b", late))
                )
                threads[-1].start()
                assert _wait_until(
                    lambda: gauge("smb/tenant/b/queue_depth").value == 1
                )
            for thread in threads:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(versions.values()) == list(range(1, 8))
            # Behind the two in service, b's one request waits for at
            # most one of a's four queued ones (a FIFO would give it 7).
            assert versions["b"] <= 4
        finally:
            for client in clients:
                client.close()
            server.stop()


class TestHandshakeDeadline:
    @pytest.mark.parametrize("first_bytes", [b"", HELLO[:3]])
    def test_stalled_hello_is_dropped_at_the_deadline(
        self, monkeypatch, first_bytes
    ):
        """A peer that connects and never finishes the hello is closed
        once HANDSHAKE_TIMEOUT passes — not before, and without the loop
        missing a beat for anyone else."""
        monkeypatch.setattr("repro.smb.server.HANDSHAKE_TIMEOUT", 0.4)
        with TcpSMBServer(capacity=1 << 20) as server:
            healthy = SMBClient.connect(server.address)
            stalled = socket.create_connection(server.address, timeout=10.0)
            start = time.monotonic()
            stalled.sendall(first_bytes)
            healthy.create_buffer("during", 64)
            stalled.settimeout(5.0)
            assert stalled.recv(1) == b"", "expected the connection severed"
            assert 0.3 < time.monotonic() - start < 4.0
            stalled.close()
            assert healthy.lookup("during")[1] == 64
            healthy.close()


class TestDispatchRobustness:
    def test_malformed_inline_frame_costs_one_connection(self):
        """A handler fault that escapes ``SMBServer.handle`` for one
        inline frame must close the offending connection only — never
        crash the event loop (which used to take the whole server down
        for every client).  No real frame escapes ``handle`` (a non-UTF-8
        name is a typed error, ``tests/test_transport_contract.py``), so
        the fault is injected for the one CREATE of ``b"boom"``."""
        with TcpSMBServer(capacity=1 << 22) as server:
            handle = server.core.handle

            def faulty(request, out=None, **kwargs):
                if request.op is Op.CREATE and request.payload == b"boom":
                    raise RuntimeError("injected handler fault")
                return handle(request, out, **kwargs)

            server.core.handle = faulty
            bad = _raw_connect(server.address)
            bad.sendall(Message(
                op=Op.CREATE, count=64, payload=b"boom",
            ).encode())
            bad.settimeout(5.0)
            assert bad.recv(1) == b"", "expected the connection severed"
            bad.close()
            # The loop survived: a fresh client is served normally.
            client = SMBClient.connect(server.address)
            arr = client.create_array("ok", 64)
            arr.write(np.arange(64, dtype=np.float32))
            assert np.array_equal(
                arr.read(), np.arange(64, dtype=np.float32)
            )
            client.close()

    def test_reserved_opcode_10_costs_one_connection(self):
        """Opcode 10 used to stop the server for every tenant.  From
        tenant ``alice`` it is now an unknown opcode: her connection is
        dropped, and a default-tenant client that was connected all
        along still completes a WRITE and a READ."""
        with TcpSMBServer(capacity=1 << 22) as server:
            server.core.pool.create_tenant("alice", quota=1 << 16)
            victim = SMBClient.connect(server.address)
            arr = victim.create_array("w", 64)
            alice = _raw_connect(server.address, tenant="alice")
            alice.sendall(struct.pack(
                HEADER_FORMAT, 10, int(Status.OK), 0, 0, 0, 0, 1.0, 0,
            ))
            alice.settimeout(5.0)
            assert alice.recv(1) == b"", "expected the connection severed"
            alice.close()
            arr.write(np.arange(64, dtype=np.float32))
            assert np.array_equal(
                arr.read(), np.arange(64, dtype=np.float32)
            )
            victim.close()

    def test_oversized_paylen_is_refused_before_allocating(self):
        """A header declaring ``paylen = 0xFFFFFFFF`` used to make the
        loop thread allocate a 4 GiB receive buffer on the spot.  No
        request can carry more than the pool holds, so the server drops
        that connection on the header alone and keeps serving others."""
        with TcpSMBServer(capacity=1 << 20) as server:
            bad = _raw_connect(server.address)
            bad.sendall(struct.pack(
                HEADER_FORMAT, int(Op.WRITE), int(Status.OK),
                0, 0, 0, 0, 0.0, 0xFFFFFFFF,
            ))
            bad.settimeout(5.0)
            assert bad.recv(1) == b"", "expected the connection severed"
            bad.close()
            # Exactly at the bound is still a frame the server reads.
            client = SMBClient.connect(server.address)
            count = (1 << 20) // 4
            arr = client.create_array("full", count)
            arr.write(np.ones(count, dtype=np.float32))
            assert np.array_equal(
                arr.read(), np.ones(count, dtype=np.float32)
            )
            client.close()

    @pytest.mark.parametrize(
        "opcode, paylen",
        [
            (int(Op.VERSION), 200 << 20),
            (int(Op.READ), 1),
            (int(Op.CREATE), MAX_NAME_PAYLOAD + 1),
            (0, 1 << 20),
        ],
        ids=["version-200MiB", "read-1B", "create-long-name", "unknown-op"],
    )
    def test_paylen_is_bounded_by_op(self, opcode, paylen):
        """Only WRITE and ACCUMULATE carry up to the pool's capacity; a
        name op carries a short name and every other op nothing.  A
        VERSION frame declaring 200 MiB used to make the loop allocate a
        200 MiB receive buffer for that connection, before one payload
        byte arrived, and keep it.  Now any frame over its op's bound
        (or of an unknown op) costs its connection and no allocation,
        and a second client is still served."""
        with TcpSMBServer(capacity=1 << 28) as server:
            bad = _raw_connect(server.address)
            bad.sendall(struct.pack(
                HEADER_FORMAT, opcode, int(Status.OK), 0, 0, 0, 0, 0.0,
                paylen,
            ))
            bad.settimeout(5.0)
            assert bad.recv(1) == b"", "expected the connection severed"
            bad.close()
            client = SMBClient.connect(server.address)
            arr = client.create_array("w", 64)
            arr.accumulate(np.ones(64, dtype=np.float32))
            assert np.array_equal(arr.read(), np.ones(64, dtype=np.float32))
            # Every live connection still has its initial receive buffer.
            assert [len(c.recv_buf) for c in server._conns.values()] == [
                1 << 16
            ]
            client.close()

    def test_huge_read_count_costs_one_request(self):
        """A READ's ``count`` is a signed 64-bit number the peer chose.
        The loop used to size the pooled read buffer from it before any
        range check: a 46-byte header with ``count = 1 << 50`` from
        tenant ``alice`` raised ``MemoryError`` on the loop thread and
        stopped the server for every tenant.  Now it costs her that one
        request — a range refusal on a connection that still serves
        — and a default-tenant client connected all along is served
        before and after."""
        with TcpSMBServer(capacity=1 << 22) as server:
            server.core.pool.create_tenant("alice", quota=1 << 16)
            victim = SMBClient.connect(server.address)
            arr = victim.create_array("w", 64)
            arr.write(np.zeros(64, dtype=np.float32))
            owner = SMBClient.connect(server.address, tenant="alice")
            access_key = owner.attach(owner.create_buffer("a", 256), 256)
            alice = _raw_connect(server.address, tenant="alice")
            alice.settimeout(5.0)
            alice.sendall(Message(
                op=Op.READ, key=access_key, count=1 << 50,
            ).encode())
            refused = _raw_response(alice)
            assert refused.status is Status.ERROR
            assert b"exceeds segment size 256" in bytes(refused.payload)
            alice.sendall(Message(
                op=Op.READ, key=access_key, count=256,
            ).encode())
            served = _raw_response(alice)
            assert served.status is Status.OK
            assert len(served.payload) == 256
            alice.close()
            owner.close()
            arr.write(np.arange(64, dtype=np.float32))
            assert np.array_equal(
                arr.read(), np.arange(64, dtype=np.float32)
            )
            victim.close()
            assert server._loop_thread.is_alive()

    def test_mutations_offload_when_journaled(self, tmp_path):
        """With a journal configured every mutation takes the journal
        lock — which an offloaded ACCUMULATE can hold across a whole
        accumulate plus snapshot — so no mutation may run inline on the
        loop thread."""
        journaled = TcpSMBServer(
            capacity=1 << 22, journal_dir=tmp_path / "j"
        )
        plain = TcpSMBServer(capacity=1 << 22)
        try:
            mutations = [
                Message(op=Op.WRITE, key=1, payload=b"xy"),
                Message(op=Op.CREATE, count=64, payload=b"n"),
                Message(op=Op.FREE, key=1),
            ]
            for message in mutations:
                assert journaled._needs_offload(message)
                assert not plain._needs_offload(message)
        finally:
            journaled.stop()
            plain.stop()


class TestResponsePath:
    """The pool thread that ran an offloaded op sends its response itself,
    as far as the socket takes it without blocking; the loop only re-arms
    the connection, or finishes a send the socket refused."""

    def test_offloaded_response_leaves_from_the_thread_that_ran_it(
        self, monkeypatch
    ):
        count = (4 << 20) // 4
        with TcpSMBServer(capacity=1 << 24) as server:
            client = SMBClient.connect(server.address)
            target = client.create_array("w", count)
            delta = client.create_array("d", count)
            delta.write(np.ones(count, dtype=np.float32))
            target.write(np.zeros(count, dtype=np.float32))
            senders = []
            sendmsg = socket.socket.sendmsg

            def spy(sock, buffers, *args):
                name = threading.current_thread().name
                if name.startswith("smb-"):  # the server's side only
                    nbytes = sum(memoryview(b).nbytes for b in buffers)
                    senders.append((name, nbytes))
                return sendmsg(sock, buffers, *args)

            monkeypatch.setattr(socket.socket, "sendmsg", spy)
            for _ in range(20):
                delta.accumulate_into(target)  # payload-less both ways
            sent_by = list(senders)
            monkeypatch.undo()
            assert np.array_equal(
                target.read(), np.full(count, 20.0, dtype=np.float32)
            )
            client.close()
        assert len(sent_by) == 20
        assert {nbytes for _, nbytes in sent_by} == {HEADER_SIZE}
        assert all(name.startswith("smb-worker") for name, _ in sent_by), (
            sent_by
        )

    def test_slow_reader_never_holds_a_pool_thread(self):
        """Four peers each ask for 16 MiB — more than the loopback socket
        buffers hold — and read nothing for a second, against a two-thread
        pool.  A pool thread whose send is refused hands the rest to the
        loop, so another client's bulk ops still run; afterwards every
        slow peer gets exactly its bytes."""
        big = 16 << 20
        count = (4 << 20) // 4
        with TcpSMBServer(capacity=1 << 25, workers=2) as server:
            client = SMBClient.connect(server.address)
            blob = client.create_array("blob", big // 4)
            pattern = np.arange(big // 4, dtype=np.float32)
            blob.write(pattern)
            target = client.create_array("w", count)
            delta = client.create_array("d", count)
            delta.write(np.ones(count, dtype=np.float32))
            target.write(np.zeros(count, dtype=np.float32))
            slow = []
            try:
                for _ in range(4):
                    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16
                    )
                    sock.settimeout(10.0)
                    sock.connect(server.address)
                    sock.sendall(encode_hello("default"))
                    sock.sendall(Message(
                        op=Op.READ, key=blob.access_key, count=big,
                    ).encode())
                    slow.append(sock)
                start = time.monotonic()
                delta.accumulate_into(target)
                assert np.array_equal(
                    target.read(), np.ones(count, dtype=np.float32)
                )
                # A liveness bound, not a timing claim.
                assert time.monotonic() - start < 5.0
                time.sleep(max(0.0, 1.0 - (time.monotonic() - start)))
                parked = [
                    conn for conn in list(server._conns.values())
                    if conn.state == conn.WRITE
                ]
                assert len(parked) == 4  # the loop holds every refused send
                for sock in slow:
                    response = _raw_response(sock)
                    assert response.status is Status.OK
                    assert np.array_equal(
                        np.frombuffer(response.payload, dtype=np.float32),
                        pattern,
                    )
            finally:
                for sock in slow:
                    sock.close()
                client.close()

    def test_handoff_holds_under_a_short_switch_interval(self):
        """Eight clients — more than the cores of a small box — interleave
        offloaded ACCUMULATEs and 4 MiB READs (more than one non-blocking
        send takes, so the loop finishes many of them) with inline
        VERSIONs while the interpreter switches threads every
        microsecond: every READ is one whole version, and no push is lost
        or applied twice."""
        count = (4 << 20) // 4
        clients, pushes = 8, 10
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with TcpSMBServer(capacity=1 << 26, workers=4) as server:
                boot = SMBClient.connect(server.address)
                target = boot.create_array("w", count)
                target.write(np.zeros(count, dtype=np.float32))
                errors = []

                def worker(index):
                    try:
                        client = SMBClient.connect(server.address)
                        view = client.attach_array("w", target.shm_key, count)
                        delta = client.create_array(f"d{index}", count)
                        delta.write(np.ones(count, dtype=np.float32))
                        for _ in range(pushes):
                            delta.accumulate_into(view)
                            seen = view.read()
                            assert np.all(seen == seen[0]), "torn READ"
                            assert 1 <= seen[0] <= clients * pushes
                            view.version()
                        client.close()
                    except Exception as exc:  # pragma: no cover - diagnostic
                        errors.append(exc)

                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert np.array_equal(
                    target.read(),
                    np.full(count, clients * pushes, dtype=np.float32),
                )
                boot.close()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("how", ["stop", "kill"])
    def test_stop_and_kill_mid_response_are_quiet(
        self, how, caplog, monkeypatch
    ):
        """Stopping the server while pool threads are sending 4 MiB READ
        responses is a severed connection for each client — not a crash
        record, not an uncaught thread exception, not a hang, and no
        server thread left behind."""
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        before = set(map(id, _smb_threads()))
        count = (4 << 20) // 4
        server = TcpSMBServer(capacity=1 << 24).start()
        boot = SMBClient.connect(server.address)
        array = boot.create_array("w", count)
        array.write(np.ones(count, dtype=np.float32))
        streaming = threading.Barrier(5, timeout=10.0)
        errors = []

        def stream():
            client = SMBClient.connect(server.address)
            view = client.attach_array("w", array.shm_key, count)
            out = np.empty(count, dtype=np.float32)
            view.read(out=out)
            streaming.wait()
            try:
                while True:
                    view.read(out=out)
            except SMBError as exc:
                errors.append(exc)
            finally:
                client.close()

        readers = [threading.Thread(target=stream) for _ in range(4)]
        for reader in readers:
            reader.start()
        streaming.wait()
        time.sleep(0.1)
        getattr(server, how)()
        for reader in readers:
            reader.join(timeout=10.0)
        boot.close()
        assert not any(reader.is_alive() for reader in readers)
        assert len(errors) == 4
        assert all(isinstance(exc, SMBConnectionError) for exc in errors), (
            errors
        )
        assert uncaught == []
        assert not [
            record for record in caplog.records
            if "crashed" in record.getMessage()
        ]
        leftover = [t for t in _smb_threads() if id(t) not in before]
        assert leftover == [], f"threads survived {how}(): {leftover}"


class TestStatsAccounting:
    def test_stats_and_tenant_stats_are_counted(self):
        with TcpSMBServer(capacity=1 << 22) as server:
            client = SMBClient.connect(server.address)
            client.create_array("w", 64)
            client.tenant_stats()
            client.tenant_stats()
            counters = client.stats()
            assert counters.get("TENANT_STATS") == 2
            # The STATS op records itself before serialising, so the very
            # first snapshot already counts 1.
            assert counters.get("STATS") == 1
            assert client.stats().get("STATS") == 2
            client.close()

    def test_accumulate_float64_bytes_and_values(self):
        count = 1024
        with TcpSMBServer(capacity=1 << 22) as server:
            client = SMBClient.connect(server.address)
            target = client.create_array("w64", count, dtype="float64")
            delta = client.create_array("d64", count, dtype="float64")
            base = np.linspace(0.0, 1.0, count, dtype=np.float64)
            step = np.linspace(1.0, 2.0, count, dtype=np.float64)
            target.write(base)
            delta.write(step)
            written_before = client.stats()["bytes_written"]
            delta.accumulate_into(target, scale=0.5)
            written_after = client.stats()["bytes_written"]
            # 8-byte elements: the old hardcoded "* 4" undercounted by 2x.
            assert written_after - written_before == count * 8
            assert np.allclose(target.read(), base + 0.5 * step)
            client.close()

    def test_accumulate_dtype_mismatch_rejected(self):
        with TcpSMBServer(capacity=1 << 22) as server:
            client = SMBClient.connect(server.address)
            target = client.create_array("w", 64, dtype="float64")
            delta = client.create_array("d", 64, dtype="float32")
            with pytest.raises(ValueError, match="dtype mismatch"):
                delta.accumulate_into(target)
            client.close()


class TestJournalDtypeReplay:
    def test_float64_accumulate_survives_kill_and_recovery(self, tmp_path):
        count = 512
        journal_dir = tmp_path / "journal"
        server = TcpSMBServer(
            capacity=1 << 22, journal_dir=journal_dir
        ).start()
        client = SMBClient.connect(server.address)
        target = client.create_array("w", count, dtype="float64")
        delta = client.create_array("d", count, dtype="float64")
        base = np.linspace(-1.0, 1.0, count, dtype=np.float64)
        step = np.linspace(3.0, 4.0, count, dtype=np.float64)
        target.write(base)
        delta.write(step)
        delta.accumulate_into(target, scale=2.0)
        expected = base + 2.0 * step
        shm_key = target.shm_key
        client.close()
        server.kill()  # no final snapshot: recovery must replay the journal

        revived = TcpSMBServer(
            capacity=1 << 22, journal_dir=journal_dir
        ).start()
        try:
            client = SMBClient.connect(revived.address)
            view = client.attach_array("w", shm_key, count, dtype="float64")
            assert np.array_equal(view.read(), expected)
            client.close()
        finally:
            revived.stop()
