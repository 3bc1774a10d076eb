"""Local shared-memory transport: correctness against the TCP path.

The shm doorway must be a drop-in third transport: bit-exact with TCP on
the same data, correct across block growth (both client-requested for
large requests and server-initiated for large responses, with the grow
doorbell bounded by the pool), and clean on shutdown.  What it shares
with the other doorways — waits off the data path, reconnect, close — is
``tests/test_transport_contract.py``.
"""

import glob
import socket
import struct
import threading

import numpy as np
import pytest

from repro.smb import ShmSMBServer, SMBClient, TcpSMBServer
from repro.smb.errors import SMBError
from repro.smb.protocol import HEADER_FORMAT, HEADER_SIZE, encode_hello
from repro.smb.shm_transport import DATA_OFFSET, _ShmChannel


@pytest.fixture
def shm_server(tmp_path):
    with ShmSMBServer(tmp_path / "smb.sock", capacity=1 << 24) as server:
        yield server


class TestRoundTrip:
    def test_write_read_bit_exact(self, shm_server):
        client = SMBClient.connect_local(shm_server.path)
        arr = client.create_array("w", 1 << 16)
        data = np.random.default_rng(7).random(1 << 16).astype(np.float32)
        arr.write(data)
        assert np.array_equal(arr.read(), data)
        client.close()

    def test_bit_exact_across_transports_shared_core(self, tmp_path):
        """One memory pool, two doorways: shm writes, TCP reads."""
        with TcpSMBServer(capacity=1 << 24) as tcp_server:
            with ShmSMBServer(
                tmp_path / "smb.sock", core=tcp_server.core
            ) as shm_srv:
                local = SMBClient.connect_local(shm_srv.path)
                remote = SMBClient.connect(tcp_server.address)
                arr = local.create_array("w", 1 << 14)
                data = np.random.default_rng(11).random(1 << 14)
                data = data.astype(np.float32)
                arr.write(data)
                view = remote.attach_array("w", arr.shm_key, 1 << 14)
                assert np.array_equal(view.read(), data)
                # And the reverse direction.
                reply = np.flip(data).copy()
                view.write(reply)
                assert np.array_equal(arr.read(), reply)
                local.close()
                remote.close()

    def test_accumulate_float64(self, shm_server):
        client = SMBClient.connect_local(shm_server.path)
        target = client.create_array("w", 4096, dtype="float64")
        delta = client.create_array("d", 4096, dtype="float64")
        base = np.linspace(0, 1, 4096, dtype=np.float64)
        step = np.linspace(5, 6, 4096, dtype=np.float64)
        target.write(base)
        delta.write(step)
        delta.accumulate_into(target, scale=0.25)
        assert np.allclose(target.read(), base + 0.25 * step)
        client.close()


class TestBlockGrowth:
    def test_client_requested_growth(self, tmp_path):
        """Requests bigger than the initial block trigger a grow."""
        with ShmSMBServer(
            tmp_path / "smb.sock", capacity=1 << 24, block_size=4096
        ) as server:
            client = SMBClient.connect_local(server.path)
            count = 1 << 18  # 1 MiB >> 4 KiB initial block
            arr = client.create_array("big", count)
            data = np.random.default_rng(3).random(count).astype(np.float32)
            arr.write(data)
            assert np.array_equal(arr.read(), data)
            client.close()

    def test_server_initiated_growth_for_large_response(self, tmp_path):
        """A response body that outgrows the block switches blocks."""
        tiny = DATA_OFFSET + 192
        with ShmSMBServer(
            tmp_path / "smb.sock", capacity=1 << 24, block_size=tiny
        ) as server:
            client = SMBClient.connect_local(server.path)
            for index in range(8):
                client.create_array(f"segment-with-a-long-name-{index}", 16)
            listing = client.list_segments()
            assert len(listing["segments"]) >= 8
            client.close()


    def test_grow_doorbell_above_the_pool_is_refused(self, tmp_path, caplog):
        """No valid frame outgrows the header region plus the whole pool,
        so a bigger grow request allocates nothing and costs only the
        connection that sent it — while a legitimate client can still
        grow its block all the way to that ceiling."""
        capacity = 1 << 20
        with ShmSMBServer(tmp_path / "smb.sock", capacity=capacity) as server:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(5.0)
            raw.connect(server.path)
            raw.sendall(encode_hello())
            (switch,) = struct.unpack("!q", raw.recv(8, socket.MSG_WAITALL))
            assert switch < 0  # handshake = a switch record, then its name
            (length,) = struct.unpack("!H", raw.recv(2, socket.MSG_WAITALL))
            raw.recv(length, socket.MSG_WAITALL)
            blocks = set(glob.glob("/dev/shm/psm_*"))
            with caplog.at_level("WARNING", logger="repro.smb.shm_transport"):
                raw.sendall(struct.pack("!q", -(2 << 30)))
                assert raw.recv(8) == b""  # closed, not acknowledged
            raw.close()
            assert "dropping connection" in caplog.text
            assert not set(glob.glob("/dev/shm/psm_*")) - blocks
            # The server keeps serving, up to a full-capacity frame: the
            # 1 MiB default block must grow to DATA_OFFSET + capacity,
            # not to a doubled size past the ceiling.
            client = SMBClient.connect_local(server.path)
            count = capacity // 4
            arr = client.create_array("full", count)
            data = np.arange(count, dtype=np.float32)
            arr.write(data)
            assert np.array_equal(arr.read(), data)
            client.close()


class TestWaitAndShutdown:
    def test_shutdown_stops_server(self, tmp_path):
        server = ShmSMBServer(tmp_path / "smb.sock", capacity=1 << 22)
        server.start()
        client = SMBClient.connect_local(server.path)
        other = SMBClient.connect_local(server.path)
        arr = client.create_array("w", 64)
        other.attach_array("w", arr.shm_key, 64)
        server.stop()  # severs every open connection, idle ones included
        for severed in (client, other):
            with pytest.raises(SMBError):
                severed.attach_array("w", arr.shm_key, 64)
            severed.close()
        server.stop()  # idempotent

    def test_reserved_opcode_10_costs_one_connection(self, shm_server):
        """Opcode 10 used to stop the server for every tenant.  From
        tenant ``alice`` it is now an unknown opcode: her connection is
        dropped, and a default-tenant client that was connected all
        along still completes a WRITE and a READ."""
        shm_server.core.pool.create_tenant("alice", quota=1 << 16)
        victim = SMBClient.connect_local(shm_server.path)
        arr = victim.create_array("w", 64)
        alice = _ShmChannel(shm_server.path, 5.0, tenant="alice")
        alice.shm.buf[:HEADER_SIZE] = struct.pack(
            HEADER_FORMAT, 10, 0, 0, 0, 0, 0, 1.0, 0
        )
        alice.sock.sendall(struct.pack("!q", DATA_OFFSET))
        assert alice.sock.recv(8) == b"", "expected the connection severed"
        alice.close()
        arr.write(np.arange(64, dtype=np.float32))
        assert np.array_equal(arr.read(), np.arange(64, dtype=np.float32))
        victim.close()

    def test_concurrent_clients(self, shm_server):
        boot = SMBClient.connect_local(shm_server.path)
        target = boot.create_array("w", 1024)
        target.write(np.zeros(1024, dtype=np.float32))
        errors = []

        def worker(index):
            try:
                client = SMBClient.connect_local(shm_server.path)
                view = client.attach_array("w", target.shm_key, 1024)
                delta = client.create_array(f"d{index}", 1024)
                delta.write(np.ones(1024, dtype=np.float32))
                for _ in range(5):
                    delta.accumulate_into(view)
                client.close()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert np.array_equal(
            target.read(), np.full(1024, 40, dtype=np.float32)
        )
        boot.close()
