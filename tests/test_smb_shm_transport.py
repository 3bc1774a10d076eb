"""Local shared-memory transport: correctness against the TCP path.

The shm doorway must be a drop-in third transport: bit-exact with TCP on
the same data, correct across block growth in place (by the client for
large requests, by the server for large responses), closed to a client
that rings past its block or the pool or shrinks the block, and clean on
shutdown.  What it shares with the other doorways — waits off the data
path, reconnect, close — is ``tests/test_transport_contract.py``.
"""

import os
import socket
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.smb import ShmSMBServer, SMBClient, TcpSMBServer, shm_transport
from repro.smb.errors import QuotaExceededError, SMBError
from repro.smb.protocol import (
    HEADER_FORMAT, HEADER_SIZE, Message, Op, encode_hello,
)
from repro.smb.shm_transport import (
    BLOCK_SIZE, DATA_OFFSET, GIL_FREE_COPY_BYTES, _ShmChannel,
)


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


#: A 4 MiB frame: past the 1 MiB initial block.
BIG = 1 << 20  # float32 elements


def _block(client):
    """The block of ``client``'s command channel."""
    return client.transport._cmd.channel.block


def _block_size(block):
    return os.fstat(block.fd).st_size


def _raw_client(path):
    """A handshaken raw socket and the block memfd it was handed."""
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(5.0)
    raw.connect(path)
    raw.sendall(encode_hello())
    data, fds, _flags, _addr = socket.recv_fds(raw, 8, 1)
    (size,) = struct.unpack("!q", data)
    assert size == BLOCK_SIZE and len(fds) == 1
    return raw, fds[0]


def _assert_dropped(raw, value, caplog):
    with caplog.at_level("WARNING", logger="repro.smb.shm_transport"):
        raw.sendall(struct.pack("!q", value))
        assert raw.recv(8) == b""  # closed, not answered
    raw.close()
    assert "dropping connection" in caplog.text


def _write_read(array, value):
    data = np.full(array.count, value, dtype=np.float32)
    array.write(data)
    assert np.array_equal(array.read(), data)


class TestBlockGrowth:
    def test_client_requested_growth(self, shm_server):
        """A request bigger than the block grows the same memfd."""
        client = SMBClient.connect_local(shm_server.path)
        block = _block(client)
        fd = block.fd
        assert _block_size(block) == BLOCK_SIZE
        arr = client.create_array("big", BIG)
        data = np.random.default_rng(3).random(BIG).astype(np.float32)
        arr.write(data)
        assert np.array_equal(arr.read(), data)
        assert _block(client) is block and block.fd == fd
        assert _block_size(block) == DATA_OFFSET + 4 * BIG
        client.close()

    def test_server_initiated_growth_for_large_response(self, shm_server):
        """A fresh connection's first 4 MiB READ: its requests are all
        header-only, so the server grows the block for the response."""
        writer = SMBClient.connect_local(shm_server.path)
        arr = writer.create_array("big", BIG)
        data = np.arange(BIG, dtype=np.float32)
        arr.write(data)
        reader = SMBClient.connect_local(shm_server.path)
        block = _block(reader)
        view = reader.attach_array("big", arr.shm_key, BIG)
        assert _block_size(block) == BLOCK_SIZE
        assert np.array_equal(view.read(), data)
        assert _block_size(block) == DATA_OFFSET + 4 * BIG
        assert len(block.buf) == DATA_OFFSET + 4 * BIG
        writer.close()
        reader.close()


    def test_grow_doorbell_above_the_pool_is_refused(self, tmp_path, caplog):
        """No valid frame outgrows the header region plus the whole pool,
        so a bigger doorbell maps nothing and costs only the connection
        that rang it — while a legitimate client can still grow its
        block all the way to that ceiling."""
        capacity = 1 << 20
        with ShmSMBServer(tmp_path / "smb.sock", capacity=capacity) as server:
            raw, fd = _raw_client(server.path)
            os.ftruncate(fd, 4 << 30)  # the file is not what is judged
            os.close(fd)
            _assert_dropped(raw, 2 << 30, caplog)
            # The server keeps serving, up to a full-capacity frame.
            client = SMBClient.connect_local(server.path)
            count = capacity // 4
            arr = client.create_array("full", count)
            data = np.arange(count, dtype=np.float32)
            arr.write(data)
            assert np.array_equal(arr.read(), data)
            client.close()


class TestBlockSeals:
    """A client can break only its own connection."""

    def test_block_cannot_shrink(self, shm_server):
        raw, fd = _raw_client(shm_server.path)
        try:
            with pytest.raises(PermissionError):
                os.ftruncate(fd, 0)
            with pytest.raises(PermissionError):
                os.ftruncate(fd, BLOCK_SIZE - 1)
            os.ftruncate(fd, 2 * BLOCK_SIZE)  # growing is the protocol
        finally:
            os.close(fd)
            raw.close()

    @pytest.mark.parametrize("file_size, value", [
        (BLOCK_SIZE, BLOCK_SIZE + 1),
        (4 << 24, DATA_OFFSET + (1 << 24) + 1),
        (BLOCK_SIZE, 0),
        (BLOCK_SIZE, -DATA_OFFSET),
    ], ids=["past-the-file", "past-the-pool", "zero", "negative"])
    def test_bad_doorbell_costs_one_connection(
        self, shm_server, caplog, file_size, value
    ):
        """Judged before anything is mapped; a client connected all along
        keeps completing WRITE + READ."""
        bystander = SMBClient.connect_local(shm_server.path)
        arr = bystander.create_array("w", 256)
        _write_read(arr, 1.0)
        raw, fd = _raw_client(shm_server.path)
        os.ftruncate(fd, file_size)
        os.close(fd)
        _assert_dropped(raw, value, caplog)
        _write_read(arr, 2.0)
        bystander.close()


class TestCrossProcess:
    def test_spawned_client_exits_clean(self, shm_server):
        """A client process leaves no resource-tracker note behind: the
        block is a memfd, not a named POSIX block."""
        writer = SMBClient.connect_local(shm_server.path)
        arr = writer.create_array("w", 256)
        _write_read(arr, 3.0)
        code = (
            "import sys; from repro.smb import SMBClient\n"
            "c = SMBClient.connect_local(sys.argv[1])\n"
            "a = c.attach_array('w', int(sys.argv[2]), 256)\n"
            "assert (a.read() == 3.0).all()\n"
            "c.close()\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code, shm_server.path, str(arr.shm_key)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "resource_tracker" not in result.stderr
        writer.close()


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
        alice.block.buf[:HEADER_SIZE] = struct.pack(
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


#: Payload sizes on both sides of the NumPy copy threshold, and 4 MiB.
COPY_SIZES = [
    GIL_FREE_COPY_BYTES - 4, GIL_FREE_COPY_BYTES, GIL_FREE_COPY_BYTES + 4,
    4 << 20,
]


class TestCopyPath:
    """Every payload copy on the doorway goes through one helper, and
    each of its two branches is bit-exact on every READ path."""

    @pytest.mark.parametrize("offset", [0, 8])
    @pytest.mark.parametrize("nbytes", COPY_SIZES)
    def test_write_then_every_read_path_is_bit_exact(
        self, shm_server, nbytes, offset
    ):
        writer = SMBClient.connect_local(shm_server.path)
        shm_key = writer.create_buffer("w", offset + nbytes + 64)
        data = np.random.default_rng(nbytes + offset).bytes(nbytes)
        writer.write(writer.attach(shm_key), data, offset=offset)
        reader = SMBClient.connect_local(shm_server.path)
        key = reader.attach(shm_key)
        out = bytearray(nbytes)
        reader.read_into(key, out, offset=offset)  # served by the server
        assert out == data
        out = bytearray(nbytes)
        reader.read_into(key, out, offset=offset)  # one-sided where mapped
        assert out == data
        # A fresh connection's first READ (RPC) and a mapped one, each
        # into an ``out`` longer than the payload: the tail is untouched.
        longer = SMBClient.connect_local(shm_server.path)
        long_key = longer.attach(shm_key)
        for _ in range(2):
            out = bytearray(b"\xa5" * (nbytes + 16))
            response = longer.transport.request(
                Message(op=Op.READ, key=long_key, offset=offset,
                        count=nbytes),
                out=memoryview(out),
            )
            assert bytes(response.payload) == data
            assert out[:nbytes] == data and out[nbytes:] == b"\xa5" * 16
        for client in (writer, reader, longer):
            client.close()

    def test_bulk_payloads_take_the_helper_once(self, shm_server, monkeypatch):
        """A request payload and an RPC response payload of 64 KiB or
        more each cross the helper once (the server serves the READ in
        place, so the client's copy out is the only one)."""
        copies = []
        real_copy = shm_transport._copy

        def spy(dst, src):
            copies.append(src.nbytes)
            real_copy(dst, src)

        nbytes = 4 * GIL_FREE_COPY_BYTES
        data = np.random.default_rng(5).bytes(nbytes)
        writer = SMBClient.connect_local(shm_server.path)
        shm_key = writer.create_buffer("w", nbytes)
        key = writer.attach(shm_key)
        reader = SMBClient.connect_local(shm_server.path)
        read_key = reader.attach(shm_key)
        monkeypatch.setattr(shm_transport, "_copy", spy)
        writer.write(key, data)
        assert copies == [nbytes]
        out = bytearray(nbytes)
        reader.read_into(read_key, out)
        assert copies == [nbytes, nbytes] and out == data
        writer.close()
        reader.close()


class TestServerStats:
    def test_scripted_ops_on_two_tenants(self, shm_server):
        """STATS and TENANT_STATS after a fixed op sequence, denial
        included: the values are the ones counters looked up by name on
        every op reported.  One READ per connection and key, so every
        READ is served by the server on any platform."""
        shm_server.core.pool.create_tenant("bob", quota=1024)
        alice = SMBClient.connect_local(shm_server.path, tenant="alice")
        bob = SMBClient.connect_local(shm_server.path, tenant="bob")
        w = alice.create_array("w", 256)
        w.write(np.ones(256, dtype=np.float32))
        d = alice.create_array("d", 256)
        d.write(np.full(256, 2.0, dtype=np.float32))
        d.accumulate_into(w, scale=0.5)
        assert np.array_equal(w.read(), np.full(256, 2.0, dtype=np.float32))
        b = bob.create_array("w", 64)
        b.write(np.zeros(64, dtype=np.float32))
        b.version()
        with pytest.raises(QuotaExceededError):
            bob.create_buffer("big", 4096)
        b.free()
        with pytest.raises(SMBError):
            bob.lookup("w")  # an error is not counted
        assert alice.stats() == {
            "bytes_read": 1024, "bytes_written": 3328, "ACCUMULATE": 1,
            "ATTACH": 3, "CREATE": 3, "FREE": 1, "READ": 1, "STATS": 1,
            "VERSION": 1, "WRITE": 3,
        }
        assert bob.tenant_stats() == {
            "alice": {"quota": None, "used": 2048, "segments": 2,
                      "counters": {"bytes_read": 1024,
                                   "bytes_written": 3072, "ops": 8}},
            "bob": {"quota": 1024, "used": 0, "segments": 0,
                    "counters": {"bytes_written": 256, "ops": 6,
                                 "quota_denials": 1}},
            "default": {"quota": None, "used": 0, "segments": 0,
                        "counters": {}},
        }
        alice.close()
        bob.close()
