"""Tests for the SMB client API against an in-process server core."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.smb import (
    ControlBlock,
    NotificationTimeout,
    SMBClient,
    SMBError,
    SMBServer,
    UnknownKeyError,
)


@pytest.fixture()
def server():
    return SMBServer(capacity=1 << 22)


@pytest.fixture()
def client(server):
    return SMBClient.in_process(server)


class TestRawOperations:
    def test_create_attach_read_write(self, client):
        shm_key = client.create_buffer("w", 64)
        access = client.attach(shm_key, 64)
        client.write(access, b"hello world")
        assert client.read(access, 11) == b"hello world"

    def test_lookup_by_name(self, client):
        shm_key = client.create_buffer("w", 128)
        found_key, size = client.lookup("w")
        assert found_key == shm_key
        assert size == 128

    def test_lookup_unknown_name(self, client):
        with pytest.raises(UnknownKeyError):
            client.lookup("nope")

    def test_attach_bad_key_raises_remote_error(self, client):
        with pytest.raises(UnknownKeyError):
            client.attach(424242)

    def test_write_out_of_range(self, client):
        shm_key = client.create_buffer("w", 8)
        access = client.attach(shm_key)
        with pytest.raises(
            SMBError, match=r"^access \[0, 9\) exceeds segment size 8$"
        ):
            client.write(access, b"123456789")

    def test_accumulate(self, client):
        a = client.create_array("a", 4)
        b = client.create_array("b", 4)
        a.write(np.asarray([1, 2, 3, 4], dtype=np.float32))
        b.write(np.asarray([10, 10, 10, 10], dtype=np.float32))
        b_into_a = b.accumulate_into(a)
        assert b_into_a > 0
        np.testing.assert_allclose(a.read(), [11, 12, 13, 14])

    def test_accumulate_scale(self, client):
        a = client.create_array("a", 2)
        b = client.create_array("b", 2)
        b.write(np.asarray([4, 8], dtype=np.float32))
        b.accumulate_into(a, scale=-0.5)
        np.testing.assert_allclose(a.read(), [-2, -4])

    def test_free_then_use_fails(self, client):
        array = client.create_array("w", 8)
        array.free()
        with pytest.raises(UnknownKeyError):
            array.read()

    def test_version_counts_mutations(self, client):
        array = client.create_array("w", 4)
        assert array.version() == 0
        array.write(np.zeros(4, dtype=np.float32))
        assert array.version() == 1

    def test_wait_update_timeout(self, client):
        array = client.create_array("w", 4)
        with pytest.raises(NotificationTimeout):
            array.wait_update(version=0, timeout=0.01)

    def test_stats_track_bytes(self, client):
        array = client.create_array("w", 256)
        array.write(np.zeros(256, dtype=np.float32))
        array.read()
        stats = client.stats()
        assert stats["bytes_written"] >= 1024
        assert stats["bytes_read"] >= 1024


class TestReadPairing:
    def test_read_racing_a_writer_returns_the_version_of_its_bytes(
        self, server
    ):
        """Write ``i`` stores ``float(i)`` everywhere as version ``i``,
        so every ``(version, bytes)`` a READ returns must satisfy
        ``bytes[0] == bytes[-1] == version``: the copy and the version
        stamp come from one critical section, however the readers and
        the writer interleave.  Time-bounded: the writer keeps going
        until a reader sees a mismatch or the budget runs out."""
        count, budget = 64, 1.5
        writer = SMBClient.in_process(server)
        array = writer.create_array("w", count)
        problems, done = [], threading.Event()
        ready = threading.Barrier(4)

        def reader():
            with SMBClient.in_process(server) as client:
                view = client.attach_array("w", array.shm_key, count)
                out = np.empty(count, dtype=np.float32)
                ready.wait(timeout=10.0)
                while not done.is_set():
                    version = view.read_into(out)
                    if not out[0] == out[-1] == version:
                        problems.append((version, out[0], out[-1]))

        readers = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            try:
                ready.wait(timeout=10.0)
                deadline = time.monotonic() + budget
                version = 0
                while not problems and time.monotonic() < deadline:
                    version += 1
                    assert array.write(
                        np.full(count, float(version), dtype=np.float32)
                    ) == version
            finally:
                done.set()
                for thread in readers:
                    thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in readers)
        finally:
            sys.setswitchinterval(interval)
        writer.close()
        assert not problems, problems[:3]


class TestRemoteArray:
    def test_roundtrip(self, client):
        array = client.create_array("w", 100)
        values = np.arange(100, dtype=np.float32)
        array.write(values)
        np.testing.assert_array_equal(array.read(), values)

    def test_write_wrong_size_rejected(self, client):
        array = client.create_array("w", 10)
        with pytest.raises(ValueError):
            array.write(np.zeros(11, dtype=np.float32))

    def test_accumulate_count_mismatch_rejected(self, client):
        a = client.create_array("a", 4)
        b = client.create_array("b", 8)
        with pytest.raises(ValueError):
            b.accumulate_into(a)

    def test_two_clients_share_by_shm_key(self, server):
        master = SMBClient.in_process(server)
        slave = SMBClient.in_process(server)
        array = master.create_array("W_g", 16)
        array.write(np.full(16, 3.0, dtype=np.float32))
        view = slave.attach_array("W_g", array.shm_key, 16)
        np.testing.assert_allclose(view.read(), 3.0)
        view.write(np.full(16, 5.0, dtype=np.float32))
        np.testing.assert_allclose(array.read(), 5.0)

    def test_int64_dtype_arrays(self, client):
        array = client.create_array("c", 4, dtype="int64")
        array.write(np.asarray([1, 2, 3, 4], dtype=np.int64))
        np.testing.assert_array_equal(array.read(), [1, 2, 3, 4])


class TestControlBlock:
    def test_publish_and_read_progress(self, client):
        control = ControlBlock.create(client, "ctl", capacity=4)
        # A fixed fleet's launch ranks each claim their slot, and fresh
        # counters make every claim generation 1.
        for slot in range(4):
            control.claim(slot)
        control.publish_progress(0, 10, generation=1)
        control.publish_progress(3, 7, generation=1)
        np.testing.assert_array_equal(
            control.view().progress, [10, 0, 0, 7]
        )

    def test_stop_flag(self, client):
        control = ControlBlock.create(client, "ctl", capacity=2)
        assert control.view().stop == ControlBlock.STOP_CLEAR
        control.signal_stop(2)
        assert control.view().stop == 2

    def test_zero_stop_code_rejected(self, client):
        control = ControlBlock.create(client, "ctl", capacity=2)
        with pytest.raises(ValueError):
            control.signal_stop(0)

    def test_rank_bounds(self, client):
        control = ControlBlock.create(client, "ctl", capacity=2)
        with pytest.raises(ValueError):
            control.publish_progress(2, 1, generation=1)

    def test_attach_shares_progress(self, server):
        master = SMBClient.in_process(server)
        slave = SMBClient.in_process(server)
        control = ControlBlock.create(master, "ctl", capacity=2)
        view = ControlBlock.attach(slave, "ctl", control.shm_key, 2)
        claim = view.claim(1)
        view.publish_progress(1, 42, generation=claim.generation)
        np.testing.assert_array_equal(control.view().progress, [0, 42])
