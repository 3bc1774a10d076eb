"""One-sided READ on the shm doorway: the seqlock, the hand-off, the ends.

A co-located client maps each segment it has read once and copies later
READs straight out of the mapping (``repro.smb.shm_transport``).  What
must not change is what a READ returns: bytes and the version of exactly
those bytes, and the same errors once the segment or its server is gone.

* The history check: a writer WRITEs uniform arrays and records the value
  of every version it was returned; every READ, from threads and from a
  spawned process, must return uniform bytes equal to the value of the
  version it reports.  Dropping the seqlock's second read fails it.
* A mapped key never returns a dead segment's bytes: FREE, server stop,
  a SIGKILLed server process, and a restarted server.
* Descriptors return to baseline, nothing is ever named in ``/dev/shm``,
  and the accounting follows RDMA: the client counts a one-sided READ,
  the server does not.
"""

import gc
import glob
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.smb import ShmSMBServer, SMBClient
from repro.smb.errors import SMBConnectionError, SMBError, UnknownKeyError
from repro.smb.shm_transport import ONE_SIDED
from repro.telemetry import TelemetrySession

pytestmark = pytest.mark.skipif(
    not ONE_SIDED, reason="one-sided READ needs x86-64 memory ordering"
)

#: float32 elements of the two sizes the mix workload uses.
SIZES = {"1k": 256, "4m": 1 << 20}
#: Seconds the writer keeps writing while reader threads read.
HISTORY_SECONDS = 0.4
#: The same for a reader process, per size.  A 4 MiB READ that skips the
#: seqlock's re-check tears about five times a second on a 2-vCPU box
#: when the reader is another process, so 1.5 s catches that mutant on
#: all but ~1 run in 2000.
PROCESS_SECONDS = {"1k": 0.4, "4m": 1.5}
#: WRITEs the writer completes while the readers read, however long that
#: takes: two reader threads spinning on one-sided READs starve it of
#: the GIL, and on a 2-vCPU box it managed as few as one in 0.4 s.
MIN_WRITES = 3


@pytest.fixture
def shm_server(tmp_path):
    with ShmSMBServer(tmp_path / "smb.sock", capacity=1 << 26) as server:
        yield server


def _server_reads(server):
    return server.core.stats.op_counts.get("READ", 0)


def _read_history(path, shm_key, count, ready, stop, sink):
    """Read ``count`` floats until ``stop``: ``(version, value, uniform)``
    per READ, sent to ``sink``.  Runs on a thread or in a child process."""
    client = SMBClient.connect_local(path)
    try:
        array = client.attach_array("history", shm_key, count)
        out = np.empty(count, dtype=np.float32)
        seen = []
        ready.set()
        while not stop.is_set():
            version = array.read_into(out)
            seen.append((version, float(out[0]), bool((out == out[0]).all())))
        sink(seen)
    finally:
        client.close()


def _child_history(path, shm_key, count, ready, stop, conn):
    _read_history(path, shm_key, count, ready, stop, conn.send)


def _write_history(array, count, seconds, stop):
    """WRITE ``1, 2, 3, ...`` everywhere for ``seconds`` and at least
    :data:`MIN_WRITES` times, then set ``stop``; returns the value of
    every version, version 0 being the zeroed segment."""
    history = {0: 0.0}
    value = 0.0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(history) <= MIN_WRITES:
        value += 1.0
        history[array.write(np.full(count, value, dtype=np.float32))] = value
    stop.set()
    return history


def _check_history(history, seen):
    assert seen, "no READ completed"
    for version, value, uniform in seen:
        assert uniform, f"torn READ reported as version {version}"
        assert history[version] == value, (
            f"READ reported version {version} (value {history[version]}) "
            f"but returned value {value}"
        )


class TestHistory:
    """Every READ's bytes are the bytes of the version it returns."""

    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_threads(self, shm_server, size):
        count = SIZES[size]
        writer = SMBClient.connect_local(shm_server.path)
        array = writer.create_array("history", count)
        stop = threading.Event()
        seen = []
        readers = []
        for _ in range(2):
            ready = threading.Event()
            reader = threading.Thread(
                target=_read_history,
                args=(shm_server.path, array.shm_key, count, ready, stop,
                      seen.extend),
            )
            reader.start()
            ready.wait(5.0)
            readers.append(reader)
        history = _write_history(array, count, HISTORY_SECONDS, stop)
        for reader in readers:
            reader.join(10.0)
        writer.close()
        _check_history(history, seen)
        # Some READs were one-sided: the server saw fewer than were made.
        assert _server_reads(shm_server) < len(seen)

    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_spawned_process(self, shm_server, size):
        count = SIZES[size]
        writer = SMBClient.connect_local(shm_server.path)
        array = writer.create_array("history", count)
        ctx = multiprocessing.get_context("spawn")
        ready, stop = ctx.Event(), ctx.Event()
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_child_history,
            args=(shm_server.path, array.shm_key, count, ready, stop, sender),
        )
        child.start()
        try:
            assert ready.wait(60.0), "reader process did not start"
            history = _write_history(
                array, count, PROCESS_SECONDS[size], stop
            )
            assert receiver.poll(30.0), "reader process sent nothing"
            seen = receiver.recv()
        finally:
            stop.set()
            child.join(30.0)
            if child.is_alive():
                child.kill()
            writer.close()
        assert child.exitcode == 0
        _check_history(history, seen)
        assert _server_reads(shm_server) < len(seen)


class TestDeadSegments:
    """A mapped key errs exactly as the RPC READ would."""

    def _mapped(self, client, count=256):
        array = client.create_array("w", count)
        array.write(np.full(count, 1.0, dtype=np.float32))
        out = np.empty(count, dtype=np.float32)
        array.read(out=out)  # hands the memfd over
        array.read(out=out)  # one-sided
        return array, out

    def test_free_by_another_client(self, shm_server):
        owner = SMBClient.connect_local(shm_server.path)
        other = SMBClient.connect_local(shm_server.path)
        array, out = self._mapped(owner)
        other.free(array.shm_key)
        with pytest.raises(UnknownKeyError):
            array.read(out=out)
        owner.close()
        other.close()

    def test_server_stop(self, tmp_path):
        server = ShmSMBServer(tmp_path / "smb.sock", capacity=1 << 22).start()
        client = SMBClient.connect_local(server.path)
        array, out = self._mapped(client)
        server.stop()
        with pytest.raises(SMBError):
            array.read(out=out)
        client.close()

    def test_sigkill_of_a_server_process(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        receiver, sender = ctx.Pipe(duplex=False)
        path = str(tmp_path / "smb.sock")
        child = ctx.Process(target=_child_server, args=(path, sender))
        child.start()
        try:
            assert receiver.poll(60.0), "server process did not start"
            shm_key = receiver.recv()
            client = SMBClient.connect_local(path)
            array = client.attach_array("w", shm_key, 256)
            out = np.empty(256, dtype=np.float32)
            array.read(out=out)
            array.read(out=out)
            assert (out == 7.0).all()
            os.kill(child.pid, signal.SIGKILL)
            child.join(10.0)
            started = time.monotonic()
            with pytest.raises(SMBConnectionError):
                array.read(out=out)
            assert time.monotonic() - started < 1.0
            client.close()
        finally:
            if child.is_alive():
                child.kill()
                child.join(10.0)

    @pytest.mark.parametrize("doorway", ["shm"], indirect=True)
    def test_restart_then_reattach_reads_the_new_server(self, doorway):
        client = doorway.connect()
        array, out = self._mapped(client)
        doorway.restart()
        fresh = doorway.connect().create_array("w", 256)
        fresh.write(np.full(256, 2.0, dtype=np.float32))
        with pytest.raises(SMBConnectionError):
            array.read(out=out)
        view = client.attach_array("w", fresh.shm_key, 256)
        for _ in range(3):  # the RPC READ, then one-sided ones
            assert (view.read(out=out) == 2.0).all()


def _child_server(path, conn):
    """A server process holding one segment of 7s, until it is killed."""
    server = ShmSMBServer(path, capacity=1 << 22).start()
    client = SMBClient.connect_local(server.path)
    array = client.create_array("w", 256)
    array.write(np.full(256, 7.0, dtype=np.float32))
    conn.send(array.shm_key)
    time.sleep(120.0)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _psm_names():
    return set(glob.glob("/dev/shm/psm_*"))


class TestHygiene:
    def _cycle(self, client, name):
        """Create, write, map, read one-sided, free."""
        array = client.create_array(name, 256)
        array.write(np.ones(256, dtype=np.float32))
        out = np.empty(256, dtype=np.float32)
        array.read(out=out)
        array.read(out=out)
        array.free()

    def test_fds_and_dev_shm_return_to_baseline(self, tmp_path):
        path = tmp_path / "smb.sock"
        gc.collect()
        fds, names = _open_fds(), _psm_names()
        server = ShmSMBServer(path, capacity=1 << 22).start()
        client = SMBClient.connect_local(server.path)
        self._cycle(client, "warm")
        gc.collect()
        running = _open_fds()
        for index in range(100):
            self._cycle(client, f"s{index}")
        gc.collect()
        assert _open_fds() == running
        # Connection blocks are memfds too: nothing is ever named.
        assert _psm_names() == names
        # Live segments hold descriptors until their server is collected.
        for index in range(10):
            client.create_array(f"live{index}", 256).read()
        client.close()
        server.stop()
        del server, client
        gc.collect()
        assert _open_fds() == fds
        assert _psm_names() == names


class TestAccounting:
    def test_one_sided_read_is_counted_by_the_client_only(self, shm_server):
        session = TelemetrySession("metrics")
        client = SMBClient.connect_local(shm_server.path, telemetry=session)
        array = client.create_array("w", 256)
        array.write(np.ones(256, dtype=np.float32))
        out = np.empty(256, dtype=np.float32)
        array.read(out=out)  # the RPC READ that hands the memfd over
        stats = shm_server.core.stats
        server_before = (_server_reads(shm_server), stats.bytes_read)
        reads = session.registry.histogram("smb/client/time/READ")
        read_bytes = session.registry.counter("smb/client/bytes_read")
        client_before = (reads.count, read_bytes.value)
        for _ in range(10):
            array.read(out=out)
        assert (_server_reads(shm_server), stats.bytes_read) == server_before
        assert (reads.count, read_bytes.value) == (
            client_before[0] + 10, client_before[1] + 10 * 1024
        )
        client.close()
