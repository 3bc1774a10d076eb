"""The zero-copy SMB data path: framing equivalence, buffer reuse, races.

Three families of guarantees from the data-path rebuild:

* **Wire equivalence** — the vectored ``sendmsg`` framing and the
  ``recv_into`` receive path are bit-identical to the historical
  "encode one contiguous frame" representation, for every payload
  container, odd size, and odd offset (property-tested).
* **Buffer contracts** — ``read_into``/``read(out=)`` land bytes in the
  caller's buffer with zero model-size allocations in steady state;
  short or oversized response payloads raise a typed
  :class:`SMBProtocolError` instead of corrupting downstream shapes;
  error payloads never clobber a caller's ``out`` buffer.
* **Concurrency** — the two-channel TCP transport survives a
  ``drop_connection`` storm under two hammering threads without
  deadlock or data corruption (reconnect accounting itself is in
  ``tests/test_transport_contract.py``), and a drop ends a parked wait
  even when the server never answers it.
"""

import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smb import (
    DEFAULT_RETRY_POLICY,
    InProcTransport,
    Message,
    Op,
    SMBClient,
    SMBServer,
    Status,
    TcpSMBServer,
)
from repro.smb.errors import (
    SMBConnectionError,
    SMBProtocolError,
    from_wire,
    to_wire,
)
from repro.smb.protocol import (
    HEADER_SIZE,
    recv_exact,
    recv_message,
    send_message,
)
from repro.smb.transport import ChannelTransport, _TcpChannel


def _recv_all(sock: socket.socket, nbytes: int) -> bytes:
    return recv_exact(sock, nbytes)


class TestVectoredFramingEquivalence:
    """sendmsg/recv_into framing == the classic contiguous encode."""

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=4097))
    def test_vectored_send_produces_classic_frame(self, payload):
        message = Message(op=Op.WRITE, key=7, offset=3, payload=payload)
        left, right = socket.socketpair()
        try:
            send_message(left, message)
            frame = _recv_all(right, HEADER_SIZE + len(payload))
        finally:
            left.close()
            right.close()
        assert frame == message.encode()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=1031))
    def test_memoryview_payload_sends_identically(self, nbytes):
        """A NumPy-backed memoryview payload frames exactly like bytes."""
        rng = np.random.default_rng(nbytes)
        array = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
        as_view = Message(
            op=Op.WRITE, key=1, payload=memoryview(array).cast("B")
        )
        as_bytes = Message(op=Op.WRITE, key=1, payload=array.tobytes())
        left, right = socket.socketpair()
        try:
            send_message(left, as_view)
            frame = _recv_all(right, HEADER_SIZE + nbytes)
        finally:
            left.close()
            right.close()
        assert frame == as_bytes.encode()

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=2053))
    def test_recv_into_out_is_bit_identical_and_aliased(self, payload):
        message = Message(op=Op.READ, status=Status.OK, payload=payload)
        backing = bytearray(len(payload) + 16)  # roomier than needed
        out = memoryview(backing)
        left, right = socket.socketpair()
        try:
            send_message(left, message)
            received = recv_message(right, out)
        finally:
            left.close()
            right.close()
        assert bytes(received.payload) == payload
        # Zero-copy: the payload IS the caller's buffer, not a copy.
        assert isinstance(received.payload, memoryview)
        assert received.payload.obj is backing

    def test_error_payload_never_touches_out(self):
        """A failed read must not clobber the caller's array."""
        sentinel = bytearray(b"\xAA" * 64)
        error = Message(
            op=Op.READ, status=Status.ERROR, payload=b"boom" * 4
        )
        left, right = socket.socketpair()
        try:
            send_message(left, error)
            received = recv_message(right, memoryview(sentinel))
        finally:
            left.close()
            right.close()
        assert bytes(received.payload) == b"boom" * 4
        assert sentinel == b"\xAA" * 64

    def test_oversized_payload_falls_back_to_private_buffer(self):
        small = bytearray(8)
        message = Message(op=Op.READ, status=Status.OK, payload=b"x" * 100)
        left, right = socket.socketpair()
        try:
            send_message(left, message)
            received = recv_message(right, memoryview(small))
        finally:
            left.close()
            right.close()
        assert received.payload == b"x" * 100
        assert small == bytearray(8)


class TestReadWriteEquivalence:
    """Zero-copy client ops == the copying ops, for both transports."""

    @pytest.fixture(params=["inproc", "tcp"])
    def client(self, request):
        if request.param == "inproc":
            server = SMBServer(capacity=1 << 22)
            with SMBClient.in_process(server) as client:
                yield client
        else:
            server = TcpSMBServer(capacity=1 << 22).start()
            try:
                with SMBClient.connect(server.address) as client:
                    yield client
            finally:
                server.stop()

    @settings(max_examples=10, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=601),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_ndarray_write_then_read_into_roundtrip(self, count, seed):
        server = SMBServer(capacity=1 << 22)
        with SMBClient.in_process(server) as client:
            array = client.create_array(f"rt{count}.{seed}", count)
            values = np.random.default_rng(seed).standard_normal(
                count
            ).astype(np.float32)
            array.write(values)
            via_bytes = np.frombuffer(
                client.read(array.access_key, array.nbytes), dtype=np.float32
            )
            scratch = np.empty(count, dtype=np.float32)
            array.read(out=scratch)
            np.testing.assert_array_equal(via_bytes, values)
            np.testing.assert_array_equal(scratch, values)

    def test_odd_offsets_match_bytes_path(self, client):
        count = 257
        array = client.create_array("odd", count)
        values = np.arange(count, dtype=np.float32)
        array.write(values)
        for offset, nbytes in [(0, 4), (4, 12), (12, count * 4 - 12),
                               (1, 7), (13, 29)]:
            expected = client.read(array.access_key, nbytes, offset=offset)
            out = bytearray(nbytes)
            version = client.read_into(
                array.access_key, out, offset=offset
            )
            assert bytes(out) == expected
            assert version >= 1

    def test_noncontiguous_write_is_compacted(self, client):
        array = client.create_array("stride", 128)
        strided = np.arange(256, dtype=np.float32)[::2]
        assert not strided.flags.c_contiguous
        array.write(strided)
        np.testing.assert_array_equal(array.read(), strided)

    def test_read_out_validation(self, client):
        array = client.create_array("val", 64)
        with pytest.raises(ValueError):
            array.read(out=np.empty(63, dtype=np.float32))
        with pytest.raises(ValueError):
            array.read(out=np.empty(64, dtype=np.float64))
        with pytest.raises(TypeError):
            array.read(out=bytearray(256))
        readonly = np.empty(64, dtype=np.float32)
        readonly.setflags(write=False)
        with pytest.raises(ValueError):
            array.read(out=readonly)


class _LyingTransport:
    """Forwards requests but truncates READ response payloads."""

    def __init__(self, inner, keep: int) -> None:
        self.inner = inner
        self.keep = keep

    def request(self, message, out=None):
        response = self.inner.request(message)  # never forwards out
        if message.op is Op.READ and response.status is Status.OK:
            payload = bytes(response.payload)[: self.keep]
            return Message(
                op=response.op, status=response.status, key=response.key,
                count=response.count, payload=payload,
            )
        return response

    def close(self) -> None:
        self.inner.close()


class TestPayloadValidation:
    def test_short_read_raises_typed_error(self):
        server = SMBServer(capacity=1 << 20)
        client = SMBClient(_LyingTransport(InProcTransport(server), keep=8))
        array = client.create_array("w", 64)
        array.write(np.zeros(64, dtype=np.float32))
        short = "^READ carried 8 payload byte\\(s\\), expected 256$"
        with pytest.raises(SMBProtocolError, match=short):
            client.read(array.access_key, array.nbytes)
        with pytest.raises(SMBProtocolError, match=short):
            client.read_into(array.access_key, bytearray(256))

    def test_read_into_copies_when_transport_ignores_out(self):
        """A wrapper that drops ``out`` must still fill the caller's
        buffer (the aliasing-detection fallback)."""
        server = SMBServer(capacity=1 << 20)
        client = SMBClient(
            _LyingTransport(InProcTransport(server), keep=1 << 20)
        )
        array = client.create_array("w", 64)
        values = np.arange(64, dtype=np.float32)
        array.write(values)
        out = np.empty(64, dtype=np.float32)
        array.read(out=out)
        np.testing.assert_array_equal(out, values)

    def test_payload_size_error_roundtrips_the_wire(self):
        exc = SMBProtocolError("READ carried 8 payload byte(s), expected 256")
        back = from_wire(to_wire(exc))
        assert type(back) is SMBProtocolError
        assert str(back) == "READ carried 8 payload byte(s), expected 256"


class TestZeroAllocationSteadyState:
    def test_remote_array_read_out_allocates_nothing_model_sized(self):
        count = 1 << 16  # 256 KiB segment
        server = SMBServer(capacity=1 << 20)
        with SMBClient.in_process(server) as client:
            array = client.create_array("big", count)
            array.write(np.ones(count, dtype=np.float32))
            scratch = np.empty(count, dtype=np.float32)
            for _ in range(3):  # warm caches, interned bits, telemetry
                array.read(out=scratch)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                baseline, _ = tracemalloc.get_traced_memory()
                for _ in range(10):
                    array.read(out=scratch)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Ten 256-KiB reads; anything near one payload of transient
            # allocation means a copy crept back into the path.
            assert peak - baseline < array.nbytes // 4
            np.testing.assert_array_equal(
                scratch, np.ones(count, dtype=np.float32)
            )


class TestDropConnectionStorm:
    def test_two_thread_hammer_survives_drop_storm(self):
        server = TcpSMBServer(capacity=1 << 22).start()
        # Retries on: a drop that lands mid-exchange (the lock-free
        # notify-channel close exists precisely to interrupt a blocked
        # waiter) surfaces as a retryable connection error.
        client = SMBClient.connect(
            server.address, retry_policy=DEFAULT_RETRY_POLICY
        )
        stop = threading.Event()
        errors: list = []
        count = 1024

        # Created before the storm starts: a CREATE retried across a
        # drop would find its segment already exists.
        arrays = {
            label: client.create_array(f"hammer.{label}", count)
            for label in ("a", "b")
        }
        wait_array = client.create_array("hammer.wait", 16)

        def hammer(label: str) -> None:
            try:
                array = arrays[label]
                scratch = np.empty(count, dtype=np.float32)
                value = 0.0
                while not stop.is_set():
                    value += 1.0
                    payload = np.full(count, value, dtype=np.float32)
                    array.write(payload)
                    array.read(out=scratch)
                    # Byte-exact: nobody else writes this segment, so a
                    # read must return exactly the last write even while
                    # the connection is being yanked away.
                    np.testing.assert_array_equal(scratch, payload)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((label, exc))

        def waiter() -> None:
            try:
                seen = 0
                while not stop.is_set():
                    wait_array.write(np.full(16, seen + 1, dtype=np.float32))
                    seen = wait_array.wait_update(seen, timeout=1.0)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(("wait", exc))

        threads = [
            threading.Thread(target=hammer, args=("a",)),
            threading.Thread(target=hammer, args=("b",)),
            threading.Thread(target=waiter),
        ]
        for thread in threads:
            thread.start()
        transport = client.transport
        deadline = time.monotonic() + 2.0
        storms = 0
        try:
            while time.monotonic() < deadline:
                time.sleep(0.05)
                transport.drop_connection()
                storms += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
        alive = [t for t in threads if t.is_alive()]
        client.close()
        server.stop()
        assert not alive, "hammer threads deadlocked"
        assert not errors, f"hammer threads failed: {errors}"
        assert storms >= 10
        assert transport.reconnects >= 1

    def test_drop_ends_a_wait_the_server_never_answers(self):
        """Closing a socket another thread is blocked in ``recv`` on wakes
        nobody on Linux (and frees a descriptor the next socket may take
        under that ``recv``), so ``drop_connection`` must end a parked
        wait itself — here against a peer that never answers."""
        peers = []

        def open_channel():
            ours, theirs = socket.socketpair()
            peers.append(theirs)
            return _TcpChannel(ours)

        transport = ChannelTransport(open_channel)
        failed = []

        def wait():
            try:
                transport.request(Message(op=Op.WAIT_UPDATE, key=1))
            except SMBConnectionError as exc:
                failed.append(exc)

        waiter = threading.Thread(target=wait, daemon=True)
        dropper = threading.Thread(
            target=transport.drop_connection, daemon=True
        )
        try:
            waiter.start()
            deadline = time.monotonic() + 5.0
            while len(peers) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)  # the notification channel opens lazily
            peers[1].settimeout(5.0)
            _recv_all(peers[1], HEADER_SIZE)  # the wait is on the wire
            dropper.start()
            dropper.join(timeout=5.0)
            assert not dropper.is_alive(), "drop_connection hung on the wait"
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
            assert len(failed) == 1
        finally:
            for peer in peers:
                peer.close()  # releases a waiter the drop failed to end
            transport.close()

