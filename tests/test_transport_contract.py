"""One transport contract, run over every doorway.

:class:`~repro.smb.transport.ChannelTransport` owns the command lock, the
lazily opened notification channel, sliced waits, discard-and-reopen on a
lost channel, and the close choreography; a doorway (in-proc / TCP / shm)
only says how a channel is opened.  So every guarantee below must hold
identically on all three — that is what "every doorway recovers the same
way" means.  Doorway-specific behaviour (shm block growth, rendezvous
re-resolution, non-SMB peers) is tested beside its doorway.
"""

import shutil
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.smb import (
    DEFAULT_RETRY_POLICY,
    FaultInjectingTransport,
    FaultPlan,
    NotificationTimeout,
    SMBClient,
    SMBConnectionError,
    SMBError,
    SMBProtocolError,
    SMBServer,
    TransportClosedError,
)
from repro.smb.errors import from_wire
from repro.smb.protocol import (
    HEADER_FORMAT,
    HEADER_SIZE,
    Message,
    Op,
    Status,
    encode_hello,
)
from repro.smb.server import _payload_bound
from repro.smb.shm_transport import DATA_OFFSET, _ShmChannel
from repro.smb.transport import WAIT_SLICE

from .conftest import CAPACITY
from .test_chaos import FAST_RETRY


def _parked_waiter(array, outcome):
    """Start a thread blocked forever in ``wait_update`` on ``array``."""
    version = array.version()

    def wait():
        try:
            outcome["version"] = array.wait_update(version, timeout=None)
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            outcome["error"] = exc

    thread = threading.Thread(target=wait, daemon=True)
    thread.start()
    time.sleep(0.2)  # let the wait actually park
    return thread


class TestTransportContract:
    @pytest.mark.parametrize("doorway", ["tcp", "shm"], indirect=True)
    @pytest.mark.parametrize(
        "frame",
        [
            Message(op=Op.LOOKUP, payload=b"n" * (64 << 10)),
            Message(op=Op.VERSION, payload=bytes(100_000)),
        ],
        ids=["lookup-64KiB-name", "version-100KB-payload"],
    )
    def test_a_frame_over_its_op_bound_costs_its_connection(
        self, doorway, frame
    ):
        """A name op carries at most ``MAX_NAME_PAYLOAD`` bytes and
        VERSION none: both doorways judge the header by that one rule
        and drop the connection before decoding, and serve the next."""
        bad = doorway.transport()
        try:
            with pytest.raises(SMBConnectionError):
                bad.request(frame)
        finally:
            bad.close()
        array = doorway.connect().create_array("w", 16)
        array.write(np.ones(16, dtype=np.float32))
        assert np.array_equal(array.read(), np.ones(16, dtype=np.float32))

    def test_round_trip_is_bit_exact(self, doorway):
        client = doorway.connect()
        count = 1 << 16
        array = client.create_array("w", count)
        data = np.random.default_rng(7).random(count).astype(np.float32)
        array.write(data)
        assert np.array_equal(array.read(), data)
        scratch = np.empty(count, dtype=np.float32)
        array.read(out=scratch)
        assert np.array_equal(scratch, data)

    def test_bulk_accumulate_starts_no_helper_thread(self, doorway):
        """A 4 MiB ACCUMULATE is one add on the thread its doorway
        dispatched it to; nothing splits it over a pool of its own."""
        client = doorway.connect()
        count = (4 << 20) // 4
        total = client.create_array("total", count)
        delta = client.create_array("delta", count)
        step = np.random.default_rng(3).random(count).astype(np.float32)
        delta.write(step)
        delta.accumulate_into(total)
        delta.accumulate_into(total)
        assert np.array_equal(total.read(), step + step)
        assert not [
            thread.name for thread in threading.enumerate()
            if thread.name.startswith("smb-accum")
        ]

    def test_oversize_read_is_a_typed_error(self, doorway):
        """A READ no segment could satisfy is judged as a READ: the range
        refusal comes back as an ERROR on the channel it went out on, and
        that channel still serves."""
        client = doorway.connect()
        access_key = client.attach(client.create_buffer("seg", 1024), 1024)
        client.write(access_key, bytes(range(256)) * 4)
        with pytest.raises(
            SMBError,
            match=rf"^access \[0, {CAPACITY + 4096}\) exceeds segment "
            r"size 1024$",
        ):
            client.read(access_key, CAPACITY + 4096)
        assert client.transport.reconnects == 0
        assert client.read(access_key, 1024) == bytes(range(256)) * 4

    @pytest.mark.parametrize(
        "op", [Op.CREATE, Op.LOOKUP], ids=lambda op: op.name
    )
    def test_an_undecodable_name_is_a_typed_error(self, doorway, op):
        """A name payload that is not UTF-8 is refused as a protocol
        error on the channel it came in on; that channel still serves."""
        client = doorway.connect()
        response = client.transport.request(
            Message(op=op, count=16, payload=b"\xff\xfe")
        )
        assert response.status is Status.ERROR
        assert isinstance(from_wire(response.payload), SMBProtocolError)
        assert client.transport.reconnects == 0
        key = client.create_buffer("seg", 16)
        assert client.lookup("seg") == (key, 16)

    def test_foreign_free_is_refused(self, journaled_doorway, tmp_path):
        """A tenant cannot FREE another tenant's segment: the refusal is
        typed, the owner's bytes and inventory stand, and nothing is
        journaled, so a server restarted from the journal directory as
        the refusal left it (no final snapshot) still holds them."""
        alice = journaled_doorway.connect(tenant="alice")
        bob = journaled_doorway.connect(tenant="bob")
        array = alice.create_array("w", 16)
        data = np.arange(16, dtype=np.float32)
        array.write(data)
        pool = journaled_doorway.core.pool

        def inventory():
            return pool.tenant_stats(), {
                name: (segment.size, segment.version)
                for name, segment in pool.segments("alice").items()
            }

        before = inventory()
        with pytest.raises(
            SMBError, match="belongs to tenant 'alice', not 'bob'$"
        ):
            bob.free(array.shm_key)
        assert np.array_equal(array.read(), data)
        assert inventory() == before
        assert before[1] == {"alice/w": (64, 1)}
        image = tmp_path / "crash-image"
        shutil.copytree(journaled_doorway.journal_dir, image)
        restarted = SMBServer(capacity=CAPACITY, journal_dir=image)
        try:
            segment = restarted.pool.by_name("w", tenant="alice")
            assert segment.buffer.tobytes() == data.tobytes()
        finally:
            restarted.close()

    def test_bulk_does_not_starve_small(self, doorway):
        """While every ACCUMULATE into ``W_g`` is parked on its segment
        lock, another client's small ops keep completing; once the lock
        is released, every push lands exactly once."""
        core = doorway.core
        count, pushes = 256, 10
        w_g = doorway.connect().create_array("W_g", count)
        pushers = [
            doorway.connect().attach_array("W_g", w_g.shm_key, count)
            for _ in range(pushes)
        ]
        small = doorway.connect()
        other = small.create_array("other", count)
        data = np.arange(count, dtype=np.float32)
        queued = core.stats.registry.gauge("smb/server/queue/accumulate")
        # What can be in service at once: every push in-process and over
        # shm (a thread each), the worker pool's threads over TCP.
        in_service = pushes if doorway.kind != "tcp" else min(
            pushes, doorway.server._pool._max_workers
        )
        threads = [
            threading.Thread(
                target=pusher.accumulate,
                args=(np.ones(count, dtype=np.float32),),
            )
            for pusher in pushers
        ]
        rounds = []

        def small_rounds():
            for _ in range(20):
                other.write(data)
                assert np.array_equal(other.read(), data)
                assert small.lookup("other") == (other.shm_key, 4 * count)
                other.version()
                rounds.append(True)

        with core.pool.by_shm_key(w_g.shm_key).lock:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10.0
            while queued.value < in_service and time.monotonic() < deadline:
                time.sleep(0.001)
            assert queued.value == in_service
            # Bounded by count; the join only caps a starved client.
            small_client = threading.Thread(target=small_rounds)
            small_client.start()
            small_client.join(10.0)
            assert len(rounds) == 20
            assert all(thread.is_alive() for thread in threads)
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert np.array_equal(
            w_g.read(), np.full(count, pushes, dtype=np.float32)
        )

    def test_parked_wait_leaves_data_path_free(self, doorway):
        """The notification channel keeps commands flowing during a wait."""
        client = doorway.connect()
        array = client.create_array("seg", 16)
        before = array.version()
        outcome = {}
        thread = _parked_waiter(array, outcome)
        # This write must not queue behind the parked wait; it is also
        # the update the waiter is waiting for.
        start = time.monotonic()
        array.write(np.zeros(16, dtype=np.float32))
        elapsed = time.monotonic() - start
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert outcome["version"] > before
        assert elapsed < 2.0, "write serialised behind WAIT_UPDATE"

    def test_close_wakes_blocked_wait(self, doorway):
        """close() unblocks an infinite WAIT_UPDATE within one slice."""
        client = doorway.connect()
        array = client.create_array("seg", 16)
        outcome = {}
        thread = _parked_waiter(array, outcome)
        start = time.monotonic()
        client.close()
        thread.join(timeout=5.0)
        elapsed = time.monotonic() - start
        assert not thread.is_alive(), "close() failed to wake the waiter"
        assert elapsed < WAIT_SLICE + 1.0  # one slice + scheduler slack
        assert isinstance(
            outcome["error"], (TransportClosedError, SMBConnectionError)
        )

    def test_dropped_channels_heal_and_count(self, doorway):
        client = doorway.connect()
        transport = client.transport
        array = client.create_array("seg", 16)
        payload = np.arange(16, dtype=np.float32)
        array.write(payload)
        transport.drop_connection()
        assert transport.reconnects == 0
        # The next request re-opens and re-handshakes; no retry needed.
        np.testing.assert_array_equal(array.read(), payload)
        assert transport.reconnects == 1
        # The first lazy open of the notification channel is an open,
        # not a reconnect ...
        with pytest.raises(NotificationTimeout):
            array.wait_update(array.version(), timeout=0.05)
        assert transport.reconnects == 1
        # ... but once it has been open, losing it counts: the VERSION
        # read re-opens the command channel (+1) and the wait re-opens
        # the notification channel (+1).
        transport.drop_connection()
        with pytest.raises(NotificationTimeout):
            array.wait_update(array.version(), timeout=0.05)
        assert transport.reconnects == 3

    def test_server_restart_recovers(self, doorway):
        """Stop the server, start a fresh one on the same endpoint."""
        if not doorway.restartable:
            pytest.skip("an in-process core has no endpoint to restart")
        client = doorway.connect(retry_policy=DEFAULT_RETRY_POLICY)
        client.create_array("before", 16)
        doorway.restart()
        # The dead channel is discarded on the first failed attempt and
        # the retry finds the new server.
        array = client.create_array("after", 16)
        payload = np.arange(16, dtype=np.float32)
        array.write(payload)
        np.testing.assert_array_equal(array.read(), payload)
        assert client.transport.reconnects == 1

    def test_stop_severs_idle_clients(self, doorway):
        """stop() returns with every connection severed and every server
        thread gone, so nothing sent afterwards can be applied."""
        if not doorway.restartable:
            pytest.skip("an in-process core has no front-end to stop")
        writer, idler = doorway.connect(), doorway.connect()
        array = writer.create_array("seg", 16)
        array.write(np.ones(16, dtype=np.float32))
        idler.lookup("seg")
        assert doorway.server_threads()
        segment = doorway.server.core.pool.by_name("seg")
        version, data = segment.version, segment.buffer.tobytes()
        start = time.monotonic()
        doorway.server.stop()
        # A liveness bound: a stop() that cannot wake its own threads
        # gives up on each join after 5 s.
        assert time.monotonic() - start < 2.0
        assert doorway.server_threads() == []
        with pytest.raises(SMBError):
            array.write(np.full(16, 7.0, dtype=np.float32))
        assert segment.version == version
        assert segment.buffer.tobytes() == data

    def test_injected_disconnect_really_drops(self, doorway):
        inner = doorway.transport()
        transport = FaultInjectingTransport(
            inner, FaultPlan(seed=9, disconnect_rate=0.2)
        )
        client = SMBClient(transport, retry_policy=FAST_RETRY)
        try:
            array = client.create_array("seg", 64)
            payload = np.arange(64, dtype=np.float32)
            for _ in range(25):
                array.write(payload)
                np.testing.assert_array_equal(array.read(), payload)
            assert transport.stats["disconnect"] > 0
            assert inner.reconnects >= 1
        finally:
            client.close()

    def test_close_during_notify_open_no_leak(self, doorway):
        """close() cannot see a channel that is still being opened; the
        opener must notice the close and release it."""
        client = doorway.connect()
        transport = client.transport
        array = client.create_array("seg", 16)
        opening, proceed = threading.Event(), threading.Event()
        opened = []
        real_open = transport._open_channel

        class Recording:
            def __init__(self, channel):
                self.channel, self.closes = channel, 0
                self.exchange = channel.exchange

            def close(self):
                self.closes += 1
                self.channel.close()

        def slow_open():
            opening.set()
            assert proceed.wait(timeout=5.0)
            opened.append(Recording(real_open()))
            return opened[-1]

        version = array.version()
        transport._open_channel = slow_open
        outcome = {}

        def wait():
            try:
                array.wait_update(version, timeout=None)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome["error"] = exc

        thread = threading.Thread(target=wait, daemon=True)
        thread.start()
        assert opening.wait(timeout=5.0)
        transport.close()  # the notify slot is still empty here
        proceed.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert isinstance(outcome["error"], TransportClosedError)
        assert len(opened) == 1 and opened[0].closes >= 1
        assert transport._notify.channel is None


#: Payload bytes a fuzzed frame really carries; a header that declares
#: more is sent short and its connection closed (an incomplete frame).
_FUZZ_SENT = 1 << 16
_INT64 = st.integers(-(1 << 63), (1 << 63) - 1)


@st.composite
def raw_frames(draw):
    """A request header with any opcode (the reserved 10 and 12 and
    unknown ones included), random fields and a ``paylen`` within its
    op's bound, plus the payload bytes actually sent."""
    opcode = draw(st.one_of(
        st.sampled_from([int(op) for op in Op]), st.sampled_from([10, 12]),
        st.integers(0, 255),
    ))
    bound = _payload_bound(opcode, CAPACITY)
    paylen = draw(st.integers(0, 4096 if bound is None else bound))
    header = struct.pack(
        HEADER_FORMAT, opcode, draw(st.integers(0, 255)),
        draw(_INT64), draw(_INT64), draw(_INT64), draw(_INT64),
        draw(st.floats()), paylen,
    )
    pattern = draw(st.binary(min_size=1, max_size=16))
    sent = min(paylen, _FUZZ_SENT)
    payload = (pattern * (sent // len(pattern) + 1))[:sent]
    return header, payload, sent == paylen


def _send_raw_frame(doorway, header, payload, complete):
    """Send one frame on a fresh raw connection; read whatever answer
    comes (a response, or the connection dropped), then close."""
    if doorway.kind == "tcp":
        sock = socket.create_connection(doorway.server.address, timeout=5.0)
        try:
            sock.sendall(encode_hello() + header + payload)
            if complete:
                sock.recv(HEADER_SIZE)
        except OSError:
            pass  # the server dropped the connection mid-frame
        finally:
            sock.close()
        return
    channel = _ShmChannel(doorway.server.path, 5.0)
    try:
        buf = channel.block.buf
        buf[:HEADER_SIZE] = header
        fits = min(len(payload), len(buf) - DATA_OFFSET)
        buf[DATA_OFFSET:DATA_OFFSET + fits] = payload[:fits]
        channel.sock.sendall(struct.pack("!q", DATA_OFFSET + fits))
        channel.sock.recv(8)
    except OSError:
        pass
    finally:
        channel.close()


class TestRawFrames:
    @pytest.mark.parametrize("doorway", ["tcp", "shm"], indirect=True)
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(frame=raw_frames())
    def test_a_bad_frame_costs_at_most_its_connection(self, doorway, frame):
        """Whatever one header says, its connection is all it can cost:
        a client connected throughout still WRITEs and READs bit-exact,
        and every server thread that ran before still runs."""
        if not hasattr(doorway, "bystander"):
            doorway.bystander = doorway.connect().create_array("w", 4096)
            doorway.threads_before = set(doorway.server_threads())
        _send_raw_frame(doorway, *frame)
        values = np.random.default_rng(len(frame[1])).random(4096)
        doorway.bystander.write(values.astype(np.float32))
        assert np.array_equal(
            doorway.bystander.read(), values.astype(np.float32)
        )
        assert doorway.threads_before <= set(doorway.server_threads())

    @pytest.mark.parametrize("doorway", ["tcp", "shm"], indirect=True)
    def test_reserved_opcode_12_costs_one_connection(self, doorway):
        """Opcode 12 was LIST, which no caller read.  It is refused like
        any unknown opcode: the frame gets no answer and its connection
        is dropped, while a client connected all along still completes
        a WRITE and a READ."""
        bystander = doorway.connect().create_array("w", 64)
        header = struct.pack(
            HEADER_FORMAT, 12, int(Status.OK), 0, 0, 0, 0, 0.0, 0,
        )
        if doorway.kind == "tcp":
            sock = socket.create_connection(
                doorway.server.address, timeout=5.0
            )
            sock.sendall(encode_hello() + header)
            answer = sock.recv(1)
            sock.close()
        else:
            channel = _ShmChannel(doorway.server.path, 5.0)
            channel.block.buf[:HEADER_SIZE] = header
            channel.sock.sendall(struct.pack("!q", DATA_OFFSET))
            answer = channel.sock.recv(8)
            channel.close()
        assert answer == b"", "expected the connection severed"
        values = np.arange(64, dtype=np.float32)
        bystander.write(values)
        assert np.array_equal(bystander.read(), values)
