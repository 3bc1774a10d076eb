"""One wait path: every WAIT_UPDATE is a segment waiter, answered by the core.

A blocked wait ends for exactly three reasons — the segment changed, its
waits ended (a FREE, or the core's ``close()``), or its timeout passed —
and whichever doorway parked it, :meth:`SMBServer.handle` builds the
answer.  These pin the cases that once stranded a parked wait, and the
telemetry every doorway records for one.
"""

import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.smb import SMBClient, SMBServer, TcpSMBServer
from repro.smb.errors import (
    NotificationTimeout,
    SMBError,
    UnknownKeyError,
    from_wire,
)
from repro.smb.memory import Segment
from repro.smb.protocol import Message, Op, Status

from .test_smb_eventloop import _raw_connect, _raw_response

#: A parked wait must be answered this fast once its segment is gone.
ANSWER_WITHIN = 1.0


def _untimed_wait(array):
    return Message(
        op=Op.WAIT_UPDATE, key=array.access_key, count=array.version(),
        scale=0.0,
    )


def _error(response):
    assert response.status is Status.ERROR
    return from_wire(response.payload)


class TestEndedWaits:
    def test_free_answers_an_inproc_untimed_wait(self):
        core = SMBServer(capacity=1 << 20)
        owner, other = SMBClient.in_process(core), SMBClient.in_process(core)
        array = owner.create_array("w", 16)
        request = _untimed_wait(array)
        responses = []
        waiter = threading.Thread(
            target=lambda: responses.append(core.handle(request)),
            daemon=True,
        )
        waiter.start()
        waiter.join(timeout=0.2)
        assert waiter.is_alive(), "the wait must park until the FREE"
        other.free(array.shm_key)
        waiter.join(timeout=ANSWER_WITHIN)
        assert not waiter.is_alive(), "FREE left the wait parked"
        assert isinstance(_error(responses[0]), UnknownKeyError)

    def test_free_answers_a_tcp_untimed_wait(self):
        with TcpSMBServer(capacity=1 << 20) as server:
            client = SMBClient.connect(server.address)
            array = client.create_array("w", 16)
            sock = _raw_connect(server.address)
            try:
                sock.sendall(_untimed_wait(array).encode())
                # The VERSION round trip queues behind nothing: once it is
                # answered the loop has parked the wait.
                client.version(array.access_key)
                client.free(array.shm_key)
                sock.settimeout(ANSWER_WITHIN)
                assert isinstance(
                    _error(_raw_response(sock)), UnknownKeyError
                )
            finally:
                sock.close()
                client.close()

    def test_core_close_answers_a_wait_parked_on_a_shared_core(self):
        core = SMBServer(capacity=1 << 20)
        array = SMBClient.in_process(core).create_array("w", 16)
        server = TcpSMBServer(capacity=1 << 20, core=core).start()
        sock = _raw_connect(server.address)
        try:
            sock.sendall(_untimed_wait(array).encode())
            probe = SMBClient.connect(server.address)
            probe.version(array.access_key)  # the wait is parked now
            probe.close()
            core.close()
            sock.settimeout(ANSWER_WITHIN)
            closing = _error(_raw_response(sock))
            assert type(closing) is SMBError
            assert str(closing) == "server is shutting down"
        finally:
            sock.close()
            server.stop()


class TestWakeRacingRegistration:
    def test_a_wake_during_registration_leaves_nothing_parked(
        self, monkeypatch
    ):
        """The mutation that satisfies a TCP wait may fire its waiter
        between the registration and the loop's record of it; the wait is
        still answered once, and no parked entry outlives it (a stale
        timed entry would keep the loop's ``select`` timeout at zero)."""
        register = Segment.add_waiter

        def register_then_race(segment, version, callback):
            waiter = register(segment, version, callback)
            racer = threading.Thread(target=segment.write, args=(0, b"x"))
            racer.start()
            racer.join(timeout=0.2)
            return waiter

        monkeypatch.setattr(Segment, "add_waiter", register_then_race)
        with TcpSMBServer(capacity=1 << 20) as server:
            client = SMBClient.connect(server.address)
            array = client.create_array("w", 16)
            sock = _raw_connect(server.address)
            try:
                sock.sendall(Message(
                    op=Op.WAIT_UPDATE, key=array.access_key,
                    count=array.version(), scale=5.0,
                ).encode())
                sock.settimeout(ANSWER_WITHIN + 1.0)
                assert _raw_response(sock).status is Status.OK
                with server._waiters_lock:
                    assert not server._waiters
            finally:
                sock.close()
                client.close()


class TestBlockingWaitStress:
    def test_waiters_racing_writes_then_a_free_all_finish(self):
        """More waiting threads than cores, each re-waiting on the version
        it was answered with while writes race them and a short switch
        interval shuffles every hand-off: every answer is a newer version,
        and the FREE at the end releases every one of them."""
        core = SMBServer(capacity=1 << 20)
        client = SMBClient.in_process(core)
        array = client.create_array("w", 16)
        outcomes = {}

        def waiter(index):
            seen = array.version()
            while True:
                response = core.handle(Message(
                    op=Op.WAIT_UPDATE, key=array.access_key, count=seen,
                    scale=0.0,
                ))
                if response.status is not Status.OK:
                    outcomes[index] = _error(response)
                    return
                assert response.count > seen
                seen = response.count

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=waiter, args=(i,), daemon=True)
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            payload = np.zeros(16, dtype=np.float32)
            for _ in range(300):
                array.write(payload)
            client.free(array.shm_key)
            for thread in threads:
                thread.join(timeout=5.0)
                assert not thread.is_alive(), "a waiter outlived the FREE"
        finally:
            sys.setswitchinterval(switch)
        assert len(outcomes) == 8
        assert all(isinstance(e, UnknownKeyError) for e in outcomes.values())


@pytest.fixture
def metrics_session():
    """A recording session opened before ``doorway``: its server binds it."""
    with telemetry.session("metrics") as tel:
        yield tel


class TestTimedOutWaitTelemetry:
    def test_a_timed_out_wait_is_recorded_once(self, metrics_session, doorway):
        client = doorway.connect()
        array = client.create_array("w", 16)
        with pytest.raises(NotificationTimeout):
            array.wait_update(array.version(), timeout=0.1)
        snapshot = metrics_session.registry.snapshot()
        assert snapshot["smb/server/time/WAIT_UPDATE"]["count"] == 1
        assert snapshot["smb/server/errors/TIMEOUT"]["value"] == 1
