"""Parameter-serving read tier: replicas, pinned reads, gateway.

Covers the serving data path end to end plus the wait/version contract
fixes it leans on:

* ``wait_update`` timeout semantics — ``None`` waits forever, ``0.0``
  polls (one immediate version check, never parking a server thread);
* :class:`VersionRegressionError` — a recovery that rolls a segment
  below a client's last-seen version surfaces a typed error instead of
  parking its subscription loop forever;
* :class:`ReplicaServer` — mirroring, the snapshot ring, resync across
  primary recovery (ring retained);
* :class:`ModelGateway` — HTTP routes, ETag/304, placement fan-out, and
  the acceptance demo: 16 concurrent HTTP readers of a 16 MiB ``W_g``
  with **zero** primary READ ops after warm-up.
"""

import contextlib
import http.client
import json
import socket
import sys
import threading
import time
import tracemalloc
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.smb import (
    NotificationTimeout,
    ReplicaServer,
    RetryPolicy,
    SMBClient,
    SMBServer,
    TcpSMBServer,
    UnknownKeyError,
    VersionNotAvailableError,
    VersionRegressionError,
)
from repro.smb.journal import RENDEZVOUS_NAME
from repro.smb.memory import Segment
from repro.serve import ModelGateway

RECOVERY_RETRY = RetryPolicy(
    max_attempts=8, base_backoff=0.02, max_backoff=0.2, seed=7
)


def _wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _http_get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


# ---------------------------------------------------------------------------
# Satellite 1: the wait_update timeout contract
# ---------------------------------------------------------------------------


class TestWaitTimeoutContract:
    @pytest.mark.parametrize("transport_kind", ["inproc", "tcp"])
    def test_zero_timeout_polls_promptly(self, transport_kind):
        """``timeout=0.0`` is a poll: it returns (with a timeout error)
        immediately instead of parking a waiter forever."""
        if transport_kind == "tcp":
            server = TcpSMBServer(capacity=1 << 20).start()
            client = SMBClient.connect(server.address)
        else:
            server = None
            client = SMBClient.in_process(SMBServer(capacity=1 << 20))
        try:
            array = client.create_array("seg", 16)
            begin = time.monotonic()
            with pytest.raises(NotificationTimeout):
                array.wait_update(version=array.version(), timeout=0.0)
            assert time.monotonic() - begin < 1.0
        finally:
            client.close()
            if server is not None:
                server.stop()

    def test_zero_timeout_poll_sees_an_existing_update(self):
        client = SMBClient.in_process(SMBServer(capacity=1 << 20))
        with client:
            array = client.create_array("seg", 16)
            array.write(np.ones(16, dtype=np.float32))
            assert array.wait_update(version=0, timeout=0.0) >= 1

    def test_poll_does_not_park_a_loop_thread_waiter(self):
        """Regression: a 0.0 poll against a TCP server must answer from
        the event loop inline — never park a ``_PendingWait`` that only a
        future write would release."""
        server = TcpSMBServer(capacity=1 << 20).start()
        client = SMBClient.connect(server.address)
        try:
            array = client.create_array("seg", 16)
            outcome = {}

            def poller():
                begin = time.monotonic()
                try:
                    array.wait_update(version=array.version(), timeout=0.0)
                    outcome["result"] = "returned"
                except NotificationTimeout:
                    outcome["result"] = "timeout"
                outcome["elapsed"] = time.monotonic() - begin

            thread = threading.Thread(target=poller, daemon=True)
            thread.start()
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "0.0 poll parked a waiter"
            assert outcome["result"] == "timeout"
            assert outcome["elapsed"] < 1.0
        finally:
            client.close()
            server.stop()

    def test_none_waits_until_update(self):
        client = SMBClient.in_process(SMBServer(capacity=1 << 20))
        with client:
            array = client.create_array("seg", 16)
            seen = {}

            def waiter():
                seen["version"] = array.wait_update(version=0, timeout=None)

            thread = threading.Thread(target=waiter, daemon=True)
            thread.start()
            time.sleep(0.05)
            array.write(np.ones(16, dtype=np.float32))
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert seen["version"] >= 1

    def test_bounded_timeout_still_times_out(self):
        client = SMBClient.in_process(SMBServer(capacity=1 << 20))
        with client:
            array = client.create_array("seg", 16)
            with pytest.raises(NotificationTimeout):
                array.wait_update(version=array.version(), timeout=0.05)


# ---------------------------------------------------------------------------
# Satellite 2: version regression surfaces as a typed error
# ---------------------------------------------------------------------------


class TestVersionRegression:
    def _snapshot_only_restart(self, tmp_path, writes=3):
        """Primary at version ``writes``; snapshot taken at version 1;
        killed; recovered snapshot-only (so the segment regresses)."""
        first = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path,
            journal_ops=False,
        ).start()
        rendezvous = str(tmp_path / RENDEZVOUS_NAME)
        client = SMBClient.connect(
            first.address, retry_policy=RECOVERY_RETRY,
            rendezvous=rendezvous, server_down_grace=20.0,
        )
        array = client.create_array("weights", 8)
        array.write(np.full(8, 1.0, dtype=np.float32))
        client.request_snapshot()  # durable at version 1
        for i in range(2, writes + 1):
            array.write(np.full(8, float(i), dtype=np.float32))
        assert array.version() == writes
        first.kill()
        second = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path,
            journal_ops=False,
        ).start()
        return client, array, second

    def test_wait_past_recovered_version_raises(self, tmp_path):
        client, array, server = self._snapshot_only_restart(tmp_path)
        try:
            with pytest.raises(VersionRegressionError) as excinfo:
                array.wait_update(version=3, timeout=5.0)
            assert excinfo.value.last_seen == 3
            assert excinfo.value.current == 1
            assert excinfo.value.epoch == 1
        finally:
            client.close()
            server.stop()

    def test_resync_clears_the_flag(self, tmp_path):
        """Waiting from a version the recovered segment covers proves
        the caller resynced; subsequent waits work normally."""
        client, array, server = self._snapshot_only_restart(tmp_path)
        try:
            with pytest.raises(VersionRegressionError):
                array.wait_update(version=3, timeout=5.0)
            recovered = array.version()
            assert recovered == 1
            np.testing.assert_array_equal(
                array.read(), np.full(8, 1.0, dtype=np.float32)
            )
            # Waiting from the recovered version is a normal wait again.
            with pytest.raises(NotificationTimeout):
                array.wait_update(version=recovered, timeout=0.0)
            array.write(np.full(8, 9.0, dtype=np.float32))
            assert array.wait_update(version=recovered, timeout=5.0) == 2
        finally:
            client.close()
            server.stop()

    def test_full_journal_recovery_does_not_regress(self, tmp_path):
        """With per-op journaling the version continues; no typed error."""
        first = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path
        ).start()
        rendezvous = str(tmp_path / RENDEZVOUS_NAME)
        client = SMBClient.connect(
            first.address, retry_policy=RECOVERY_RETRY,
            rendezvous=rendezvous, server_down_grace=20.0,
        )
        array = client.create_array("weights", 8)
        array.write(np.full(8, 1.0, dtype=np.float32))
        first.kill()
        second = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path
        ).start()
        try:
            array.write(np.full(8, 2.0, dtype=np.float32))
            assert array.version() == 2
        finally:
            client.close()
            second.stop()

    def test_error_round_trips_the_wire(self):
        from repro.smb.errors import from_wire, to_wire

        exc = VersionRegressionError(
            shm_key=0xBEEF, last_seen=9, current=4, epoch=2
        )
        rebuilt = from_wire(to_wire(exc))
        assert isinstance(rebuilt, VersionRegressionError)
        assert rebuilt.last_seen == 9
        assert rebuilt.current == 4
        assert rebuilt.epoch == 2


# ---------------------------------------------------------------------------
# ReplicaServer: mirroring, the ring, pinned reads
# ---------------------------------------------------------------------------


class TestReplicaServer:
    def _primary(self, count=256):
        server = SMBServer(capacity=1 << 22)
        master = SMBClient.in_process(server)
        array = master.create_array("W_g", count)
        array.write(np.full(count, 1.0, dtype=np.float32))
        return server, master, array

    def test_mirrors_and_tracks_updates(self):
        server, master, array = self._primary()
        replica = ReplicaServer(
            lambda: SMBClient.in_process(server), ["W_g"]
        ).start()
        try:
            assert replica.wait_ready(5.0)
            version, data = replica.read("W_g")
            assert version == 1
            assert np.frombuffer(data, dtype=np.float32)[0] == 1.0
            array.write(np.full(256, 2.0, dtype=np.float32))
            assert _wait_for(lambda: replica.version("W_g") >= 2)
            version, data = replica.read("W_g")
            assert version == 2
            assert np.frombuffer(data, dtype=np.float32)[0] == 2.0
        finally:
            replica.stop()
            master.close()

    def test_pinned_read_serves_from_ring(self):
        server, master, array = self._primary()
        replica = ReplicaServer(
            lambda: SMBClient.in_process(server), ["W_g"], ring_depth=4
        ).start()
        try:
            assert replica.wait_ready(5.0)
            for i in range(2, 5):
                array.write(np.full(256, float(i), dtype=np.float32))
                assert _wait_for(
                    lambda i=i: replica.version("W_g") >= i
                )
            # Version 2 is gone from the primary (now at 4) but retained.
            version, data = replica.read("W_g", version=2)
            assert version == 2
            assert np.frombuffer(data, dtype=np.float32)[0] == 2.0
        finally:
            replica.stop()
            master.close()

    def test_aged_out_version_raises(self):
        server, master, array = self._primary()
        replica = ReplicaServer(
            lambda: SMBClient.in_process(server), ["W_g"], ring_depth=2
        ).start()
        try:
            assert replica.wait_ready(5.0)
            for i in range(2, 7):
                array.write(np.full(256, float(i), dtype=np.float32))
                assert _wait_for(
                    lambda i=i: replica.version("W_g") >= i
                )
            with pytest.raises(VersionNotAvailableError):
                replica.read("W_g", version=1)
        finally:
            replica.stop()
            master.close()

    def test_unknown_segment_rejected(self):
        server, master, _ = self._primary()
        replica = ReplicaServer(
            lambda: SMBClient.in_process(server), ["W_g"]
        ).start()
        try:
            assert replica.wait_ready(5.0)
            with pytest.raises(UnknownKeyError):
                replica.read("nope")
            assert not replica.serves("nope")
            assert replica.serves("W_g")
            assert not replica.serves("W_g", tenant="other")
        finally:
            replica.stop()
            master.close()

    def test_an_applied_version_is_held_once(self):
        """The replica keeps no pool mirror, so there is no second store
        to diverge from ``read()`` and no back door that sets a
        segment's version; the client has no cache in front of READ."""
        server, master, _ = self._primary()
        replica = ReplicaServer(lambda: SMBClient.in_process(server), ["W_g"])
        assert not hasattr(replica, "core")
        assert not hasattr(Segment, "install")
        with pytest.raises(TypeError):
            ReplicaServer(lambda: master, ["W_g"], capacity=1 << 20)
        with pytest.raises(TypeError):
            SMBClient.connect(("127.0.0.1", 1), cache=1)
        master.close()

    def test_tenant_scoped_mirroring(self):
        server = SMBServer(capacity=1 << 22)
        server.pool.create_tenant("alice")
        master = SMBClient.in_process(server, tenant="alice")
        array = master.create_array("W_g", 64)
        array.write(np.full(64, 7.0, dtype=np.float32))
        replica = ReplicaServer(
            lambda: SMBClient.in_process(server, tenant="alice"),
            ["W_g"], tenant="alice",
        ).start()
        try:
            assert replica.wait_ready(5.0)
            version, data = replica.read("W_g", tenant="alice")
            assert version == 1
            assert np.frombuffer(data, dtype=np.float32)[0] == 7.0
        finally:
            replica.stop()
            master.close()


# ---------------------------------------------------------------------------
# Satellite 4: primary loss mid-subscription
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestReplicaChaos:
    def test_replica_resyncs_across_journaled_recovery(self, tmp_path):
        """Kill the primary mid-subscription; the journaled replacement
        recovers on a new port; the replica reconnects (rendezvous),
        resumes mirroring, and pre-kill pinned versions still serve."""
        first = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path
        ).start()
        rendezvous = str(tmp_path / RENDEZVOUS_NAME)
        master = SMBClient.connect(
            first.address, retry_policy=RECOVERY_RETRY,
            rendezvous=rendezvous, server_down_grace=20.0,
        )
        array = master.create_array("W_g", 64)
        array.write(np.full(64, 1.0, dtype=np.float32))

        def connect():
            return SMBClient.connect(
                first.address, retry_policy=RECOVERY_RETRY,
                rendezvous=rendezvous, server_down_grace=20.0,
            )

        replica = ReplicaServer(connect, ["W_g"], ring_depth=8).start()
        second = None
        try:
            assert replica.wait_ready(10.0)
            array.write(np.full(64, 2.0, dtype=np.float32))
            assert _wait_for(lambda: replica.version("W_g") >= 2)
            first.kill()
            second = TcpSMBServer(
                port=0, capacity=1 << 20, journal_dir=tmp_path
            ).start()
            # Full journal: the recovered epoch continues at version 2;
            # a new write reaches the replica through the re-attach.
            array.write(np.full(64, 3.0, dtype=np.float32))
            assert _wait_for(
                lambda: replica.version("W_g") >= 3, timeout=20.0
            )
            version, data = replica.read("W_g")
            assert version == 3
            assert np.frombuffer(data, dtype=np.float32)[0] == 3.0
            # Pinned pre-kill versions still serve from the ring.
            version, data = replica.read("W_g", version=1)
            assert np.frombuffer(data, dtype=np.float32)[0] == 1.0
        finally:
            replica.stop()
            master.close()
            if second is not None:
                second.stop()

    def test_replica_resyncs_after_snapshot_only_regression(self, tmp_path):
        """Snapshot-only recovery rolls the primary back; the replica's
        wait surfaces VersionRegressionError and it force-resyncs to the
        recovered epoch — keeping its ring, so pinned reads of pre-kill
        versions still serve."""
        first = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path,
            journal_ops=False,
        ).start()
        rendezvous = str(tmp_path / RENDEZVOUS_NAME)
        master = SMBClient.connect(
            first.address, retry_policy=RECOVERY_RETRY,
            rendezvous=rendezvous, server_down_grace=20.0,
        )
        array = master.create_array("W_g", 64)
        array.write(np.full(64, 1.0, dtype=np.float32))
        master.request_snapshot()  # durable at version 1
        array.write(np.full(64, 2.0, dtype=np.float32))
        array.write(np.full(64, 3.0, dtype=np.float32))

        def connect():
            return SMBClient.connect(
                first.address, retry_policy=RECOVERY_RETRY,
                rendezvous=rendezvous, server_down_grace=20.0,
            )

        replica = ReplicaServer(connect, ["W_g"], ring_depth=8).start()
        second = None
        try:
            assert replica.wait_ready(10.0)
            assert replica.version("W_g") == 3
            first.kill()
            second = TcpSMBServer(
                port=0, capacity=1 << 20, journal_dir=tmp_path,
                journal_ops=False,
            ).start()
            # Recovered at version 1 (< last seen 3): the subscription
            # must resync down instead of parking forever.
            assert _wait_for(
                lambda: replica.version("W_g") == 1, timeout=20.0
            ), "replica never resynced to the regressed primary"
            info = replica.lag_info()["W_g"]
            assert info["resyncs"] >= 1
            version, data = replica.read("W_g")
            assert version == 1
            assert np.frombuffer(data, dtype=np.float32)[0] == 1.0
            # The ring kept the pre-kill snapshots.
            version, data = replica.read("W_g", version=3)
            assert np.frombuffer(data, dtype=np.float32)[0] == 3.0
            # And mirroring continues against the recovered epoch.
            array.write(np.full(64, 9.0, dtype=np.float32))
            assert _wait_for(
                lambda: replica.version("W_g") >= 2
                and np.frombuffer(
                    replica.read("W_g")[1], dtype=np.float32
                )[0] == 9.0,
                timeout=20.0,
            )
        finally:
            replica.stop()
            master.close()
            if second is not None:
                second.stop()


# ---------------------------------------------------------------------------
# The HTTP gateway
# ---------------------------------------------------------------------------


class TestModelGateway:
    def _stack(self, count=256):
        server = SMBServer(capacity=1 << 22)
        master = SMBClient.in_process(server)
        array = master.create_array("W_g", count)
        array.write(np.full(count, 1.0, dtype=np.float32))
        replica = ReplicaServer(
            lambda: SMBClient.in_process(server), ["W_g"], name="r0"
        ).start()
        assert replica.wait_ready(5.0)
        gateway = ModelGateway([replica]).start()
        return server, master, array, replica, gateway

    def test_an_empty_or_repeated_fleet_is_refused_before_binding(self):
        """No replica, or two replicas under one name: ``ValueError``,
        and the port the gateway was given is still free."""
        server = SMBServer(capacity=1 << 20)
        twins = [
            ReplicaServer(
                lambda: SMBClient.in_process(server), ["W_g"], name="r0"
            )
            for _ in range(2)
        ]
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        for fleet in ([], twins):
            with pytest.raises(ValueError):
                ModelGateway(fleet, port=port)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))  # EADDRINUSE had it bound

    def test_get_current_with_etag(self):
        server, master, array, replica, gateway = self._stack()
        try:
            status, headers, body = _http_get(
                gateway.url + "/v1/models/default/W_g"
            )
            assert status == 200
            assert headers["Content-Type"] == "application/octet-stream"
            assert headers["ETag"] == '"v1"'
            assert headers["X-SMB-Version"] == "1"
            assert np.frombuffer(body, dtype=np.float32)[0] == 1.0
        finally:
            gateway.stop()
            replica.stop()
            master.close()

    def test_if_none_match_returns_304(self):
        server, master, array, replica, gateway = self._stack()
        try:
            status, headers, _ = _http_get(
                gateway.url + "/v1/models/default/W_g"
            )
            status, _, body = _http_get(
                gateway.url + "/v1/models/default/W_g",
                headers={"If-None-Match": headers["ETag"]},
            )
            assert status == 304
            assert body == b""
            # A new version invalidates the conditional request.
            array.write(np.full(256, 2.0, dtype=np.float32))
            assert _wait_for(lambda: replica.version("W_g") >= 2)
            status, headers2, body = _http_get(
                gateway.url + "/v1/models/default/W_g",
                headers={"If-None-Match": headers["ETag"]},
            )
            assert status == 200
            assert headers2["ETag"] == '"v2"'
        finally:
            gateway.stop()
            replica.stop()
            master.close()

    def test_pinned_version_and_errors(self):
        server, master, array, replica, gateway = self._stack()
        try:
            array.write(np.full(256, 2.0, dtype=np.float32))
            assert _wait_for(lambda: replica.version("W_g") >= 2)
            status, headers, body = _http_get(
                gateway.url + "/v1/models/default/W_g?version=1"
            )
            assert status == 200
            assert headers["X-SMB-Version"] == "1"
            assert np.frombuffer(body, dtype=np.float32)[0] == 1.0
            status, _, body = _http_get(
                gateway.url + "/v1/models/default/W_g?version=999"
            )
            assert status == 404
            assert json.loads(body)["error"] == "version not available"
            status, _, _ = _http_get(
                gateway.url + "/v1/models/default/nope"
            )
            assert status == 404
            status, _, _ = _http_get(
                gateway.url + "/v1/models/default/W_g?version=banana"
            )
            assert status == 400
            status, _, _ = _http_get(gateway.url + "/bogus")
            assert status == 404
        finally:
            gateway.stop()
            replica.stop()
            master.close()

    def test_healthz_reports_fleet(self):
        server, master, array, replica, gateway = self._stack()
        try:
            status, _, body = _http_get(gateway.url + "/healthz")
            assert status == 200
            doc = json.loads(body)
            assert doc["status"] == "ok"
            assert doc["replicas"]["r0"]["W_g"]["ready"] is True
        finally:
            gateway.stop()
            replica.stop()
            master.close()

    def test_placement_spreads_and_fails_over(self):
        """Two replicas: placement picks one deterministically, and a
        stopped replica's segments still serve through the other."""
        server = SMBServer(capacity=1 << 22)
        master = SMBClient.in_process(server)
        array = master.create_array("W_g", 64)
        array.write(np.full(64, 5.0, dtype=np.float32))
        replicas = [
            ReplicaServer(
                lambda: SMBClient.in_process(server), ["W_g"],
                name=f"r{i}",
            ).start()
            for i in range(2)
        ]
        for replica in replicas:
            assert replica.wait_ready(5.0)
        gateway = ModelGateway(replicas).start()
        try:
            version, data = gateway.read("default", "W_g")
            assert version == 1
            # Kill the placement pick; the read must fail over.
            picked = gateway._placement.server_for("default/W_g")
            {r.name: r for r in replicas}[picked].stop()
            version, data = gateway.read("default", "W_g")
            assert version == 1
            assert np.frombuffer(data, dtype=np.float32)[0] == 5.0
        finally:
            gateway.stop()
            for replica in replicas:
                replica.stop()
            master.close()


# ---------------------------------------------------------------------------
# Acceptance: the read-fanout demo
# ---------------------------------------------------------------------------


class TestReadFanoutAcceptance:
    def test_fanout_never_touches_the_primary_after_warmup(self):
        """1 primary + 2 replicas + gateway; 16 concurrent HTTP readers
        of a 16 MiB W_g; zero primary READ ops during the fan-out."""
        size = 16 << 20
        count = size // 4
        primary = TcpSMBServer(capacity=size + (1 << 22)).start()
        master = SMBClient.connect(primary.address)
        array = master.create_array("W_g", count)
        array.write(np.full(count, 1.0, dtype=np.float32))

        def connect():
            return SMBClient.connect(primary.address)

        replicas = [
            ReplicaServer(connect, ["W_g"], name=f"r{i}").start()
            for i in range(2)
        ]
        gateway = None
        try:
            for replica in replicas:
                assert replica.wait_ready(30.0)
            gateway = ModelGateway(replicas).start()
            # Warm-up is over: the replicas each took their initial READ.
            reads_after_warmup = primary.core.stats.op_counts.get("READ", 0)
            assert reads_after_warmup >= 2

            errors = []
            url = gateway.url + "/v1/models/default/W_g"

            def reader():
                try:
                    status, headers, body = _http_get(url)
                    assert status == 200
                    assert len(body) == size
                    assert headers["X-SMB-Version"] == "1"
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, daemon=True)
                for _ in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not errors, errors[0]
            # The whole fan-out was served by the read tier: not one
            # primary READ beyond the warm-up mirrors.
            assert (
                primary.core.stats.op_counts.get("READ", 0)
                == reads_after_warmup
            )
        finally:
            if gateway is not None:
                gateway.stop()
            for replica in replicas:
                replica.stop()
            master.close()
            primary.stop()

    def test_replica_lag_is_bounded_on_loopback(self):
        """A primary write reaches the replica well under a second."""
        primary = TcpSMBServer(capacity=1 << 22).start()
        master = SMBClient.connect(primary.address)
        array = master.create_array("W_g", 1024)
        array.write(np.full(1024, 1.0, dtype=np.float32))
        replica = ReplicaServer(
            lambda: SMBClient.connect(primary.address), ["W_g"]
        ).start()
        try:
            assert replica.wait_ready(10.0)
            begin = time.monotonic()
            array.write(np.full(1024, 2.0, dtype=np.float32))
            assert _wait_for(
                lambda: replica.version("W_g") >= 2, timeout=5.0
            )
            lag = time.monotonic() - begin
            assert lag < 1.0, f"replica lag {lag:.3f}s exceeds 1s bound"
        finally:
            replica.stop()
            master.close()
            primary.stop()


# ---------------------------------------------------------------------------
# One shared immutable snapshot per version
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _serving_stack(count=256, start=True):
    """primary -> replica "r0" -> gateway, torn down in reverse."""
    server = SMBServer(capacity=1 << 22)
    master = SMBClient.in_process(server)
    array = master.create_array("W_g", count)
    array.write(np.full(count, 1.0, dtype=np.float32))
    replica = ReplicaServer(
        lambda: SMBClient.in_process(server), ["W_g"], name="r0"
    ).start()
    gateway = None
    try:
        assert replica.wait_ready(5.0)
        gateway = ModelGateway([replica])
        if start:
            gateway.start()
        yield array, replica, gateway
    finally:
        if gateway is not None:
            gateway.stop()
        replica.stop()
        master.close()


class TestSharedSnapshot:
    def test_readers_of_one_version_share_one_object(self):
        with _serving_stack() as (array, replica, gateway):
            version, first = replica.read("W_g")
            assert version == 1
            assert replica.read("W_g")[1] is first
            assert replica.read("W_g", version=1)[1] is first
            assert gateway.read("default", "W_g")[1] is first
            assert replica._subs["W_g"].ring.get(1) is first
            array.write(np.full(256, 2.0, dtype=np.float32))
            assert _wait_for(lambda: replica.version("W_g") >= 2)
            version, second = replica.read("W_g")
            assert version == 2 and second is not first
            assert np.frombuffer(second, dtype=np.float32)[0] == 2.0
            assert replica._subs["W_g"].ring.get(2) is second
            # The retired version is still the same object, from the ring.
            assert replica.read("W_g", version=1)[1] is first

    def test_version_never_goes_backwards_under_a_writer(self):
        """More readers than cores against a live subscription: a read
        is never older than the one before it, one version is always
        one object, and its bytes are exactly that version's (write
        ``i`` stores ``float(i)`` as version ``i``)."""
        writes, problems, done = 150, [], threading.Event()

        def reader(replica):
            seen, held = 0, b""
            while not done.is_set():
                version, data = replica.read("W_g")
                value = np.frombuffer(data, dtype=np.float32)
                if version < seen:
                    problems.append(f"v{seen} then v{version}")
                if version == seen and data is not held:
                    problems.append(f"v{version} is two objects")
                if value[0] != value[-1] or value[0] != version:
                    problems.append(f"v{version}: {value[0]}..{value[-1]}")
                seen, held = version, data

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _serving_stack(start=False) as (array, replica, _):
                readers = [
                    threading.Thread(target=reader, args=(replica,))
                    for _ in range(6)
                ]
                for thread in readers:
                    thread.start()
                try:
                    for i in range(2, writes + 1):
                        array.write(np.full(256, float(i), dtype=np.float32))
                    caught_up = _wait_for(
                        lambda: replica.version("W_g") == writes
                    )
                finally:
                    done.set()
                    for thread in readers:
                        thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in readers)
        finally:
            sys.setswitchinterval(interval)
        assert caught_up
        assert not problems, problems[:3]

    def test_reads_and_304s_allocate_no_segment_copies(self):
        """200 current reads + 200 conditional GETs of a 1 MiB segment
        must not grow the heap by even a quarter of one segment."""
        nbytes = 1 << 20
        with _serving_stack(count=nbytes // 4) as (_, replica, gateway):
            conn = http.client.HTTPConnection(*gateway.address, timeout=10)
            headers = {"If-None-Match": '"v1"'}

            def conditional_get():
                conn.request("GET", "/v1/models/default/W_g", headers=headers)
                response = conn.getresponse()
                assert response.read() == b""
                return response.status

            assert conditional_get() == 304  # connection + caches warm
            kept = []
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                for _ in range(200):
                    kept.append(replica.read("W_g")[1])
                for _ in range(200):
                    assert conditional_get() == 304
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                conn.close()
            assert all(data is kept[0] for data in kept)
            assert peak - before < nbytes // 4, peak - before


# ---------------------------------------------------------------------------
# The gateway on the wire (raw sockets: http.client would hide the framing)
# ---------------------------------------------------------------------------


def _connect(gateway):
    sock = socket.create_connection(gateway.address, timeout=10.0)
    return sock, sock.makefile("rb")


def _read_response(stream):
    """``(status, lower-cased headers, body)`` of one framed response."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    for line in iter(stream.readline, b"\r\n"):
        assert line, "stream ended inside a response head"
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def _exchange(gateway, request):
    """One request on a fresh connection; also whether the server closed."""
    sock, stream = _connect(gateway)
    try:
        sock.sendall(request)
        status, headers, body = _read_response(stream)
        sock.settimeout(0.5)
        try:
            closed = stream.read(1) == b""
        except (socket.timeout, ConnectionResetError) as exc:
            closed = isinstance(exc, ConnectionResetError)
        return status, headers, body, closed
    finally:
        stream.close()
        sock.close()


MODEL = b"/v1/models/default/W_g"


class TestGatewayWire:
    def test_pipelined_requests_are_answered_in_order(self):
        with _serving_stack() as (_, _, gateway):
            sock, stream = _connect(gateway)
            with sock, stream:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                    b"GET " + MODEL + b" HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                status, headers, body = _read_response(stream)
                assert status == 200
                assert headers["content-type"] == "application/json"
                assert json.loads(body)["status"] == "ok"
                status, headers, body = _read_response(stream)
                assert status == 200
                assert headers["content-type"] == "application/octet-stream"
                assert headers["x-smb-version"] == "1"
                assert len(body) == 1024

    def test_large_body_reaches_a_reader_that_sips(self):
        """1 MiB through a small receive window, drained 4 KiB at a
        time: whatever the first send leaves over still arrives."""
        nbytes = 1 << 20
        with _serving_stack(count=nbytes // 4) as (_, replica, gateway):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10.0)
            with sock:
                sock.connect(gateway.address)
                sock.sendall(b"GET " + MODEL + b" HTTP/1.1\r\n\r\n")
                received = bytearray()
                while b"\r\n\r\n" not in received:
                    received += sock.recv(4096)
                head, _, rest = bytes(received).partition(b"\r\n\r\n")
                assert b"Content-Length: %d" % nbytes in head
                body = bytearray(rest)
                while len(body) < nbytes:
                    chunk = sock.recv(4096)
                    assert chunk, f"closed after {len(body)} body bytes"
                    body += chunk
            assert bytes(body) == replica.read("W_g")[1]

    @pytest.mark.parametrize("head", [
        b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"b" * 70000 + b"\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n" + b"X-N: 1\r\n" * 101 + b"\r\n",
    ], ids=["request-line", "header-line", "header-count"])
    def test_oversized_head_is_refused_and_closed(self, head):
        with _serving_stack() as (_, _, gateway):
            other, other_stream = _connect(gateway)
            with other, other_stream:
                status, headers, body, closed = _exchange(gateway, head)
                assert status == 431 and closed
                assert headers["connection"] == "close"
                assert "error" in json.loads(body)
                # The refusal cost nobody else anything.
                other.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert _read_response(other_stream)[0] == 200

    def test_a_hundred_headers_are_fine(self):
        with _serving_stack() as (_, _, gateway):
            head = b"GET /healthz HTTP/1.1\r\n" + b"X-N: 1\r\n" * 100 + b"\r\n"
            status, _, _, closed = _exchange(gateway, head)
            assert status == 200 and not closed

    @pytest.mark.parametrize("request_line, status", [
        (b"what is this\r\n", 400),
        (b"GET\r\n", 400),
        (b"GET /healthz HTTP/9.9\r\n", 400),
        (b"POST " + MODEL + b" HTTP/1.1\r\n", 501),
        (b"DELETE /healthz HTTP/1.1\r\n", 501),
    ])
    def test_bad_request_lines(self, request_line, status):
        with _serving_stack() as (_, _, gateway):
            got, headers, body, closed = _exchange(
                gateway, request_line + b"\r\n"
            )
            assert got == status and closed
            assert headers["content-type"] == "application/json"
            assert "error" in json.loads(body)

    @pytest.mark.parametrize("message, closes", [
        (b"GET /healthz HTTP/1.1\r\n\r\n", False),
        (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", True),
        (b"GET /healthz HTTP/1.1\r\nCONNECTION: Close\r\n\r\n", True),
        (b"GET /healthz HTTP/1.0\r\n\r\n", True),
        (b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", False),
    ], ids=["1.1", "1.1-close", "1.1-CLOSE", "1.0", "1.0-keep-alive"])
    def test_connection_lifetime(self, message, closes):
        with _serving_stack() as (_, _, gateway):
            status, headers, _, closed = _exchange(gateway, message)
            assert status == 200
            assert closed is closes
            assert ("connection" in headers) is closes

    @pytest.mark.parametrize(
        "field", [b"If-None-Match", b"if-none-match", b"IF-NONE-MATCH"]
    )
    def test_not_modified_has_validators_and_no_body(self, field):
        with _serving_stack() as (_, _, gateway):
            sock, stream = _connect(gateway)
            with sock, stream:
                conditional = (
                    b"GET " + MODEL + b" HTTP/1.1\r\n"
                    + field + b': "v1"\r\n\r\n'
                )
                sock.sendall(conditional + b"GET /healthz HTTP/1.1\r\n\r\n")
                status, headers, body = _read_response(stream)
                assert status == 304 and body == b""
                assert headers["etag"] == '"v1"'
                assert headers["x-smb-version"] == "1"
                assert headers["content-length"] == "0"
                assert "date" in headers
                # Nothing trails the 304: the next response frames cleanly.
                status, _, body = _read_response(stream)
                assert status == 200 and json.loads(body)["status"] == "ok"


# ---------------------------------------------------------------------------
# Gateway lifecycle: stop() stops
# ---------------------------------------------------------------------------


class TestGatewayStop:
    def test_stop_ends_open_keep_alive_connections(self):
        threads_before = set(threading.enumerate())
        with _serving_stack() as (_, _, gateway):
            conn = http.client.HTTPConnection(*gateway.address, timeout=5)
            try:
                conn.request("GET", "/healthz")
                assert conn.getresponse().read()
                idle, idle_stream = _connect(gateway)  # never sends a byte
                gateway.stop()
                with pytest.raises((OSError, http.client.HTTPException)):
                    conn.request("GET", "/healthz")
                    conn.getresponse().read()
                with idle, idle_stream:
                    try:
                        assert idle_stream.read(1) == b""
                    except ConnectionResetError:
                        pass  # ended either way
            finally:
                conn.close()
            left = set(threading.enumerate()) - threads_before
            assert not [t.name for t in left if "r0-sub" not in t.name]
            with pytest.raises(OSError):
                socket.create_connection(gateway.address, timeout=2.0).close()

    def test_stop_without_start_returns(self):
        with _serving_stack(start=False) as (_, _, gateway):
            address = gateway.address

            def lifecycle():
                gateway.stop()
                gateway.stop()

            watchdog = threading.Thread(target=lifecycle, daemon=True)
            watchdog.start()
            watchdog.join(timeout=3.0)
            assert not watchdog.is_alive(), "stop() before start() hung"
            with pytest.raises(OSError):
                socket.create_connection(address, timeout=2.0).close()

    def test_context_manager_starts_and_stops(self):
        with _serving_stack(start=False) as (_, _, gateway):
            with gateway as entered:
                assert entered is gateway
                status, _, _ = _http_get(gateway.url + "/healthz")
                assert status == 200
            with pytest.raises(OSError):
                socket.create_connection(gateway.address, timeout=2.0).close()
