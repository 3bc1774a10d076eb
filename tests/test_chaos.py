"""Chaos suite: seeded fault injection against the SMB fault-tolerance path.

Every test here is deterministic — fault decisions come from seeded RNG
streams (one per worker transport), so a failure reproduces from its seed.
The suite covers the acceptance scenarios of the fault-tolerance layer:
convergence through transient faults, worker death with survivor
completion, TCP reconnect, and structured remote errors (the wait /
close lifecycle is in ``tests/test_transport_contract.py``).  All tests carry the ``chaos`` marker so CI can run them as a
dedicated job (``pytest -m chaos``).
"""

import numpy as np
import pytest

from repro import telemetry
from repro.caffe import SolverConfig, SyntheticImageDataset
from repro.core import (
    DistributedTrainingManager,
    ShmCaffeConfig,
    TerminationCriterion,
)
from repro.smb import (
    FaultInjectingTransport,
    FaultPlan,
    InProcTransport,
    MembershipError,
    NotificationTimeout,
    Op,
    QuotaExceededError,
    RetryPolicy,
    SegmentExistsError,
    SMBClient,
    SMBConnectionError,
    SMBError,
    SMBProtocolError,
    SMBServer,
    TcpSMBServer,
    TransportClosedError,
    UnknownKeyError,
    VersionRegressionError,
)
from repro.smb import errors
from repro.smb.errors import from_wire, is_retryable, to_wire
from repro.smb.protocol import Message

from .test_netspec import small_spec

pytestmark = pytest.mark.chaos

#: Tight backoff so retry storms resolve in milliseconds, not seconds.
FAST_RETRY = RetryPolicy(
    max_attempts=6, base_backoff=0.001, max_backoff=0.01,
    request_timeout=10.0, seed=7,
)


@pytest.fixture()
def dataset():
    return SyntheticImageDataset(
        num_classes=4, image_size=8, train_per_class=40, test_per_class=8,
        noise=0.7, seed=5,
    )


def make_config(iterations=6, criterion=TerminationCriterion.AVERAGE_ITERATIONS):
    return ShmCaffeConfig(
        solver=SolverConfig(base_lr=0.05, momentum=0.9),
        moving_rate=0.2,
        max_iterations=iterations,
        termination=criterion,
    )


#: One instance of every error class ``repro.smb.errors`` keeps: each is
#: read by some decision in the library.
KEPT_ERRORS = [
    SMBError("server is shutting down"),
    SMBConnectionError("injected transport error before READ"),
    TransportClosedError("transport is closed"),
    SMBProtocolError("READ carried 8 payload byte(s), expected 256"),
    UnknownKeyError(0xBEEF),
    QuotaExceededError("alice", 2048, 1024, 256),
    SegmentExistsError("W_g"),
    NotificationTimeout(0xBEEF, 3, 0.5),
    VersionRegressionError(0xBEEF, 9, 4, 2),
    MembershipError("member id 'a' already registered"),
]

#: Classes an earlier wire format named; none is decoded by type any more.
RETIRED_NAMES = [
    "FaultInjectedError", "RetryExhaustedError", "PayloadSizeError",
    "CapacityError", "SegmentRangeError", "AccessDeniedError",
    "ServerClosingError", "SlotsExhaustedError",
]


class TestFaultInjectingTransport:
    def test_seeded_runs_replay_identically(self):
        """Same seed, same request sequence => same fault sequence."""
        def fault_positions(seed):
            server = SMBServer(capacity=1 << 20)
            plan = FaultPlan(seed=seed, error_rate=0.3)
            transport = FaultInjectingTransport(
                InProcTransport(server), plan
            )
            client = SMBClient(transport)
            shm = None
            key = None
            positions = []
            for i in range(60):
                try:
                    if shm is None:
                        shm = client.create_buffer("seg", 64)
                    elif key is None:
                        key = client.attach(shm)
                    else:
                        client.version(key)
                except SMBConnectionError:
                    positions.append(i)
            return positions

        first = fault_positions(seed=42)
        second = fault_positions(seed=42)
        shifted = fault_positions(seed=43)
        assert first == second
        assert first  # 30% over 60 requests fires at least once
        assert first != shifted

    def test_op_filter_restricts_injection(self):
        server = SMBServer(capacity=1 << 20)
        plan = FaultPlan(seed=1, error_rate=1.0, ops=("READ",))
        client = SMBClient(
            FaultInjectingTransport(InProcTransport(server), plan)
        )
        shm = client.create_buffer("seg", 64)  # CREATE: never injected
        key = client.attach(shm)
        with pytest.raises(
            SMBConnectionError, match="^injected transport error before READ$"
        ):
            client.read(key, 8)

    def test_kill_switch_is_permanent(self):
        server = SMBServer(capacity=1 << 20)
        plan = FaultPlan(seed=1, kill_rank=0, kill_after=2).for_rank(0)
        transport = FaultInjectingTransport(InProcTransport(server), plan)
        client = SMBClient(transport)
        shm = client.create_buffer("seg", 64)
        client.attach(shm)
        for _ in range(3):
            with pytest.raises(TransportClosedError):
                client.version(1)
        assert transport.stats["kill"] == 3


class TestRetryPolicy:
    def test_transient_faults_are_absorbed(self):
        """A fault rate well under the retry budget is invisible."""
        server = SMBServer(capacity=1 << 20)
        plan = FaultPlan(seed=3, error_rate=0.25)
        transport = FaultInjectingTransport(InProcTransport(server), plan)
        client = SMBClient(transport, retry_policy=FAST_RETRY)
        shm = client.create_buffer("seg", 256)
        key = client.attach(shm)
        payload = np.arange(64, dtype=np.float32)
        for _ in range(40):
            client.write(key, payload)
            out = np.frombuffer(client.read(key, 256), dtype=np.float32)
            np.testing.assert_array_equal(out, payload)
        assert transport.stats["error"] > 0

    def test_exhausted_retries_surface_with_context(self):
        server = SMBServer(capacity=1 << 20)
        plan = FaultPlan(seed=3, error_rate=1.0)
        client = SMBClient(
            FaultInjectingTransport(InProcTransport(server), plan),
            retry_policy=RetryPolicy(
                max_attempts=3, base_backoff=0.001, seed=0
            ),
        )
        with pytest.raises(
            SMBError,
            match=r"^CREATE failed after 3 attempt\(s\); last error: "
            r"SMBConnectionError: injected transport error before CREATE$",
        ) as excinfo:
            client.create_buffer("seg", 64)
        # A spent budget is a plain SMBError: fatal, never retried again,
        # and chained from the last transient error.
        assert type(excinfo.value) is SMBError
        assert not is_retryable(excinfo.value)
        assert isinstance(excinfo.value.__cause__, SMBConnectionError)

    def test_fatal_server_errors_are_not_retried(self):
        """Deterministic rejections must not burn the retry budget."""
        with telemetry.session("metrics") as tel:
            server = SMBServer(capacity=1 << 20)
            client = SMBClient.in_process(server, retry_policy=FAST_RETRY)
            with pytest.raises(UnknownKeyError):
                client.version(0xDEAD)
            assert tel.registry.counter("smb/client/retries").value == 0

    @pytest.mark.parametrize(
        "exc", KEPT_ERRORS, ids=lambda exc: type(exc).__name__
    )
    def test_only_a_connection_fault_is_retried(self, exc):
        """Injected and connection faults are retried; a closed transport,
        a spent budget and every server verdict are not."""
        assert is_retryable(exc) is (type(exc) is SMBConnectionError)

    def test_backoff_is_bounded_and_jittered(self):
        policy = RetryPolicy(
            base_backoff=0.1, backoff_factor=2.0, max_backoff=0.3,
            jitter=0.5, seed=11,
        )
        rng = policy.make_rng()
        sleeps = [policy.backoff(attempt, rng) for attempt in range(1, 8)]
        assert all(0.05 <= s <= 0.3 for s in sleeps)
        assert len(set(sleeps)) > 1  # jitter actually varies


class TestRemoteErrorReconstruction:
    @pytest.mark.parametrize(
        "exc", KEPT_ERRORS, ids=lambda exc: type(exc).__name__
    )
    def test_every_kept_class_round_trips_with_its_fields(self, exc):
        back = from_wire(to_wire(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)

    def test_the_decoder_knows_exactly_the_kept_classes(self):
        assert set(errors._WIRE_TYPES) == {
            type(exc).__name__ for exc in KEPT_ERRORS
        }

    @pytest.mark.parametrize("name", RETIRED_NAMES)
    def test_a_retired_name_decodes_to_a_plain_smb_error(self, name):
        back = from_wire(f'{name}:{{"message": "x"}}'.encode())
        assert type(back) is SMBError
        assert str(back) == "x"

    def test_structured_attributes_survive_tcp(self):
        with TcpSMBServer(capacity=4096) as server:
            client = SMBClient.connect(server.address)
            with pytest.raises(
                SMBError,
                match="^cannot allocate 1048576 bytes; only 4096 available$",
            ):
                client.create_buffer("too-big", 1 << 20)
            client.create_tenant("alice", quota=1024)
            alice = SMBClient.connect(server.address, tenant="alice")
            alice.create_buffer("w", 256)
            with pytest.raises(QuotaExceededError) as quota:
                alice.create_buffer("too-big", 2048)
            assert (
                quota.value.tenant, quota.value.requested, quota.value.quota,
                quota.value.used, quota.value.available,
            ) == ("alice", 2048, 1024, 256, 768)
            with pytest.raises(UnknownKeyError) as excinfo:
                client.read(0xBEEF, 8)
            assert excinfo.value.key == 0xBEEF
            alice.close()
            client.close()

    def test_notification_timeout_attributes_over_tcp(self):
        with TcpSMBServer(capacity=1 << 20) as server:
            client = SMBClient.connect(server.address)
            array = client.create_array("seg", 16)
            with pytest.raises(NotificationTimeout) as excinfo:
                array.wait_update(version=array.version(), timeout=0.05)
            assert excinfo.value.key == array.access_key
            assert excinfo.value.timeout == pytest.approx(0.05)
            client.close()


class TestTcpReconnect:
    """The TCP reconnect drills the ``chaos`` CI job selects by marker;
    the doorway-independent reconnect contract (and the wait-lifecycle
    cases that used to sit here) is ``tests/test_transport_contract.py``.
    """

    def test_reconnect_after_server_side_disconnect(self):
        """A dropped connection heals transparently under retry."""
        with TcpSMBServer(capacity=1 << 20) as server:
            client = SMBClient.connect(
                server.address, retry_policy=FAST_RETRY
            )
            array = client.create_array("seg", 16)
            payload = np.arange(16, dtype=np.float32)
            array.write(payload)
            transport = client.transport
            transport.drop_connection()  # server side sees a dead peer
            out = array.read()  # reconnects + re-handshakes under retry
            np.testing.assert_array_equal(out, payload)
            assert transport.reconnects >= 1
            client.close()

    def test_injected_disconnects_heal_under_retry(self):
        with TcpSMBServer(capacity=1 << 20) as server:
            plan = FaultPlan(seed=9, disconnect_rate=0.2)
            from repro.smb.transport import TcpTransport

            tcp = TcpTransport(server.address)
            transport = FaultInjectingTransport(tcp, plan)
            client = SMBClient(transport, retry_policy=FAST_RETRY)
            array = client.create_array("seg", 64)
            payload = np.arange(64, dtype=np.float32)
            for _ in range(25):
                array.write(payload)
                np.testing.assert_array_equal(array.read(), payload)
            assert transport.stats["disconnect"] > 0
            assert tcp.reconnects >= 1
            client.close()


class TestChaosTraining:
    def test_seasgd_converges_through_transient_faults(self, dataset):
        """2-worker SEASGD with ~10% injected faults completes cleanly."""
        with telemetry.session("metrics") as tel:
            manager = DistributedTrainingManager(
                spec_factory=lambda: small_spec(batch=4),
                config=make_config(iterations=6),
                dataset=dataset,
                batch_size=4,
                num_workers=2,
                seed=1,
                retry_policy=FAST_RETRY,
                fault_plan=FaultPlan(seed=1234, error_rate=0.1),
            )
            result = manager.run(timeout=300)
            assert result.failed_ranks == []
            assert all(
                h.completed_iterations >= 1 for h in result.histories
            )
            assert np.isfinite(result.final_global_weights).all()
            # The faults really fired and the retries really absorbed them.
            snapshot = tel.registry.snapshot()
            assert snapshot["smb/faults/error"]["value"] > 0
            assert snapshot["smb/client/retries"]["value"] > 0

    def test_fault_counters_reach_an_explicit_session(self, dataset):
        """A manager's own session, never installed as current, gets the
        fault injectors' counts beside its clients' retries."""
        tel = telemetry.TelemetrySession("metrics")
        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=make_config(iterations=6),
            dataset=dataset,
            batch_size=4,
            num_workers=2,
            seed=1,
            telemetry=tel,
            retry_policy=FAST_RETRY,
            fault_plan=FaultPlan(seed=1234, error_rate=0.2),
        )
        manager.run(timeout=300)
        snapshot = tel.registry.snapshot()
        assert snapshot["smb/faults/error"]["value"] > 0
        assert snapshot["smb/client/retries"]["value"] > 0

    def test_worker_death_survivors_complete(self, dataset):
        """Acceptance scenario: 1 of 4 workers dies mid-run under >=5%
        transient faults; survivors finish with rescaled termination."""
        with telemetry.session("metrics") as tel:
            manager = DistributedTrainingManager(
                spec_factory=lambda: small_spec(batch=4),
                config=make_config(
                    iterations=6,
                    criterion=TerminationCriterion.AVERAGE_ITERATIONS,
                ),
                dataset=dataset,
                batch_size=4,
                num_workers=4,
                seed=1,
                retry_policy=FAST_RETRY,
                fault_plan=FaultPlan(
                    seed=77, error_rate=0.05,
                    # Six bring-up requests, then twelve of training.
                    kill_rank=2, kill_after=18,
                ),
            )
            result = manager.run(timeout=300)
            assert result.failed_ranks == [2]
            assert sorted(result.surviving_ranks) == [0, 1, 3]
            dead = result.histories[2]
            assert dead.failed and dead.failure
            # Survivors ran to the (rescaled) termination criterion: the
            # mean progress of the live fleet reached the target.
            survivor_iters = [
                h.completed_iterations
                for h in result.histories if not h.failed
            ]
            assert np.mean(survivor_iters) >= 6
            assert all(it >= 1 for it in survivor_iters)
            assert np.isfinite(result.final_global_weights).all()
            # Fault counters landed in the telemetry snapshot.
            snapshot = tel.registry.snapshot()
            assert snapshot["run/workers_lost"]["value"] == 1
            assert snapshot["worker2/faults/fatal"]["value"] == 1
            assert snapshot["worker2/faults/lost"]["value"] == 1
            assert snapshot["smb/faults/kill"]["value"] >= 1

    def test_master_death_falls_back_to_first_finisher(self, dataset):
        """MASTER_STOP survivors terminate even when the master dies."""
        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=make_config(
                iterations=5,
                criterion=TerminationCriterion.MASTER_STOP,
            ),
            dataset=dataset,
            batch_size=4,
            num_workers=3,
            seed=1,
            retry_policy=FAST_RETRY,
            # kill_after is generous enough to let bring-up (segment
            # creation, the slot claim, the replica's W_g read: ten
            # requests) finish before the master dies, but small enough
            # to fire before the master's 5 iterations (~3 SMB requests
            # each) complete.
            fault_plan=FaultPlan(seed=5, kill_rank=0, kill_after=23),
        )
        result = manager.run(timeout=300)
        assert 0 in result.failed_ranks
        survivors = [h for h in result.histories if not h.failed]
        assert survivors, "every worker died; expected survivors"
        assert all(h.completed_iterations >= 1 for h in survivors)
