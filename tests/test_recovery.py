"""SMB server durability + coordinated checkpoint/restart.

The recovery layer has three tiers, each pinned here:

* **server durability** — a journaled :class:`SMBServer` survives losing
  its own process: versioned snapshots plus an append-only op journal
  rehydrate buffers, the SHM-key table, versions and the recovery epoch;
* **client re-attach** — a :class:`TcpSMBServer` restarted from its
  journal lands on a new port; clients re-resolve it through the
  rendezvous file within their grace window and transparently re-mint
  access keys (SHM keys are stable identity, access keys die with the
  server process);
* **job checkpoint/restart** — coordinated checkpoints (``W_g`` + every
  rank's solver state + ``Iter_x``) let a run resume bit-exactly, even
  against the *recovered* server that still holds its old segments.

Mid-run server-kill drills carry the ``chaos`` marker (thread timing
decides where within an iteration the kill lands); everything else is
fully deterministic.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.caffe import SolverConfig
from repro.core import (
    CheckpointError,
    DistributedTrainingManager,
    ShmCaffeConfig,
    TerminationCriterion,
    inspect_checkpoint,
    latest_checkpoint,
)
from repro.experiments.recovery import (
    build_manager,
    job_metadata,
    run_server_loss_drill,
)
from repro.smb import (
    Message,
    Op,
    RetryPolicy,
    SMBClient,
    SMBError,
    SMBServer,
    Status,
    TcpSMBServer,
    UnknownKeyError,
    read_rendezvous,
)
from repro.smb.journal import RENDEZVOUS_NAME, JournalError
from repro.smb.transport import TcpTransport

from .test_engine_equivalence import golden_dataset
from .test_netspec import small_spec

#: In-flight requests die with the server's connections; the retry layer
#: re-issues them, and reconnection rides the grace window.
RECOVERY_RETRY = RetryPolicy(
    max_attempts=8, base_backoff=0.02, max_backoff=0.2, seed=7
)


# ---------------------------------------------------------------------------
# Server durability: journal directory -> crash -> rehydrated pool
# ---------------------------------------------------------------------------


class TestServerDurability:
    def _crash(self, server):
        """Die without close(): no final snapshot, like SIGKILL."""
        if server._store is not None:
            server._store.close()

    def test_crash_recovery_preserves_segments(self, tmp_path):
        first = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        with SMBClient.in_process(first) as client:
            shm = client.create_buffer("weights", 16)
            key = client.attach(shm)
            client.write(key, np.arange(4, dtype=np.float32))
            scratch = client.create_buffer("delta", 16)
            dkey = client.attach(scratch)
            client.write(dkey, np.ones(4, dtype=np.float32))
            client.accumulate(key, dkey, count=4, scale=2.0)
        self._crash(first)

        second = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        segment = second.pool.by_name("weights")
        np.testing.assert_array_equal(
            segment.buffer.view(np.float32),
            np.arange(4, dtype=np.float32) + 2.0,
        )
        assert segment.shm_key == shm  # SHM keys are stable identity
        assert segment.version == 2  # one write + one accumulate
        assert second.epoch == 1

    def test_stale_access_key_rejected_after_recovery(self, tmp_path):
        first = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        with SMBClient.in_process(first) as client:
            shm = client.create_buffer("buf", 8)
            stale = client.attach(shm)
        self._crash(first)

        second = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        with pytest.raises(UnknownKeyError):
            second.pool.by_access_key(stale)
        # Re-attaching by the stable SHM key mints a fresh access key.
        fresh = second.pool.attach(shm, 8)
        assert second.pool.by_access_key(fresh).name == "buf"

    def test_recovered_access_keys_never_collide_with_stale_ones(
        self, tmp_path
    ):
        """Regression: attaches are not journaled, so the recovered pool
        must not re-mint keys a dead life handed out — a stale key that
        *resolves* (to the wrong segment) is far worse than one that
        raises UnknownKeyError."""
        first = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        with SMBClient.in_process(first) as client:
            shm = client.create_buffer("buf", 8)
        stale = {first.pool.attach(shm) for _ in range(32)}
        self._crash(first)

        second = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        fresh = {second.pool.attach(shm) for _ in range(32)}
        assert not (stale & fresh)

    def test_snapshot_only_mode_loses_post_snapshot_ops(self, tmp_path):
        """journal_ops=False trades the per-op append for a bounded
        lost-delta window: everything after the last snapshot is gone."""
        first = SMBServer(
            capacity=1 << 20, journal_dir=tmp_path, journal_ops=False
        )
        shm = first.pool.create("buf", 8).shm_key
        first.take_snapshot()  # segment now durable
        key = first.pool.attach(shm)
        first.pool.by_access_key(key).write(0, b"\x07" * 8)  # ...this isn't
        self._crash(first)

        second = SMBServer(
            capacity=1 << 20, journal_dir=tmp_path, journal_ops=False
        )
        segment = second.pool.by_name("buf")
        assert bytes(segment.buffer) == b"\x00" * 8

    def test_clean_close_is_lossless_in_snapshot_only_mode(self, tmp_path):
        first = SMBServer(
            capacity=1 << 20, journal_dir=tmp_path, journal_ops=False
        )
        shm = first.pool.create("buf", 8).shm_key
        key = first.pool.attach(shm)
        first.pool.by_access_key(key).write(0, b"\x07" * 8)
        first.close()  # writes the final snapshot

        second = SMBServer(
            capacity=1 << 20, journal_dir=tmp_path, journal_ops=False
        )
        assert bytes(second.pool.by_name("buf").buffer) == b"\x07" * 8

    @pytest.mark.parametrize("stop", [
        lambda server: server.close(),
        lambda server: server._close(snapshot=False),
    ], ids=["close", "kill"])
    def test_mutation_after_close_is_refused_not_lost(self, tmp_path, stop):
        """Once the server began closing, a mutation is refused: an OK
        would be a promise the closed journal no longer keeps."""
        first = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        with SMBClient.in_process(first) as client:
            key = client.attach(client.create_buffer("buf", 8))
            client.write(key, b"\x01" * 8)
        stop(first)
        response = first.handle(
            Message(op=Op.WRITE, key=key, payload=b"\x02" * 8)
        )
        assert response.status is Status.ERROR
        assert b"shutting down" in bytes(response.payload)
        recovered = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        segment = recovered.pool.by_name("buf")
        recovered.close()
        assert (segment.version, bytes(segment.buffer)) == (1, b"\x01" * 8)

    def test_kill_drains_in_flight_mutations_into_the_journal(
        self, tmp_path
    ):
        """A mutation already on a pool thread when ``kill()`` lands
        commits, journals and is answered before the journal closes, so
        every acknowledged version survives recovery."""
        server = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path
        ).start()
        client = SMBClient.connect(server.address)
        array = client.create_array("buf", 2)
        array.write(np.ones(2, dtype=np.float32))
        segment = server.core.pool.by_name("buf")
        acked = []
        segment.lock.acquire()  # park the next WRITE on its pool thread
        try:
            writer = threading.Thread(
                target=lambda: acked.append(
                    array.write(np.full(2, 2.0, dtype=np.float32))
                ),
                daemon=True,
            )
            writer.start()
            killer = threading.Thread(target=server.kill, daemon=True)
            deadline = time.monotonic() + 10.0
            # The WRITE holds the journal lock while it waits for ours.
            while (
                not server.core._journal_lock.locked()
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            killer.start()
            time.sleep(0.2)  # the kill is under way while the WRITE waits
        finally:
            segment.lock.release()
        killer.join(timeout=10.0)
        writer.join(timeout=10.0)
        assert not killer.is_alive() and not writer.is_alive()
        client.close()
        recovered = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        version = recovered.pool.by_name("buf").version
        recovered.close()
        assert acked and version >= acked[0]

    def test_snapshot_op_forces_durability(self, tmp_path):
        server = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        with SMBClient.in_process(server) as client:
            seq, epoch = client.request_snapshot()
        assert seq >= 1
        assert epoch == 0
        assert (tmp_path / f"snapshot-{seq:08d}.npz").exists()

    def test_journal_bytes_are_the_framed_records(self, tmp_path):
        """The append writes header and payload view separately; on disk
        that is still ``record.encode()`` back to back, whatever buffer
        type carried the payload."""
        server = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        values = np.arange(64, dtype=np.float32)
        records = [
            Message(op=Op.WRITE, key=7, offset=4, payload=memoryview(values)),
            Message(op=Op.WRITE, key=7, payload=bytearray(b"\x01" * 9)),
            Message(op=Op.FREE, key=7),
        ]
        for record in records:
            server._store.append(record)
        log = tmp_path / f"journal-{server._store.seq:08d}.log"
        before_close = log.read_bytes()  # flushed per record
        self._crash(server)
        assert before_close == b"".join(r.encode() for r in records)

    def test_snapshot_op_requires_journal_dir(self):
        server = SMBServer(capacity=1 << 20)
        with SMBClient.in_process(server) as client:
            with pytest.raises(SMBError, match="journal"):
                client.request_snapshot()

    def test_fallback_snapshot_replays_every_later_journal(self, tmp_path):
        """The newest snapshot does not load, so recovery falls back to
        the one before it — and still replays every journal written
        after that one.  The next life writes only new files, so across
        three lives no acknowledged ACCUMULATE is lost or applied twice."""
        def w_g(server):
            segment = server.pool.by_name("W_g")
            return float(segment.buffer.view(np.float32)[0]), segment.version

        first = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        with SMBClient.in_process(first) as client:
            w = client.attach(client.create_buffer("W_g", 4))
            d = client.attach(client.create_buffer("d", 4))
            client.write(w, np.ones(1, dtype=np.float32))
            client.write(d, np.ones(1, dtype=np.float32))
            client.request_snapshot()
            client.accumulate(w, d)
        assert w_g(first) == (2.0, 2)
        self._crash(first)
        sorted(tmp_path.glob("snapshot-*.npz"))[-1].write_bytes(b"torn")

        second = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        assert w_g(second) == (2.0, 2)
        with SMBClient.in_process(second) as client:
            w = client.attach(client.lookup("W_g")[0])
            d = client.attach(client.lookup("d")[0])
            client.accumulate(w, d)
        assert w_g(second) == (3.0, 3)
        self._crash(second)

        third = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        assert w_g(third) == (3.0, 3)
        third.close()

    def test_fallback_recovery_never_repeats_an_epoch(self, tmp_path):
        """Regression: a life that falls back past an unreadable snapshot
        must not reuse the epoch the life that wrote it announced — the
        epoch salts the access-key sequence, so a key that life handed
        out would resolve again, to whatever segment is attached first."""
        first = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        first.pool.create("x", 8)
        first.pool.create("y", 8)
        first.take_snapshot()
        self._crash(first)

        second = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        held = second.pool.attach(second.pool.by_name("x").shm_key)
        self._crash(second)
        sorted(tmp_path.glob("snapshot-*.npz"))[-1].write_bytes(b"torn")

        third = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        assert third.epoch > second.epoch
        third.pool.attach(third.pool.by_name("y").shm_key)
        with pytest.raises(UnknownKeyError):
            third.pool.by_access_key(held)
        third.close()

    @pytest.mark.parametrize(
        "mode", ["journal_only", "snapshot_midway", "torn_tail"]
    )
    def test_every_mutation_recovers_to_the_live_pool(self, tmp_path, mode):
        """A history holding every mutating opcode recovers to exactly
        the pool the live server held: per segment name, SHM key,
        version, bytes and tenant, plus tenant stats and the key-mint
        cursor.  A record torn mid-append was never acknowledged, so
        with it cut short the pool is the live one before that op."""
        def state(server):
            pool = server.pool
            segments = {
                name: (seg.shm_key, seg.version, seg.buffer.tobytes(),
                       seg.tenant)
                for name, seg in pool.segments().items()
            }
            return segments, pool.tenant_stats(), pool.shm_minted

        server = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        admin = SMBClient.in_process(server)
        alice = SMBClient.in_process(server, tenant="alice")
        admin.create_tenant("alice", quota=4096)
        admin.create_tenant("alice", quota=2048)  # a re-grant
        w = admin.attach(admin.create_buffer("w", 64))
        a = alice.attach(alice.create_buffer("a", 128))
        d = alice.attach(alice.create_buffer("d", 128))
        admin.write(w, np.arange(8, dtype=np.float32), offset=16)
        alice.write(a, np.linspace(-1.0, 1.0, 16))
        alice.write(d, np.linspace(2.0, 3.0, 16))
        if mode == "snapshot_midway":
            admin.request_snapshot()
        step_key = admin.create_buffer("step", 64)
        step = admin.attach(step_key)
        admin.write(step, np.full(16, 0.5, dtype=np.float32))
        admin.accumulate(w, step, count=8, scale=-0.25, offset=16)
        alice.accumulate(a, d, scale=3.0, dtype="float64")
        before_free = state(server)
        admin.free(step_key)
        live = state(server)
        assert "step" not in live[0] and live[0]["alice/a"][1] == 2
        admin.close()
        alice.close()
        self._crash(server)
        if mode == "torn_tail":
            journal = sorted(tmp_path.glob("journal-*.log"))[-1]
            journal.write_bytes(journal.read_bytes()[:-1])
            live = before_free

        recovered = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        assert state(recovered) == live
        recovered.close()

    @pytest.mark.parametrize("record", [
        Message(op=Op.FREE, key=0x7777),
        Message(op=Op.CREATE, key=0x7777, count=8, payload=b"ghost"),
    ], ids=["free_of_unknown_key", "create_under_a_key_never_minted"])
    def test_a_record_that_does_not_replay_stops_recovery(
        self, tmp_path, record
    ):
        """The journal holds only records that applied live, so one the
        pool rejects on replay means a lost or doubled apply: start-up
        stops and names the op instead of skipping or re-keying it."""
        server = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        server._store.append(record)
        self._crash(server)
        with pytest.raises(JournalError, match=record.op.name):
            SMBServer(capacity=1 << 20, journal_dir=tmp_path)


# ---------------------------------------------------------------------------
# Client re-attach: new server process, new port, rendezvous file
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestClientReattach:
    def test_reattach_to_new_server_process(self, tmp_path):
        """The full handshake path: the replacement server is a NEW
        process-equivalent (fresh TcpSMBServer, fresh ephemeral port);
        the client finds it through the rendezvous file, re-HELLOs, and
        re-mints access keys for every held segment."""
        first = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path
        ).start()
        rendezvous = str(tmp_path / RENDEZVOUS_NAME)
        client = SMBClient.connect(
            first.address, retry_policy=RECOVERY_RETRY,
            rendezvous=rendezvous, server_down_grace=20.0,
        )
        array = client.create_array("weights", 8)
        array.write(np.arange(8, dtype=np.float32))
        assert client.server_epoch == 0

        first.kill()
        second = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path
        ).start()
        try:
            assert second.address != first.address
            assert read_rendezvous(rendezvous) == second.address

            # Reads and writes continue transparently across the restart.
            np.testing.assert_array_equal(
                array.read(), np.arange(8, dtype=np.float32)
            )
            array.write(np.full(8, 5.0, dtype=np.float32))
            np.testing.assert_array_equal(
                array.read(), np.full(8, 5.0, dtype=np.float32)
            )
            assert client.reattachments >= 1
            assert client.server_epoch == 1
        finally:
            client.close()
            second.stop()

    def test_grace_window_expires_into_connection_error(self, tmp_path):
        server = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path
        ).start()
        client = SMBClient.connect(
            server.address,
            rendezvous=str(tmp_path / RENDEZVOUS_NAME),
            server_down_grace=0.3,
        )
        array = client.create_array("w", 4)
        server.kill()  # and never comes back
        with pytest.raises(SMBError):
            array.read()
        client.close()

    def test_reconnect_waits_out_an_outage(self, tmp_path):
        """A request issued while the server is down blocks inside the
        grace window and completes once the replacement publishes the
        rendezvous file."""
        first = TcpSMBServer(
            port=0, capacity=1 << 20, journal_dir=tmp_path
        ).start()
        client = SMBClient.connect(
            first.address,
            retry_policy=RECOVERY_RETRY,
            rendezvous=str(tmp_path / RENDEZVOUS_NAME),
            server_down_grace=30.0,
        )
        array = client.create_array("w", 4)
        array.write(np.ones(4, dtype=np.float32))
        first.kill()

        replacement = {}

        def restart():
            time.sleep(0.5)
            replacement["server"] = TcpSMBServer(
                port=0, capacity=1 << 20, journal_dir=tmp_path
            ).start()

        thread = threading.Thread(target=restart, daemon=True)
        thread.start()
        try:
            np.testing.assert_array_equal(
                array.read(), np.ones(4, dtype=np.float32)
            )
        finally:
            thread.join()
            client.close()
            replacement["server"].stop()


# ---------------------------------------------------------------------------
# Coordinated checkpoints: save, inspect, resume
# ---------------------------------------------------------------------------


def checkpoint_job(
    checkpoint_dir=None,
    checkpoint_every=0,
    resume=None,
    iterations=10,
    num_workers=1,
    server_address=None,
    rendezvous=None,
    grace=0.0,
):
    """The seeded 1-worker job the bit-exact resume goldens use."""
    config = ShmCaffeConfig(
        solver=SolverConfig(base_lr=0.05, momentum=0.9),
        moving_rate=0.2,
        update_interval=1,
        max_iterations=iterations,
        termination=TerminationCriterion.MASTER_STOP,
        overlap_updates=False,
    )
    manager = DistributedTrainingManager(
        spec_factory=lambda: small_spec(batch=4),
        config=config,
        dataset=golden_dataset(),
        batch_size=4,
        num_workers=num_workers,
        seed=3,
        server_address=server_address,
        rendezvous=rendezvous,
        server_down_grace=grace,
        checkpoint_dir=(
            None if checkpoint_dir is None else str(checkpoint_dir)
        ),
        checkpoint_every=checkpoint_every,
        resume=None if resume is None else str(resume),
    )
    return manager.run(timeout=300)


class TestCheckpointResume:
    def test_resume_is_bit_exact(self, tmp_path):
        """interrupt at 5 + resume to 10 == uninterrupted 10, bit for bit
        (weights, momentum, RNG stream, dataset cursor all restored)."""
        reference = checkpoint_job(iterations=10)

        ckpt = tmp_path / "ckpt"
        first = checkpoint_job(
            checkpoint_dir=ckpt, checkpoint_every=5, iterations=5
        )
        second = checkpoint_job(resume=ckpt, iterations=10)

        resumed_losses = (
            first.histories[0].losses + second.histories[0].losses
        )
        assert resumed_losses == reference.histories[0].losses
        np.testing.assert_array_equal(
            second.final_global_weights, reference.final_global_weights
        )

    def test_manifest_records_the_boundary(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        checkpoint_job(checkpoint_dir=ckpt, checkpoint_every=2, iterations=6)
        info = latest_checkpoint(ckpt)
        assert info is not None
        assert (info.seq, info.iteration) == (3, 6)
        assert info.num_workers == 1
        assert info.rank_state_path(0).exists()
        assert info.global_path.exists()

    def test_incomplete_generation_is_invisible(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        checkpoint_job(checkpoint_dir=ckpt, checkpoint_every=5, iterations=5)
        # A crash mid-checkpoint leaves rank states but no manifest.
        partial = ckpt / "seq-00000009"
        partial.mkdir()
        (partial / "rank0000.state.npz").write_bytes(b"torn write")
        info = latest_checkpoint(ckpt)
        assert info is not None and info.seq == 1
        report = inspect_checkpoint(ckpt)
        by_path = {entry["path"]: entry for entry in report["generations"]}
        assert by_path[str(partial)]["complete"] is False
        assert report["latest"]["seq"] == 1

    def test_resume_rejects_worker_count_mismatch(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        checkpoint_job(checkpoint_dir=ckpt, checkpoint_every=5, iterations=5)
        with pytest.raises(CheckpointError, match="worker"):
            checkpoint_job(resume=ckpt, iterations=10, num_workers=2)

    def test_resume_requires_a_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointError, match="no complete checkpoint"):
            checkpoint_job(resume=tmp_path / "nothing", iterations=10)

    def test_checkpoint_validation(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            checkpoint_job(checkpoint_dir=tmp_path, checkpoint_every=0)
        config = ShmCaffeConfig(
            solver=SolverConfig(), max_iterations=2,
        )
        with pytest.raises(ValueError, match="group_size"):
            DistributedTrainingManager(
                spec_factory=lambda: small_spec(batch=4),
                config=config,
                dataset=golden_dataset(),
                batch_size=4,
                num_workers=2,
                group_size=2,
                checkpoint_dir=str(tmp_path),
                checkpoint_every=1,
            )


class TestMetadataJobs:
    def test_build_manager_round_trips_metadata(self, tmp_path):
        metadata = job_metadata(
            num_workers=1, max_iterations=4, checkpoint_every=2, seed=9
        )
        # Survives a JSON round trip, like a manifest on disk.
        metadata = json.loads(json.dumps(metadata))
        manager = build_manager(metadata, checkpoint_dir=tmp_path / "ckpt")
        result = manager.run(timeout=300)
        assert result.histories[0].completed_iterations == 4
        info = latest_checkpoint(tmp_path / "ckpt")
        assert info is not None and info.iteration == 4
        assert info.metadata["seed"] == 9

        resumed = build_manager(
            info.metadata, resume=tmp_path / "ckpt", max_iterations=6
        )
        final = resumed.run(timeout=300)
        assert final.histories[0].completed_iterations == 6

    def test_foreign_metadata_rejected(self):
        with pytest.raises(ValueError, match="job"):
            build_manager({"job": "something-else"})


# ---------------------------------------------------------------------------
# The tentpole drills: lose the parameter box itself
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestServerLossRecovery:
    def test_resume_against_recovered_server_is_bit_exact(self, tmp_path):
        """Kill lands on a checkpoint boundary: leg 1 finishes at its
        target, the server dies without a clean shutdown, a replacement
        recovers from the journal, and the resumed leg — adopting the
        *surviving* segments on the recovered server — reproduces the
        uninterrupted trajectory bit for bit."""
        reference = checkpoint_job(iterations=10)

        journal = tmp_path / "journal"
        ckpt = tmp_path / "ckpt"
        first_server = TcpSMBServer(
            port=0, capacity=1 << 22, journal_dir=journal
        ).start()
        first = checkpoint_job(
            checkpoint_dir=ckpt, checkpoint_every=5, iterations=5,
            server_address=first_server.address,
        )
        first_server.kill()  # no clean-shutdown snapshot: journal replay

        second_server = TcpSMBServer(
            port=0, capacity=1 << 22, journal_dir=journal
        ).start()
        try:
            assert second_server.core.epoch == 1
            # The run's segments survived on the recovered server...
            w_g = second_server.core.pool.by_name("W_g")
            info = latest_checkpoint(ckpt)
            np.testing.assert_array_equal(
                w_g.buffer.view(np.float32), info.load_global_weights()
            )
            # ...and the resumed leg reclaims them instead of failing
            # its CREATEs.
            second = checkpoint_job(
                resume=ckpt, iterations=10,
                server_address=second_server.address,
            )
        finally:
            second_server.stop()

        resumed_losses = (
            first.histories[0].losses + second.histories[0].losses
        )
        assert resumed_losses == reference.histories[0].losses
        np.testing.assert_array_equal(
            second.final_global_weights, reference.final_global_weights
        )

    def test_midrun_server_kill_drill(self, tmp_path):
        """The seeded end-to-end drill: kill -9 the server once the
        fleet sealed the iteration-4 checkpoint, restart it from the
        journal on a fresh port, and require every worker to re-attach
        within its grace window and finish."""
        with telemetry.session("metrics") as tel:
            report = run_server_loss_drill(
                tmp_path,
                num_workers=2,
                iterations=10,
                checkpoint_every=2,
                kill_at_iteration=4,
                outage=0.2,
                grace=60.0,
                seed=0,
                telemetry=tel,
            )
        assert report.completed, report.result.failed_ranks
        assert report.result.failed_ranks == []
        assert report.recoveries == 1
        assert report.recovered_epoch == 1
        assert report.reattachments >= 1
        assert report.new_address != report.old_address
        master = report.result.histories[0]
        assert master.completed_iterations == 10
        assert np.isfinite(master.losses[-1])
        # The journal bounds the lost work: the recovered trajectory
        # stays in the same loss regime as an undisturbed run.
        undisturbed = checkpoint_job(iterations=10)
        assert abs(
            master.losses[-1] - undisturbed.histories[0].losses[-1]
        ) < 1.0


class TestRendezvousTransport:
    def test_static_address_still_works(self):
        with TcpSMBServer(port=0, capacity=1 << 20) as server:
            transport = TcpTransport(server.address)
            client = SMBClient(transport)
            key = client.create_buffer("x", 8)
            assert client.lookup("x") == (key, 8)
            client.close()
