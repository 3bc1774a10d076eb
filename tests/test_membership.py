"""Tests for elastic membership: registry, elastic control block, autoscale.

Covers the registry service (`repro.smb.membership`), the dynamic slot
allocation the control block grew for it, the atomic-publication
discipline both rely on (`repro.smb.journal.publish_json`), the
autoscale decision logic, and the seeded join/retire/reclaim drill.
"""

import shutil
import tempfile
import threading
from time import monotonic, sleep

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    rule,
)

from repro.caffe import SolverConfig, SyntheticImageDataset
from repro.core import (
    AutoscaleController,
    AutoscalePolicy,
    AutoscaleSupervisor,
    DistributedTrainingManager,
    ShmCaffeConfig,
    TerminationCriterion,
)
from repro.core import exchange as exchange_module
from repro.core.autoscale import GROW, HOLD, SHRINK
from repro.experiments.elastic import run_elastic_drill
from repro.smb import (
    ControlBlock,
    MembershipError,
    MembershipRegistry,
    SMBClient,
    SMBServer,
    publish_json,
    read_json,
)
from repro.smb.client import SlotClaim
from repro.telemetry import TelemetrySession

from .test_netspec import small_spec


@pytest.fixture()
def server():
    return SMBServer(capacity=1 << 22)


@pytest.fixture()
def client(server):
    return SMBClient.in_process(server)


SERVER_DOC = {"mode": "inproc"}
JOB_DOC = {"namespace": "", "count": 8, "w_g_key": 1, "control_key": 2}


class FakeClock:
    """Injectable time source so lease expiry is deterministic."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _all_claimed(capacity):
    """The refusal of a claim when every slot is held by a live worker."""
    return (
        f"^all {capacity} membership slot\\(s\\) are claimed by live "
        "workers$"
    )


def make_registry(tmp_path, **kwargs):
    kwargs.setdefault("telemetry", TelemetrySession("off"))
    return MembershipRegistry(tmp_path / "registry", **kwargs)


class TestAtomicPublication:
    """Satellite: registry/rendezvous files are torn-read-proof."""

    def test_reader_racing_writer_never_sees_a_partial_document(
        self, tmp_path
    ):
        """Hammer read_json while publish_json republishes.

        Every observed document must be internally consistent (the
        padding makes a torn write span many filesystem blocks, so a
        non-atomic writer *would* be caught).
        """
        path = tmp_path / "doc.json"
        stop = threading.Event()
        bad = []
        reads = [0]

        def reader():
            while not stop.is_set():
                doc = read_json(path)
                if doc is None:
                    continue  # nothing published yet — fine
                reads[0] += 1
                if doc["payload"] != "x" * int(doc["length"]):
                    bad.append(doc)
                    return

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            for i in range(200):
                length = 1 + (i * 397) % 65536
                publish_json(
                    path, {"length": length, "payload": "x" * length}
                )
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not bad, f"torn read observed: {bad[0]}"
        assert reads[0] > 0, "reader never observed a document"

    def test_read_json_missing_and_invalid(self, tmp_path):
        assert read_json(tmp_path / "absent.json") is None
        junk = tmp_path / "junk.json"
        junk.write_text("{not json")
        assert read_json(junk) is None

    def test_publish_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "doc.json"
        for i in range(5):
            publish_json(path, {"i": i})
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
        assert read_json(path) == {"i": 4}


def fixed(slot, generation=1):
    """A stand-in slot claim, for registry tests with no control block."""
    return lambda: SlotClaim(slot, generation)


@pytest.fixture()
def control(client):
    """A fresh control block: every slot FREE, claimed explicitly."""
    return ControlBlock.create(client, "ctl", 3)


class TestMembershipRegistry:
    def test_empty_view_before_first_publish(self, tmp_path):
        registry = make_registry(tmp_path)
        view = registry.read()
        assert not view.job
        assert view.version == 0
        assert view.members == {}

    def test_join_before_job_publication_rejected(self, tmp_path, control):
        registry = make_registry(tmp_path)
        with pytest.raises(MembershipError):
            registry.join("early-bird", control.claim)
        assert control.view().alive.sum() == 0  # refused before claiming

    def test_publish_job_then_join_allocates_lowest_slot(
        self, tmp_path, control
    ):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        a = registry.join("a", control.claim)
        b = registry.join("b", control.claim)
        assert (a.slot, b.slot) == (0, 1)
        assert (a.generation, b.generation) == (1, 1)
        view = registry.read()
        assert view.job["count"] == 8
        assert set(view.members) == {"a", "b"}

    def test_launch_worker_requests_its_rank_slot(self, tmp_path, control):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        record = registry.join("rank2", lambda: control.claim(2))
        assert record.slot == 2
        # the next anonymous joiner gets the lowest *free* slot
        assert registry.join("late", control.claim).slot == 0

    def test_duplicate_member_id_rejected(self, tmp_path, control):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        registry.join("a", control.claim)
        with pytest.raises(MembershipError, match="already registered"):
            registry.join("a", control.claim)
        assert control.view().alive.sum() == 1  # refused before claiming

    def test_occupied_and_out_of_range_slots_rejected(
        self, tmp_path, control
    ):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        registry.join("a", lambda: control.claim(0))
        with pytest.raises(MembershipError, match=_all_claimed(3)):
            registry.join("b", lambda: control.claim(0))
        with pytest.raises(ValueError, match="out of range"):
            registry.join("b", lambda: control.claim(3))
        assert set(registry.read().members) == {"a"}

    def test_capacity_exhausted_raises_typed_error(self, tmp_path, client):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        control = ControlBlock.create(client, "ctl", 2)
        registry.join("a", control.claim)
        registry.join("b", control.claim)
        with pytest.raises(MembershipError, match=_all_claimed(2)):
            registry.join("c", control.claim)

    def test_failed_claim_publishes_nothing(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        before = registry.read()

        def refused():
            raise MembershipError("no FREE or dead slot")

        with pytest.raises(MembershipError, match="^no FREE or dead slot$"):
            registry.join("a", refused)
        after = registry.read()
        assert after.version == before.version
        assert after.epoch == before.epoch
        assert after.members == {}

    def test_leave_drops_the_record_and_bumps_epoch(
        self, tmp_path, control
    ):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        registry.join("a", control.claim)
        registry.join("b", control.claim)
        epoch = registry.read().epoch
        assert registry.leave("a") is True
        view = registry.read()
        assert view.epoch == epoch + 1
        assert set(view.members) == {"b"}
        # The slot is the control block's: a live holder keeps it.
        assert registry.join("c", control.claim).slot == 2
        assert registry.leave("a") is False  # already gone

    def test_heartbeat_bumps_version_not_epoch(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        registry.join("a", fixed(0))
        before = registry.read()
        registry.heartbeat("a")
        after = registry.read()
        assert after.version == before.version + 1
        assert after.epoch == before.epoch
        assert after.members["a"].heartbeats == 1

    def test_heartbeat_from_unknown_member_raises(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        with pytest.raises(MembershipError, match="unknown member"):
            registry.heartbeat("ghost")

    def test_lease_expiry_evicts_the_record_and_the_live_worker_keeps_its_slot(
        self, tmp_path, control
    ):
        clock = FakeClock()
        registry = make_registry(tmp_path, lease=10.0, clock=clock)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        registry.join("wedged", control.claim)
        registry.join("healthy", control.claim)
        assert registry.live_count() == 2
        clock.advance(6.0)
        registry.heartbeat("healthy")  # renews; "wedged" does not
        clock.advance(6.0)  # wedged's lease (t0+10) has now lapsed
        assert registry.live_count() == 1
        epoch = registry.read().epoch
        assert registry.expire_stale() == 1
        view = registry.read()
        assert set(view.members) == {"healthy"}
        assert view.epoch == epoch + 1
        # The record went, the slot did not: the wedged worker still
        # holds slot 0 in the control block, so a replacement gets 2.
        assert control.view().alive.sum() == 2
        assert registry.join("replacement", control.claim).slot == 2

    def test_publish_job_supersedes_previous_fleet(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        registry.join("old", fixed(0))
        registry.publish_job(SERVER_DOC, dict(JOB_DOC, count=16))
        view = registry.read()
        assert view.members == {}
        assert view.job["count"] == 16

    def test_retire_request_flags_the_member(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        registry.join("a", fixed(0))
        assert registry.heartbeat("a") is False
        assert registry.request_retire("a") is True
        assert registry.heartbeat("a") is True
        assert registry.read().members["a"].status == "retiring"
        assert registry.request_retire("ghost") is False

    def test_wait_for_job_times_out(self, tmp_path):
        registry = make_registry(tmp_path)
        with pytest.raises(MembershipError, match="no job published"):
            registry.wait_for_job(timeout=0.05, poll=0.01)

    def test_churn_counters_reach_telemetry(self, tmp_path):
        clock = FakeClock()
        session = TelemetrySession("metrics")
        registry = make_registry(
            tmp_path, lease=10.0, telemetry=session, clock=clock
        )
        registry.publish_job(SERVER_DOC, JOB_DOC)
        registry.join("a", fixed(0))
        registry.join("b", fixed(1))
        registry.request_retire("b")
        registry.leave("b")
        clock.advance(11.0)
        registry.expire_stale()  # evicts "a"
        reg = session.registry
        assert reg.counter("smb/membership/joins").value == 2
        assert reg.counter("smb/membership/retires").value == 1
        assert reg.counter("smb/membership/leaves").value == 1
        assert reg.counter("smb/membership/lease_expiries").value == 1
        assert reg.gauge("smb/membership/live").value == 0

    def test_expire_stale_counts_only_its_own_evictions(self, tmp_path):
        """Another handle's mutation just before the caller takes the lock
        evicts the lapsed record; the caller evicted nothing."""
        clock = FakeClock()
        session = TelemetrySession("metrics")
        a = make_registry(tmp_path, lease=10.0, telemetry=session, clock=clock)
        b = make_registry(tmp_path, lease=10.0, clock=clock)
        a.publish_job(SERVER_DOC, JOB_DOC)
        a.join("x", fixed(0))
        clock.advance(6.0)
        a.join("y", fixed(1))
        clock.advance(6.0)  # x's lease (t0+10) lapsed, y's (t0+16) has not
        acquire = a._acquire_lock
        interleaved = []

        def b_mutates_then_acquire():
            if not interleaved:
                interleaved.append(True)
                assert b.leave("y")  # B's critical section also evicts x
            acquire()

        a._acquire_lock = b_mutates_then_acquire
        assert a.expire_stale() == 0
        assert interleaved
        assert b.read().members == {}
        lease_expiries = session.registry.counter("smb/membership/lease_expiries")
        assert lease_expiries.value == 0

    def test_older_formats_are_refused(self, tmp_path):
        # Only the one-job layout is read: a poller fails typed instead
        # of seeing an empty registry.
        registry = make_registry(tmp_path)
        publish_json(registry.path, {
            "format": 2,
            "version": 7,
            "epoch": 3,
            "jobs": {"default": {
                "server": {"mode": "inproc"},
                "job": {"count": 8},
                "capacity": 4,
                "members": {},
            }},
        })
        with pytest.raises(MembershipError, match="registry format 2"):
            registry.read()

    def test_document_holds_one_job(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        doc = read_json(registry.path)
        assert sorted(doc) == [
            "epoch", "format", "job", "members", "server", "version"
        ]
        assert doc["format"] == 3
        assert doc["job"] == JOB_DOC

    def test_format_1_documents_are_refused(self, tmp_path):
        # Format 1 had the one-job keys plus the registry's own capacity:
        # the format number, not the shape, decides.
        registry = make_registry(tmp_path)
        publish_json(registry.path, {
            "format": 1,
            "version": 7,
            "epoch": 3,
            "server": {"mode": "inproc"},
            "job": {"count": 8},
            "capacity": 4,
            "members": {},
        })
        with pytest.raises(MembershipError, match="registry format 1"):
            registry.read()

    def test_document_without_member_table_is_refused(self, tmp_path):
        registry = make_registry(tmp_path)
        publish_json(registry.path, {
            "format": 3,
            "version": 1,
            "epoch": 1,
            "server": SERVER_DOC,
            "job": JOB_DOC,
        })
        with pytest.raises(MembershipError, match="no member table"):
            registry.read()

    def test_wait_for_job_returns_once_published(self, tmp_path):
        registry = make_registry(tmp_path)
        publisher = make_registry(tmp_path)
        thread = threading.Thread(
            target=lambda: (sleep(0.05),
                            publisher.publish_job(SERVER_DOC, JOB_DOC))
        )
        thread.start()
        try:
            view = registry.wait_for_job(timeout=5.0, poll=0.01)
        finally:
            thread.join()
        assert view.job == JOB_DOC
        assert view.server == SERVER_DOC

    def test_live_count_reads_without_evicting(self, tmp_path):
        clock = FakeClock()
        registry = make_registry(tmp_path, lease=10.0, clock=clock)
        registry.publish_job(SERVER_DOC, JOB_DOC)
        registry.join("a", fixed(0))
        clock.advance(6.0)
        registry.join("b", fixed(1))
        clock.advance(6.0)  # a's lease lapsed, b's has not
        before = registry.read()
        assert registry.live_count() == 1
        after = registry.read()
        # Only a mutation evicts: the lapsed record is still published.
        assert after.version == before.version
        assert set(after.members) == {"a", "b"}

    def test_joins_from_two_handles_claim_one_at_a_time(self, tmp_path):
        # Every claim runs inside the registry's lock-file critical
        # section, so two processes' claims never interleave.
        first = make_registry(tmp_path)
        second = make_registry(tmp_path)
        first.publish_job(SERVER_DOC, JOB_DOC)
        order = []

        def claim(slot):
            def run():
                order.append("enter")
                sleep(0.05)
                order.append("exit")
                return SlotClaim(slot, 1)
            return run

        threads = [
            threading.Thread(target=handle.join, args=(name, claim(slot)))
            for slot, (name, handle) in enumerate(
                [("a", first), ("b", second)]
            )
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert order == ["enter", "exit", "enter", "exit"]
        assert set(first.read().members) == {"a", "b"}


class TestElasticControlBlock:
    """Satellite: dynamic slot allocation edge cases."""

    def test_decode_zero_progress_vs_dead_vs_free(self, client):
        """A live worker at iteration 0, a *dead* worker at 0 and a FREE
        slot: three states, all with progress 0, only the first alive."""
        control = ControlBlock.create(client, "ctl", capacity=3)
        for slot in range(3):
            control.claim(slot)
        control.publish_progress(0, 0, generation=1)
        control.mark_dead(1, 0, generation=1)
        control.release(2, generation=1)
        progress, alive, _ = control.view()
        np.testing.assert_array_equal(progress, [0, 0, 0])
        np.testing.assert_array_equal(alive, [True, False, False])
        np.testing.assert_array_equal(control._read()[0], [1, 2, 2])

    def test_launch_claims_write_the_fixed_fleet_layout(self, client):
        """A fixed fleet's launch claims, one per slot, leave every slot
        live at progress 0 under generation 1 and the stop flag clear:
        the one-slot-per-rank layout, word for word."""
        control = ControlBlock.create(client, "ctl", capacity=3)
        claims = [control.claim(slot) for slot in range(3)]
        assert claims == [SlotClaim(slot, 1) for slot in range(3)]
        live_at_zero = 1 << ControlBlock._STATE_BITS
        np.testing.assert_array_equal(
            control._array.read(), [live_at_zero] * 3 + [1] * 3 + [0]
        )
        progress, alive, stop = control.view()
        np.testing.assert_array_equal(progress, [0, 0, 0])
        assert alive.all() and stop == ControlBlock.STOP_CLEAR

    def test_elastic_create_starts_all_free(self, client):
        control = ControlBlock.create(client, "ctl", 4)
        assert control.view().alive.sum() == 0
        np.testing.assert_array_equal(control._read()[0], [0] * 4)
        # A never-claimed slot is generation 0: no stamp makes it live.
        control.publish_progress(0, 5, generation=0)
        assert control.view().alive.sum() == 0

    def test_claim_takes_lowest_free_slot_and_bumps_generation(
        self, client
    ):
        control = ControlBlock.create(client, "ctl", 3)
        first = control.claim()
        second = control.claim()
        assert (first.slot, first.generation) == (0, 1)
        assert (second.slot, second.generation) == (1, 1)
        assert control.view().alive.sum() == 2

    def test_rejoiner_reclaims_released_slot_at_higher_generation(
        self, client
    ):
        control = ControlBlock.create(client, "ctl", 2)
        claim = control.claim(slot=1)
        control.publish_progress(1, 9, generation=claim.generation)
        control.release(1, generation=claim.generation)
        assert control.view().alive.sum() == 0
        # The releaser's own stamp is stale at once: a late publish
        # lands but leaves the slot FREE.
        control.publish_progress(1, 7, generation=claim.generation)
        assert control.view().alive.sum() == 0
        reclaim = control.claim(slot=1)
        assert reclaim.generation == claim.generation + 2
        progress, alive, _ = control.view()
        assert int(progress[1]) == 0 and bool(alive[1])  # progress reset

    def test_dead_slot_is_claimable_and_encoding_survives_until_then(
        self, client
    ):
        control = ControlBlock.create(client, "ctl", 2)
        claim = control.claim()
        control.mark_dead(claim.slot, 5, generation=claim.generation)
        progress, alive, _ = control.view()
        assert int(progress[claim.slot]) == 5 and not bool(
            alive[claim.slot]
        )
        reclaim = control.claim()  # takes the dead slot over
        assert reclaim.slot == claim.slot
        assert reclaim.generation == claim.generation + 2
        assert control.view().alive.sum() == 1

    def test_claim_with_every_slot_live_raises_typed_error(self, client):
        control = ControlBlock.create(client, "ctl", capacity=2)
        control.claim()
        control.claim()
        with pytest.raises(MembershipError, match=_all_claimed(2)):
            control.claim()
        with pytest.raises(MembershipError, match=_all_claimed(2)):
            control.claim(slot=1)

    def test_stale_stamps_count_for_nothing_after_reclaim(self, client):
        control = ControlBlock.create(client, "ctl", 2)
        old = control.claim(slot=0)
        control.release(0, generation=old.generation)
        new = control.claim(slot=0)  # successor bumps the generation
        control.publish_progress(0, 3, generation=new.generation)
        # A stale exit changes nothing: the successor stays live at 3.
        control.mark_dead(0, 3, generation=old.generation)
        control.release(0, generation=old.generation)
        assert control._read()[0][0] == new.generation
        progress, alive, _ = control.view()
        assert (int(progress[0]), bool(alive[0])) == (3, True)
        # A stale publish lands, clobbering the word, but never reads
        # as live: the slot decodes FREE until its holder publishes.
        control.publish_progress(0, 9, generation=old.generation)
        assert control.view().alive.sum() == 0
        control.publish_progress(0, 4, generation=new.generation)
        progress, alive, _ = control.view()
        assert (int(progress[0]), bool(alive[0])) == (4, True)

    def test_a_stamped_publish_is_one_write_and_no_read(self, doorway):
        """The writer sends its stamp and the reader checks it, so a
        publish costs the server one WRITE and nothing else."""
        control = ControlBlock.create(doorway.connect(), "ctl", 2)
        claim = control.claim(slot=1)
        # A fresh client has never READ the block, so on shm a READ
        # would still go through the server and be counted.
        worker = ControlBlock.attach(
            doorway.connect(), "ctl", control.shm_key, 2
        )
        stats = doorway.core.stats
        before = stats.op_counts
        worker.publish_progress(1, 7, generation=claim.generation)
        after = stats.op_counts
        assert {
            op: after[op] - before.get(op, 0)
            for op in after if after[op] != before.get(op, 0)
        } == {"WRITE": 1}
        progress, alive, _ = control.view()
        assert (int(progress[1]), bool(alive[1])) == (7, True)

    def test_wait_update_wakes_on_membership_churn(self, client):
        """A worker blocked in WAIT_UPDATE on the control segment must
        wake when the fleet changes shape (claim or release), not only
        on progress writes — churn can never deadlock a waiter."""
        control = ControlBlock.create(client, "ctl", 2)
        woke = []

        def wait(version):
            woke.append(control._array.wait_update(version, timeout=10.0))

        for mutate in (
            lambda: control.claim(),
            lambda: control.release(0, generation=1),
        ):
            version = control._array.version()
            waiter = threading.Thread(target=wait, args=(version,),
                                      daemon=True)
            waiter.start()
            sleep(0.02)  # let the waiter block server-side
            mutate()
            waiter.join(timeout=10.0)
            assert not waiter.is_alive(), "waiter missed the churn wakeup"
        assert len(woke) == 2 and all(isinstance(v, int) for v in woke)


CAPACITY = 3
slots = st.integers(0, CAPACITY - 1)
#: A stamp is the slot's current generation (0) or an older one (how
#: many bumps ago); a stamp below 0 is clamped to 0, never-claimed.
stamps = st.sampled_from([0, 1, 2, 5])


class ControlBlockMachine(RuleBasedStateMachine):
    """Every slot operation, current or stale, against a plain model.

    The model holds each slot's generation counter and the word last
    written to it: the generation it was stamped with, and its state
    (progress ``p``, or ``-(completed + 1)`` when dead).  A word counts
    only while its stamp is the slot's nonzero counter; anything else
    decodes as FREE.  After every step the block must show the model's
    generations (which only rise), decode to the model's progress and
    liveness, and count the model's live slots.
    """

    taken = Bundle("taken")

    @initialize(launched=st.integers(0, CAPACITY))
    def create(self, launched):
        """A fresh block, then the first ``launched`` slots claimed by
        launch ranks, as a fixed fleet's bring-up does."""
        self.client = SMBClient.in_process(SMBServer(capacity=1 << 16))
        self.control = ControlBlock.create(self.client, "ctl", CAPACITY)
        for slot in range(launched):
            self.control.claim(slot)
        self.generations = [1] * launched + [0] * (CAPACITY - launched)
        self.words = [(g, 0) for g in self.generations]
        self.seen = list(self.generations)

    def _decoded(self, slot):
        """The model's ``(progress, alive)`` for one slot."""
        stamp, state = self.words[slot]
        if stamp != self.generations[slot] or stamp == 0:
            return 0, False
        return (state, True) if state >= 0 else (-state - 1, False)

    def _stamp(self, slot, stale_by):
        return max(self.generations[slot] - stale_by, 0)

    @rule(slot=st.none() | slots)
    def claim(self, slot):
        open_slots = [s for s in range(CAPACITY) if not self._decoded(s)[1]]
        if slot is None and not open_slots or (
            slot is not None and self._decoded(slot)[1]
        ):
            with pytest.raises(
                MembershipError, match=_all_claimed(self.control.capacity)
            ):
                self.control.claim(slot)
            return
        claim = self.control.claim(slot)
        expected = open_slots[0] if slot is None else slot
        self.generations[expected] += 1
        self.words[expected] = (self.generations[expected], 0)
        assert claim == SlotClaim(expected, self.generations[expected])

    def _exit(self, slot, stamp, state):
        """release/mark_dead: a stale stamp changes nothing; the current
        one bumps the generation and, for a dead mark, stamps ``state``
        under the new one."""
        if stamp != self.generations[slot]:
            return
        self.generations[slot] += 1
        if state is not None:
            self.words[slot] = (self.generations[slot], state)

    @rule(slot=slots, stale_by=stamps)
    def release(self, slot, stale_by):
        stamp = self._stamp(slot, stale_by)
        self.control.release(slot, generation=stamp)
        self._exit(slot, stamp, None)

    @rule(slot=slots, completed=st.integers(0, 1000), stale_by=stamps)
    def mark_dead(self, slot, completed, stale_by):
        stamp = self._stamp(slot, stale_by)
        self.control.mark_dead(slot, completed, generation=stamp)
        self._exit(slot, stamp, -(completed + 1))

    def _publish(self, slot, stamp, iteration):
        """One stamped write: it always lands, and counts only while
        ``stamp`` is still the slot's generation."""
        self.control.publish_progress(slot, iteration, generation=stamp)
        self.words[slot] = (stamp, iteration)

    @rule(slot=slots, iteration=st.integers(0, 1000), stale_by=stamps)
    def publish_progress(self, slot, iteration, stale_by):
        self._publish(slot, self._stamp(slot, stale_by), iteration)

    @rule(target=taken, slot=slots)
    def take_stamp(self, slot):
        """A writer reads its stamp; other rules may run before it
        writes (see :meth:`write_lands`)."""
        return slot, self.generations[slot]

    @rule(held=consumes(taken), iteration=st.integers(0, 1000))
    def write_lands(self, held, iteration):
        slot, stamp = held
        self._publish(slot, stamp, iteration)

    @invariant()
    def matches_the_model(self):
        generations = self.control._read()[0].tolist()
        assert generations == self.generations
        assert all(now >= then for now, then in zip(generations, self.seen))
        self.seen = generations
        progress, alive, _ = self.control.view()
        decoded = [self._decoded(s) for s in range(CAPACITY)]
        assert progress.tolist() == [p for p, _ in decoded]
        assert alive.tolist() == [a for _, a in decoded]
        assert self.control.view().alive.sum() == sum(a for _, a in decoded)

    def teardown(self):
        if hasattr(self, "client"):
            self.client.close()


TestControlBlockMachine = ControlBlockMachine.TestCase
TestControlBlockMachine.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)


LEASE = 10.0
member_ids = st.sampled_from(["w0", "w1", "w2", "w3"])


class RegistryMachine(RuleBasedStateMachine):
    """Join, heartbeat, leave, expire and retire on a frozen clock,
    against a model of the live records.

    Every call first evicts the lapsed records (``lease_expires <= now``)
    and publishes once, or, when it refuses, publishes nothing; the
    epoch moves on a join, a leave or an eviction.  After every step the
    document holds the model's records, version and epoch, and
    ``live_count`` counts the unlapsed ones.
    """

    @initialize()
    def publish(self):
        self.directory = tempfile.mkdtemp(prefix="registry-machine-")
        self.clock = FakeClock()
        self.registry = MembershipRegistry(
            self.directory, lease=LEASE, clock=self.clock,
            telemetry=TelemetrySession("off"),
        )
        self.registry.publish_job(SERVER_DOC, JOB_DOC)
        self.members = {}
        self.version = self.epoch = 1
        self.claims = 0

    def _lapsed(self):
        return [
            member_id for member_id, record in self.members.items()
            if record["lease_expires"] <= self.clock.now
        ]

    def _published(self):
        """The model side of one published call: evict, bump version."""
        lapsed = self._lapsed()
        for member_id in lapsed:
            del self.members[member_id]
        self.epoch += bool(lapsed)
        self.version += 1
        return len(lapsed)

    def _claim(self):
        self.claims += 1
        return SlotClaim(self.claims % 4, self.claims)

    @rule(member_id=member_ids)
    def join(self, member_id):
        if member_id in self.members and member_id not in self._lapsed():
            with pytest.raises(MembershipError):
                self.registry.join(member_id, self._claim)
            return
        record = self.registry.join(member_id, self._claim)
        self._published()
        self.members[member_id] = {
            "slot": self.claims % 4, "generation": self.claims,
            "status": "active", "lease_expires": self.clock.now + LEASE,
            "heartbeats": 0,
        }
        self.epoch += 1
        assert (record.slot, record.generation) == (
            self.claims % 4, self.claims,
        )

    @rule(member_id=member_ids)
    def join_whose_claim_fails(self, member_id):
        def exhausted():
            raise MembershipError("no FREE or dead slot")

        expected = (
            "already registered"
            if member_id in self.members and member_id not in self._lapsed()
            else "^no FREE or dead slot$"
        )
        with pytest.raises(MembershipError, match=expected):
            self.registry.join(member_id, exhausted)

    @rule(member_id=member_ids)
    def heartbeat(self, member_id):
        if member_id not in self.members or member_id in self._lapsed():
            with pytest.raises(MembershipError):
                self.registry.heartbeat(member_id)
            return
        retiring = self.registry.heartbeat(member_id)
        self._published()
        record = self.members[member_id]
        record["lease_expires"] = self.clock.now + LEASE
        record["heartbeats"] += 1
        assert retiring == (record["status"] == "retiring")

    @rule(member_id=member_ids)
    def request_retire(self, member_id):
        found = self.registry.request_retire(member_id)
        self._published()
        assert found == (member_id in self.members)
        if found:
            self.members[member_id]["status"] = "retiring"

    @rule(member_id=member_ids)
    def leave(self, member_id):
        removed = self.registry.leave(member_id)
        self._published()
        assert removed == (member_id in self.members)
        if removed:
            del self.members[member_id]
            self.epoch += 1

    @rule()
    def expire_stale(self):
        assert self.registry.expire_stale() == self._published()

    @rule(seconds=st.sampled_from([1.0, 4.0, LEASE]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @invariant()
    def matches_the_model(self):
        view = self.registry.read()
        assert (view.version, view.epoch) == (self.version, self.epoch)
        assert {
            member_id: {
                "slot": record.slot, "generation": record.generation,
                "status": record.status,
                "lease_expires": record.lease_expires,
                "heartbeats": record.heartbeats,
            }
            for member_id, record in view.members.items()
        } == self.members
        assert self.registry.live_count() == len(self.members) - len(
            self._lapsed()
        )

    def teardown(self):
        if hasattr(self, "directory"):
            shutil.rmtree(self.directory, ignore_errors=True)


TestRegistryMachine = RegistryMachine.TestCase
TestRegistryMachine.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)

def observe_phases(session, comp, comm, worker=0):
    """Record one window's worth of phase samples into the registry."""
    session.registry.observe(f"worker{worker}/phase/comp", comp)
    for phase in ("wwi", "ugw", "rgw", "block"):
        session.registry.observe(f"worker{worker}/phase/{phase}", comm / 4)


class TestAutoscaleController:
    def make(self, **policy):
        policy.setdefault("min_workers", 1)
        policy.setdefault("max_workers", 4)
        policy.setdefault("cooldown_steps", 0)
        session = TelemetrySession("metrics")
        live = {"value": 2}
        controller = AutoscaleController(
            AutoscalePolicy(**policy),
            telemetry=session,
            live_source=lambda: live["value"],
        )
        return controller, session, live

    def test_holds_without_phase_samples(self):
        controller, _session, _live = self.make()
        decision = controller.step()
        assert decision.action == HOLD
        assert decision.signals.comm_ratio is None

    def test_grows_on_low_comm_ratio(self):
        controller, session, _live = self.make()
        observe_phases(session, comp=0.9, comm=0.1)
        decision = controller.step()
        assert decision.action == GROW
        assert decision.signals.comm_ratio == pytest.approx(0.1)

    def test_shrinks_on_high_comm_ratio(self):
        controller, session, _live = self.make()
        observe_phases(session, comp=0.2, comm=0.8)
        assert controller.step().action == SHRINK

    def test_deep_accumulate_queue_forces_shrink(self):
        controller, session, _live = self.make()
        observe_phases(session, comp=0.5, comm=0.5)  # in-band ratio
        session.registry.set("smb/server/queue/accumulate", 9)
        decision = controller.step()
        assert decision.action == SHRINK
        assert "queue depth" in decision.reason

    def test_ratio_is_windowed_not_run_to_date(self):
        controller, session, _live = self.make()
        observe_phases(session, comp=0.9, comm=0.1)
        assert controller.step().action == GROW
        # New window: communication-bound, even though the run-to-date
        # totals still look compute-heavy.
        observe_phases(session, comp=0.1, comm=0.9)
        assert controller.step().action == SHRINK

    def test_bounds_cap_the_fleet(self):
        controller, session, live = self.make(
            min_workers=2, max_workers=2
        )
        observe_phases(session, comp=0.9, comm=0.1)
        assert controller.step().action == HOLD  # at max: cannot grow
        observe_phases(session, comp=0.1, comm=0.9)
        assert controller.step().action == HOLD  # at min: cannot shrink
        live["value"] = 3
        observe_phases(session, comp=0.1, comm=0.9)
        assert controller.step().action == SHRINK

    def test_cooldown_after_an_action(self):
        controller, session, _live = self.make(cooldown_steps=2)
        observe_phases(session, comp=0.9, comm=0.1)
        assert controller.step().action == GROW
        observe_phases(session, comp=0.9, comm=0.1)
        assert controller.step().action == HOLD  # cooling down
        observe_phases(session, comp=0.9, comm=0.1)
        assert controller.step().action == HOLD
        observe_phases(session, comp=0.9, comm=0.1)
        assert controller.step().action == GROW

    def test_decisions_counted_in_telemetry(self):
        controller, session, _live = self.make()
        observe_phases(session, comp=0.9, comm=0.1)
        controller.step()
        controller.step()  # no new samples: hold
        reg = session.registry
        assert reg.counter("autoscale/decisions/grow").value == 1
        assert reg.counter("autoscale/decisions/hold").value == 1

    def test_supervisor_applies_decisions(self):
        controller, session, _live = self.make()

        class Manager:
            spawned = 0
            retired = 0

            def spawn_worker(self):
                Manager.spawned += 1

            def retire_worker(self, member_id=None):
                Manager.retired += 1
                return True

        supervisor = AutoscaleSupervisor(
            Manager(), controller, interval=0.01
        )
        observe_phases(session, comp=0.9, comm=0.1)
        supervisor.start()
        deadline = monotonic() + 10.0
        while not Manager.spawned and monotonic() < deadline:
            sleep(0.01)
        supervisor.stop()
        assert Manager.spawned >= 1
        assert any(d.action == GROW for d in supervisor.decisions)


@pytest.mark.chaos
class TestElasticDrill:
    """The seeded join / retire / reclaim integration drill."""

    def test_join_retire_and_reclaim_complete_the_run(self, tmp_path):
        report = run_elastic_drill(
            tmp_path, num_workers=2, max_workers=4, iterations=60,
            join_at=3, retire_after=2, seed=0, timeout=180.0,
        )
        assert report.completed, report.events
        # The launch fleet finished cleanly with the joiners folded in.
        assert not report.result.failed_ranks
        assert report.joiner is not None and report.joiner_retired
        assert report.joiner.history.retired
        # The replacement reclaimed the retired slot at a newer
        # generation — the churn signature the generations exist for.
        assert report.replacement is not None
        assert report.replacement.slot == report.joiner.slot
        assert report.replacement.generation > report.joiner.generation
        # join(x2 launch + 2 elastic) / leave events all hit the epoch.
        assert report.final_epoch >= 5
        assert report.membership_counters.get(
            "smb/membership/joins", 0
        ) >= 4
        assert report.membership_counters.get(
            "smb/membership/retires", 0
        ) >= 1


class TestElasticMovingRate:
    def test_two_live_slots_of_three_pull_at_half_the_moving_rate(
        self, tmp_path, server, monkeypatch
    ):
        """Two launch ranks in a three-slot elastic run: every exchange
        applies ``alpha = beta / 2`` (EASGD's ``beta / p``), bit-exact
        against ``elastic_pull_`` at that rate."""
        beta = 0.2
        pulls = []
        kernel = exchange_module.elastic_pull_

        def recorded(local, global_now, moving_rate, out):
            expected_local, expected_out = local.copy(), np.empty_like(out)
            kernel(expected_local, global_now.copy(), beta / 2, expected_out)
            result = kernel(local, global_now, moving_rate, out)
            pulls.append((
                moving_rate,
                np.array_equal(local, expected_local)
                and np.array_equal(result, expected_out),
            ))
            return result

        monkeypatch.setattr(exchange_module, "elastic_pull_", recorded)
        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=ShmCaffeConfig(
                solver=SolverConfig(base_lr=0.05, momentum=0.9),
                moving_rate=beta,
                max_iterations=6,
                termination=TerminationCriterion.AVERAGE_ITERATIONS,
                overlap_updates=False,
            ),
            dataset=SyntheticImageDataset(
                num_classes=4, image_size=8, train_per_class=40,
                test_per_class=8, noise=0.7, seed=5,
            ),
            batch_size=4,
            num_workers=2,
            server=server,
            seed=5,
            registry_dir=str(tmp_path / "registry"),
            elastic=True,
            max_workers=3,
        )
        result = manager.run(timeout=120)
        # One pull per exchange; a finished rank keeps its slot live.
        assert len(pulls) == result.total_iterations
        assert {rate for rate, _ in pulls} == {beta / 2}
        assert all(exact for _, exact in pulls)


class TestLaunchRankRetire:
    """``retire_worker`` falls back to launch ranks: one drains out."""

    def test_a_fixed_fleet_refuses_to_retire(self, tmp_path, server):
        """A fixed-fleet engine has no retire signal to read, so a
        retire request would be acknowledged and never acted on."""
        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=ShmCaffeConfig(
                solver=SolverConfig(base_lr=0.05, momentum=0.9),
                max_iterations=4,
                termination=TerminationCriterion.AVERAGE_ITERATIONS,
            ),
            dataset=SyntheticImageDataset(
                num_classes=4, image_size=8, train_per_class=8,
                test_per_class=2, seed=3,
            ),
            batch_size=4,
            num_workers=3,
            server=server,
            registry_dir=str(tmp_path / "registry"),
        )
        with pytest.raises(ValueError, match="elastic run"):
            manager.retire_worker("rank2")
        with pytest.raises(ValueError, match="elastic run"):
            manager.spawn_worker(timeout=0.0)

    def test_retired_launch_rank_hands_back_slot_record_and_increment(
        self, tmp_path, server
    ):
        iterations = 40
        manager = DistributedTrainingManager(
            spec_factory=lambda: small_spec(batch=4),
            config=ShmCaffeConfig(
                solver=SolverConfig(base_lr=0.05, momentum=0.9),
                moving_rate=0.2,
                max_iterations=iterations,
                termination=TerminationCriterion.AVERAGE_ITERATIONS,
            ),
            dataset=SyntheticImageDataset(
                num_classes=4, image_size=8, train_per_class=40,
                test_per_class=8, noise=0.7, seed=3,
            ),
            batch_size=4,
            num_workers=3,
            server=server,
            seed=3,
            registry_dir=str(tmp_path / "registry"),
            elastic=True,
        )
        registry = manager.registry
        retired = []

        def retire_rank2():
            manager._job_ready.wait(60.0)
            deadline = monotonic() + 60.0
            while monotonic() < deadline:
                record = registry.read().members.get("rank2")
                if record is not None and record.heartbeats >= 2:
                    retired.append(manager.retire_worker("rank2"))
                    return
                sleep(0.005)

        retirer = threading.Thread(target=retire_rank2, daemon=True)
        retirer.start()
        result = manager.run(timeout=120)
        retirer.join(timeout=60.0)

        assert retired == [True]
        assert not result.failed_ranks
        rank2 = result.histories[2]
        assert rank2.retired and rank2.completed_iterations < iterations
        # The survivors alone carried the AVERAGE criterion to its target.
        survivors = [h.completed_iterations for h in result.histories[:2]]
        assert np.mean(survivors) >= iterations
        # Slot 2 is FREE again and its record is gone; no participant
        # ever owned a segment (dW_x rides in its accumulate).
        client = SMBClient.in_process(server)
        shm_key, _ = client.lookup("control")
        control = ControlBlock.attach(client, "control", shm_key, 3)
        progress, alive, _ = control.view()
        assert (int(progress[2]), bool(alive[2])) == (0, False)
        assert "rank2" not in registry.read().members
        assert sorted(server.pool.segments()) == ["W_g", "control"]


def elastic_manager(tmp_path, server, iterations=60):
    """Two launch ranks, room for four, AVERAGE termination."""
    return DistributedTrainingManager(
        spec_factory=lambda: small_spec(batch=4),
        config=ShmCaffeConfig(
            solver=SolverConfig(base_lr=0.05, momentum=0.9),
            moving_rate=0.2,
            max_iterations=iterations,
            termination=TerminationCriterion.AVERAGE_ITERATIONS,
        ),
        dataset=SyntheticImageDataset(
            num_classes=4, image_size=8, train_per_class=40,
            test_per_class=8, noise=0.7, seed=5,
        ),
        batch_size=4,
        num_workers=2,
        server=server,
        seed=5,
        registry_dir=str(tmp_path / "registry"),
        elastic=True,
        max_workers=4,
    )


class TestOneSlotTable:
    """The control block allocates every slot; the registry records it.

    Each case makes the registry's member table disagree with the
    control block, as a finished rank or a lapsed lease does, and
    checks a joiner still claims a free slot.
    """

    def _run_with_joiner(self, manager, spawn_when):
        """Run ``manager``; spawn one joiner once ``spawn_when(view)``
        holds (checked on every registry read, a minute's cap)."""
        spawned = []

        def spawner():
            deadline = monotonic() + 60.0
            while monotonic() < deadline:
                if spawn_when(manager.registry.read()):
                    spawned.append(manager.spawn_worker(timeout=60.0))
                    return
                sleep(0.002)

        thread = threading.Thread(target=spawner, daemon=True)
        thread.start()
        result = manager.run(timeout=120)
        thread.join(timeout=60.0)
        assert spawned, "the spawn condition never held"
        joiner = spawned[0]
        assert joiner.join(120.0), "the joiner never finished"
        return result, joiner

    def test_joiner_after_a_launch_rank_finished_claims_a_free_slot(
        self, tmp_path, server
    ):
        manager = elastic_manager(tmp_path, server)

        def rank1_left(view):
            # The job's publication and both launch joins bump the
            # epoch to 3, so rank1 missing after that means it left.
            return view.epoch >= 3 and "rank1" not in view.members

        result, joiner = self._run_with_joiner(manager, rank1_left)
        assert not result.failed_ranks
        # rank1 finished and keeps its slot (its progress stays in the
        # mean); the joiner takes the lowest FREE one.
        assert joiner.error is None
        assert joiner.slot == 2

    def test_live_rank_without_a_registry_record_keeps_its_slot(
        self, tmp_path, server
    ):
        manager = elastic_manager(tmp_path, server)
        registry = manager.registry

        def rank1_record_dropped(view):
            record = view.members.get("rank1")
            if record is None or record.heartbeats < 2:
                return False
            # What a lapsed lease does to a slow but live worker.
            registry.leave("rank1")
            return True

        result, joiner = self._run_with_joiner(manager, rank1_record_dropped)
        assert not result.failed_ranks
        assert joiner.error is None
        assert joiner.slot == 2
        assert joiner.history is not None
        assert joiner.history.completed_iterations > 0


class TestAutoscaledRun:
    def test_first_window_has_phase_samples_with_telemetry_off(
        self, tmp_path, monkeypatch
    ):
        from repro import telemetry
        from repro.platforms import shmcaffe

        controllers = []

        class Idle:
            """Keeps the controller; never steps it."""

            def __init__(self, manager, controller):
                controllers.append(controller)

            def start(self):
                return self

            def stop(self):
                pass

        monkeypatch.setattr(shmcaffe, "AutoscaleSupervisor", Idle)
        with telemetry.session("off"):
            shmcaffe.train(
                lambda: small_spec(batch=4),
                SyntheticImageDataset(
                    num_classes=4, image_size=8, train_per_class=10,
                    test_per_class=4, seed=1,
                ),
                SolverConfig(base_lr=0.05),
                batch_size=4,
                iterations=4,
                num_workers=2,
                elastic=True,
                max_workers=3,
                registry_dir=str(tmp_path / "registry"),
                autoscale=True,
            )
        (controller,) = controllers
        signals = controller.signals()
        assert signals.comm_ratio is not None
        assert signals.live == 0  # every member has left
