"""Multi-tenant SMB: namespaces, quotas, handshake, and fair dispatch.

The tenancy refactor threads a namespace through every layer — pool
admission (per-tenant byte quotas), the wire handshake (a hello that
always carries a tenant name), name-based ops (scoped CREATE/LOOKUP/FREE)
and the journal (tenant metadata survives a crash).  These tests pin the
layer contracts:

* name-based ops are namespace-scoped, SHM/access keys stay unscoped
  capabilities (like RDMA rkeys: whoever holds one may use it);
* quota admission denies with a typed, field-carrying
  :class:`QuotaExceededError` that survives the TCP hop — and a denial
  never perturbs a neighbour tenant's bytes (bit-exact check);
* all three transports (in-process, TCP, local shm) negotiate a tenant,
  and any other hello spelling is refused;
* small control ops answered inline on the event loop survive malformed
  frames (one bad connection never kills the server);
* tenants and quotas come back after a crash, from snapshot or journal;
* generated histories of create, free (by the owner or by another
  tenant) and re-grant conserve every quota (``TenantPoolMachine``).
"""

import json
import socket
import struct

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.smb import (
    DEFAULT_TENANT,
    QuotaExceededError,
    SMBClient,
    SMBError,
    SMBServer,
    ShmSMBServer,
    TcpSMBServer,
)
from repro.smb.errors import SMBProtocolError
from repro.smb.journal import JournalError
from repro.smb.memory import MemoryPool
from repro.smb.protocol import (
    HEADER_FORMAT,
    HEADER_SIZE,
    HELLO,
    MAX_TENANT_NAME,
    TENANT_LEN_STRUCT,
    Message,
    Op,
    Status,
    encode_hello,
)


# -- pool-level namespace scoping -------------------------------------------

class TestNamespaceScoping:
    def test_same_name_different_tenants_are_distinct_segments(self):
        pool = MemoryPool(capacity=1 << 16)
        a = pool.create("w", 64, tenant="alice")
        b = pool.create("w", 64, tenant="bob")
        assert a.shm_key != b.shm_key
        assert pool.by_name("w", tenant="alice").shm_key == a.shm_key
        assert pool.by_name("w", tenant="bob").shm_key == b.shm_key

    def test_list_is_scoped_to_the_tenant(self):
        pool = MemoryPool(capacity=1 << 16)
        pool.create("w", 64, tenant="alice")
        pool.create("v", 64, tenant="alice")
        pool.create("w", 64, tenant="bob")
        assert sorted(pool.segments(tenant="alice")) == [
            "alice/v", "alice/w"
        ]
        assert list(pool.segments(tenant="bob")) == ["bob/w"]

    def test_default_tenant_keeps_bare_names(self):
        pool = MemoryPool(capacity=1 << 16)
        segment = pool.create("w", 64)
        assert segment.name == "w"
        qualified = pool.create("w", 64, tenant="alice")
        assert qualified.name == "alice/w"

    def test_slash_is_forbidden_in_named_tenant_bare_names(self):
        pool = MemoryPool(capacity=1 << 16)
        with pytest.raises(ValueError):
            pool.create("a/b", 64, tenant="alice")

    def test_slash_is_forbidden_in_default_tenant_bare_names(self):
        # One rule for every tenant, so a qualified name parses exactly.
        pool = MemoryPool(capacity=1 << 16)
        pool.create("w", 64, tenant="job1")
        with pytest.raises(ValueError):
            pool.create("job1/W_g", 64)
        assert MemoryPool.split_name("job1/w") == ("job1", "w")
        assert MemoryPool.split_name("w") == (DEFAULT_TENANT, "w")

    def test_shm_keys_are_unscoped_capabilities(self):
        # Like an RDMA rkey: possession is authorisation.  Tenancy scopes
        # the *name directory*, not the keys themselves.
        pool = MemoryPool(capacity=1 << 16)
        segment = pool.create("w", 64, tenant="alice")
        access = pool.attach(segment.shm_key, 64)
        assert pool.by_access_key(access).name == "alice/w"


# -- quotas ------------------------------------------------------------------

class TestQuotas:
    def test_quota_denial_carries_fields_over_tcp(self):
        server = TcpSMBServer(capacity=1 << 22).start()
        try:
            admin = SMBClient.connect(server.address)
            admin.create_tenant("alice", quota=256)
            alice = SMBClient.connect(server.address, tenant="alice")
            alice.create_buffer("small", 128)
            with pytest.raises(QuotaExceededError) as info:
                alice.create_buffer("big", 256)
            err = info.value
            assert err.tenant == "alice"
            assert err.requested == 256
            assert err.quota == 256
            assert err.used == 128
            alice.close()
            admin.close()
        finally:
            server.stop()

    def test_denial_never_perturbs_neighbour_bytes(self):
        """Seeded neighbour traffic is bit-exact across a quota denial."""
        rng = np.random.default_rng(1234)
        deltas = [
            rng.standard_normal(128).astype(np.float32) for _ in range(6)
        ]
        server = TcpSMBServer(capacity=1 << 22).start()
        try:
            admin = SMBClient.connect(server.address)
            admin.create_tenant("noisy", quota=1 << 20)
            admin.create_tenant("victim", quota=512)
            noisy = SMBClient.connect(server.address, tenant="noisy")
            victim = SMBClient.connect(server.address, tenant="victim")
            acc = noisy.create_array("acc", 128)
            acc.write(np.zeros(128, dtype=np.float32))
            expected = np.zeros(128, dtype=np.float32)
            for index, delta in enumerate(deltas):
                staged = noisy.create_array(f"d{index}", 128)
                staged.write(delta)
                staged.accumulate_into(acc)
                expected += delta  # same order, same float32 adds
                if index == 2:  # mid-stream denial on the other tenant
                    with pytest.raises(QuotaExceededError):
                        victim.create_buffer("too-big", 1024)
                staged.free()
            np.testing.assert_array_equal(acc.read(), expected)
            noisy.close()
            victim.close()
            admin.close()
        finally:
            server.stop()

    def test_freeing_returns_quota_headroom(self):
        pool = MemoryPool(capacity=1 << 16)
        pool.create_tenant("alice", quota=128)
        segment = pool.create("w", 128, tenant="alice")
        with pytest.raises(QuotaExceededError):
            pool.create("v", 64, tenant="alice")
        pool.free(segment.shm_key)
        pool.create("v", 64, tenant="alice")  # fits again

    def test_create_tenant_is_an_idempotent_upsert(self):
        pool = MemoryPool(capacity=1 << 16)
        pool.create_tenant("alice", quota=64)
        with pytest.raises(QuotaExceededError):
            pool.create("w", 128, tenant="alice")
        pool.create_tenant("alice", quota=1024)  # admin raises the grant
        pool.create("w", 128, tenant="alice")
        assert pool.tenants()["alice"].quota == 1024

    def test_a_refused_create_leaves_no_grant(self):
        server = SMBServer(capacity=1024)
        before = server.pool.tenant_stats(), server._pool_image()
        mallory = SMBClient.in_process(server, tenant="mallory")
        with pytest.raises(
            SMBError, match="^cannot allocate 4096 bytes; only 1024 available$"
        ):
            mallory.create_buffer("w", 4096)
        assert (server.pool.tenant_stats(), server._pool_image()) == before
        mallory.close()

    def test_tenant_stats_rollup(self):
        server = TcpSMBServer(capacity=1 << 22).start()
        try:
            admin = SMBClient.connect(server.address)
            admin.create_tenant("alice", quota=4096)
            alice = SMBClient.connect(server.address, tenant="alice")
            alice.create_buffer("w", 1024)
            with pytest.raises(QuotaExceededError):
                alice.create_buffer("big", 4096)
            stats = admin.tenant_stats()
            entry = stats["alice"]
            assert entry["quota"] == 4096
            assert entry["used"] == 1024
            assert entry["segments"] == 1
            assert entry["counters"]["quota_denials"] >= 1
            alice.close()
            admin.close()
        finally:
            server.stop()


POOL_BYTES = 16 << 10
TENANTS = (DEFAULT_TENANT, "alice", "bob")
tenants = st.sampled_from(TENANTS)


class TenantPoolMachine(RuleBasedStateMachine):
    """Create, free by the owner, free by another tenant and re-grant,
    against a model of live segments.

    After every step each grant's ``used`` and ``segments`` are the sums
    over that tenant's live segments, the pool's used bytes are the sum
    over all tenants, and a refused free has changed nothing.
    """

    def __init__(self):
        super().__init__()
        self.pool = MemoryPool(capacity=POOL_BYTES)
        self.live = {}  # shm_key -> (tenant, nbytes)
        self.quotas = {DEFAULT_TENANT: None}
        self.created = 0

    def _used(self, tenant=None):
        return sum(
            nbytes for owner, nbytes in self.live.values()
            if tenant is None or owner == tenant
        )

    def _accounts(self):
        return self.pool.used, self.pool.tenant_stats(), set(
            segment.shm_key for segment in self.pool.segments().values()
        )

    @rule(
        tenant=tenants,
        nbytes=st.integers(1, 6 << 10) | st.just(POOL_BYTES + 1),
    )
    def create(self, tenant, nbytes):
        self.created += 1
        name = f"s{self.created}"
        quota = self.quotas.get(tenant)
        refusal = None
        if quota is not None and self._used(tenant) + nbytes > quota:
            refusal = QuotaExceededError, "over quota"
        elif self._used() + nbytes > POOL_BYTES:
            refusal = SMBError, f"^cannot allocate {nbytes} bytes"
        if refusal is not None:
            error, match = refusal
            with pytest.raises(error, match=match):
                self.pool.create(name, nbytes, tenant=tenant)
            return
        segment = self.pool.create(name, nbytes, tenant=tenant)
        self.quotas.setdefault(tenant, None)  # granted on admission
        self.live[segment.shm_key] = (tenant, nbytes)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free_by_the_owner(self, data):
        key = data.draw(st.sampled_from(sorted(self.live)))
        self.pool.free(key, tenant=self.live.pop(key)[0])

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free_by_another_tenant(self, data):
        key = data.draw(st.sampled_from(sorted(self.live)))
        owner = self.live[key][0]
        thief = data.draw(st.sampled_from([t for t in TENANTS if t != owner]))
        before = self._accounts()
        with pytest.raises(
            SMBError, match=f"belongs to tenant {owner!r}, not {thief!r}$"
        ):
            self.pool.free(key, tenant=thief)
        assert self._accounts() == before

    @rule(tenant=tenants, quota=st.none() | st.integers(1, 12 << 10))
    def create_tenant(self, tenant, quota):
        self.pool.create_tenant(tenant, quota)
        self.quotas[tenant] = quota

    @invariant()
    def quotas_are_conserved(self):
        grants = self.pool.tenants()
        assert set(grants) == set(self.quotas)
        for tenant, grant in grants.items():
            mine = [n for owner, n in self.live.values() if owner == tenant]
            assert grant.quota == self.quotas[tenant]
            assert grant.used == sum(mine)
            assert grant.segments == len(mine)
        assert self.pool.used == sum(g.used for g in grants.values())
        assert self.pool.used == self._used()
        assert self._accounts()[2] == set(self.live)

    def teardown(self):
        for key in list(self.live):
            self.pool.free(key)


TestTenantPoolMachine = TenantPoolMachine.TestCase
TestTenantPoolMachine.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)


# -- the tenant handshake on every transport --------------------------------

class TestHandshake:
    def test_in_process_transport_scopes_by_tenant(self):
        server = SMBServer(capacity=1 << 20)
        alice = SMBClient.in_process(server, tenant="alice")
        bob = SMBClient.in_process(server, tenant="bob")
        a = alice.create_array("w", 16)
        b = bob.create_array("w", 16)
        assert a.shm_key != b.shm_key
        assert list(server.pool.segments("alice")) == ["alice/w"]

    def test_tcp_transport_negotiates_tenant(self):
        server = TcpSMBServer(capacity=1 << 20).start()
        try:
            alice = SMBClient.connect(server.address, tenant="alice")
            unnamed = SMBClient.connect(server.address)  # → default
            a = alice.create_array("w", 16)
            d = unnamed.create_array("w", 16)
            assert a.shm_key != d.shm_key
            assert alice.lookup("w")[0] == a.shm_key
            assert unnamed.lookup("w")[0] == d.shm_key
            alice.close()
            unnamed.close()
        finally:
            server.stop()

    def test_shm_transport_negotiates_tenant(self, tmp_path):
        path = tmp_path / "smb.sock"
        server = ShmSMBServer(path=path, capacity=1 << 20).start()
        try:
            alice = SMBClient.connect_local(path, tenant="alice")
            bob = SMBClient.connect_local(path, tenant="bob")
            a = alice.create_array("w", 16)
            a.write(np.arange(16, dtype=np.float32))
            b = bob.create_array("w", 16)
            assert a.shm_key != b.shm_key
            np.testing.assert_array_equal(
                a.read(), np.arange(16, dtype=np.float32)
            )
            alice.close()
            bob.close()
        finally:
            server.stop()

    def test_retired_bare_hello_is_refused_on_the_shm_doorbell(
        self, tmp_path
    ):
        path = tmp_path / "smb.sock"
        server = ShmSMBServer(path=path, capacity=1 << 20).start()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(path))
            sock.sendall(b"SMB1")
            _assert_severed(sock)
            healthy = SMBClient.connect_local(path)
            healthy.create_buffer("alive", 8)
            healthy.close()
        finally:
            server.stop()

    def test_hello_frame_round_trip(self):
        frame = encode_hello("alice")
        assert frame[:len(HELLO)] == HELLO
        (length,) = TENANT_LEN_STRUCT.unpack(
            frame[len(HELLO):len(HELLO) + 2]
        )
        assert frame[len(HELLO) + 2:].decode() == "alice"
        assert length == len("alice")
        # The default tenant spells its name out like everyone else.
        assert encode_hello() == (
            HELLO + TENANT_LEN_STRUCT.pack(7) + b"default"
        )

    def test_oversized_tenant_name_rejected(self):
        with pytest.raises(SMBProtocolError):
            encode_hello("x" * (MAX_TENANT_NAME + 1))


# -- event-loop inline dispatch (satellite: crash-guard coverage) ------------

def _raw_connect(address):
    sock = socket.create_connection(address, timeout=10.0)
    sock.sendall(encode_hello())
    return sock


def _assert_severed(sock):
    """The server closed on us: EOF, or RST if our bytes were unread."""
    sock.settimeout(10.0)
    try:
        assert sock.recv(1) == b""
    except ConnectionError:
        pass
    sock.close()


def _raw_recv_exact(sock, n):
    data = bytearray()
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data.extend(chunk)
    return bytes(data)


def _raw_call(sock, message):
    sock.sendall(message.encode())
    header = _raw_recv_exact(sock, HEADER_SIZE)
    paylen = struct.unpack(HEADER_FORMAT, header)[-1]
    payload = _raw_recv_exact(sock, paylen) if paylen else b""
    return Message.decode(header, payload)


class TestInlineDispatch:
    """LOOKUP/STATS/TENANT_STATS run inline on the loop thread; a malformed
    frame must cost one connection, never the loop."""

    def test_control_ops_answered_inline(self):
        server = TcpSMBServer(capacity=1 << 20).start()
        try:
            client = SMBClient.connect(server.address, tenant="alice")
            array = client.create_array("w", 16)
            assert client.lookup("w") == (array.shm_key, 64)
            assert client.stats()["LOOKUP"] >= 1
            assert "alice" in client.tenant_stats()
            client.close()
        finally:
            server.stop()

    def test_malformed_name_kills_connection_not_server(self):
        server = TcpSMBServer(capacity=1 << 20).start()
        handle = server.core.handle

        def faulty(request, out=None, **kwargs):
            if request.op is Op.LOOKUP and request.payload == b"boom":
                raise RuntimeError("injected handler fault")
            return handle(request, out, **kwargs)

        server.core.handle = faulty
        try:
            healthy = SMBClient.connect(server.address)
            bad = _raw_connect(server.address)
            # A LOOKUP that crashes the handler (injected: no real frame
            # escapes ``handle``); the crash guard must contain it to
            # this socket.
            bad.sendall(Message(op=Op.LOOKUP, payload=b"boom").encode())
            with pytest.raises(ConnectionError):
                _raw_recv_exact(bad, HEADER_SIZE)
            bad.close()
            # The event loop is still serving everyone else.
            healthy.create_buffer("alive", 64)
            assert healthy.lookup("alive")[1] == 64
            healthy.close()
        finally:
            server.stop()

    def test_invalid_tenant_create_is_a_protocol_error(self):
        server = TcpSMBServer(capacity=1 << 20).start()
        try:
            sock = _raw_connect(server.address)
            response = _raw_call(
                sock, Message(op=Op.TENANT_CREATE, payload=b"a/b")
            )
            assert response.status is Status.ERROR
            sock.close()
        finally:
            server.stop()

    def test_bad_hello_magic_is_rejected(self):
        server = TcpSMBServer(capacity=1 << 20).start()
        try:
            def assert_rejected(first_bytes):
                sock = socket.create_connection(
                    server.address, timeout=10.0
                )
                sock.sendall(first_bytes)
                _assert_severed(sock)

            assert_rejected(b"HTTP/1.1 GET /")
            # The bare magic of the retired handshake is just another
            # non-SMB client.
            assert_rejected(b"SMB1")
            # A zero-length tenant record is also rejected.
            assert_rejected(HELLO + TENANT_LEN_STRUCT.pack(0))
            healthy = SMBClient.connect(server.address)
            healthy.create_buffer("alive", 8)
            healthy.close()
        finally:
            server.stop()


class TestBadSegmentName:
    """A ``/`` in a bare name is answered with a typed ERROR on every
    doorway; the connection that sent it stays usable."""

    @pytest.fixture(params=["inproc", "tcp", "shm"])
    def client(self, request, tmp_path):
        if request.param == "inproc":
            yield SMBClient.in_process(SMBServer(capacity=1 << 20))
            return
        if request.param == "tcp":
            server = TcpSMBServer(capacity=1 << 20).start()
            client = SMBClient.connect(server.address)
        else:
            path = tmp_path / "smb.sock"
            server = ShmSMBServer(path=path, capacity=1 << 20).start()
            client = SMBClient.connect_local(path)
        try:
            yield client
        finally:
            client.close()
            server.stop()

    def test_slash_is_refused_and_the_connection_survives(self, client):
        with pytest.raises(SMBProtocolError, match="must not contain '/'"):
            client.create_buffer("job1/W_g", 64)
        client.create_buffer("W_g", 64)
        assert client.lookup("W_g")[1] == 64


# -- durability: tenants survive a crash -------------------------------------

class TestTenantRecovery:
    def _crash(self, server):
        """Die without close(): no final snapshot, like SIGKILL."""
        if server._store is not None:
            server._store.close()

    def test_tenants_and_quotas_survive_journal_replay(self, tmp_path):
        first = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        with SMBClient.in_process(first) as admin:
            admin.create_tenant("alice", quota=512)
            admin.create_tenant("bob")  # unlimited grant
        with SMBClient.in_process(first, tenant="alice") as alice:
            array = alice.create_array("w", 64)
            array.write(np.arange(64, dtype=np.float32))
        self._crash(first)

        second = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        grants = second.pool.tenants()
        assert grants["alice"].quota == 512
        assert grants["bob"].quota is None
        # Usage is re-derived from the restored segments, so the quota
        # keeps biting after recovery.
        assert grants["alice"].used == 256
        with SMBClient.in_process(second, tenant="alice") as alice:
            np.testing.assert_array_equal(
                alice.attach_array(
                    "w", alice.lookup("w")[0], 64
                ).read(),
                np.arange(64, dtype=np.float32),
            )
            with pytest.raises(QuotaExceededError):
                alice.create_buffer("big", 512)

    def test_tenants_survive_snapshot_then_journal_tail(self, tmp_path):
        first = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        with SMBClient.in_process(first) as admin:
            admin.create_tenant("alice", quota=1024)
            admin.request_snapshot()  # tenant rides in the snapshot meta
            admin.create_tenant("bob", quota=256)  # ... and this one in
        self._crash(first)  # the journal tail after it

        second = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        grants = second.pool.tenants()
        assert grants["alice"].quota == 1024
        assert grants["bob"].quota == 256

    @pytest.mark.parametrize("mode", ["snapshot", "journal", "both"])
    def test_multi_tenant_pool_recovers_bit_exactly(self, tmp_path, mode):
        """Segments, versions, quotas and usage of ``alice``, ``bob`` and
        ``default`` come back identical from a snapshot alone, from the
        journal alone (each CREATE lands in the namespace its qualified
        name spells), and from a snapshot plus a journal tail."""
        rng = np.random.default_rng(16)
        first = SMBServer(
            capacity=1 << 20, journal_dir=tmp_path,
            journal_ops=mode != "snapshot",
        )
        with SMBClient.in_process(first) as admin:
            admin.create_tenant("alice", quota=4096)
            admin.create_tenant("bob")

        def mutate(names):
            for tenant in ("alice", "bob", DEFAULT_TENANT):
                with SMBClient.in_process(first, tenant=tenant) as client:
                    for name in names:
                        values = rng.standard_normal(32).astype(np.float32)
                        array = client.create_array(name, 32)
                        array.write(values)
                        delta = client.create_array(f"{name}.d", 32)
                        delta.write(values)
                        delta.accumulate_into(array)

        mutate(["w"])
        if mode != "journal":
            first.take_snapshot()
        if mode == "both":
            mutate(["v"])
        def image(server):
            return {
                name: (seg.buffer.tobytes(), seg.version, seg.tenant)
                for name, seg in server.pool.segments().items()
            }

        before = image(first)
        assert before["alice/w"][2] == "alice" and before["w"][1] == 2
        self._crash(first)

        second = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        assert image(second) == before
        assert second.pool.tenant_stats() == first.pool.tenant_stats()

    def test_format_1_snapshot_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.smb.journal.SNAPSHOT_FORMAT", 1)
        SMBServer(capacity=1 << 20, journal_dir=tmp_path).close()
        monkeypatch.undo()
        with pytest.raises(
            JournalError, match="unsupported snapshot format 1"
        ):
            SMBServer(capacity=1 << 20, journal_dir=tmp_path)

    def test_default_only_journal_recovers_without_named_tenants(
        self, tmp_path
    ):
        first = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        with SMBClient.in_process(first) as client:
            key = client.create_buffer("w", 64)
        self._crash(first)
        second = SMBServer(capacity=1 << 20, journal_dir=tmp_path)
        assert second.pool.by_name("w").shm_key == key
        assert list(second.pool.tenants()) == [DEFAULT_TENANT]


# -- fairness ----------------------------------------------------------------

class TestFairness:
    def test_tenant_counters_split_by_namespace(self):
        server = TcpSMBServer(capacity=1 << 20).start()
        try:
            alice = SMBClient.connect(server.address, tenant="alice")
            bob = SMBClient.connect(server.address, tenant="bob")
            alice.create_buffer("w", 256)
            bob.create_buffer("w", 128)
            stats = json.loads(
                alice._call(Message(op=Op.TENANT_STATS)).payload.decode()
            )
            assert stats["alice"]["counters"]["ops"] >= 1
            assert stats["alice"]["segments"] == 1
            assert stats["bob"]["counters"]["ops"] >= 1
            assert stats["bob"]["used"] == 128
            alice.close()
            bob.close()
        finally:
            server.stop()
