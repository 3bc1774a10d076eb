"""ACCUMULATE from the request's payload: ``W_g += scale * ΔW`` in one op.

``key2 == 0`` marks the payload form: the float32 elements ride in the
request, ``count`` is their number, ``offset`` a byte offset into the
destination.  It must leave exactly what a WRITE of the same elements
into a segment followed by the segment-form ACCUMULATE leaves — bytes
and versions — on every doorway; a malformed request is refused before
anything moves; the journal replays it; and its payload is counted as
written bytes on both ends.
"""

import numpy as np
import pytest

from repro.smb import (
    SMBClient,
    SMBError,
    SMBProtocolError,
    SMBServer,
    TcpSMBServer,
)
from repro.smb.errors import is_retryable
from repro.smb.protocol import Message, Op
from repro.telemetry import TelemetrySession

COUNT = 4096

#: The refusals of a payload whose size is not ``count`` float32 elements,
#: and of a destination range outside ``W_g``.
_SIZE = r"^ACCUMULATE carried \d+ payload byte\(s\), expected 16384$"
_RANGE = r"exceeds segment size 16384$"


def _steps(seed, n=12):
    """A seeded sequence of ``(values, scale, offset_elements)``; some
    cover the whole destination, some a sub-range."""
    rng = np.random.default_rng(seed)
    steps = []
    for i in range(n):
        scale = [1.0, 0.5, -0.25, 3.0][i % 4]
        if i % 3 == 2:
            start = int(rng.integers(0, COUNT - 16))
            length = int(rng.integers(1, COUNT - start))
        else:
            start, length = 0, COUNT
        values = rng.standard_normal(length).astype(np.float32)
        steps.append((values, scale, start))
    return steps


def _payload_accumulate(client, array, values, scale=1.0, offset=0):
    return client.accumulate_values(
        array.access_key, values, scale=scale, offset=offset * 4
    )


class TestOracle:
    def test_payload_form_matches_write_plus_segment_accumulate(
        self, doorway
    ):
        client = doorway.connect()
        w_0 = np.random.default_rng(1).standard_normal(COUNT)
        w_0 = w_0.astype(np.float32)
        by_payload = client.create_array("W_payload", COUNT)
        by_segment = client.create_array("W_segment", COUNT)
        staged = client.create_array("dW", COUNT)
        for array in (by_payload, by_segment):
            array.write(w_0)
        versions = {"payload": [], "segment": []}
        for values, scale, start in _steps(seed=7):
            versions["payload"].append(
                _payload_accumulate(client, by_payload, values, scale, start)
            )
            client.write(staged.access_key, values)
            versions["segment"].append(client.accumulate(
                by_segment.access_key, staged.access_key,
                count=values.size, scale=scale, offset=start * 4,
            ))
        assert versions["payload"] == versions["segment"]
        assert by_payload.read().tobytes() == by_segment.read().tobytes()

    def test_remote_array_accumulate_is_one_request(self, doorway):
        client = doorway.connect()
        array = client.create_array("W_g", COUNT)
        ones = np.ones(COUNT, dtype=np.float32)
        assert array.accumulate(ones) == 1
        assert array.accumulate(ones, scale=0.5) == 2
        assert np.array_equal(array.read(), np.full(COUNT, 1.5, np.float32))
        # One ACCUMULATE per add, no WRITE, and no segment besides the
        # destination.
        stats = client.stats()
        assert stats["ACCUMULATE"] == 2 and "WRITE" not in stats
        assert stats["bytes_written"] == 2 * COUNT * 4
        assert list(doorway.core.pool.segments()) == ["W_g"]

    @pytest.mark.parametrize(
        "count, nbytes, offset, error",
        [
            (COUNT, COUNT * 4 + 4, 0, (SMBProtocolError, _SIZE)),
            (COUNT, COUNT * 4 - 4, 0, (SMBProtocolError, _SIZE)),
            (0, 0, 0, (SMBProtocolError, "needs count > 0")),
            (-1, 0, 0, (SMBProtocolError, "needs count > 0")),
            (COUNT, COUNT * 4, 4, (SMBError, _RANGE)),
            (8, 32, COUNT * 4, (SMBError, _RANGE)),
            (8, 32, -4, (SMBError, _RANGE)),
        ],
        ids=["long", "short", "zero", "negative", "past-end", "at-end",
             "before-start"],
    )
    def test_malformed_request_is_refused_with_no_version_bump(
        self, doorway, count, nbytes, offset, error
    ):
        client = doorway.connect()
        array = client.create_array("W_g", COUNT)
        before = np.arange(COUNT, dtype=np.float32)
        array.write(before)
        version = array.version()
        payload = np.ones(nbytes // 4, dtype=np.float32)
        error, match = error
        with pytest.raises(error, match=match):
            client._call(Message(
                op=Op.ACCUMULATE, key=array.access_key, offset=offset,
                count=count, payload=memoryview(payload).cast("B"),
            ))
        assert array.version() == version
        assert np.array_equal(array.read(), before)
        # The connection keeps serving.
        ones = np.ones(COUNT, dtype=np.float32)
        assert array.accumulate(ones) == version + 1

    @pytest.mark.parametrize(
        "dtype", [b"object", b"S4", b"bool", b"\xff"],
        ids=["object", "S4", "bool", "not-utf8"],
    )
    def test_a_segment_accumulate_of_no_float_dtype_is_refused(
        self, doorway, dtype
    ):
        """Only a floating dtype is a gradient.  ``object`` used to escape
        ``handle`` as a raw ``TypeError`` (over TCP: a dropped connection
        the client would retry), ``S4`` / ``bool`` were applied, and a
        name that is not UTF-8 escaped as a ``UnicodeDecodeError``."""
        client = doorway.connect()
        array = client.create_array("W_g", 16)
        source = client.create_array("dW", 16)
        before = np.arange(16, dtype=np.float32)
        array.write(before)
        source.write(np.ones(16, dtype=np.float32))
        version = array.version()
        with pytest.raises(SMBError) as excinfo:
            client._call(Message(
                op=Op.ACCUMULATE, key=array.access_key,
                key2=source.access_key, payload=dtype,
            ))
        assert not is_retryable(excinfo.value)
        assert array.read().tobytes() == before.tobytes()
        assert array.version() == version
        assert client.accumulate(array.access_key, source.access_key) == (
            version + 1
        )


class TestDurability:
    def test_recovered_global_equals_initial_plus_every_increment(
        self, tmp_path
    ):
        """Kill a journaled TCP server after a run of payload ACCUMULATEs:
        replaying its journal gives ``W_0 + Σ scale·ΔW`` bit for bit."""
        w_0 = np.random.default_rng(2).standard_normal(COUNT)
        w_0 = w_0.astype(np.float32)
        expected = w_0.copy()
        server = TcpSMBServer(capacity=1 << 22, journal_dir=tmp_path).start()
        try:
            with SMBClient.connect(server.address) as client:
                array = client.create_array("W_g", COUNT)
                array.write(w_0)
                for values, scale, start in _steps(seed=11):
                    version = _payload_accumulate(
                        client, array, values, scale, start
                    )
                    window = expected[start:start + values.size]
                    if scale == 1.0:
                        window += values
                    else:
                        window += scale * values
        finally:
            server.kill()
        recovered = SMBServer(capacity=1 << 22, journal_dir=tmp_path)
        try:
            segment = recovered.pool.by_name("W_g")
            assert segment.version == version
            assert segment.buffer.tobytes() == expected.tobytes()
        finally:
            recovered.close()


class TestByteAccounting:
    def test_payload_counts_as_written_on_client_and_server(self):
        """Two servers in one telemetry session: each server counts its
        own payload bytes, the session sums both, and the clients count
        what they sent; a segment-form ACCUMULATE's dtype name is not
        data."""
        session = TelemetrySession("metrics")
        core = SMBServer(capacity=1 << 20, telemetry=session)
        tcp = TcpSMBServer(capacity=1 << 20, telemetry=session).start()
        try:
            local = SMBClient.in_process(core, telemetry=session)
            remote = SMBClient.connect(tcp.address, telemetry=session)
            sent = {}
            for name, client, count in (
                ("local", local, 256), ("remote", remote, 1024),
            ):
                array = client.create_array("W_g", count)
                array.accumulate(np.ones(count, dtype=np.float32))
                sent[name] = count * 4
            wide = local.create_array("wide", 8, dtype="float64")
            local.create_array("wide_src", 8, dtype="float64") \
                .accumulate_into(wide)
            registry = session.registry
            assert core.stats.bytes_written == sent["local"] + 64
            assert tcp.core.stats.bytes_written == sent["remote"]
            assert registry.counter("smb/server/bytes_written").value == (
                sent["local"] + sent["remote"] + 64
            )
            assert registry.counter("smb/client/bytes_written").value == (
                sent["local"] + sent["remote"]
            )
            local.close()
            remote.close()
        finally:
            tcp.stop()
            core.close()
