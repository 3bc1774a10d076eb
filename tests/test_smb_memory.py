"""Unit tests for SMB segments and the server-side memory pool."""

import mmap
import os
import threading

import numpy as np
import pytest

from repro.smb.errors import (
    SegmentExistsError,
    SMBError,
    UnknownKeyError,
)
from repro.smb import memory
from repro.smb.memory import MemoryPool, Segment


def make_segment(nbytes=64, name="seg", key=1):
    return Segment(
        name=name, shm_key=key, buffer=np.zeros(nbytes, dtype=np.uint8)
    )


def make_random_pair(nbytes, seed):
    """``(dst, src, base, step)``: two segments holding random float32s."""
    dst = make_segment(nbytes, "dst", 1)
    src = make_segment(nbytes, "src", 2)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(nbytes // 4).astype(np.float32)
    step = rng.standard_normal(nbytes // 4).astype(np.float32)
    dst.write(0, base.tobytes())
    src.write(0, step.tobytes())
    return dst, src, base, step


class TestSegment:
    def test_read_returns_written_bytes(self):
        segment = make_segment()
        segment.write(0, b"hello")
        assert segment.read(0, 5) == b"hello"

    def test_write_at_offset(self):
        segment = make_segment()
        segment.write(10, b"abc")
        assert segment.read(9, 5) == b"\x00abc\x00"

    def test_write_bumps_version(self):
        segment = make_segment()
        assert segment.version == 0
        v1 = segment.write(0, b"x")
        v2 = segment.write(0, b"y")
        assert (v1, v2) == (1, 2)

    def test_read_does_not_bump_version(self):
        segment = make_segment()
        segment.write(0, b"x")
        segment.read(0, 1)
        assert segment.version == 1

    @pytest.mark.parametrize("offset,nbytes", [(-1, 4), (0, 65), (60, 8)])
    def test_out_of_range_read_raises(self, offset, nbytes):
        segment = make_segment()
        with pytest.raises(
            SMBError,
            match=rf"^access \[{offset}, {offset + nbytes}\) exceeds "
            r"segment size 64$",
        ):
            segment.read(offset, nbytes)

    def test_out_of_range_write_raises(self):
        segment = make_segment()
        with pytest.raises(
            SMBError, match=r"^access \[60, 68\) exceeds segment size 64$"
        ):
            segment.write(60, b"too long")

    def test_accumulate_adds_float32(self):
        dst = make_segment(16, "dst", 1)
        src = make_segment(16, "src", 2)
        dst.write(0, np.asarray([1, 2, 3, 4], dtype=np.float32).tobytes())
        src.write(0, np.asarray([10, 20, 30, 40], dtype=np.float32).tobytes())
        dst.accumulate_from(src)
        out = np.frombuffer(dst.read(0, 16), dtype=np.float32)
        np.testing.assert_allclose(out, [11, 22, 33, 44])

    def test_accumulate_with_scale(self):
        dst = make_segment(8, "dst", 1)
        src = make_segment(8, "src", 2)
        src.write(0, np.asarray([2, 4], dtype=np.float32).tobytes())
        dst.accumulate_from(src, scale=0.5)
        out = np.frombuffer(dst.read(0, 8), dtype=np.float32)
        np.testing.assert_allclose(out, [1, 2])

    def test_accumulate_partial_count(self):
        dst = make_segment(16, "dst", 1)
        src = make_segment(16, "src", 2)
        src.write(0, np.asarray([1, 1, 1, 1], dtype=np.float32).tobytes())
        dst.accumulate_from(src, count=2)
        out = np.frombuffer(dst.read(0, 16), dtype=np.float32)
        np.testing.assert_allclose(out, [1, 1, 0, 0])

    def test_accumulate_range_checked(self):
        dst = make_segment(8, "dst", 1)
        src = make_segment(16, "src", 2)
        with pytest.raises(SMBError, match="exceeds segment size 8$"):
            dst.accumulate_from(src)  # src larger than dst

    def test_concurrent_accumulates_are_atomic(self):
        dst = make_segment(4000, "dst", 1)
        sources = [make_segment(4000, f"s{i}", 10 + i) for i in range(8)]
        ones = np.ones(1000, dtype=np.float32).tobytes()
        for src in sources:
            src.write(0, ones)

        def worker(src):
            for _ in range(25):
                dst.accumulate_from(src)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in sources
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        out = np.frombuffer(dst.read(0, 4000), dtype=np.float32)
        np.testing.assert_allclose(out, 8 * 25)

    def test_self_accumulate_full_overlap_is_exact(self):
        """dst and src are the *same* bulk-sized segment: every element
        must be doubled from its original value."""
        nbytes = 4 << 20
        seg = make_segment(nbytes, "big", 1)
        rng = np.random.default_rng(7)
        data = rng.standard_normal(nbytes // 4).astype(np.float32)
        seg.write(0, data.tobytes())
        seg.accumulate_from(seg)
        out = np.frombuffer(seg.read(0, nbytes), dtype=np.float32)
        np.testing.assert_array_equal(out, data + data)

    def test_overlapping_ranges_in_one_segment_are_exact(self):
        """Shifted overlap within one segment: every element must see the
        *original* source values, as numpy's overlap buffering
        guarantees — not values the add already rewrote."""
        shift = 256  # elements
        count = (4 << 20) // 4
        nbytes = (4 << 20) + shift * 4
        seg = make_segment(nbytes, "big", 1)
        rng = np.random.default_rng(11)
        data = rng.standard_normal(nbytes // 4).astype(np.float32)
        seg.write(0, data.tobytes())
        seg.accumulate_from(seg, src_offset=shift * 4, count=count)
        out = np.frombuffer(seg.read(0, nbytes), dtype=np.float32)
        np.testing.assert_array_equal(
            out[:count], data[:count] + data[shift:shift + count]
        )
        np.testing.assert_array_equal(out[count:], data[count:])

    def test_disjoint_parallel_accumulate_still_exact(self):
        """Non-aliased bulk-sized segments: bit-exact with ``base +
        step`` computed directly."""
        nbytes = 4 << 20
        dst, src, base, step = make_random_pair(nbytes, seed=13)
        dst.accumulate_from(src)
        out = np.frombuffer(dst.read(0, nbytes), dtype=np.float32)
        np.testing.assert_array_equal(out, base + step)

    def test_accumulate_runs_on_the_calling_thread(self):
        """No size hands an accumulate to another thread: 16 MiB is one
        in-place add, bit-equal to ``base + step``, and starts nothing."""
        nbytes = 16 << 20
        dst, src, base, step = make_random_pair(nbytes, seed=17)
        before = set(threading.enumerate())
        dst.accumulate_from(src)
        assert set(threading.enumerate()) == before
        assert not hasattr(memory, "_parallel_add")
        out = np.frombuffer(dst.read(0, nbytes), dtype=np.float32)
        np.testing.assert_array_equal(out, base + step)

    def test_wait_for_update_times_out(self):
        segment = make_segment()
        assert segment.wait_for_update(0, timeout=0.01) == 0

    def test_wait_for_update_wakes_on_write(self):
        segment = make_segment()
        seen = []

        def waiter():
            seen.append(segment.wait_for_update(0, timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        segment.write(0, b"x")
        thread.join(timeout=5.0)
        assert seen == [1]


class TestSegmentWaiters:
    """Event-style waiters: the non-blocking counterpart of
    wait_for_update that the TCP event loop parks WAIT_UPDATEs on."""

    def test_waiter_fires_on_write(self):
        segment = make_segment()
        fired = []
        waiter = segment.add_waiter(0, fired.append)
        assert waiter is not None
        assert fired == []
        segment.write(0, b"x")
        assert fired == [1]

    def test_waiter_fires_on_accumulate(self):
        dst = make_segment(8, "dst", 1)
        src = make_segment(8, "src", 2)
        src.write(0, np.ones(2, dtype=np.float32).tobytes())
        fired = []
        dst.add_waiter(0, fired.append)
        dst.accumulate_from(src)
        assert fired == [1]

    def test_already_satisfied_registration_returns_none(self):
        segment = make_segment()
        segment.write(0, b"x")
        assert segment.add_waiter(0, lambda _v: None) is None

    def test_threshold_respected(self):
        segment = make_segment()
        fired = []
        segment.add_waiter(2, fired.append)
        segment.write(0, b"a")
        segment.write(0, b"b")
        assert fired == []  # version 2 is not > 2
        segment.write(0, b"c")
        assert fired == [3]

    def test_claimed_waiter_never_fires(self):
        """claim() arbitrates the notify/timeout/teardown race: once a
        competitor claimed the waiter, the version bump must not produce
        a second completion."""
        segment = make_segment()
        fired = []
        waiter = segment.add_waiter(0, fired.append)
        assert waiter.claim()
        assert not waiter.claim()
        segment.remove_waiter(waiter)
        segment.write(0, b"x")
        assert fired == []

    def test_waiter_fires_exactly_once(self):
        segment = make_segment()
        fired = []
        segment.add_waiter(0, fired.append)
        segment.write(0, b"x")
        segment.write(0, b"y")
        assert fired == [1]


class TestMemoryPool:
    def test_create_and_lookup(self):
        pool = MemoryPool(capacity=1024)
        segment = pool.create("weights", 512)
        assert pool.by_shm_key(segment.shm_key) is segment
        assert pool.by_name("weights") is segment

    def test_capacity_enforced(self):
        pool = MemoryPool(capacity=100)
        pool.create("a", 60)
        with pytest.raises(SMBError, match="^cannot allocate"):
            pool.create("b", 50)

    def test_capacity_error_carries_details(self):
        pool = MemoryPool(capacity=100)
        pool.create("a", 60)
        with pytest.raises(
            SMBError, match="^cannot allocate 50 bytes; only 40 available$"
        ):
            pool.create("b", 50)

    def test_duplicate_name_rejected(self):
        pool = MemoryPool(capacity=1024)
        pool.create("a", 16)
        with pytest.raises(SegmentExistsError):
            pool.create("a", 16)

    def test_nonpositive_size_rejected(self):
        pool = MemoryPool(capacity=1024)
        with pytest.raises(ValueError):
            pool.create("a", 0)

    def test_attach_grants_distinct_access_keys(self):
        pool = MemoryPool(capacity=1024)
        segment = pool.create("a", 16)
        k1 = pool.attach(segment.shm_key)
        k2 = pool.attach(segment.shm_key)
        assert k1 != k2
        assert pool.by_access_key(k1) is segment
        assert pool.by_access_key(k2) is segment

    def test_attach_validates_expected_size(self):
        pool = MemoryPool(capacity=1024)
        segment = pool.create("a", 16)
        with pytest.raises(
            SMBError, match=r"^access \[0, 32\) exceeds segment size 16$"
        ):
            pool.attach(segment.shm_key, expected_nbytes=32)

    def test_attach_unknown_key(self):
        pool = MemoryPool(capacity=1024)
        with pytest.raises(UnknownKeyError):
            pool.attach(12345)

    def test_free_releases_capacity_and_keys(self):
        pool = MemoryPool(capacity=100)
        segment = pool.create("a", 80)
        access = pool.attach(segment.shm_key)
        pool.free(segment.shm_key)
        assert pool.available == 100
        with pytest.raises(UnknownKeyError):
            pool.by_access_key(access)
        pool.create("b", 80)  # capacity truly returned

    def test_free_unknown_key(self):
        pool = MemoryPool(capacity=100)
        with pytest.raises(UnknownKeyError):
            pool.free(99)

    def test_used_and_available_accounting(self):
        pool = MemoryPool(capacity=100)
        pool.create("a", 30)
        pool.create("b", 20)
        assert pool.used == 50
        assert pool.available == 50

    def test_shm_and_access_keys_never_collide(self):
        pool = MemoryPool(capacity=1 << 20)
        shm_keys = set()
        access_keys = set()
        for index in range(50):
            segment = pool.create(f"s{index}", 8)
            shm_keys.add(segment.shm_key)
            access_keys.add(pool.attach(segment.shm_key))
        assert len(shm_keys) == 50
        assert len(access_keys) == 50
        assert not shm_keys & access_keys

    def test_segments_snapshot(self):
        pool = MemoryPool(capacity=1024)
        pool.create("a", 16)
        pool.create("b", 16)
        assert set(pool.segments()) == {"a", "b"}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MemoryPool(capacity=0)


@pytest.mark.skipif(
    not hasattr(os, "memfd_create"), reason="segment memfds need Linux"
)
class TestSegmentSeals:
    """A descriptor the server hands out reads the segment and nothing
    more: every change goes through the server's own mapping, under the
    seqlock, the journal and exclusive accumulate."""

    def test_handed_out_fd_is_read_only_and_fixed_size(self):
        pool = MemoryPool(capacity=1 << 16)
        segment = pool.create("W_g", 4096)
        segment.write(0, np.full(1024, 1.0, dtype=np.float32).tobytes())
        fd = segment.share_fd()
        try:
            with pytest.raises(PermissionError):
                os.ftruncate(fd, 0)
            with pytest.raises(PermissionError):
                os.ftruncate(fd, 1 << 20)
            with pytest.raises(PermissionError):
                mmap.mmap(fd, 0)
            with pytest.raises(PermissionError):
                os.pwrite(fd, b"\x00" * 4, memory.HEADER_BYTES)
            view = mmap.mmap(fd, 0, prot=mmap.PROT_READ)
            values = np.frombuffer(view, dtype=np.float32,
                                   offset=memory.HEADER_BYTES)
            assert (values == 1.0).all()
            assert np.frombuffer(view, dtype=np.uint64, count=1)[0] == 2
        finally:
            os.close(fd)
        # The server's own mapping still writes.
        assert segment.write(0, b"\x00" * 4) == 2
