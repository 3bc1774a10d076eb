"""Tests for the mini-MPI substrate: p2p, collectives, launcher."""

import time

import numpy as np
import pytest

from repro import mpi
from repro.mpi.errors import MPIError, MPITimeoutError


class TestPointToPoint:
    def test_send_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("ping", dest=1, tag=5)
                return comm.recv(source=1, tag=6)
            payload = comm.recv(source=0, tag=5)
            comm.send(payload + "/pong", dest=0, tag=6)
            return payload

        results = mpi.run_spmd(2, main)
        assert results == ["ping/pong", "ping"]

    def test_fifo_per_source_and_tag(self):
        def main(comm):
            if comm.rank == 0:
                for index in range(5):
                    comm.send(index, dest=1, tag=1)
                return None
            return [comm.recv(source=0, tag=1) for _ in range(5)]

        results = mpi.run_spmd(2, main)
        assert results[1] == [0, 1, 2, 3, 4]

    def test_tag_matching_skips_other_tags(self):
        def main(comm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
                return None
            first = comm.recv(source=0, tag=2)
            second = comm.recv(source=0, tag=1)
            return (first, second)

        results = mpi.run_spmd(2, main)
        assert results[1] == ("b", "a")

    def test_recv_timeout(self):
        def main(comm):
            if comm.rank == 0:
                with pytest.raises(MPITimeoutError):
                    comm.recv(source=1, tag=9, timeout=0.2)
            return None

        mpi.run_spmd(2, main)

    def test_recv_timeout_outlasts_other_traffic(self):
        """The timeout is one deadline: messages on another tag wake the
        receiver but must not use up its time."""

        def main(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=9, timeout=2.0)
            start = time.monotonic()
            while time.monotonic() - start < 1.0:
                comm.send("noise", dest=0, tag=1)
                time.sleep(0.01)
            comm.send("late", dest=0, tag=9)
            return None

        assert mpi.run_spmd(2, main)[0] == "late"

    def test_recv_source_out_of_range(self):
        def main(comm):
            with pytest.raises(mpi.RankError):
                comm.recv(source=comm.size, tag=0)
            with pytest.raises(mpi.RankError):
                comm.recv(source=-1, tag=0)
            return True

        assert mpi.run_spmd(2, main) == [True, True]

    def test_negative_user_tag_rejected(self):
        def main(comm):
            if comm.rank == 0:
                with pytest.raises(ValueError):
                    comm.send("x", dest=1, tag=-1)
            return None

        mpi.run_spmd(2, main)


class TestCollectives:
    def test_bcast(self):
        def main(comm):
            value = {"key": 42} if comm.is_master else None
            return mpi.bcast(comm, value)

        results = mpi.run_spmd(4, main)
        assert all(r == {"key": 42} for r in results)

    def test_allreduce_sum(self):
        def main(comm):
            return mpi.allreduce(comm, np.full(4, comm.rank, dtype=np.float32))

        results = mpi.run_spmd(4, main)
        for result in results:
            np.testing.assert_allclose(result, 6.0)

    def test_allreduce_sums_in_rank_order(self):
        """Rank 0 adds ranks 1, 2, 3 in rank order even when they arrive
        in reverse: every rank gets ((v0+v1)+v2)+v3 bit for bit, and no
        input is mutated."""
        rng = np.random.default_rng(7)
        values = [
            (rng.standard_normal(256) * 10.0 ** rng.integers(-4, 5, 256))
            .astype(np.float32)
            for _ in range(4)
        ]
        expected = ((values[0] + values[1]) + values[2]) + values[3]
        reverse = ((values[0] + values[3]) + values[2]) + values[1]
        assert expected.tobytes() != reverse.tobytes()  # order matters
        inputs = [value.copy() for value in values]

        def main(comm):
            time.sleep(0.05 * (comm.size - 1 - comm.rank))
            return mpi.allreduce(comm, inputs[comm.rank])

        for result in mpi.run_spmd(4, main):
            assert result.tobytes() == expected.tobytes()
        for value, untouched in zip(values, inputs):
            assert value.tobytes() == untouched.tobytes()

    def test_barrier_orders_phases(self):
        import threading

        counter = {"before": 0}
        lock = threading.Lock()

        def main(comm):
            with lock:
                counter["before"] += 1
            mpi.barrier(comm)
            # After the barrier every rank must observe all arrivals.
            return counter["before"]

        results = mpi.run_spmd(4, main)
        assert all(r == 4 for r in results)

    def test_collectives_compose_in_order(self):
        def main(comm):
            first = mpi.allreduce(comm, np.asarray([1.0]))
            second = mpi.bcast(comm, "x" if comm.is_master else None)
            mpi.barrier(comm)
            third = mpi.allreduce(comm, np.asarray([comm.rank * 10]))
            return float(first[0]), second, int(third[0])

        results = mpi.run_spmd(3, main)
        assert results == [(3.0, "x", 30)] * 3


class TestLauncher:
    def test_exception_propagates_and_unblocks_peers(self):
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            # Rank 0 would otherwise wait forever.
            comm.recv(source=1, tag=7)

        with pytest.raises(RuntimeError, match="boom"):
            mpi.run_spmd(2, main)

    def test_timeout_aborts(self):
        def main(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=3)  # never sent

        with pytest.raises(MPIError):
            mpi.run_spmd(2, main, timeout=1.0)

    def test_timeout_bounds_the_whole_job(self):
        """The timeout covers the job, not each rank's join: the job
        needs 1.35 s against a 1.0 s bound, though no single join has to
        wait more than 1.0 s."""

        def main(comm):
            time.sleep(0.45 * comm.rank)

        with pytest.raises(MPIError):
            mpi.run_spmd(4, main, timeout=1.0)

    def test_results_in_rank_order(self):
        assert mpi.run_spmd(5, lambda comm: comm.rank ** 2) == [
            0, 1, 4, 9, 16,
        ]

    def test_extra_args_forwarded(self):
        def main(comm, base, scale):
            return base + comm.rank * scale

        assert mpi.run_spmd(3, main, 100, 10) == [100, 110, 120]

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            mpi.World(0)

    def test_rank_bounds(self):
        world = mpi.World(2)
        with pytest.raises(mpi.RankError):
            mpi.Communicator(world, 2)
