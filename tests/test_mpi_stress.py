"""Stress and property tests for the mini-MPI substrate under load."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.caffe import SolverConfig, SyntheticImageDataset
from repro.platforms import bvlc_caffe

from .test_netspec import small_spec


class TestMessageStorm:
    def test_many_interleaved_tags_stay_fifo_per_channel(self):
        """Hundreds of messages across tags: per-(source, tag) order is
        preserved even when receives interleave tags arbitrarily."""
        messages_per_tag = 50
        tags = (1, 2, 3)

        def main(comm):
            if comm.rank == 0:
                for index in range(messages_per_tag):
                    for tag in tags:
                        comm.send((tag, index), dest=1, tag=tag)
                return None
            received = {tag: [] for tag in tags}
            rng = np.random.default_rng(0)
            order = rng.permutation(
                [tag for tag in tags for _ in range(messages_per_tag)]
            )
            for tag in order:
                payload = comm.recv(source=0, tag=int(tag))
                received[tag].append(payload[1])
            return received

        results = mpi.run_spmd(2, main)
        for tag in tags:
            assert results[1][tag] == list(range(messages_per_tag))

    def test_all_to_all_storm(self):
        """Every rank sends to every rank repeatedly; totals must match."""
        rounds = 20

        def main(comm):
            total = 0
            for round_index in range(rounds):
                for dest in range(comm.size):
                    if dest != comm.rank:
                        comm.send(comm.rank + round_index, dest, tag=7)
                for source in range(comm.size):
                    if source != comm.rank:
                        total += comm.recv(source, tag=7)
            return total

        results = mpi.run_spmd(4, main)
        for rank, total in enumerate(results):
            expected = sum(
                other + r
                for r in range(rounds)
                for other in range(4)
                if other != rank
            )
            assert total == expected

    def test_collective_sequences_stay_matched(self):
        """Long alternating sequences of different collectives never
        cross-match (the per-rank tag counters stay in sync)."""

        def main(comm):
            checks = []
            for step in range(30):
                if step % 3 == 0:
                    value = mpi.allreduce(comm, np.asarray([1.0]))
                    checks.append(float(value[0]) == comm.size)
                elif step % 3 == 1:
                    token = mpi.bcast(
                        comm, step if comm.is_master else None
                    )
                    checks.append(token == step)
                else:
                    mpi.barrier(comm)
                    checks.append(True)
            return all(checks)

        assert all(mpi.run_spmd(5, main))


@settings(max_examples=15, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=5),
    payloads=st.lists(
        st.integers(min_value=-1000, max_value=1000),
        min_size=1, max_size=20,
    ),
)
def test_bcast_chain_property(size, payloads):
    """A chain of broadcasts delivers every payload to every rank in
    order, for any world size and payload sequence."""

    def main(comm):
        received = []
        for payload in payloads:
            received.append(
                mpi.bcast(comm, payload if comm.is_master else None)
            )
        return received

    results = mpi.run_spmd(size, main)
    for rank_result in results:
        assert rank_result == payloads


class TestPrefetchedTraining:
    def test_prefetch_path_is_numerically_identical(self):
        """The 10-deep prefetcher must not change the batch sequence."""
        dataset = SyntheticImageDataset(
            num_classes=4, image_size=8, train_per_class=30,
            test_per_class=5, noise=0.7, seed=3,
        )
        config = SolverConfig(base_lr=0.05, momentum=0.9)
        plain = bvlc_caffe.train_standalone(
            lambda: small_spec(batch=4), dataset, config,
            batch_size=4, iterations=12, seed=5, prefetch=False,
        )
        prefetched = bvlc_caffe.train_standalone(
            lambda: small_spec(batch=4), dataset, config,
            batch_size=4, iterations=12, seed=5, prefetch=True,
        )
        np.testing.assert_allclose(plain.losses, prefetched.losses)
        np.testing.assert_array_equal(
            plain.final_weights, prefetched.final_weights
        )
