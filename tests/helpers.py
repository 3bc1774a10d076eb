"""Shared test helper: a direct SMB participant, built the way
``DistributedTrainingManager`` builds one."""

from repro.core import TrainingEngine, make_exchange


def build_engine(rank, net, config, global_weights, increment_buffer,
                 batches, **engine_kwargs):
    """A :class:`TrainingEngine` driving the strategy ``config`` selects."""
    return TrainingEngine(
        rank=rank,
        net=net,
        config=config,
        batches=batches,
        strategy=make_exchange(
            config,
            global_weights=global_weights,
            increment_buffer=increment_buffer,
        ),
        **engine_kwargs,
    )
