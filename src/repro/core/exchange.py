"""Pluggable parameter-exchange strategies for the training engine.

Each platform's parameter-sharing rule is one :class:`BaseExchange`
subclass driven by the shared
:class:`~repro.core.engine.TrainingEngine` loop:

* :class:`SEASGDExchange` — the paper's SEASGD (eqs. (5)-(7)), with the
  Fig.-6 write-side overlap when ``config.overlap_updates`` is on;
* :class:`StaleReadExchange` — the ablation that hides the *read* side
  too (the delayed-parameter behaviour the paper refuses);
* :class:`BaseExchange` — standalone Caffe: the local solver step;
* :class:`SyncSGDExchange` — synchronous SGD (BVLC multi-GPU, MPICaffe);
* :class:`HybridExchange` — HSGD: that step over the intra-group ring,
  root-only SEASGD against the SMB server, weight broadcast back to the
  group.  Roots honor ``overlap_updates``;
* :class:`SMBAsgdExchange` — the Downpour rule (the related-work
  parameter-server comparator) on the SMB accumulate primitive, proving
  the seam admits new update rules without a new worker class.

:func:`~repro.core.seasgd.elastic_pull_` is the **only** eqs. (5)-(6)
kernel the training stack calls; every strategy that exchanges
elastically runs it, in place, on the engine's live parameter vector
(``engine.flat.vector`` — the net's own storage, see
:mod:`repro.caffe.params`) and a buffer it allocated once in ``bind``.
No strategy allocates anything model-sized per iteration.  Strategies
exchange with one :class:`~repro.smb.client.RemoteArray`, the ``W_g``
segment on the job's SMB server.

``ShmCaffeConfig.algorithm`` selects a strategy by name through
:func:`make_exchange`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

from ..nccl.ring import RingGroup
from ..smb import errors as smb_errors
from ..smb.client import RemoteArray
from ..telemetry.phases import NullPhaseTimer, PhaseTimer
from .config import ShmCaffeConfig
from .engine import WorkerError, smb_path_lost
from .overlap import OverlapDriver
from .seasgd import elastic_pull_

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import TrainingEngine

#: Live-fleet size source for elastic runs, e.g.
#: :meth:`~repro.smb.client.ControlBlock.live_count`.
FleetSource = Callable[[], int]


class BaseExchange:
    """Standalone Caffe, and the base every strategy extends: the engine
    calls ``bind``, ``exchange``, ``train_step``, ``should_stop`` and
    ``close``; shared plumbing: binding, step and stop rules."""

    engine: "TrainingEngine"

    def bind(self, engine: "TrainingEngine") -> None:
        self.engine = engine

    def exchange(self, iteration: int) -> None:
        pass

    def train_step(self) -> Dict[str, float]:
        """T4-T5: train one minibatch with the local solver."""
        engine = self.engine
        with engine.phases.phase("comp"):
            batch = next(engine.batches)
            return engine.solver.step(batch.as_inputs())

    def should_stop(self, iteration: int) -> bool:
        return self.engine.default_should_stop(iteration)

    def close(self) -> None:
        pass

    # -- shared buffer helpers --------------------------------------------

    @staticmethod
    def check_buffer(buffer: RemoteArray, count: int, label: str) -> None:
        """Ctor-time shape validation."""
        if buffer.count != count:
            raise WorkerError(
                f"{label} buffer holds {buffer.count} weights, "
                f"model has {count}"
            )


class _SMBExchange(BaseExchange):
    """What every strategy that exchanges with ``W_g`` shares: the buffer,
    the optional live-fleet source, one model-sized scratch for each
    direction (allocated in :meth:`bind`, refilled in place), the Fig.-6
    overlap driver when ``overlap_updates`` is on, and the write side,
    :meth:`_flush`."""

    #: The one dW_x buffer, allocated in :meth:`bind`, refilled in place.
    _increment: np.ndarray

    def __init__(
        self,
        global_weights: RemoteArray,
        fleet: Optional[FleetSource] = None,
    ) -> None:
        self.global_weights = global_weights
        self.fleet = fleet
        self.driver: Optional[OverlapDriver] = None
        self._global_scratch: Optional[np.ndarray] = None

    def bind(self, engine: "TrainingEngine") -> None:
        super().bind(engine)
        self.check_buffer(self.global_weights, engine.flat.count, "global")
        # One model-sized destination for every W_g read and one for
        # every dW_x: the steady-state exchange allocates nothing.  A
        # single increment buffer is enough because the Fig.-6 ping-pong
        # (wait_for_flush precedes every refill) guarantees the update
        # thread has finished sending it before it is overwritten.
        self._global_scratch = np.empty(
            self.global_weights.count, dtype=self.global_weights.dtype
        )
        self._increment = np.empty_like(engine.flat.vector)
        if engine.config.overlap_updates:
            self.driver = OverlapDriver(engine.rank, engine.telemetry)

    def _read_global(self) -> np.ndarray:
        """T.A5 then T1: wait for the previous flush, read ``W_g``."""
        engine = self.engine
        if self.driver is not None:
            self.driver.wait_for_flush(engine.phases)
        with engine.phases.phase("rgw"):
            return self.global_weights.read(out=self._global_scratch)

    def _flush(
        self, increment: np.ndarray, phases: "PhaseTimer | NullPhaseTimer"
    ) -> None:
        """T.A1-T.A3 in one request: ``W_g += dW_x`` (eq. (7)), with
        ``dW_x`` carried by the request itself, so one ``ugw`` span covers
        ``T_wwi + T_ugw``."""
        with phases.phase("ugw"):
            self.global_weights.accumulate(increment)

    def _submit(self, increment: np.ndarray) -> None:
        """Hand the write side to the driver, or run it inline."""
        driver = self.driver
        if driver is not None:
            driver.submit(lambda: self._flush(increment, driver.phases))
        else:
            self._flush(increment, self.engine.phases)

    def close(self) -> None:
        if self.driver is not None:
            self.driver.stop()


class SEASGDExchange(_SMBExchange):
    """The paper's SEASGD exchange (eqs. (5)-(7)) with Fig.-6 overlap.

    Per exchange: wait for the previous flush (T.A5, the eq.-(8)
    ``block``), read ``W_g`` (T1, ``rgw``), compute the elastic increment
    and pull the replica in place (T2, ``ulw`` — the three sweeps of
    :func:`~repro.core.seasgd.elastic_pull_`), then hand the write side —
    one server accumulate of eq. (7) carrying ``dW_x``, timed as ``ugw``
    — to the :class:`~repro.core.overlap.OverlapDriver` (T3) so it hides
    behind the next minibatch.  With ``overlap_updates=False`` the write
    side runs inline on the main thread, giving the deterministic
    single-threaded exchange the correctness tests rely on.

    **Elastic rescaling** (membership-aware fleets): with a ``fleet``
    source the exchange reads the *current* live worker count ``p`` every
    time and applies ``alpha = config.moving_rate / p`` — the EASGD
    stability rule ``alpha = beta / p`` (Zhang et al.) with ``p`` no
    longer a launch-time constant, so eqs. (5)-(7) stay stable while
    workers join and retire mid-run.  Without a ``fleet`` source,
    ``config.moving_rate`` is ``alpha`` directly (the fixed-fleet case).
    """

    def moving_rate(self) -> float:
        """The alpha applied this exchange (live ``beta / p`` if elastic)."""
        rate = self.engine.config.moving_rate
        if self.fleet is None:
            return rate
        return rate / max(int(self.fleet()), 1)

    def exchange(self, iteration: int) -> None:
        global_now = self._read_global()                               # T.A5, T1
        engine = self.engine
        with engine.phases.phase("ulw"):
            increment = elastic_pull_(                                 # T2
                engine.flat.vector, global_now, self.moving_rate(),
                out=self._increment,
            )
        self._submit(increment)                                        # T3


class StaleReadExchange(SEASGDExchange):
    """Ablation: the whole exchange (read included) runs on the driver.

    The replica keeps training on weights that have not yet absorbed the
    global pull — the delayed-parameter behaviour the paper avoids ("the
    learning performance deteriorates due to the delayed parameter
    problem").  Always driven by an :class:`OverlapDriver` regardless of
    ``overlap_updates``: a synchronous stale read would not be stale.
    """

    def bind(self, engine: "TrainingEngine") -> None:
        super().bind(engine)
        if self.driver is None:
            self.driver = OverlapDriver(engine.rank, engine.telemetry)
        self._snapshot = np.empty_like(engine.flat.vector)

    def exchange(self, iteration: int) -> None:
        engine = self.engine
        driver = self.driver
        assert driver is not None  # bind() guarantees it
        driver.wait_for_flush(engine.phases)
        # The one explicit copy: the deferred exchange must see the
        # replica as of *now*, while training moves the live vector on.
        # Every buffer here is safe to reuse: wait_for_flush above
        # guarantees at most one deferred exchange is in flight.
        np.copyto(self._snapshot, engine.flat.vector)

        def deferred() -> None:
            phases = driver.phases
            with phases.phase("rgw"):
                global_now = self.global_weights.read(
                    out=self._global_scratch
                )
            # Same kernel as the faithful path; that it also pulls the
            # (now dead) snapshot is harmless.
            increment = elastic_pull_(
                self._snapshot, global_now, self.moving_rate(),
                out=self._increment,
            )
            self._flush(increment, phases)
            # Apply to the live replica *late*, racing with training.
            with phases.phase("ulw"):
                live = engine.flat.vector
                np.subtract(live, increment, out=live)

        driver.submit(deferred)


class SyncSGDExchange(BaseExchange):
    """Synchronous SGD: average the gradient over every rank, apply the
    same update.

    ``average`` is the collective (timed as ``phase``) mapping the live
    gradient vector to the mean over ranks; nobody writes that vector
    until every rank has its copy of the mean.
    """

    def __init__(
        self,
        average: Callable[[np.ndarray], np.ndarray],
        phase: str = "nccl",
    ) -> None:
        self.average = average
        self.phase = phase

    def train_step(self) -> Dict[str, float]:
        """Compute the local gradient, average it, apply the update."""
        engine = self.engine
        with engine.phases.phase("comp"):
            batch = next(engine.batches)
            stats = engine.solver.compute_gradients(batch.as_inputs())
        stats["lr"] = self.update()
        return stats

    def update(self) -> float:
        """Aggregate the stored gradients and step; returns the lr used."""
        engine = self.engine
        with engine.phases.phase(self.phase):
            averaged = self.average(engine.flat.grad_vector)
        with engine.phases.phase("comp"):
            engine.flat.set_grad_vector(averaged)
            lr = engine.solver.learning_rate
            engine.solver.apply_update(lr)
            engine.solver.advance_iteration()
        return lr


class HybridExchange(SyncSGDExchange):
    """HSGD: intra-group SSGD + root-only SEASGD (paper Sec. III-D).

    Group members contribute gradients to the ring allreduce and receive
    the root's post-exchange weights by broadcast; only the root talks to
    the SMB server, through an inner :class:`SEASGDExchange` — which
    means roots inherit the Fig.-6 overlap when ``overlap_updates`` is on.

    The root decides termination for the whole group and shares the
    decision through a one-element broadcast so members stop in lockstep;
    on a terminal SMB-path loss the root keeps the lockstep broadcasts
    alive, marks the group dead (best effort), and winds down.
    """

    def __init__(
        self,
        group: RingGroup,
        group_rank: int,
        global_weights: Optional[RemoteArray] = None,
    ) -> None:
        super().__init__(
            lambda grad: group.allreduce(group_rank, grad, average=True)
        )
        self.group = group
        self.group_rank = group_rank
        self.is_root = group_rank == 0
        self._inner: Optional[SEASGDExchange] = None
        if self.is_root:
            if global_weights is None:
                raise WorkerError("group root needs the SMB buffer")
            self._inner = SEASGDExchange(global_weights)
        self._smb_failed = False

    def bind(self, engine: "TrainingEngine") -> None:
        super().bind(engine)
        if self._inner is not None:
            self._inner.bind(engine)

    def _record_smb_failure(self, exc: BaseException, iteration: int) -> None:
        """Root-only: the group's SMB path died; degrade, don't crash.

        The group keeps its intra-node SSGD lockstep (the broadcasts the
        members are blocked on still happen) but stops exchanging with
        the global weights and winds down at the next stop broadcast.
        The control-block mark that would let other groups rescale is
        best effort (:meth:`TrainingEngine.record_smb_failure`).
        """
        self._smb_failed = True
        self.engine.record_smb_failure(exc, iteration)

    def exchange(self, iteration: int) -> None:
        """Inter-node SEASGD (root) + intra-group weight broadcast."""
        engine = self.engine
        if self.is_root:
            assert self._inner is not None  # ctor guarantees it for roots
            if not self._smb_failed:
                try:
                    self._inner.exchange(iteration)
                except (smb_errors.SMBError, WorkerError) as exc:
                    # With overlap on, a flush failure surfaces wrapped
                    # in WorkerError at the next wait; classify with the
                    # shared predicate so non-SMB bugs still propagate.
                    if not smb_path_lost(exc):
                        raise
                    self._record_smb_failure(exc, iteration)
            with engine.phases.phase("nccl"):
                # Straight from the live vector: broadcast copies it.
                synced = self.group.broadcast(
                    self.group_rank, engine.flat.vector, root=0
                )
        else:
            with engine.phases.phase("nccl"):
                synced = self.group.broadcast(self.group_rank, None, root=0)
        engine.flat.set_vector(synced)

    def should_stop(self, iteration: int) -> bool:
        """The root decides for the whole group; members follow the flag."""
        engine = self.engine
        if self.is_root:
            stop = 0.0
            if self._smb_failed:
                # The group cannot exchange with W_g any more; wind down
                # in lockstep (mark_failed already ran).
                stop = 1.0
            elif engine.termination is not None:
                try:
                    engine.termination.publish(iteration)
                    if engine.termination.should_stop(iteration):
                        stop = 1.0
                except smb_errors.SMBError as exc:
                    self._record_smb_failure(exc, iteration)
                    stop = 1.0
            elif iteration >= engine.config.max_iterations:
                stop = 1.0
            flag = self.group.broadcast(
                self.group_rank, np.asarray([stop]), root=0
            )
        else:
            flag = self.group.broadcast(self.group_rank, None, root=0)
        return float(flag[0]) != 0.0

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()


class SMBAsgdExchange(_SMBExchange):
    """Downpour ASGD — the related-work comparator — on SMB primitives.

    The demonstration that the strategy seam admits a genuinely different
    update rule: ``exchange`` *replaces* the replica with ``W_g`` (the
    Downpour fetch; ``update_interval`` plays ``fetch_interval``), and
    every step pushes ``-lr * gradient`` in one server-side accumulate —
    apply-on-arrival, no elastic averaging, hence the delayed-gradient
    problem the paper argues against.  The write side rides the same
    :class:`OverlapDriver` as SEASGD when ``overlap_updates`` is on.

    A limitation the baseline faithfully inherits: gradient pushes never
    carry batch-norm *running statistics* (their "gradient" is zero), so
    ``W_g`` of a BN network evaluates with initialisation-time
    statistics.  Compare on BN-free models.

    Downpour has no per-worker averaging coefficient to rescale, so the
    ``fleet`` source is accepted (elastic runs build every strategy the
    same way) but unused: the update rule is natively elastic.
    """

    def exchange(self, iteration: int) -> None:
        """The Downpour fetch: replace the replica with the server state."""
        global_now = self._read_global()
        with self.engine.phases.phase("ulw"):
            self.engine.flat.set_vector(global_now)

    def train_step(self) -> Dict[str, float]:
        """Compute a gradient, push ``-lr * g``, step the local replica."""
        engine = self.engine
        with engine.phases.phase("comp"):
            batch = next(engine.batches)
            stats = engine.solver.compute_gradients(batch.as_inputs())
            lr = engine.solver.learning_rate
        if self.driver is not None:
            # Before the delta buffer is overwritten: the previous push
            # must have left it.
            self.driver.wait_for_flush(engine.phases)
        with engine.phases.phase("comp"):
            delta = np.multiply(
                -lr, engine.flat.grad_vector, out=self._increment
            )
        self._submit(delta)
        # The local replica also steps so inter-fetch iterations make
        # progress (Downpour keeps training between fetches).
        with engine.phases.phase("comp"):
            engine.solver.apply_update(lr)
            engine.solver.advance_iteration()
        stats["lr"] = lr
        return stats


#: The named exchange strategies for SEASGD-style participants (one
#: worker, the ``W_g`` buffer, optionally a live-fleet source for elastic
#: runs); ``ShmCaffeConfig.algorithm`` selects by name.
_EXCHANGES: Dict[str, Callable[..., BaseExchange]] = {
    "seasgd": SEASGDExchange,
    "smb_asgd": SMBAsgdExchange,
}


def make_exchange(
    config: ShmCaffeConfig,
    global_weights: RemoteArray,
    fleet: Optional[FleetSource] = None,
) -> BaseExchange:
    """Build the configured strategy for a direct SMB participant.

    ``fleet`` is the live-fleet size source of an elastic run.
    """
    if config.stale_global_read:
        # A SEASGD ablation; the config refuses it with any other rule.
        return StaleReadExchange(global_weights, fleet)
    try:
        factory = _EXCHANGES[config.algorithm]
    except KeyError:
        raise ValueError(
            f"unknown exchange algorithm {config.algorithm!r}; "
            f"registered: {sorted(_EXCHANGES)}"
        ) from None
    return factory(global_weights, fleet)
