"""The unified training engine: one iteration loop for every platform.

:class:`TrainingEngine` is the single owner of the iteration loop,
history recording, termination publishing and SMB-loss degradation;
everything algorithm-specific — *how* parameters are exchanged and *how*
a training step runs — lives in a
:class:`~repro.core.exchange.BaseExchange` subclass.

The engine's loop is the paper's worker skeleton:

1. on exchange iterations (every ``update_interval``), delegate to
   ``strategy.exchange`` (T1-T3 of Fig. 6 for SEASGD; allreduce+broadcast
   for HSGD; pull for SMB-ASGD);
2. run ``strategy.train_step`` (T4-T5) and record an
   :class:`IterationRecord` — the learning rate recorded is always the
   ``stats["lr"]`` the strategy reports, i.e. the lr actually applied this
   step;
3. publish progress and check the Sec. III-E stop criterion via
   ``strategy.should_stop``.

A worker whose SMB path dies for good degrades gracefully: with a
termination coordinator present it tries to mark itself dead in the
control block (best effort, see :mod:`repro.core.termination`) and
returns a partial history with :attr:`WorkerHistory.failed` set; without
one the error propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

from ..caffe.data import Minibatch
from ..caffe.net import Net
from ..caffe.params import FlatParams
from ..caffe.solver import SGDSolver
from ..smb import errors as smb_errors
from ..telemetry import TelemetrySession, resolve as _resolve_telemetry
from .config import ShmCaffeConfig
from .termination import TerminationCoordinator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .checkpoint import CheckpointCoordinator
    from .exchange import BaseExchange


class WorkerError(Exception):
    """The worker's protocol was violated or its update thread died."""


class FlushTimeoutError(WorkerError):
    """The update thread failed to flush within the deadline.

    Proceeding would break the eq.-(8) mutual exclusion (the main thread
    would race a still-running flush), so the worker either fails or —
    when it has a termination coordinator — marks itself dead and leaves
    the job to the survivors.
    """


def smb_path_lost(exc: BaseException) -> bool:
    """Is ``exc`` a terminal loss of the worker's SMB path?

    True for direct SMB errors, for errors *caused* by an SMB error (the
    overlap driver wraps flush failures in :class:`WorkerError` with the
    original chained as ``__cause__``), and for a wedged flush
    (:class:`FlushTimeoutError`).  Strategies and the engine share this
    predicate so every layer classifies failures identically.
    """
    return (
        isinstance(exc, smb_errors.SMBError)
        or isinstance(exc.__cause__, smb_errors.SMBError)
        or isinstance(exc, FlushTimeoutError)
    )


@dataclass
class IterationRecord:
    """Per-iteration training telemetry."""

    iteration: int
    loss: float
    learning_rate: float
    exchanged: bool


@dataclass
class WorkerHistory:
    """Everything a worker reports back after a run."""

    rank: int
    records: List[IterationRecord] = field(default_factory=list)
    completed_iterations: int = 0
    #: True when the worker lost its SMB path and degraded out of the job
    #: instead of finishing; ``failure`` carries the terminal error text.
    failed: bool = False
    failure: str = ""
    #: True when the worker left the run because a retire was requested
    #: (elastic membership) rather than because the criterion fired.
    retired: bool = False

    @property
    def losses(self) -> List[float]:
        return [record.loss for record in self.records]


class TrainingEngine:
    """One worker's training loop, parameterized by an exchange strategy.

    The engine owns the model-side state every platform shares — the flat
    parameter view, the SGD solver, the history, the termination hookup —
    and drives the strategy through the loop.  The strategy is bound at
    construction time (``strategy.bind(self)``), which is also where
    strategies perform their buffer-shape validation, so a misconfigured
    worker fails at build time, not mid-run.

    Args:
        rank: Worker rank (rank 0 is the master worker).
        net: The local model replica.
        config: ShmCaffe hyper-parameters.
        batches: Endless minibatch iterator over this worker's data shard.
        strategy: The exchange strategy implementing the platform's
            parameter-sharing rule.
        termination: Shared-progress stop coordinator (optional; when
            absent the engine just runs ``config.max_iterations``).
        on_iteration: Optional callback ``(rank, iteration, stats)`` for
            live monitoring (the convergence experiments use it to
            snapshot accuracy against wall-clock).
        telemetry: Session receiving the eq.-(8) phase timings; defaults
            to the process-wide :func:`repro.telemetry.current` session
            at construction.
        solver: Pre-built solver to reuse (one is created from
            ``config.solver`` when omitted).
        checkpoint: Optional
            :class:`~repro.core.checkpoint.CheckpointCoordinator`; its
            hook runs after each iteration is recorded and *before*
            progress is published, so a rank's published progress always
            implies its checkpoint state for that boundary is durable.
        start_iteration: Resume point — the loop continues from here
            (the solver, RNG and dataset cursor must have been restored
            to match by the caller).
        retire_signal: Optional zero-argument predicate checked once per
            iteration (after the stop criterion); when it returns True
            the worker drains out of the loop with
            :attr:`WorkerHistory.retired` set — the elastic-membership
            retire path, distinct from both completion and failure.  The
            caller (the trainer's elastic runner) releases the worker's
            control-block slot and registry record afterwards.
    """

    def __init__(
        self,
        rank: int,
        net: Net,
        config: ShmCaffeConfig,
        batches: Iterator[Minibatch],
        strategy: "BaseExchange",
        termination: Optional[TerminationCoordinator] = None,
        on_iteration: Optional[
            Callable[[int, int, Dict[str, float]], None]
        ] = None,
        telemetry: Optional[TelemetrySession] = None,
        solver: Optional[SGDSolver] = None,
        checkpoint: Optional["CheckpointCoordinator"] = None,
        start_iteration: int = 0,
        retire_signal: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.rank = rank
        self.net = net
        self.config = config
        self.flat = FlatParams(net)
        self.solver = solver if solver is not None else SGDSolver(
            net, config.solver
        )
        self.batches = batches
        self.termination = termination
        self.on_iteration = on_iteration
        self.checkpoint = checkpoint
        self.start_iteration = start_iteration
        self.retire_signal = retire_signal
        self.history = WorkerHistory(rank=rank)

        self.telemetry = tel = _resolve_telemetry(telemetry)
        #: Main-thread phase timer (Fig.-6 trace tid 0); strategies that
        #: overlap their write side get a second timer from their
        #: :class:`~repro.core.overlap.OverlapDriver`.
        self.phases = tel.phase_timer(rank, "main")

        self.strategy = strategy
        strategy.bind(self)

    # -- main loop ------------------------------------------------------------

    def run(self) -> WorkerHistory:
        """Train until the termination criterion fires; returns history.

        A worker whose SMB path dies for good (retries exhausted, closed
        transport, wedged flush) does not crash the job: when a
        termination coordinator is present it marks itself dead in the
        control block — survivors rescale their stop criteria and keep
        training — and returns its partial history with
        :attr:`WorkerHistory.failed` set.  Without a coordinator there is
        nobody to degrade for, so the error propagates.
        """
        strategy = self.strategy
        iteration = self.start_iteration
        try:
            while True:
                exchanged = iteration % self.config.update_interval == 0
                if exchanged:
                    strategy.exchange(iteration)

                stats = strategy.train_step()
                iteration += 1

                self.history.records.append(
                    IterationRecord(
                        iteration=iteration,
                        loss=stats["loss"],
                        learning_rate=stats["lr"],
                        exchanged=exchanged,
                    )
                )
                if self.on_iteration is not None:
                    self.on_iteration(self.rank, iteration, stats)

                if self.checkpoint is not None:
                    # Before should_stop (which publishes progress): a
                    # published boundary must imply a durable state file.
                    self.checkpoint.maybe_checkpoint(iteration, self)

                with self.phases.phase("ctl"):
                    stop = strategy.should_stop(iteration)
                if stop:
                    break
                if (
                    self.retire_signal is not None
                    and self.retire_signal()
                ):
                    # Elastic retire: drain out after a full iteration
                    # (progress already published by should_stop), leaving
                    # the criterion decision to the remaining fleet.
                    self.history.retired = True
                    break
        except (smb_errors.SMBError, WorkerError) as exc:
            if not self._degrade(exc, iteration):
                raise
        finally:
            strategy.close()
        self.history.completed_iterations = iteration
        return self.history

    def default_should_stop(self, iteration: int) -> bool:
        """The shared stop rule: publish progress, apply Sec. III-E.

        Strategies without a collective stop decision (everything except
        HSGD's lockstep flag broadcast) delegate here.
        """
        if self.termination is not None:
            self.termination.publish(iteration)
            return self.termination.should_stop(iteration)
        return iteration >= self.config.max_iterations

    # -- degradation -----------------------------------------------------------

    def record_smb_failure(self, exc: BaseException, iteration: int) -> None:
        """Mark this worker dead after a terminal SMB-path loss.

        Sets the history's failure flags, bumps the fault counter, and
        tries to mark the control-block slot dead so survivors rescale.
        The mark rides this worker's own transport, so when that is what
        died (every ``FaultPlan`` kill) it raises, is swallowed here, and
        survivors stop on the unrescaled criterion or the 2x backstop.
        """
        self.history.failed = True
        self.history.failure = f"{type(exc).__name__}: {exc}"
        self.telemetry.registry.inc(f"worker{self.rank}/faults/fatal")
        if self.termination is not None:
            try:
                self.termination.mark_failed(iteration)
            except smb_errors.SMBError:
                pass

    def _degrade(self, exc: BaseException, iteration: int) -> bool:
        """Try to absorb a terminal SMB failure as graceful worker loss.

        Returns True when the worker marked itself dead (the caller then
        returns the partial history); False when the failure is not an
        SMB-path loss or there is no coordinator to inform.
        """
        if self.termination is None:
            return False
        if self.history.failed:
            # The strategy already recorded the failure (HSGD roots do,
            # to keep group lockstep) and the loop still died; nothing
            # more to record.
            return True
        if not smb_path_lost(exc):
            return False
        self.record_smb_failure(exc, iteration)
        return True
