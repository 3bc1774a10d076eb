"""The Fig.-6 overlap driver: one reusable update thread per worker.

The paper's worker protocol (Fig. 6) pairs the main training thread with
an **update_thread** whose job is to hide the *write* side of a parameter
exchange behind computation.  The two sides ping-pong on a pair of
events, giving exactly the paper's mutual exclusion: the main thread
blocks before the next exchange (the eq.-(8) ``block`` stall, step T.A5)
until the update thread has finished flushing the previous one.

*Any* :class:`~repro.core.exchange.BaseExchange` subclass can hide its
write side on it —
SEASGD workers, HSGD group roots, the stale-read ablation (which hides
the read too), and the SMB-ASGD gradient push all reuse the same driver.

Spans executed on the driver run against the worker's ``update``
telemetry track (trace tid 1), so ``ugw`` flushes are visibly
overlapped with ``comp`` in the Chrome trace regardless of which strategy
submitted them.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from ..telemetry import TelemetrySession, resolve as _resolve_telemetry
from ..telemetry.phases import NullPhaseTimer, PhaseTimer
from .engine import FlushTimeoutError, WorkerError


class OverlapDriver:
    """One worker's Fig.-6 update thread, driving deferred flush work.

    The protocol is strict ping-pong: :meth:`submit` hands exactly one
    thunk to the update thread and marks the driver in-flight;
    :meth:`wait_for_flush` blocks (bounded) until that thunk finished,
    re-raising its failure on the caller.  Submitting while a previous
    flush is still in flight is a protocol violation — strategies must
    always wait first, which is precisely the paper's mutual exclusion.

    Args:
        rank: Worker rank (labels the telemetry track).
        telemetry: Session receiving the update-thread phase spans (lane
            ``update``, trace tid 1); defaults to the process-wide session
            current at construction.
    """

    #: Longest a caller will wait for the update thread to flush before
    #: declaring the eq.-(8) mutual exclusion broken.
    FLUSH_TIMEOUT = 60.0

    def __init__(
        self,
        rank: int,
        telemetry: Optional[TelemetrySession] = None,
    ) -> None:
        tel = _resolve_telemetry(telemetry)
        self.rank = rank
        #: Phase timer for spans running on the update thread; strategies
        #: use it so their deferred ``ugw`` lands on the right track.
        self.phases: "PhaseTimer | NullPhaseTimer" = tel.phase_timer(
            rank, "update"
        )
        self._pending: Optional[Callable[[], None]] = None
        self._wake = threading.Event()
        self._flushed = threading.Event()
        self._flushed.set()  # nothing in flight initially
        self._shutdown = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    # -- update thread (T.A1-T.A4) ----------------------------------------

    def _loop(self) -> None:
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._shutdown.is_set():
                return
            try:
                thunk = self._pending
                if thunk is None:
                    raise WorkerError("update thread woken with no work")
                self._pending = None
                thunk()                                            # T.A1-A3
            except BaseException as exc:  # noqa: BLE001 - report to main
                self._error = exc
                self._flushed.set()
                return
            self._flushed.set()                                    # T.A4

    def _ensure_thread(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop,
                name=f"shmcaffe-update-{self.rank}",
                daemon=True,
            )
            self._thread.start()

    # -- main-thread API ----------------------------------------------------

    def submit(self, thunk: Callable[[], None]) -> None:
        """Hand one flush thunk to the update thread (Fig. 6, T3).

        The caller must have observed the previous flush via
        :meth:`wait_for_flush` first; the engine's exchange sequencing
        guarantees that.
        """
        self._ensure_thread()
        self._pending = thunk
        self._flushed.clear()
        self._wake.set()

    def wait_for_flush(
        self, block_phases: "PhaseTimer | NullPhaseTimer | None" = None
    ) -> None:
        """T.A5: block until the previous flush reached the server.

        A flush that never lands (update thread wedged on a dead SMB
        path) must not let the main thread proceed — that would race the
        flush and break the mutual exclusion — so the bounded wait's
        result is checked and a timeout is an error.

        Args:
            block_phases: Main-thread phase timer; when given, the stall
                is recorded as the eq.-(8) ``block`` phase.

        Raises:
            WorkerError: The update thread died executing the flush (the
                original failure is chained as ``__cause__``).
            FlushTimeoutError: The flush missed :attr:`FLUSH_TIMEOUT`.
        """
        if block_phases is not None:
            with block_phases.phase("block"):
                flushed = self._flushed.wait(timeout=self.FLUSH_TIMEOUT)
        else:
            flushed = self._flushed.wait(timeout=self.FLUSH_TIMEOUT)
        if self._error is not None:
            raise WorkerError(
                f"update thread failed: {self._error}"
            ) from self._error
        if not flushed:
            raise FlushTimeoutError(
                f"update thread did not flush within "
                f"{self.FLUSH_TIMEOUT:.0f}s"
            )

    def stop(self) -> None:
        """Drain the update thread; never hang shutdown on a dead flush.

        The bounded waits mean a wedged flush (e.g. SMB path gone) leaves
        at worst one daemon thread behind instead of blocking the main
        thread forever; its eventual error is already captured in the
        driver's error slot / the engine's degradation path.
        """
        self._flushed.wait(timeout=30.0)
        self._shutdown.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
