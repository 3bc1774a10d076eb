"""Phase timers named after the paper's eq.-(8) cost model.

The paper decomposes one SEASGD iteration into

    T_iter = max[T_comp, (T_wwi + T_ugw)] + T_rgw + T_ulw        (8)

so the telemetry subsystem times exactly those terms, plus ``block`` for
the eq.-(8) stall (the main thread waiting on the previous flush, paper
step T.A5) and ``ctl`` for the per-iteration control-block traffic the
model leaves out:

========  ==============================================================
phase     meaning (paper term)
========  ==============================================================
comp      minibatch fetch + forward/backward/local SGD step (T_comp)
wwi       write the weight increment to the worker's SMB segment (T_wwi);
          training records none: dW rides in the ugw request
ugw       server-side accumulate of dW into W_g, dW carried by the
          request (T_wwi + T_ugw)
rgw       read the global weights from SMB (T_rgw)
ulw       elastic update of the local replica, eqs. (5)-(6) (T_ulw)
block     main thread stalled on the previous exchange's flush
ctl       publish progress + evaluate the Sec. III-E criterion -- the
          control-block RPCs
========  ==============================================================

``PhaseTimer.phase(name)`` returns a context manager; with telemetry
disabled it is a shared no-op singleton, so instrumented loops pay one
attribute lookup and two empty method calls per phase — nothing else.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .registry import MetricsRegistry
    from .trace import TraceRecorder

__all__ = [
    "PAPER_PHASES", "PHASE_BLOCK", "PHASE_CTL", "ALL_PHASES",
    "PhaseTimer", "NullPhaseTimer", "NULL_PHASE_TIMER",
]

#: The five eq.-(8) cost-model terms, in paper order.
PAPER_PHASES: Tuple[str, ...] = ("comp", "wwi", "ugw", "rgw", "ulw")

#: The eq.-(8) stall: main thread blocked on the previous flush (T.A5).
PHASE_BLOCK = "block"

#: ``strategy.should_stop``: progress published, stop criterion read.
PHASE_CTL = "ctl"

#: Every phase the reproduction times (paper terms, the stall, control).
ALL_PHASES: Tuple[str, ...] = PAPER_PHASES + (PHASE_BLOCK, PHASE_CTL)


def phase_metric(worker: int, phase: str) -> str:
    """Registry name of one worker's phase histogram (seconds)."""
    return f"worker{worker}/phase/{phase}"


class _NullContext:
    """Reusable do-nothing context manager (telemetry off)."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullPhaseTimer:
    """Phase timer used when telemetry is disabled: every span is a no-op."""

    __slots__ = ()

    def phase(self, name: str) -> _NullContext:
        return _NULL_CONTEXT


NULL_PHASE_TIMER = NullPhaseTimer()


class _PhaseSpan:
    """One timed span; records a histogram sample and a trace event."""

    __slots__ = ("_timer", "_name", "_start", "_ts_us")

    def __init__(self, timer: "PhaseTimer", name: str) -> None:
        self._timer = timer
        self._name = name
        self._start = 0.0
        self._ts_us = 0.0

    def __enter__(self) -> "_PhaseSpan":
        trace = self._timer.trace
        if trace is not None:
            self._ts_us = trace.now_us()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        elapsed = time.perf_counter() - self._start
        timer = self._timer
        timer.registry.observe(
            phase_metric(timer.worker, self._name), elapsed
        )
        if timer.trace is not None:
            timer.trace.complete(
                name=self._name,
                pid=timer.worker,
                tid=timer.tid,
                ts_us=self._ts_us,
                dur_us=elapsed * 1e6,
            )
        return False


class PhaseTimer:
    """Times named phases for one (worker, thread) pair.

    Obtain via :meth:`repro.telemetry.TelemetrySession.phase_timer`,
    which also labels the worker's trace lanes.  Spans may nest (e.g. a
    ``comp`` span containing a finer-grained sub-span); nested complete
    events render stacked in the trace viewer and each level records its
    own histogram sample.
    """

    __slots__ = ("registry", "trace", "worker", "thread", "tid")

    def __init__(
        self,
        registry: "MetricsRegistry",
        trace: Optional["TraceRecorder"],
        worker: int,
        thread: str = "main",
        tid: int = 0,
    ) -> None:
        self.registry = registry
        self.trace = trace
        self.worker = worker
        self.thread = thread
        self.tid = tid

    def phase(self, name: str) -> _PhaseSpan:
        """A context manager timing one ``name`` span."""
        return _PhaseSpan(self, name)
