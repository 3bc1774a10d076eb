"""Telemetry sessions and the process-wide current session.

A :class:`TelemetrySession` bundles a metrics registry with an optional
trace recorder under one of three modes:

* ``off``     — every instrument call is a no-op (the default; a
  :class:`~repro.telemetry.registry.NullRegistry`);
* ``metrics`` — counters/gauges/histograms record, no trace events;
* ``trace``   — metrics *plus* Chrome-trace events for every span.

A component records into the ``telemetry=`` session it was given, else
into the :func:`current` one as it stood at construction (:func:`resolve`),
and never looks :func:`current` up again.  ``python -m repro --telemetry
trace train ...`` installs its session before it builds anything.  Tests
use the :func:`session` context manager to install an isolated session
and restore the previous one on exit.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from typing import Dict, Iterator, Optional, Tuple

from .phases import NULL_PHASE_TIMER, PhaseTimer
from .registry import MetricsRegistry, NullRegistry
from .trace import DEFAULT_MAX_EVENTS, TraceRecorder

__all__ = [
    "MODES", "TelemetrySession", "current", "configure", "resolve", "session",
]

#: Valid telemetry modes, least to most detailed.
MODES: Tuple[str, ...] = ("off", "metrics", "trace")

#: Stable trace tids for the Fig.-6 worker threads.
_THREAD_TIDS = {"main": 0, "update": 1}


class TelemetrySession:
    """One run's worth of metrics and (optionally) trace events."""

    def __init__(
        self,
        mode: str = "metrics",
        max_trace_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if mode not in MODES:
            raise ValueError(
                f"telemetry mode must be one of {MODES}, got {mode!r}"
            )
        self.mode = mode
        self.registry = NullRegistry() if mode == "off" else MetricsRegistry()
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder(max_trace_events) if mode == "trace" else None
        )
        self._tid_lock = threading.Lock()
        self._extra_tids: Dict[Tuple[int, str], int] = {}

    # -- state ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when metrics (and possibly traces) are being recorded."""
        return self.mode != "off"

    # -- instrument factories --------------------------------------------

    def _thread_tid(self, worker: int, thread: str) -> int:
        known = _THREAD_TIDS.get(thread)
        if known is not None:
            return known
        with self._tid_lock:
            key = (worker, thread)
            tid = self._extra_tids.get(key)
            if tid is None:
                tid = len(_THREAD_TIDS) + len(self._extra_tids)
                self._extra_tids[key] = tid
            return tid

    def phase_timer(self, worker: int, thread: str = "main"):
        """A phase timer for one (worker, thread); no-op when disabled."""
        if not self.enabled:
            return NULL_PHASE_TIMER
        tid = self._thread_tid(worker, thread)
        if self.trace is not None:
            self.trace.name_process(worker, f"worker {worker}")
            self.trace.name_thread(worker, tid, thread)
        return PhaseTimer(self.registry, self.trace, worker, thread, tid)

    @contextlib.contextmanager
    def timed(
        self,
        metric: str,
        trace_name: Optional[str] = None,
        pid: int = -1,
        tid: int = 0,
        cat: str = "op",
    ) -> Iterator[None]:
        """Time a block into histogram ``metric`` (+ optional trace span).

        Used for non-phase spans — SMB server/client operations, NCCL
        collectives, whole experiments.  ``pid=-1`` groups such spans
        under a synthetic "infrastructure" trace lane.
        """
        if not self.enabled:
            yield
            return
        trace = self.trace
        ts_us = trace.now_us() if trace is not None else 0.0
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.registry.observe(metric, elapsed)
            if trace is not None:
                trace.complete(
                    name=trace_name or metric, pid=pid, tid=tid,
                    ts_us=ts_us, dur_us=elapsed * 1e6, cat=cat,
                )

    # -- persistence ------------------------------------------------------

    def save(
        self,
        directory: str,
        meta: Optional[Dict[str, object]] = None,
    ) -> Dict[str, str]:
        """Write ``metrics.json`` (and ``trace.json`` when tracing).

        ``meta`` is stored alongside the snapshot so the report command
        can reconstruct run context (platform, model, worker count) and
        run the perf-model cross-validation offline.

        Returns:
            Mapping of artifact kind to the path written.
        """
        os.makedirs(directory, exist_ok=True)
        paths: Dict[str, str] = {}
        metrics_path = os.path.join(directory, "metrics.json")
        payload = {
            "mode": self.mode,
            "meta": dict(meta or {}),
            "metrics": self.registry.snapshot(),
        }
        with open(metrics_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
        paths["metrics"] = metrics_path
        if self.trace is not None:
            trace_path = os.path.join(directory, "trace.json")
            self.trace.export(trace_path)
            paths["trace"] = trace_path
        return paths


# -- process-wide current session ----------------------------------------

_current = TelemetrySession("off")
_current_lock = threading.Lock()


def current() -> TelemetrySession:
    """The process-wide session instrumented code falls back to."""
    return _current


def resolve(telemetry: Optional[TelemetrySession] = None) -> TelemetrySession:
    """The session a component built now records into: ``telemetry``
    if given, else the :func:`current` one, fixed from here on."""
    return telemetry if telemetry is not None else _current


def configure(
    mode: str = "metrics",
    max_trace_events: int = DEFAULT_MAX_EVENTS,
) -> TelemetrySession:
    """Install (and return) a fresh process-wide session."""
    global _current
    with _current_lock:
        _current = TelemetrySession(mode, max_trace_events)
        return _current


@contextlib.contextmanager
def session(mode: str = "metrics") -> Iterator[TelemetrySession]:
    """Temporarily install a fresh current session (tests, experiments)."""
    global _current
    with _current_lock:
        previous = _current
        _current = TelemetrySession(mode)
        installed = _current
    try:
        yield installed
    finally:
        with _current_lock:
            _current = previous
