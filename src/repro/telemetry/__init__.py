"""Telemetry subsystem: metrics, paper-phase timers, Chrome-trace export.

The observability backbone of the reproduction.  Three layers:

* :class:`MetricsRegistry` — thread-safe counters, gauges, and streaming
  histograms (bounded memory, p50/p95/p99).
* :class:`PhaseTimer` — context-manager timers named after the paper's
  eq.-(8) cost terms (``comp``, ``wwi``, ``ugw``, ``rgw``, ``ulw``,
  plus ``block`` for the T.A5 stall), near-zero overhead when disabled.
* :class:`TraceRecorder` — structured trace events exported as
  Chrome-trace JSON (``chrome://tracing`` / Perfetto), one process lane
  per worker with ``main``/``update`` thread tracks so the Fig.-6
  overlap is directly visible.

A :class:`TelemetrySession` bundles all three under an ``off`` /
``metrics`` / ``trace`` mode.  A component records into its
``telemetry=`` session, else into the process-wide :func:`current` one
as it stood at construction (:func:`resolve`; install one with
:func:`configure`, or scope one with :func:`session`).  The binding is
fixed at construction, and an ``off`` session's instruments are no-ops
(:class:`NullRegistry`), so call sites record unconditionally.
:mod:`repro.telemetry.report` renders saved runs and cross-validates
measured phase times against the analytic perf model.
"""

from .logconfig import LOG_LEVELS, setup_logging
from .phases import (
    ALL_PHASES,
    NULL_PHASE_TIMER,
    PAPER_PHASES,
    PHASE_BLOCK,
    NullPhaseTimer,
    PhaseTimer,
    phase_metric,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry, NullRegistry
from .runtime import MODES, TelemetrySession, configure, current, resolve, session
from .trace import TraceRecorder

__all__ = [
    "ALL_PHASES",
    "Counter",
    "Gauge",
    "Histogram",
    "LOG_LEVELS",
    "MODES",
    "MetricsRegistry",
    "NULL_PHASE_TIMER",
    "NullPhaseTimer",
    "NullRegistry",
    "PAPER_PHASES",
    "PHASE_BLOCK",
    "PhaseTimer",
    "TelemetrySession",
    "TraceRecorder",
    "configure",
    "current",
    "phase_metric",
    "resolve",
    "session",
    "setup_logging",
]
