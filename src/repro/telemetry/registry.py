"""Thread-safe metric primitives: counters, gauges, streaming histograms.

The registry is the storage layer of the telemetry subsystem.  Every
instrument is addressed by a flat string name (convention:
``component/subject`` with ``workerN/...`` prefixes for per-worker
series) and created on first use, so instrumented code never has to
pre-declare what it measures.

Histograms are *streaming*: observations land in geometrically spaced
buckets (HDR-histogram style), so memory stays bounded no matter how
many samples arrive while p50/p95/p99 remain accurate to the bucket
growth factor (~5 % with the default 1.1).  That matters because the
phase timers observe every training iteration of every worker.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry"]

#: Geometric growth factor between histogram bucket boundaries.
BUCKET_GROWTH = 1.1

#: Smallest distinguishable observation (seconds-scale metrics: 0.1 µs).
BUCKET_FLOOR = 1e-7


class Counter:
    """A monotonically increasing integer (op counts, bytes moved)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative inc {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        """Serializable state."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins float (queue depths, configuration values)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, object]:
        """Serializable state."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming histogram over geometric buckets.

    Bucket ``i`` covers ``(floor * growth**(i-1), floor * growth**i]``;
    index 0 absorbs everything at or below the floor.  Storage is a
    sparse dict of bucket index -> count, so an idle histogram costs a
    few hundred bytes and a busy one is bounded by the dynamic range of
    its observations (10 decades fit in ~250 buckets at growth 1.1).
    """

    def __init__(
        self,
        name: str,
        growth: float = BUCKET_GROWTH,
        floor: float = BUCKET_FLOOR,
    ) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1.0, got {growth}")
        self.name = name
        self._growth = growth
        self._floor = floor
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def _index(self, value: float) -> int:
        if value <= self._floor:
            return 0
        return 1 + int(math.log(value / self._floor) / self._log_growth)

    def _upper_bound(self, index: int) -> float:
        return self._floor * self._growth ** index

    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp to zero)."""
        value = max(0.0, float(value))
        index = self._index(value)
        with self._lock:
            self._buckets[index] = self._buckets.get(index, 0) + 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        target = q * self._count
        seen = 0
        for index in sorted(self._buckets):
            in_bucket = self._buckets[index]
            if seen + in_bucket >= target:
                upper = self._upper_bound(index)
                lower = 0.0 if index == 0 else upper / self._growth
                # Linear interpolation inside the winning bucket.
                frac = (target - seen) / in_bucket
                estimate = lower + frac * (upper - lower)
                # Never report outside the observed range.
                return min(max(estimate, self._min), self._max)
            seen += in_bucket
        return self._max

    def snapshot(self) -> Dict[str, object]:
        """Serializable summary (count/sum/min/max plus p50/p95/p99)."""
        with self._lock:
            if self._count == 0:
                return {"type": "histogram", "count": 0, "sum": 0.0,
                        "min": 0.0, "max": 0.0, "mean": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
            p50, p95, p99 = (
                self._quantile_locked(0.50),
                self._quantile_locked(0.95),
                self._quantile_locked(0.99),
            )
            return {
                "type": "histogram",
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "mean": self._sum / self._count,
                "p50": p50,
                "p95": p95,
                "p99": p99,
            }


class MetricsRegistry:
    """Get-or-create store of named instruments, safe for many writers.

    The registry lock only guards instrument creation; each instrument
    carries its own lock for the hot recording path.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls: type) -> object:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        return self._get_or_create(name, Histogram)  # type: ignore[return-value]

    # -- hot-path conveniences -------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``."""
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        """Set gauge ``name``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        self.histogram(name).observe(value)

    # -- inspection -------------------------------------------------------

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[object]:
        """The instrument called ``name``, or None."""
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Serializable state of every instrument (sorted by name)."""
        with self._lock:
            items: Tuple[Tuple[str, object], ...] = tuple(
                sorted(self._metrics.items())
            )
        return {name: metric.snapshot() for name, metric in items}


class NullRegistry(MetricsRegistry):
    """An ``off`` session's registry: records nothing, snapshots to ``{}``.

    The registry-level twin of :data:`~repro.telemetry.NULL_PHASE_TIMER`,
    so call sites record unconditionally.  An instrument asked for by
    name is a detached one that no snapshot ever sees.
    """

    def _get_or_create(self, name: str, cls: type) -> object:
        return cls(name)

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def set(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass
