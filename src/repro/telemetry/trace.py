"""Structured trace events with Chrome-trace (Perfetto) JSON export.

The recorder collects *complete* events (``"ph": "X"``): one entry per
timed span with a start timestamp and duration, attributed to a
``pid``/``tid`` pair.  We map paper concepts onto the trace model:

* ``pid``  — worker rank (one "process" lane per worker in the viewer);
* ``tid``  — the worker's thread: ``main`` vs ``update`` (Fig. 6), so
  the overlap of computation with the weight-increment flush is visible
  as two stacked tracks per worker.

Export follows the Trace Event Format's JSON-object flavour
(``{"traceEvents": [...]}``) which both ``chrome://tracing`` and
https://ui.perfetto.dev load directly.  The event buffer is a bounded
deque: a runaway run overwrites its oldest spans instead of eating the
heap.
"""

from __future__ import annotations

import collections
import json
import threading
import time
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["TraceRecorder"]

#: Default event-buffer bound (~40 MB of JSON at worst).
DEFAULT_MAX_EVENTS = 200_000


class TraceRecorder:
    """Bounded in-memory recorder of Chrome-trace complete events."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self._events: Deque[Dict[str, object]] = collections.deque(
            maxlen=max_events
        )
        self._meta: Dict[Tuple[int, Optional[int]], Dict[str, object]] = {}
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self.dropped = 0

    # -- clock ------------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since the recorder was created (trace timebase)."""
        return (time.perf_counter() - self._epoch) * 1e6

    # -- event emission ---------------------------------------------------

    def complete(
        self,
        name: str,
        pid: int,
        tid: int,
        ts_us: float,
        dur_us: float,
        cat: str = "phase",
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record one complete ("X") span."""
        event: Dict[str, object] = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": round(ts_us, 3),
            "dur": round(dur_us, 3),
        }
        if args:
            event["args"] = args
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(event)

    # -- process/thread naming -------------------------------------------

    def name_process(self, pid: int, name: str) -> None:
        """Label a pid lane (e.g. ``worker 3``) in the viewer."""
        with self._lock:
            self._meta[(pid, None)] = {
                "name": "process_name", "ph": "M", "pid": pid,
                "args": {"name": name},
            }

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        """Label a tid track (e.g. ``main`` / ``update``) under a pid."""
        with self._lock:
            self._meta[(pid, tid)] = {
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": name},
            }

    # -- export -----------------------------------------------------------

    def events(self) -> List[Dict[str, object]]:
        """Metadata plus recorded events, in emission order."""
        with self._lock:
            meta = [dict(event) for _, event in sorted(
                self._meta.items(),
                key=lambda item: (item[0][0], -1 if item[0][1] is None
                                  else item[0][1]),
            )]
            return meta + [dict(event) for event in self._events]

    def to_dict(self) -> Dict[str, object]:
        """The Trace Event Format JSON-object envelope."""
        return {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped},
        }

    def export(self, path: str) -> None:
        """Write the trace to ``path`` as Chrome-trace JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
