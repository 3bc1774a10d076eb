"""How fast is this machine executing right now?

The VM this benchmark runs on changes speed under it: for a minute or
three at a time the same code needs 25-50 % more CPU time (a neighbour
on the sibling hardware thread), and every wall-clock and CPU-time
metric inherits that.  Ten runs that straddle such a change spread by
more than any bound this benchmark could be given.

:class:`SpeedSampler` measures the state *while a workload runs*: a
harness thread does three small fixed pieces of work — interpreter
bytecode, a BLAS product, a memory copy — every :data:`PERIOD` seconds
and records the **thread CPU time** each took: time on a core, not time
spent waiting for one or for the GIL, so the samples follow the speed of
the cores and not the load the workload puts on them.  ``speed`` is 1.0
when the kernels take their :data:`NOMINAL` times, 0.8 when they take a
quarter longer.  The end-to-end metrics are reported at speed 1.0
(rates divided by it, times multiplied); the raw values stay beside
them in the ``--out`` file.  Over 38 interleaved runs per workload in a
calm hour the samples' correlation with the raw metrics was 0.6-0.8.
"""

from __future__ import annotations

import math
import threading
from time import perf_counter, thread_time
from typing import Dict, List, Tuple

import numpy as np

#: Seconds between samples; three kernels of ~0.3 ms => ~2 % of one core.
PERIOD = 0.05

#: Thread-CPU seconds of each kernel on the reference box (2-vCPU Xeon
#: @ 2.1 GHz VM, its usual state).  Only ratios between runs matter; the
#: constants fix the scale so that a typical run here reads ~1.0.
NOMINAL: Dict[str, float] = {"python": 400e-6, "sgemm": 220e-6, "copy": 250e-6}

#: Fewer samples than this in a window and the whole series is used.
_MIN_SAMPLES = 3


def _interpreter() -> None:
    total = 0
    for i in range(8000):
        total += i & 7


class SpeedSampler:
    """Samples the cores' speed from a background thread until stopped."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((160, 160)).astype(np.float32)
        src = np.ones(1 << 18, dtype=np.float32)
        dst = np.zeros_like(src)
        self._kernels = {
            "python": _interpreter,
            "sgemm": lambda: a @ a,
            "copy": lambda: np.copyto(dst, src),
        }
        #: kernel -> [(wall clock at the sample, thread CPU seconds)]
        self.samples: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in self._kernels
        }
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-speed")

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            for name, kernel in self._kernels.items():
                started = thread_time()
                kernel()
                self.samples[name].append(
                    (perf_counter(), thread_time() - started)
                )

    def speed(self, begin: float, end: float) -> float:
        """Relative speed of the cores over ``[begin, end]`` (1.0 = nominal).

        Geometric mean over the kernels of nominal / median measured CPU
        time; a window too short to hold samples falls back to the whole
        series.
        """
        log_sum = 0.0
        for name, series in self.samples.items():
            inside = [cpu for t, cpu in series if begin <= t <= end]
            if len(inside) < _MIN_SAMPLES:
                inside = [cpu for _, cpu in series]
            if not inside:
                return 1.0  # nothing sampled at all: report values raw
            log_sum += math.log(NOMINAL[name] / float(np.median(inside)))
        return math.exp(log_sum / len(self.samples))
