"""PR 23 (b): ``Segment.accumulate_from`` alone, chunked vs serial, on the PARENT.

Run from a checkout of the parent commit (6e5da0f) with ``PYTHONPATH=src``;
it flips ``repro.smb.memory.PARALLEL_ACCUMULATE_BYTES`` at run time (no
source edit), alternates the two modes call by call and reports the median
per call.  ``taskset -c 0 python ...`` gives the one-core control.  It
cannot run on PR 23 or later: the constant it flips is gone.

usage: accumulate_serial_vs_chunked.py [OUT.json]
"""

import json
import statistics
import sys
import time

import numpy as np

import repro.smb.memory as memory
from repro.smb.memory import MemoryPool

ROUNDS = {4: 60, 16: 30, 64: 12, 128: 8}  # MiB -> timed calls per mode
MODES = (("chunked", 4 << 20), ("serial", 1 << 62))  # name -> threshold


def measure(mib):
    nbytes = mib << 20
    pool = MemoryPool(capacity=2 * nbytes + (1 << 20))
    dst, src = pool.create("dst", nbytes), pool.create("src", nbytes)
    src.buffer.view(np.float32)[:] = 1e-3
    samples = {name: [] for name, _ in MODES}
    for _, threshold in MODES:  # warm-up, starts the pool's threads
        memory.PARALLEL_ACCUMULATE_BYTES = threshold
        for _ in range(3):
            dst.accumulate_from(src)
    for round_ in range(ROUNDS[mib]):
        for name, threshold in MODES[::-1] if round_ % 2 else MODES:
            memory.PARALLEL_ACCUMULATE_BYTES = threshold
            started = time.perf_counter()
            dst.accumulate_from(src)
            samples[name].append(time.perf_counter() - started)
    chunked, serial = (
        statistics.median(samples[name]) * 1e3 for name, _ in MODES
    )
    return {
        "mib": mib,
        "rounds": ROUNDS[mib],
        "chunked_ms_p50": round(chunked, 3),
        "serial_ms_p50": round(serial, 3),
        "chunked_over_serial": round(chunked / serial, 3),
    }


if __name__ == "__main__":
    rows = []
    for size in ROUNDS:
        rows.append(measure(size))
        print(rows[-1], flush=True)
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=1)
