"""PR 23 probe: does ``ShmSMBServer.stop()`` sever its clients and stop?

Run with ``PYTHONPATH=src`` from a checkout of either side.  One idle
``connect_local`` client; time ``stop()``; list the ``smb-shm*`` threads
still alive; attempt a WRITE after ``stop()`` returned; read the segment's
version and bytes straight from ``server.core.pool``.
"""

import os
import tempfile
import threading
import time

import numpy as np

from repro.smb.client import SMBClient
from repro.smb.errors import SMBError
from repro.smb.shm_transport import ShmSMBServer

if __name__ == "__main__":
    path = os.path.join(tempfile.mkdtemp(), "smb.sock")
    server = ShmSMBServer(path=path, capacity=1 << 20).start()
    array = SMBClient.connect_local(path).create_array("probe", 256)
    array.write(np.ones(256, dtype=np.float32))
    segment = server.core.pool.by_name("probe")
    version, data = segment.version, segment.buffer.tobytes()
    started = time.perf_counter()
    server.stop()
    took = time.perf_counter() - started
    alive = sorted(
        thread.name for thread in threading.enumerate()
        if thread.name.startswith("smb-shm")
    )
    try:
        array.write(np.full(256, 7.0, dtype=np.float32))
        outcome = "acknowledged"
    except SMBError as exc:
        outcome = type(exc).__name__
    time.sleep(0.2)
    print(
        f"stop() took {took:.2f} s; live smb-shm threads {alive}; "
        f"WRITE after stop -> {outcome}; version {version} -> "
        f"{segment.version}; bytes changed: "
        f"{segment.buffer.tobytes() != data}"
    )
