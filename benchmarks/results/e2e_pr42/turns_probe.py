"""Turn-taking probe: the version tenant ``b``'s ACCUMULATE gets.

A ``TcpSMBServer(workers=2)``; this script holds ``W_g``'s segment
lock, so two ACCUMULATEs of tenant ``a`` park on it (both pool threads)
and four more queue.  Tenant ``b`` then queues one ACCUMULATE into the
same ``W_g`` and the lock is released.  Prints the versions each push
got; ``b``'s is where it was served among the seven (7 = behind all of
``a``'s backlog).  The rig of ``tests/test_smb_eventloop.py``
``TestTenantTurns``, which waits on the same gauges.

    PYTHONPATH=<tree>/src python3 turns_probe.py
"""

import json
import threading
import time

import numpy as np

from repro.smb import SMBClient, TcpSMBServer
from repro.telemetry import TelemetrySession


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.001)
    if not predicate():
        raise SystemExit("gauges never reached the rig's state")


def main():
    session = TelemetrySession("metrics")
    gauge = session.registry.gauge
    server = TcpSMBServer(capacity=1 << 20, workers=2,
                          telemetry=session).start()
    owner = SMBClient.connect(server.address, tenant="a")
    w_g = owner.create_array("W_g", 16)
    clients = [SMBClient.connect(server.address, tenant=t)
               for t in "aaaaaab"]
    arrays = [c.attach_array("W_g", w_g.shm_key, 16) for c in clients]
    versions = {}

    def push(name, array):
        versions[name] = array.accumulate(np.ones(16, dtype=np.float32))

    threads = [threading.Thread(target=push, args=(f"a{i}", array))
               for i, array in enumerate(arrays[:6])]
    with server.core.pool.by_shm_key(w_g.shm_key).lock:
        for thread in threads:
            thread.start()
        _wait_until(lambda: (
            gauge("smb/server/queue/accumulate").value == 2
            and gauge("smb/tenant/a/queue_depth").value == 4))
        threads.append(threading.Thread(target=push, args=("b", arrays[6])))
        threads[-1].start()
        _wait_until(lambda: gauge("smb/tenant/b/queue_depth").value == 1)
    for thread in threads:
        thread.join(10.0)
    print(json.dumps({"b": versions["b"],
                      "a": sorted(v for k, v in versions.items() if k != "b")}))
    for client in clients + [owner]:
        client.close()
    server.stop()


if __name__ == "__main__":
    main()
