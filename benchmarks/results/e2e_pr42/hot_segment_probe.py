"""Hot-segment probe: a small tenant's latency beside bulk pushes.

A child process runs 16 bulk clients (tenant ``bulk``) that push 4 MiB
payload ACCUMULATEs into one ``W_g`` on a ``TcpSMBServer`` in this
process.  A second tenant (``small``) then times ``--rounds`` rounds of
a 1 KiB ACCUMULATE (offloaded), a 256 KiB READ (offloaded) and a 1 KiB
READ (served inline), each on its own segments, and prints one JSON line
of p50 / p95 in ms.  ``--separate`` gives every bulk client its own
4 MiB segment instead of the one ``W_g``.

Run against any tree::

    PYTHONPATH=<tree>/src python3 hot_segment_probe.py [--separate]
"""

import argparse
import json
import multiprocessing
import threading
import time

import numpy as np

from repro.smb import SMBClient, TcpSMBServer

BULK_CLIENTS = 16
BULK_COUNT = (4 << 20) // 4


def _bulk(address, keys, ready, stop):
    def push(key):
        client = SMBClient.connect(address, tenant="bulk")
        array = client.attach_array("W_g", key, BULK_COUNT)
        values = np.full(BULK_COUNT, 1e-3, dtype=np.float32)
        ready.release()
        while not stop.is_set():
            array.accumulate(values)
        client.close()

    threads = [threading.Thread(target=push, args=(key,)) for key in keys]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _percentiles(samples):
    ms = np.asarray(samples) * 1e3
    return {"p50": round(float(np.percentile(ms, 50)), 3),
            "p95": round(float(np.percentile(ms, 95)), 3)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=400)
    parser.add_argument("--separate", action="store_true")
    args = parser.parse_args()
    ctx = multiprocessing.get_context("spawn")
    server = TcpSMBServer(capacity=1 << 28).start()
    try:
        owner = SMBClient.connect(server.address, tenant="bulk")
        segments = BULK_CLIENTS if args.separate else 1
        keys = [owner.create_array(f"W_{i}", BULK_COUNT).shm_key
                for i in range(segments)]
        keys = (keys * BULK_CLIENTS)[:BULK_CLIENTS]
        small = SMBClient.connect(server.address, tenant="small")
        acc = small.create_array("acc", 256)
        big = small.create_array("big", (256 << 10) // 4)
        tiny = small.create_array("tiny", 256)
        ones = np.ones(256, dtype=np.float32)
        ready, stop = ctx.Semaphore(0), ctx.Event()
        child = ctx.Process(target=_bulk,
                            args=(server.address, keys, ready, stop))
        child.start()
        for _ in range(BULK_CLIENTS):
            ready.acquire()
        time.sleep(1.0)
        timings = {"acc_1k": [], "read_256k": [], "read_1k": []}
        for _ in range(args.rounds):
            for name, op in (("acc_1k", lambda: acc.accumulate(ones)),
                             ("read_256k", big.read),
                             ("read_1k", tiny.read)):
                start = time.perf_counter()
                op()
                timings[name].append(time.perf_counter() - start)
        stop.set()
        child.join(60.0)
        result = {name: _percentiles(samples)
                  for name, samples in timings.items()}
        result["separate"] = args.separate
        print(json.dumps(result))
        small.close()
        owner.close()
    finally:
        server.stop()


if __name__ == "__main__":
    main()
