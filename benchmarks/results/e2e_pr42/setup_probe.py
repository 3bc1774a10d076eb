"""Raw set-up time of one benchmark workload, outside the driver.

Enters and leaves the workload ``--times`` times and prints the median
and quartiles of its ``setup_s`` (seconds, not speed-normalised) and of
a bare ``TcpSMBServer`` start + stop.  Run from a tree's root::

    PYTHONPATH=src:. python3 benchmarks/results/e2e_pr42/setup_probe.py \\
        --workload serve_http
"""

import argparse
import json
import time

import numpy as np

from benchmarks.e2e import workloads
from repro.smb import TcpSMBServer


def _quartiles(values):
    return [round(float(v), 5) for v in np.percentile(values, [25, 50, 75])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="serve_http")
    parser.add_argument("--times", type=int, default=15)
    args = parser.parse_args()
    factory = workloads.WORKLOADS[args.workload][1]
    setups, servers = [], []
    for seed in range(args.times):
        with factory(seed) as workload:
            setups.append(workload.setup_s)
        start = time.perf_counter()
        TcpSMBServer(capacity=64 << 20).start().stop()
        servers.append(time.perf_counter() - start)
    print(json.dumps({"workload": args.workload,
                      "setup_s_q1_med_q3": _quartiles(setups),
                      "tcp_server_start_stop_s_q1_med_q3": _quartiles(servers)}))


if __name__ == "__main__":
    main()
