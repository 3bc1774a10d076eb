"""SMB data-path benchmark: the regression gate for the zero-copy work.

The paper's Fig. 7 speedups live or die on the per-operation cost of the
SMB primitives, so this module measures exactly that: READ / WRITE /
ACCUMULATE latency and throughput, per transport (``inproc`` — the RDMA
stand-in —, ``tcp`` loopback, and ``shm`` — the co-located
shared-memory doorway), across a payload sweep from 1 KiB to 64 MiB.  The timings come from the client's own telemetry histograms
(``smb/client/time/<OP>``), so the benchmark measures the same code path
training measures, including retry/validation overhead.

Results serialise to ``BENCH_smb.json``; :func:`compare` diffs a current
run against a committed baseline and flags cells whose p50 latency
regressed beyond a factor (the CI gate).  An optional sharded section
times a K-server :class:`~repro.smb.fleet.ShardedArray` gather/scatter
against the sum of its per-shard sequential costs, quantifying the
fan-out overlap.

A second section measures **contention**: N concurrent clients hammering
the same server (the event-loop front-end's raison d'être), reporting
per-request p50/p95 at each client count.  :func:`compare` gates those
cells on *p95* — tail latency under load is exactly what a concurrency
regression ruins first.

CLI: ``repro smb bench [--quick] [--out BENCH_smb.json]
[--compare baseline.json --max-regression 2.0] [--sharded K]
[--clients 1,8,32]``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry import TelemetrySession
from .client import RemoteArray, SMBClient
from .memory import enter_bulk_priority
from .server import SMBServer, TcpSMBServer
from .fleet import ShardedArray, create_sharded_array
from .shm_transport import ShmSMBServer

#: Default payload sweep (bytes): 1 KiB -> 64 MiB in 16x steps, i.e. the
#: span from a tiny control block to an AlexNet-scale weight vector.
DEFAULT_SIZES = (1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26)

#: Reduced sweep for CI smoke runs (keeps the job in seconds).
QUICK_SIZES = (1 << 10, 1 << 20)

OPS = ("READ", "WRITE", "ACCUMULATE")
TRANSPORTS = ("inproc", "tcp", "shm")

#: Aim each cell's timed section at roughly this many bytes moved, so
#: small payloads get many iterations (stable quantiles) and huge ones
#: only a few (bounded wall time).
TARGET_CELL_BYTES = 1 << 28
MIN_ITERATIONS = 5
MAX_ITERATIONS = 200


@dataclass
class CellResult:
    """One (transport, op, size) measurement."""

    transport: str
    op: str
    size_bytes: int
    iterations: int
    p50_s: float
    p95_s: float
    gb_per_s: float


@dataclass
class ShardedResult:
    """K-way fan-out overlap measurement at one payload size."""

    num_shards: int
    size_bytes: int
    iterations: int
    read_wall_s: float
    read_shard_sum_s: float
    write_wall_s: float
    write_shard_sum_s: float

    @property
    def read_overlap(self) -> float:
        """Per-shard-sum / wall ratio; > 1 means transfers overlapped."""
        return self.read_shard_sum_s / max(self.read_wall_s, 1e-12)


#: Default client counts for the contention sweep.  128 is the "hundreds
#: of clients" regime the selector front-end exists for; the CLI's
#: ``--quick`` drops it to keep CI in seconds.
DEFAULT_CLIENT_COUNTS = (1, 8, 32, 128)
QUICK_CLIENT_COUNTS = (1, 8)

#: Payload the contention sweep exercises: a 1 MiB ACCUMULATE is the
#: paper's eq.-(7) push at AlexNet-fc scale — big enough to hit the
#: chunked-accumulate path, small enough that 128 clients stay fast.
CONTENTION_SIZE = 1 << 20
CONTENTION_OPS = ("ACCUMULATE", "READ")


@dataclass
class ContentionResult:
    """p50/p95 per-request latency with ``num_clients`` concurrent clients."""

    op: str
    num_clients: int
    size_bytes: int
    iterations_per_client: int
    p50_s: float
    p95_s: float
    aggregate_gb_per_s: float


#: Tenancy fairness cell: the bulk tenant streams ACCUMULATEs of this
#: size while the small tenant issues 1 KiB READs.  Quick mode shrinks
#: the stream so CI stays in seconds — but not below a size whose
#: server-side accumulate dominates each round trip, otherwise the cell
#: measures loopback client churn instead of server dispatch.
TENANCY_BULK_SIZE = 1 << 26
TENANCY_BULK_SIZE_QUICK = 1 << 24
TENANCY_SMALL_SIZE = 1 << 10
TENANCY_BULK_STREAMS = 4


#: Read-fanout cell: model size the replica serves and the client counts
#: fanning out against it.  16 MiB is the acceptance target (a W_g at
#: paper scale); quick mode shrinks it so CI stays in seconds.
SERVING_SIZE = 1 << 24
SERVING_SIZE_QUICK = 1 << 20
DEFAULT_SERVING_CLIENTS = (1, 4, 16)


@dataclass
class ServingResult:
    """Read-fanout throughput against one replica mirror.

    ``primary_reads`` counts primary-server READ ops issued *during the
    fan-out* (after replica warm-up) — the read tier exists so this is
    zero; the bench records it so a regression (readers leaking through
    to the primary) is visible in the payload.
    """

    num_clients: int
    size_bytes: int
    iterations_per_client: int
    p50_s: float
    p95_s: float
    aggregate_gb_per_s: float
    primary_reads: int


@dataclass
class TenancyResult:
    """Small-op latency with and without a bulk tenant streaming.

    The two-lane dispatch exists so one tenant's 64 MiB ACCUMULATE
    stream cannot starve another tenant's 1 KiB control-plane READs;
    ``fairness_ratio`` (contended p95 / uncontended p95) is the number
    that property lives or dies on.
    """

    bulk_size_bytes: int
    small_size_bytes: int
    iterations: int
    bulk_ops: int
    uncontended_p50_s: float
    uncontended_p95_s: float
    contended_p50_s: float
    contended_p95_s: float

    @property
    def fairness_ratio(self) -> float:
        return self.contended_p95_s / max(self.uncontended_p95_s, 1e-12)


@dataclass
class BenchConfig:
    """What to measure; defaults give the full sweep."""

    sizes: Sequence[int] = DEFAULT_SIZES
    ops: Sequence[str] = OPS
    transports: Sequence[str] = TRANSPORTS
    iterations: Optional[int] = None  # None = auto-scale per size
    warmup: int = 2
    sharded: int = 0  # shard count for the overlap section; 0 = skip
    clients: Sequence[int] = ()  # contention sweep client counts; () = skip
    tenancy: bool = False  # mixed-workload two-tenant fairness cell
    serving: Sequence[int] = ()  # read-fanout client counts; () = skip
    quick: bool = False

    def __post_init__(self) -> None:
        if self.quick:
            self.sizes = QUICK_SIZES
            if self.clients:
                self.clients = tuple(
                    n for n in self.clients if n <= max(QUICK_CLIENT_COUNTS)
                ) or QUICK_CLIENT_COUNTS
        for n in self.clients:
            if n < 1:
                raise ValueError(f"client counts must be >= 1, got {n}")
        for n in self.serving:
            if n < 1:
                raise ValueError(
                    f"serving client counts must be >= 1, got {n}"
                )
        for op in self.ops:
            if op not in OPS:
                raise ValueError(f"unknown op {op!r}; choose from {OPS}")
        for transport in self.transports:
            if transport not in TRANSPORTS:
                raise ValueError(
                    f"unknown transport {transport!r}; "
                    f"choose from {TRANSPORTS}"
                )

    def iterations_for(self, size_bytes: int) -> int:
        if self.iterations is not None:
            return self.iterations
        auto = TARGET_CELL_BYTES // max(size_bytes, 1)
        if self.quick:
            auto = min(auto, 20)
        return max(MIN_ITERATIONS, min(MAX_ITERATIONS, auto))


@dataclass
class _Rig:
    """One transport's server + client + per-size arrays."""

    client: SMBClient
    teardown: Callable[[], None]
    arrays: Dict[int, Tuple[RemoteArray, RemoteArray]] = field(
        default_factory=dict
    )


def _capacity_for(sizes: Sequence[int]) -> int:
    # Two arrays (target + delta) per size, plus slack for headers.
    return 2 * sum(sizes) + (1 << 22)


def _make_rig(transport: str, sizes: Sequence[int]) -> _Rig:
    capacity = _capacity_for(sizes)
    if transport == "inproc":
        server = SMBServer(capacity=capacity)
        client = SMBClient.in_process(server)
        teardown: Callable[[], None] = client.close
    elif transport == "shm":
        sock_dir = tempfile.mkdtemp(prefix="smb-bench-")
        shm_server = ShmSMBServer(
            os.path.join(sock_dir, "smb.sock"), capacity=capacity
        ).start()
        client = SMBClient.connect_local(shm_server.path)

        def teardown() -> None:
            client.close()
            shm_server.stop()
            shutil.rmtree(sock_dir, ignore_errors=True)
    else:
        tcp_server = TcpSMBServer(capacity=capacity).start()
        client = SMBClient.connect(tcp_server.address)

        def teardown() -> None:
            client.close()
            tcp_server.stop()

    rig = _Rig(client=client, teardown=teardown)
    for size in sizes:
        count = max(size // 4, 1)  # float32 elements
        target = client.create_array(f"bench.{size}", count)
        delta = client.create_array(f"bench.{size}.delta", count)
        delta.write(np.ones(count, dtype=np.float32))
        rig.arrays[size] = (target, delta)
    return rig


def _measure_cell(
    client: SMBClient,
    transport: str,
    op: str,
    size_bytes: int,
    target: RemoteArray,
    delta: RemoteArray,
    iterations: int,
    warmup: int,
) -> CellResult:
    """Time one op at one size through the client's own telemetry."""
    scratch = np.empty(target.count, dtype=target.dtype)
    payload = np.zeros(target.count, dtype=np.float32)

    def once() -> None:
        if op == "READ":
            target.read(out=scratch)
        elif op == "WRITE":
            target.write(payload)
        else:
            delta.accumulate_into(target)

    for _ in range(warmup):
        once()
    # A fresh session isolates the timed iterations from warmup (and from
    # any other cell); the client records into whichever session it was
    # handed at construction, so swap it for the duration.
    session = TelemetrySession("metrics")
    previous = client._telemetry
    client._telemetry = session
    try:
        for _ in range(iterations):
            once()
    finally:
        client._telemetry = previous
    histogram = session.registry.histogram(f"smb/client/time/{op}")
    p50, p95 = histogram.quantiles([0.5, 0.95])
    return CellResult(
        transport=transport,
        op=op,
        size_bytes=size_bytes,
        iterations=iterations,
        p50_s=p50,
        p95_s=p95,
        gb_per_s=size_bytes / max(p50, 1e-12) / 1e9,
    )


def _measure_sharded(num_shards: int, size_bytes: int) -> ShardedResult:
    """Wall-clock K-way gather/scatter vs the sum of per-shard costs.

    Uses K TCP loopback servers (one per shard) so each stripe has a real
    socket to overlap on; the per-shard-sum is measured on the very same
    arrays read sequentially, so the comparison is apples-to-apples.
    """
    count = max(size_bytes // 4, num_shards)
    servers = [
        TcpSMBServer(capacity=size_bytes * 3 + (1 << 22)).start()
        for _ in range(num_shards)
    ]
    clients = [SMBClient.connect(server.address) for server in servers]
    try:
        array = create_sharded_array(clients, "bench.sharded", count)
        values = np.ones(count, dtype=np.float32)
        scratch = np.empty(count, dtype=np.float32)
        iterations = max(3, min(20, TARGET_CELL_BYTES // max(size_bytes, 1)))
        array.write(values)
        array.read(out=scratch)  # warmup

        start = time.perf_counter()
        for _ in range(iterations):
            array.read(out=scratch)
        read_wall = (time.perf_counter() - start) / iterations

        flat = scratch.reshape(-1)
        start = time.perf_counter()
        for _ in range(iterations):
            for shard, (lo, hi) in zip(array.shards, array._bounds):
                shard.read(out=flat[lo:hi])
        read_seq = (time.perf_counter() - start) / iterations

        start = time.perf_counter()
        for _ in range(iterations):
            array.write(values)
        write_wall = (time.perf_counter() - start) / iterations

        start = time.perf_counter()
        for _ in range(iterations):
            for shard, (lo, hi) in zip(array.shards, array._bounds):
                shard.write(values[lo:hi])
        write_seq = (time.perf_counter() - start) / iterations
    finally:
        for client in clients:
            client.close()
        for server in servers:
            server.stop()
    return ShardedResult(
        num_shards=num_shards,
        size_bytes=size_bytes,
        iterations=iterations,
        read_wall_s=read_wall,
        read_shard_sum_s=read_seq,
        write_wall_s=write_wall,
        write_shard_sum_s=write_seq,
    )


def _contention_iterations(num_clients: int, size_bytes: int) -> int:
    """Per-client iteration count: enough samples for a stable p95 at
    small fleets, bounded total work at large ones."""
    total_target = TARGET_CELL_BYTES // max(size_bytes, 1)
    per_client = total_target // max(num_clients, 1)
    return max(5, min(50, per_client))


def _measure_contention(
    op: str,
    num_clients: int,
    size_bytes: int = CONTENTION_SIZE,
) -> ContentionResult:
    """N clients hammer one TCP server; per-request latency quantiles.

    Every client is a real socket connection with its own private delta
    segment (ACCUMULATE) or scratch buffer (READ), all targeting the one
    shared ``W_g`` — the paper's many-workers-one-box topology.  Clients
    start behind a barrier so the measured window is fully contended.
    """
    count = max(size_bytes // 4, 1)
    capacity = (num_clients + 2) * size_bytes + (1 << 22)
    server = TcpSMBServer(capacity=capacity).start()
    boot = SMBClient.connect(server.address)
    latencies: List[List[float]] = [[] for _ in range(num_clients)]
    failures: List[BaseException] = []
    iterations = _contention_iterations(num_clients, size_bytes)
    try:
        target = boot.create_array("contention.W_g", count)
        target.write(np.zeros(count, dtype=np.float32))
        start_barrier = threading.Barrier(num_clients + 1)

        def worker(index: int) -> None:
            client = SMBClient.connect(server.address)
            try:
                view = client.attach_array(
                    "contention.W_g", target.shm_key, count
                )
                if op == "ACCUMULATE":
                    delta = client.create_array(
                        f"contention.dW_{index}", count
                    )
                    delta.write(np.ones(count, dtype=np.float32))
                    once = lambda: delta.accumulate_into(view)  # noqa: E731
                else:
                    scratch = np.empty(count, dtype=np.float32)
                    once = lambda: view.read(out=scratch)  # noqa: E731
                once()  # warmup (and per-client setup validation)
                start_barrier.wait(timeout=60)
                samples = latencies[index]
                for _ in range(iterations):
                    begin = time.perf_counter()
                    once()
                    samples.append(time.perf_counter() - begin)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)
                try:
                    start_barrier.abort()
                except Exception:  # pragma: no cover - barrier races
                    pass
            finally:
                client.close()

        threads = [
            threading.Thread(
                target=worker, args=(i,), name=f"bench-client-{i}"
            )
            for i in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait(timeout=60)
        wall_start = time.perf_counter()
        for thread in threads:
            thread.join(timeout=600)
        wall = time.perf_counter() - wall_start
        if failures:
            raise failures[0]
    finally:
        boot.close()
        server.stop()
    flat = np.asarray([s for per in latencies for s in per], dtype=np.float64)
    p50, p95 = np.percentile(flat, [50, 95])
    total_bytes = flat.size * size_bytes
    return ContentionResult(
        op=op,
        num_clients=num_clients,
        size_bytes=size_bytes,
        iterations_per_client=iterations,
        p50_s=float(p50),
        p95_s=float(p95),
        aggregate_gb_per_s=total_bytes / max(wall, 1e-12) / 1e9,
    )


def _measure_tenancy(
    bulk_size: int = TENANCY_BULK_SIZE,
    small_size: int = TENANCY_SMALL_SIZE,
    iterations: int = 300,
    streams: int = TENANCY_BULK_STREAMS,
) -> TenancyResult:
    """The mixed-workload fairness cell, on one TCP server.

    Tenant ``small`` measures its 1 KiB READ latency twice: first on an
    otherwise idle server (the uncontended floor), then while tenant
    ``bulk`` keeps ``streams`` connections saturated with full-segment
    ACCUMULATEs.  Both tenants get explicit grants, so the cell also
    exercises the quota admission path end to end.
    """
    count = max(bulk_size // 4, 1)
    capacity = (streams + 3) * bulk_size + (1 << 22)
    server = TcpSMBServer(capacity=capacity).start()
    admin = SMBClient.connect(server.address)
    stop = threading.Event()
    bulk_ops = [0] * streams
    failures: List[BaseException] = []
    try:
        admin.create_tenant("bulk", quota=(streams + 2) * bulk_size)
        admin.create_tenant("small", quota=4 * small_size)
        small_client = SMBClient.connect(server.address, tenant="small")
        small = small_client.create_array(
            "tenancy.ctl", max(small_size // 4, 1)
        )
        small.write(np.zeros(small.count, dtype=np.float32))
        scratch = np.empty(small.count, dtype=np.float32)

        def sample(n: int) -> np.ndarray:
            out = np.empty(n, dtype=np.float64)
            for i in range(n):
                begin = time.perf_counter()
                small.read(out=scratch)
                out[i] = time.perf_counter() - begin
            return out

        sample(10)  # warmup
        idle = sample(iterations)

        boot = SMBClient.connect(server.address, tenant="bulk")
        target = boot.create_array("tenancy.W_g", count)
        target.write(np.zeros(count, dtype=np.float32))
        ready = threading.Barrier(streams + 1)

        def stream(index: int) -> None:
            # In production the two tenants run on different machines; on
            # this one-box cell the bulk tenant's *client* threads would
            # otherwise compete with the small tenant's client for the
            # same cores, measuring loopback co-scheduling rather than
            # server dispatch.  Demote them like the server demotes its
            # own bulk lane.
            enter_bulk_priority()
            client = SMBClient.connect(server.address, tenant="bulk")
            try:
                view = client.attach_array(
                    "tenancy.W_g", target.shm_key, count
                )
                delta = client.create_array(f"tenancy.dW_{index}", count)
                delta.write(np.ones(count, dtype=np.float32))
                delta.accumulate_into(view)  # warmup
                ready.wait(timeout=120)
                while not stop.is_set():
                    delta.accumulate_into(view)
                    bulk_ops[index] += 1
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)
                try:
                    ready.abort()
                except Exception:  # pragma: no cover - barrier races
                    pass
            finally:
                client.close()

        threads = [
            threading.Thread(
                target=stream, args=(i,), name=f"bench-bulk-{i}"
            )
            for i in range(streams)
        ]
        for thread in threads:
            thread.start()
        ready.wait(timeout=120)
        contended = sample(iterations)
        stop.set()
        for thread in threads:
            thread.join(timeout=600)
        if failures:
            raise failures[0]
        boot.close()
        small_client.close()
    finally:
        stop.set()
        admin.close()
        server.stop()
    idle_p50, idle_p95 = np.percentile(idle, [50, 95])
    busy_p50, busy_p95 = np.percentile(contended, [50, 95])
    return TenancyResult(
        bulk_size_bytes=bulk_size,
        small_size_bytes=small_size,
        iterations=iterations,
        bulk_ops=sum(bulk_ops),
        uncontended_p50_s=float(idle_p50),
        uncontended_p95_s=float(idle_p95),
        contended_p50_s=float(busy_p50),
        contended_p95_s=float(busy_p95),
    )


def _measure_serving(
    num_clients: int, size_bytes: int, iterations: int
) -> ServingResult:
    """N readers fanning out against one replica mirror of one segment.

    The primary takes exactly the replica's warm-up reads; the timed
    fan-out must not touch it at all (``primary_reads`` asserts that in
    the serving tests and records it in the payload here).
    """
    from .serving import ReplicaServer

    name = f"serving.{size_bytes}"
    primary = SMBServer(capacity=size_bytes + (1 << 22))
    master = SMBClient.in_process(primary)
    array = master.create_array(name, max(size_bytes // 4, 1))
    array.write(np.ones(max(size_bytes // 4, 1), dtype=np.float32))
    replica = ReplicaServer(
        lambda: SMBClient.in_process(primary), [name], name="bench-replica"
    ).start()
    try:
        if not replica.wait_ready(timeout=30.0):
            raise RuntimeError("bench replica failed to sync")
        reads_before = primary.stats.op_counts.get("READ", 0)
        latencies: List[List[float]] = [[] for _ in range(num_clients)]
        start_barrier = threading.Barrier(num_clients + 1)

        def reader(index: int) -> None:
            mine = latencies[index]
            start_barrier.wait()
            for _ in range(iterations):
                begin = time.perf_counter()
                replica.read(name)
                mine.append(time.perf_counter() - begin)

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(num_clients)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait()
        wall_start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
        primary_reads = primary.stats.op_counts.get("READ", 0) - reads_before
    finally:
        replica.stop()
        master.close()
    samples = np.array([t for per in latencies for t in per])
    total_bytes = float(size_bytes) * num_clients * iterations
    return ServingResult(
        num_clients=num_clients,
        size_bytes=size_bytes,
        iterations_per_client=iterations,
        p50_s=float(np.percentile(samples, 50)),
        p95_s=float(np.percentile(samples, 95)),
        aggregate_gb_per_s=total_bytes / max(wall, 1e-9) / 1e9,
        primary_reads=int(primary_reads),
    )


def run_serving(
    client_counts: Sequence[int],
    size_bytes: int = SERVING_SIZE,
    iterations: int = 20,
) -> List[ServingResult]:
    """The read-fanout sweep: one fresh primary + replica per cell."""
    return [
        _measure_serving(num_clients, size_bytes, iterations)
        for num_clients in client_counts
    ]


def run_contention(
    client_counts: Sequence[int],
    size_bytes: int = CONTENTION_SIZE,
    ops: Sequence[str] = CONTENTION_OPS,
) -> List[ContentionResult]:
    """The N-client sweep: one fresh server per (op, N) cell."""
    results = []
    for op in ops:
        if op not in CONTENTION_OPS:
            raise ValueError(
                f"unknown contention op {op!r}; choose from {CONTENTION_OPS}"
            )
        for num_clients in client_counts:
            results.append(_measure_contention(op, num_clients, size_bytes))
    return results


def run_bench(config: Optional[BenchConfig] = None) -> dict:
    """Run the configured sweep; returns the ``BENCH_smb.json`` payload."""
    config = config or BenchConfig()
    cells: List[CellResult] = []
    for transport in config.transports:
        rig = _make_rig(transport, config.sizes)
        try:
            for size in config.sizes:
                target, delta = rig.arrays[size]
                for op in config.ops:
                    cells.append(
                        _measure_cell(
                            rig.client,
                            transport,
                            op,
                            size,
                            target,
                            delta,
                            config.iterations_for(size),
                            config.warmup,
                        )
                    )
        finally:
            rig.teardown()
    payload = {
        "meta": {
            "benchmark": "smb-data-path",
            "created_unix": time.time(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "quick": config.quick,
        },
        "cells": [asdict(cell) for cell in cells],
    }
    if config.sharded > 1:
        sharded_size = max(config.sizes)
        result = _measure_sharded(config.sharded, sharded_size)
        payload["sharded"] = dict(
            asdict(result), read_overlap=result.read_overlap
        )
    if config.clients:
        payload["contention"] = [
            asdict(cell) for cell in run_contention(config.clients)
        ]
    if config.serving:
        payload["serving"] = [
            asdict(cell)
            for cell in run_serving(
                config.serving,
                size_bytes=(
                    SERVING_SIZE_QUICK if config.quick else SERVING_SIZE
                ),
                iterations=10 if config.quick else 20,
            )
        ]
    if config.tenancy:
        tenancy = _measure_tenancy(
            bulk_size=(
                TENANCY_BULK_SIZE_QUICK if config.quick
                else TENANCY_BULK_SIZE
            ),
            iterations=200 if config.quick else 300,
        )
        payload["tenancy"] = dict(
            asdict(tenancy), fairness_ratio=tenancy.fairness_ratio
        )
    return payload


# -- baseline comparison ---------------------------------------------------


@dataclass
class Regression:
    """One cell whose gated latency quantile exceeded the allowed factor.

    Single-client cells gate on p50; contention cells gate on p95 (the
    quantile recorded in ``quantile``) — tail latency under load is what
    a concurrency regression ruins first.
    """

    transport: str
    op: str
    size_bytes: int
    baseline_p50_s: float
    current_p50_s: float
    quantile: str = "p50"

    @property
    def factor(self) -> float:
        return self.current_p50_s / max(self.baseline_p50_s, 1e-12)

    def describe(self) -> str:
        return (
            f"{self.transport}/{self.op}/{self.size_bytes}B: "
            f"{self.quantile} {self.current_p50_s * 1e3:.3f} ms vs baseline "
            f"{self.baseline_p50_s * 1e3:.3f} ms ({self.factor:.2f}x)"
        )


def _index(payload: dict) -> Dict[Tuple[str, str, int], dict]:
    return {
        (cell["transport"], cell["op"], int(cell["size_bytes"])): cell
        for cell in payload.get("cells", [])
    }


def _contention_index(payload: dict) -> Dict[Tuple[str, int], dict]:
    return {
        (cell["op"], int(cell["num_clients"])): cell
        for cell in payload.get("contention", [])
    }


def _serving_index(payload: dict) -> Dict[Tuple[int, int], dict]:
    return {
        (int(cell["num_clients"]), int(cell["size_bytes"])): cell
        for cell in payload.get("serving", [])
    }


def compare(
    current: dict, baseline: dict, max_regression: float = 2.0
) -> List[Regression]:
    """Cells in ``current`` slower than ``max_regression`` x the baseline.

    Cells present in only one payload are skipped (sweeps may differ —
    e.g. a quick CI run against a full committed baseline); the gate
    judges only directly comparable measurements.  Single-client cells
    gate on p50; contention cells gate on p95-under-load.
    """
    if max_regression <= 0:
        raise ValueError("max_regression must be positive")
    baseline_cells = _index(baseline)
    regressions: List[Regression] = []
    for key, cell in _index(current).items():
        base = baseline_cells.get(key)
        if base is None:
            continue
        if cell["p50_s"] > base["p50_s"] * max_regression:
            regressions.append(
                Regression(
                    transport=key[0],
                    op=key[1],
                    size_bytes=key[2],
                    baseline_p50_s=float(base["p50_s"]),
                    current_p50_s=float(cell["p50_s"]),
                )
            )
    baseline_contention = _contention_index(baseline)
    for ckey, cell in _contention_index(current).items():
        base = baseline_contention.get(ckey)
        if base is None:
            continue
        if cell["p95_s"] > base["p95_s"] * max_regression:
            regressions.append(
                Regression(
                    transport=f"tcp[{ckey[1]}c]",
                    op=ckey[0],
                    size_bytes=int(cell["size_bytes"]),
                    baseline_p50_s=float(base["p95_s"]),
                    current_p50_s=float(cell["p95_s"]),
                    quantile="p95",
                )
            )
    baseline_serving = _serving_index(baseline)
    for skey, cell in _serving_index(current).items():
        base = baseline_serving.get(skey)
        if base is None:
            continue
        # Fan-out cells gate on p95 like the contention sweep: it is the
        # tail a replica-side locking regression ruins first.
        if cell["p95_s"] > base["p95_s"] * max_regression:
            regressions.append(
                Regression(
                    transport=f"serving[{skey[0]}c]",
                    op="READ",
                    size_bytes=skey[1],
                    baseline_p50_s=float(base["p95_s"]),
                    current_p50_s=float(cell["p95_s"]),
                    quantile="p95",
                )
            )
    base_tenancy = baseline.get("tenancy")
    cur_tenancy = current.get("tenancy")
    if base_tenancy and cur_tenancy:
        # The fairness gate: the small tenant's contended READ p95 must
        # not regress past the factor against the committed baseline.
        if (
            cur_tenancy["contended_p95_s"]
            > base_tenancy["contended_p95_s"] * max_regression
        ):
            regressions.append(
                Regression(
                    transport="tcp[tenancy]",
                    op="READ-small",
                    size_bytes=int(cur_tenancy["small_size_bytes"]),
                    baseline_p50_s=float(base_tenancy["contended_p95_s"]),
                    current_p50_s=float(cur_tenancy["contended_p95_s"]),
                    quantile="p95",
                )
            )
    regressions.sort(key=lambda r: r.factor, reverse=True)
    return regressions


def format_table(payload: dict) -> str:
    """Human-readable rendering of a bench payload."""
    lines = [
        f"{'transport':<9} {'op':<10} {'size':>9} {'iters':>5} "
        f"{'p50 ms':>10} {'p95 ms':>10} {'GB/s':>8}"
    ]
    for cell in payload.get("cells", []):
        size = int(cell["size_bytes"])
        human = (
            f"{size // (1 << 20)} MiB" if size >= (1 << 20)
            else f"{size // (1 << 10)} KiB"
        )
        lines.append(
            f"{cell['transport']:<9} {cell['op']:<10} {human:>9} "
            f"{cell['iterations']:>5} {cell['p50_s'] * 1e3:>10.3f} "
            f"{cell['p95_s'] * 1e3:>10.3f} {cell['gb_per_s']:>8.2f}"
        )
    contention = payload.get("contention")
    if contention:
        lines.append(
            f"{'contention':<9} {'op':<10} {'clients':>9} {'iters':>5} "
            f"{'p50 ms':>10} {'p95 ms':>10} {'GB/s':>8}"
        )
        for cell in contention:
            lines.append(
                f"{'tcp':<9} {cell['op']:<10} {cell['num_clients']:>9} "
                f"{cell['iterations_per_client']:>5} "
                f"{cell['p50_s'] * 1e3:>10.3f} "
                f"{cell['p95_s'] * 1e3:>10.3f} "
                f"{cell['aggregate_gb_per_s']:>8.2f}"
            )
    serving = payload.get("serving")
    if serving:
        lines.append(
            f"{'serving':<9} {'op':<10} {'clients':>9} {'iters':>5} "
            f"{'p50 ms':>10} {'p95 ms':>10} {'GB/s':>8}"
        )
        for cell in serving:
            lines.append(
                f"{'replica':<9} {'READ':<10} {cell['num_clients']:>9} "
                f"{cell['iterations_per_client']:>5} "
                f"{cell['p50_s'] * 1e3:>10.3f} "
                f"{cell['p95_s'] * 1e3:>10.3f} "
                f"{cell['aggregate_gb_per_s']:>8.2f}"
            )
    tenancy = payload.get("tenancy")
    if tenancy:
        lines.append(
            f"tenancy: {int(tenancy['small_size_bytes']) // (1 << 10)} KiB "
            f"READ p95 {tenancy['uncontended_p95_s'] * 1e3:.3f} ms idle -> "
            f"{tenancy['contended_p95_s'] * 1e3:.3f} ms under "
            f"{int(tenancy['bulk_size_bytes']) // (1 << 20)} MiB "
            f"ACCUMULATE stream ({tenancy['fairness_ratio']:.2f}x, "
            f"{tenancy['bulk_ops']} bulk ops)"
        )
    sharded = payload.get("sharded")
    if sharded:
        lines.append(
            f"sharded K={sharded['num_shards']} @ "
            f"{int(sharded['size_bytes']) // (1 << 20)} MiB: "
            f"read wall {sharded['read_wall_s'] * 1e3:.2f} ms vs "
            f"per-shard sum {sharded['read_shard_sum_s'] * 1e3:.2f} ms "
            f"({sharded['read_overlap']:.2f}x overlap)"
        )
    return "\n".join(lines)


def save(payload: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    sections = ("cells", "contention", "tenancy", "sharded", "serving")
    if not isinstance(loaded, dict) or not any(
        key in loaded for key in sections
    ):
        raise ValueError(f"{path} is not a BENCH_smb payload")
    return loaded
