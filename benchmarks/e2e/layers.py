"""The traced pass: every per-layer metric, measured from outside.

Two kinds of measurement, neither touching the program's source:

* **Pass A** replays each training workload with a
  ``TelemetrySession("metrics")`` handed in through the public
  ``telemetry=`` argument and reads *sums and counts* from its registry
  (never its bucket quantiles): the eq.-(8) phases, client calls and
  bytes per iteration, the server's busy share.  An untraced replay
  beside it gives the tracing overhead.
* **Pass B**, the *ladder*, times one logical op (READ / WRITE /
  ACCUMULATE of 1 KiB and 4 MiB) single-threaded at successively deeper
  public entry points — ``Segment`` -> ``SMBServer.handle`` -> in-process
  client -> TCP client / shm client — round-robin, so that a layer's
  self time is the median of the *paired* differences between one depth
  and the next.  The machine's own copy, add, loopback and socket
  round-trip are timed in the same process as the roofline.

Layer names are module names (``smb.memory`` is ``repro/smb/memory.py``).
"""

from __future__ import annotations

import socket
import statistics
import threading
from time import perf_counter, sleep
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.perfmodel.hardware import HardwareProfile
from repro.perfmodel.iteration import seasgd_phase_expectations
from repro.perfmodel.models import ModelProfile
from repro.smb import (
    Message,
    Op,
    RemoteArray,
    ShmSMBServer,
    SMBClient,
    SMBError,
    SMBServer,
    TcpSMBServer,
)
from repro.smb.protocol import (
    HEADER_SIZE,
    recv_exact_into,
    recv_message,
    send_message,
)
from repro.telemetry import TelemetrySession
from repro.telemetry.registry import Histogram, MetricsRegistry

from . import calibration, lifecycle, workloads
from .workloads import KIB, MIB

OPS = ("read", "write", "accumulate")
SIZES: Dict[str, int] = {"1k": KIB, "4m": 4 * MIB}

#: Raw samples per ladder cell after warm-up (small, bulk); the floor of
#: 200 is part of the benchmark's definition.
SAMPLES = (400, 200)
WARMUP_ROUNDS = 10
SMOKE_SAMPLES = (60, 20)

#: Journaled servers per 4 MiB journal cell: each appends a quarter of
#: the samples, so the journal on disk never exceeds a quarter of 800 MiB.
JOURNAL_CHUNKS = 4

PHASES = ("comp", "rgw", "ulw", "wwi", "ugw", "block")

Samples = List[float]


def _us(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e6


def _paired_us(deep: Samples, shallow: Samples) -> float:
    """Median of per-round differences: slow drift of the box cancels."""
    return statistics.median(d - s for d, s in zip(deep, shallow)) * 1e6


def _time(fn: Callable[[], object]) -> float:
    started = perf_counter()
    fn()
    return perf_counter() - started


# ---------------------------------------------------------------------------
# machine roofline
# ---------------------------------------------------------------------------


class _Peer(threading.Thread):
    """A harness thread answering on one end of a socket until EOF."""

    def __init__(self, sock: socket.socket, serve: Callable[[socket.socket], None]) -> None:
        super().__init__(name="bench-peer")
        self._sock = sock
        self._serve = serve

    def run(self) -> None:
        try:
            while True:
                self._serve(self._sock)
        except (OSError, EOFError, SMBError):
            pass  # the near end closed: that is how a peer is told to stop
        finally:
            self._sock.close()


def _recv_exactly(sock: socket.socket, view: memoryview) -> None:
    while len(view):
        got = sock.recv_into(view)
        if not got:
            raise EOFError
        view = view[got:]


def machine_roofline(samples: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(metrics, seconds)``: what this box does with no SMB code at all.

    ``copy``/``add`` are ``np.copyto``/``np.add`` over 4 MiB; ``loopback``
    is 4 MiB one way over loopback TCP acknowledged by one byte; ``unix``
    is an 8-byte ping-pong over a UNIX socketpair.  GB/s are payload
    bytes per second (an add touches three times that).
    """
    nbytes = SIZES["4m"]
    src = np.ones(nbytes // 4, dtype=np.float32)
    dst = np.zeros_like(src)
    copy = [_time(lambda: np.copyto(dst, src)) for _ in range(samples)]
    add = [_time(lambda: np.add(dst, src, out=dst)) for _ in range(samples)]

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    near = socket.create_connection(listener.getsockname())
    far, _ = listener.accept()
    listener.close()
    for sock in (near, far):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sink = bytearray(nbytes)

    def swallow(sock: socket.socket) -> None:
        _recv_exactly(sock, memoryview(sink))
        sock.sendall(b"\x01")

    ping_near, ping_far = socket.socketpair()
    word = bytearray(8)

    def pong(sock: socket.socket) -> None:
        _recv_exactly(sock, memoryview(word))
        sock.sendall(word)

    peers = [_Peer(far, swallow), _Peer(ping_far, pong)]
    for peer in peers:
        peer.start()
    try:
        ack = bytearray(1)
        payload = memoryview(src).cast("B")

        def one_way() -> None:
            near.sendall(payload)
            _recv_exactly(near, memoryview(ack))

        def ping() -> None:
            ping_near.sendall(b"12345678")
            _recv_exactly(ping_near, memoryview(bytearray(8)))

        for _ in range(WARMUP_ROUNDS):
            one_way(), ping()
        loopback = [_time(one_way) for _ in range(samples)]
        unix = [_time(ping) for _ in range(samples * 2)]
    finally:
        near.close()
        ping_near.close()
        for peer in peers:
            peer.join()
    seconds = {
        "copy": statistics.median(copy), "add": statistics.median(add),
        "loopback": statistics.median(loopback), "unix": statistics.median(unix),
    }
    metrics = {
        "machine.copy_4m_gbs": nbytes / seconds["copy"] / 1e9,
        "machine.add_4m_gbs": nbytes / seconds["add"] / 1e9,
        "machine.loopback_4m_gbs": nbytes / seconds["loopback"] / 1e9,
        "machine.unix_rtt_us": seconds["unix"] * 1e6,
    }
    return metrics, seconds


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------

DEPTHS = ("memory", "server", "client", "tcp", "shm")
#: The depths whose calls block on a socket.
DOORWAYS = ("tcp", "shm")


class _Handles:
    """One client's view of the ladder segments of one size."""

    def __init__(self, client: SMBClient, dst: RemoteArray, src: RemoteArray) -> None:
        self.dst = client.attach_array(dst.name, dst.shm_key, dst.count)
        self.src = client.attach_array(src.name, src.shm_key, src.count)


def ladder(
    samples: Tuple[int, int], floor: Dict[str, float]
) -> Tuple[Dict[str, float], int]:
    """Self time per layer for the six (op, size) cells, on all doorways."""
    tmp = lifecycle.make_tmp("ladder")
    core = SMBServer(capacity=64 * MIB)
    tcp = TcpSMBServer(core=core).start()
    shm = ShmSMBServer(lifecycle.short_path(tmp / "smb.sock"), core=core).start()
    clients = {
        "client": SMBClient.in_process(core),
        "tcp": SMBClient.connect(tcp.address),
        "shm": SMBClient.connect_local(shm.path),
    }
    values: Dict[str, float] = {}
    timed = 0
    try:
        for (size, nbytes), rounds in zip(SIZES.items(), samples):
            count = nbytes // 4
            owner = clients["client"]
            dst = owner.create_array(f"dst_{size}", count)
            src = owner.create_array(f"src_{size}", count)
            src.write(np.ones(count, dtype=np.float32))
            handles = {name: _Handles(c, dst, src) for name, c in clients.items()}
            dst_seg = core.pool.by_name(dst.name)
            src_seg = core.pool.by_name(src.name)
            out = np.empty(count, dtype=np.float32)
            out_view = memoryview(out).cast("B")
            payload = np.full(count, 2.0, dtype=np.float32)
            payload_view = memoryview(payload).cast("B")
            read_req = Message(op=Op.READ, key=dst.access_key, count=nbytes)
            write_req = Message(op=Op.WRITE, key=dst.access_key, payload=payload_view)
            acc_req = Message(
                op=Op.ACCUMULATE, key=dst.access_key, key2=src.access_key, count=count
            )

            def via(h: _Handles) -> Dict[str, Callable[[], object]]:
                return {
                    "read": lambda: h.dst.read(out=out),
                    "write": lambda: h.dst.write(payload),
                    "accumulate": lambda: h.src.accumulate_into(h.dst),
                }

            calls: Dict[str, Dict[str, Callable[[], object]]] = {
                "memory": {
                    "read": lambda: dst_seg.read_into(0, out_view),
                    "write": lambda: dst_seg.write(0, payload_view),
                    "accumulate": lambda: dst_seg.accumulate_from(src_seg, count=count),
                },
                "server": {
                    "read": lambda: core.handle(read_req, out=out_view),
                    "write": lambda: core.handle(write_req),
                    "accumulate": lambda: core.handle(acc_req),
                },
                **{name: via(h) for name, h in handles.items()},
            }
            times: Dict[str, Dict[str, Samples]] = {
                op: {depth: [] for depth in DEPTHS} for op in OPS
            }
            for round_ in range(WARMUP_ROUNDS + rounds):
                # Down the ladder on even rounds, up on odd ones: a depth
                # stays next to the one it is differenced against, and
                # neither always runs on the cache state the other left.
                order = DEPTHS if round_ % 2 == 0 else DEPTHS[::-1]
                for op in OPS:
                    woke_up = True
                    for depth in order:
                        # A call that slept on a socket leaves this vCPU
                        # cold (halted under the hypervisor), which would
                        # make the in-process depths bimodal: one untimed
                        # call absorbs that before they are timed.
                        if woke_up and depth not in DOORWAYS:
                            calls["client"][op]()
                        elapsed = _time(calls[depth][op])
                        woke_up = depth in DOORWAYS
                        if round_ >= WARMUP_ROUNDS:
                            times[op][depth].append(elapsed)
            timed += rounds * len(OPS) * len(DEPTHS)
            for op in OPS:
                values.update(_ladder_cell(f"{op}_{size}", times[op]))
            if size == "4m":
                values.update(_x_roofline(times, floor))
    finally:
        for client in clients.values():
            client.close()
        shm.stop()
        tcp.stop()
        lifecycle.remove_tmp(tmp)
    for doorway in ("inproc", "tcp", "shm"):
        values[f"ladder.{doorway}.max_residual"] = max(
            values.pop(f"_residual.{doorway}.{op}_{size}")
            for op in OPS for size in SIZES
        )
    return values, timed


def _ladder_cell(cell: str, t: Dict[str, Samples]) -> Dict[str, float]:
    """Self times of one (op, size) cell and how well they add up."""
    memory = _us(t["memory"])
    server = _paired_us(t["server"], t["memory"])
    client = _paired_us(t["client"], t["server"])
    tcp = _paired_us(t["tcp"], t["client"])
    shm = _paired_us(t["shm"], t["client"])
    inproc = memory + server + client
    return {
        f"smb.memory.{cell}.self_us": memory,
        f"smb.server.{cell}.self_us": server,
        f"smb.client.{cell}.self_us": client,
        f"smb.transport.{cell}.self_us": tcp,
        f"smb.shm_transport.{cell}.self_us": shm,
        f"smb.transport.{cell}.total_us": _us(t["tcp"]),
        f"smb.shm_transport.{cell}.total_us": _us(t["shm"]),
        # Sum of self times against the directly timed full-depth op.
        f"_residual.inproc.{cell}": abs(inproc / _us(t["client"]) - 1.0),
        f"_residual.tcp.{cell}": abs((inproc + tcp) / _us(t["tcp"]) - 1.0),
        f"_residual.shm.{cell}": abs((inproc + shm) / _us(t["shm"]) - 1.0),
    }


def _x_roofline(
    times: Dict[str, Dict[str, Samples]], floor: Dict[str, float]
) -> Dict[str, float]:
    """4 MiB op time over what the bare machine needs for the same bytes.

    READ/WRITE over TCP: one copy plus one loopback crossing; over shm:
    two copies (caller <-> block <-> segment) plus a doorbell round
    trip.  ACCUMULATE moves no payload through either doorway: one add
    plus a socket round trip.
    """
    floors = {
        "tcp": floor["copy"] + floor["loopback"],
        "shm": 2 * floor["copy"] + floor["unix"],
    }
    out = {}
    for depth, layer in (("tcp", "smb.transport"), ("shm", "smb.shm_transport")):
        for op in OPS:
            least = floor["add"] + floor["unix"] if op == "accumulate" else floors[depth]
            out[f"{layer}.{op}_4m.x_roofline"] = (
                statistics.median(times[op][depth]) / least
            )
    return out


def _paired_rounds(
    deep: Callable[[], object], shallow: Callable[[], object], rounds: int
) -> float:
    """Microseconds ``deep`` costs over ``shallow``, timed turn by turn."""
    deep_t: Samples = []
    shallow_t: Samples = []
    for round_ in range(WARMUP_ROUNDS + rounds):
        a, b = _time(deep), _time(shallow)
        if round_ >= WARMUP_ROUNDS:
            deep_t.append(a)
            shallow_t.append(b)
    return _paired_us(deep_t, shallow_t)


def protocol_frames(samples: Tuple[int, int]) -> Dict[str, float]:
    """``send_message`` + ``recv_message`` against the same bytes sent raw.

    A 1 KiB frame fits the socket buffer, so one thread sends and then
    receives it and no wake-up enters the difference.  A 4 MiB frame
    needs a peer to drain it; the peer answers with a bare header.
    """
    values = {}
    frames = {}
    for size, nbytes in SIZES.items():
        body = memoryview(np.ones(nbytes // 4, dtype=np.float32)).cast("B")
        request = Message(op=Op.WRITE, payload=body)
        frames[size] = (request, request.encode_header() + bytes(body))
    inbox = memoryview(bytearray(HEADER_SIZE + SIZES["4m"]))

    near, far = socket.socketpair()
    try:
        request, raw_request = frames["1k"]
        values["smb.protocol.frame_1k.self_us"] = _paired_rounds(
            lambda: (send_message(near, request), recv_message(far)),
            lambda: (
                near.sendall(raw_request),
                recv_exact_into(far, inbox[:len(raw_request)]),
            ),
            samples[0],
        )
    finally:
        near.close()
        far.close()

    request, raw_request = frames["4m"]
    reply = Message(op=Op.WRITE)
    framed_near, framed_far = socket.socketpair()
    raw_near, raw_far = socket.socketpair()

    def framed_peer(sock: socket.socket) -> None:
        recv_message(sock)
        send_message(sock, reply)

    def raw_peer(sock: socket.socket) -> None:
        recv_exact_into(sock, inbox[:len(raw_request)])
        sock.sendall(reply.encode_header())

    peers = [_Peer(framed_far, framed_peer), _Peer(raw_far, raw_peer)]
    for peer in peers:
        peer.start()
    try:
        ack = memoryview(bytearray(HEADER_SIZE))
        values["smb.protocol.frame_4m.self_us"] = _paired_rounds(
            lambda: (send_message(framed_near, request), recv_message(framed_near)),
            lambda: (raw_near.sendall(raw_request), recv_exact_into(raw_near, ack)),
            samples[1],
        )
    finally:
        framed_near.close()
        raw_near.close()
        for peer in peers:
            peer.join()
    return values


def journal_cells(samples: Tuple[int, int]) -> Dict[str, float]:
    """WRITE through ``SMBServer(journal_dir=...).handle`` minus the same
    WRITE on an unjournaled core."""
    tmp = lifecycle.make_tmp("journal")
    values = {}
    try:
        for (size, nbytes), rounds in zip(SIZES.items(), samples):
            chunks = JOURNAL_CHUNKS if size == "4m" else 1
            payload = memoryview(np.ones(nbytes // 4, dtype=np.float32)).cast("B")
            journaled_t: Samples = []
            plain_t: Samples = []
            for chunk in range(chunks):
                cores = (
                    SMBServer(capacity=16 * MIB),
                    SMBServer(
                        capacity=16 * MIB, snapshot_interval=3600.0,
                        journal_dir=tmp / f"{size}-{chunk}",
                    ),
                )
                requests = []
                for core in cores:
                    array = SMBClient.in_process(core).create_array("w", nbytes // 4)
                    requests.append(
                        Message(op=Op.WRITE, key=array.access_key, payload=payload)
                    )
                try:
                    for round_ in range(WARMUP_ROUNDS + -(-rounds // chunks)):
                        a = _time(lambda: cores[0].handle(requests[0]))
                        b = _time(lambda: cores[1].handle(requests[1]))
                        if round_ >= WARMUP_ROUNDS:
                            plain_t.append(a)
                            journaled_t.append(b)
                finally:
                    for core in cores:
                        core.close()
            values[f"smb.journal.append_{size}.self_us"] = _paired_us(
                journaled_t, plain_t
            )
    finally:
        lifecycle.remove_tmp(tmp)
    return values


# ---------------------------------------------------------------------------
# serving tier and the shm mix
# ---------------------------------------------------------------------------


def _replay(
    rig: object, seconds: float
) -> Tuple[workloads.Measured, Dict[str, Dict[str, object]]]:
    """Run ``rig`` like a timed run: speed-sampled, reduced, p99 pooled."""
    with calibration.SpeedSampler() as sampler:
        measured = rig.run(seconds)
    return measured, workloads.reduce_measured(measured, 1, sampler.speed)


def _demoted_p99(name: str, reduced: Dict[str, Dict[str, object]]) -> Dict[str, float]:
    """``lat_ms_p99``, demoted from the end-to-end list for its spread of
    20-25 % between runs; from a short replay it is coarser still."""
    return {f"lat_ms_p99.{name}": reduced["lat_ms_p99"]["median"]}


def serving_probes(seed: int, rounds: int, seconds: float) -> Tuple[Dict[str, float], workloads.Measured]:
    """``smb.serving.*`` and ``serve.gateway.*``.

    The self times come from interleaved single-connection probes; the
    shares and the primary's reads per request from a short run of the
    real ``serve_http`` mix on the same rig.
    """
    with workloads.ServeHttp(seed) as rig:
        assert rig.replica is not None and rig.gateway is not None
        replica, gateway = rig.replica, rig.gateway
        conn = rig.conns[0]
        t: Dict[str, Samples] = {k: [] for k in ("replica", "gateway", "http", "304", "lag")}
        for round_ in range(WARMUP_ROUNDS + rounds):
            rig.accumulate()
            landed = perf_counter()
            want = rig.v0 + rig.accumulates
            while replica.version("W_g") < want:
                sleep(0.0001)
            lag = perf_counter() - landed
            probes = [
                ("replica", lambda: replica.read("W_g")),
                ("gateway", lambda: gateway.read("default", "W_g")),
                ("http", lambda: rig.fetch(conn, workloads.SERVE_PATH, {})),
                ("304", lambda: rig.fetch(
                    conn, workloads.SERVE_PATH, {"If-None-Match": f'"v{want}"'}
                )),
            ]
            if round_ % 2:  # alternate who reads the fresh snapshot first
                probes.reverse()
            row = {"lag": lag, **{key: _time(fn) for key, fn in probes}}
            if round_ >= WARMUP_ROUNDS:
                for key, value in row.items():
                    t[key].append(value)
        measured, reduced = _replay(rig, seconds)
    values = {
        **_demoted_p99("serve_http", reduced),
        "smb.serving.read_1m.self_us": _us(t["replica"]),
        "smb.serving.apply_lag_ms": statistics.median(t["lag"]) * 1e3,
        "smb.serving.primary_reads_per_req": measured.counts["primary_reads_per_req"],
        "serve.gateway.route.self_us": _paired_us(t["gateway"], t["replica"]),
        "serve.gateway.http_200.self_us": _paired_us(t["http"], t["gateway"]),
        "serve.gateway.http_304_us": _us(t["304"]),
        "serve.gateway.share_304": measured.counts["share_304"],
        "serve.gateway.share_pinned": measured.counts["share_pinned"],
    }
    return values, measured


def mix_classes(seed: int, seconds: float) -> Tuple[Dict[str, float], workloads.Measured]:
    """Per-class median latency of a timed ``smb_mix_shm`` run."""
    with workloads.SmbMixShm(seed) as rig:
        measured, reduced = _replay(rig, seconds)
    values = {
        f"smb.shm_transport.mix.{label}_us_p50": float(np.median(lat)) * 1e3
        for label, lat in measured.classes.items()
    }
    values.update(_demoted_p99("smb_mix_shm", reduced))
    return values, measured


# ---------------------------------------------------------------------------
# pass A: the training workloads under telemetry
# ---------------------------------------------------------------------------


def _registry_totals(registry: MetricsRegistry) -> Dict[str, float]:
    """The registry sums pass A reports as growth over the traced run."""
    totals = dict.fromkeys(
        ("client_ops", "client_bytes", "server_seconds", "retries"), 0.0
    )
    for name in registry.names():
        metric = registry.get(name)
        if name.startswith("smb/client/time/"):
            totals["client_ops"] += metric.count
        elif name in ("smb/client/bytes_read", "smb/client/bytes_written"):
            totals["client_bytes"] += metric.value
        elif name.startswith("smb/server/time/"):
            totals["server_seconds"] += metric.sum
        elif name == "smb/client/retries":
            totals["retries"] += metric.value
    return totals


def _phase_ms(registry: MetricsRegistry, phase: str) -> float:
    """Mean milliseconds per span of one eq.-(8) phase over all workers."""
    total, count = 0.0, 0
    for worker in range(workloads.CLIENTS):
        metric = registry.get(f"worker{worker}/phase/{phase}")
        if isinstance(metric, Histogram):
            total += metric.sum
            count += metric.count
    return total / count * 1e3 if count else 0.0


def train_pass_a(
    name: str, seed: int, seconds: float, floor: Dict[str, float]
) -> Tuple[Dict[str, float], Tuple[workloads.Measured, workloads.Measured]]:
    """One untraced and one traced replay of a training workload."""
    spec = workloads.TRAIN_SPECS[name]
    short = name.removeprefix("train_")
    with workloads.TrainWorkload(spec, seed) as plain:
        untraced, plain_reduced = _replay(plain, seconds)
    session = TelemetrySession("metrics")
    with workloads.TrainWorkload(spec, seed, telemetry=session) as rig:
        registry = session.registry
        # The warm-up job already went through the traced server, so
        # the run is counted as growth from here.
        before = _registry_totals(registry)
        traced, traced_reduced = _replay(rig, seconds)
        delta = {
            key: after - before[key]
            for key, after in _registry_totals(registry).items()
        }
        wall = rig.run_wall_s
        standalone_comp_ms = _phase_ms(rig.warm_telemetry.registry, "comp")
        weights = rig.result.final_global_weights.nbytes
    iterations = max(1, traced.attempted)
    phase = {p: _phase_ms(registry, p) for p in PHASES}
    rate = {
        "untraced": plain_reduced["ops_per_s"]["median"],
        "traced": traced_reduced["ops_per_s"]["median"],
    }
    hidden = phase["wwi"] + phase["ugw"]
    values = {
        **_demoted_p99(name, plain_reduced),
        f"caffe.comp_ms.{short}": phase["comp"],
        f"core.exchange.rgw_ms.{short}": phase["rgw"],
        f"core.exchange.ulw_ms.{short}": phase["ulw"],
        f"core.exchange.ops_per_iter.{short}": delta["client_ops"] / iterations,
        f"core.exchange.bytes_per_iter.{short}": delta["client_bytes"] / iterations,
        f"core.overlap.wwi_ms.{short}": phase["wwi"],
        f"core.overlap.ugw_ms.{short}": phase["ugw"],
        f"core.overlap.block_ms.{short}": phase["block"],
        f"core.overlap.hidden_share.{short}": (
            1.0 - phase["block"] / hidden if hidden else 1.0
        ),
        f"smb.server.busy_share.{short}": delta["server_seconds"] / wall,
        f"smb.client.retries.{short}": delta["retries"],
        f"telemetry.overhead_ratio.{short}": rate["untraced"] / rate["traced"] - 1.0,
    }
    if name == "train_bulk_tcp":
        hardware = HardwareProfile(
            ib_bandwidth_gbs=SIZES["4m"] / floor["loopback"] / 1e9,
            ib_efficiency=1.0,
            # The model charges an accumulate three passes over memory.
            server_memory_bandwidth_gbs=3 * SIZES["4m"] / floor["add"] / 1e9,
            local_memory_bandwidth_gbs=SIZES["4m"] / floor["copy"] / 1e9,
            data_layer_overhead_ms=0.0,
        )
        model = ModelProfile(
            name="bench_mlp", param_mb=weights / 1e6, compute_ms=standalone_comp_ms
        )
        expected = seasgd_phase_expectations(model, workloads.CLIENTS, hardware)
        for p, predicted in expected.items():
            values[f"perfmodel.residual.{p}"] = phase[p] / predicted - 1.0
    return values, (untraced, traced)


# ---------------------------------------------------------------------------
# the whole pass
# ---------------------------------------------------------------------------


def traced_pass(seed: int, seconds: float, smoke: bool = False) -> Dict[str, object]:
    """Every per-layer metric; ``seconds`` scales the replayed workloads.

    Returns ``values`` (name -> number) and, for the result line, what
    the replays attempted, failed (``notes``) and broke (``broken``).
    """
    samples = SMOKE_SAMPLES if smoke else SAMPLES
    replay = max(1.0, seconds / 5.0)
    values, floor = machine_roofline(samples[1])
    ladder_values, ladder_ops = ladder(samples, floor)
    values.update(ladder_values)
    values.update(protocol_frames(samples))
    values.update(journal_cells(samples))
    runs: List[workloads.Measured] = []
    serving, measured = serving_probes(seed, samples[1], max(1.0, seconds / 8.0))
    values.update(serving)
    runs.append(measured)
    mix, measured = mix_classes(seed, max(1.0, seconds / 8.0))
    values.update(mix)
    runs.append(measured)
    for name in workloads.TRAIN_SPECS:
        trained, pair = train_pass_a(name, seed, replay, floor)
        values.update(trained)
        runs.extend(pair)
    return {
        "values": {k: float(v) for k, v in sorted(values.items())},
        "notes": [note for run in runs for note in run.notes],
        "broken": [line for run in runs for line in run.broken],
        "attempted": ladder_ops + sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
    }
