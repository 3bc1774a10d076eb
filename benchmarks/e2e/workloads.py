"""The four end-to-end workloads, each driven through the public doorways.

Every workload is a context manager: ``__enter__`` is the set-up a user
pays before the first useful operation (timed as ``setup_s``), ``run``
is the closed-loop timed phase, ``__exit__`` stops what was started in
reverse order and joins it.  All load comes from threads of this process
(two, the machine's ``nproc``); nothing is spawned.

Why these four (one line each; the README has the long form):

* ``train_bulk_tcp`` — SEASGD where the exchange outweighs the compute,
  so every SMB layer is on the blocking path of an iteration.
* ``train_conv_inproc`` — SEASGD where the compute outweighs everything;
  the workload on which comms work must change nothing.
* ``smb_mix_shm`` — reads beside writes beside accumulates, 1 KiB beside
  4 MiB, on the doorway that bypasses fair dispatch.
* ``serve_http`` — the read tier end to end while the primary mutates.

Timing is done by the harness at the public boundary: a request loop
stamps each call it makes; a training job is stamped where the program
asks for its next minibatch (the dataset is the harness's to provide).
"""

from __future__ import annotations

import http.client
import threading
from dataclasses import dataclass, field
from time import perf_counter, process_time, sleep
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.caffe import models
from repro.caffe.data import Minibatch, SyntheticImageDataset
from repro.caffe.netspec import NetSpec
from repro.caffe.solver import SolverConfig
from repro.core.config import ShmCaffeConfig, TerminationCriterion
from repro.core.termination import STOP_FIRST_FINISHER
from repro.core.trainer import DistributedTrainingManager, TrainingResult
from repro.serve.gateway import ModelGateway
from repro.smb import (
    ControlBlock,
    RemoteArray,
    ReplicaServer,
    ShmSMBServer,
    SMBClient,
    SMBError,
    SMBServer,
    TcpSMBServer,
)
from repro.telemetry import TelemetrySession

from . import lifecycle, stats

#: Load-generating threads / connections / training workers (= nproc here).
CLIENTS = 2

#: The timed phase is cut into this many blocks of equal work; a metric
#: is the median of its per-block values, so a burst of machine noise
#: shorter than half the run cannot move it.
BLOCKS = 10

#: Share of the first completions discarded (connection warm-up, first
#: touch of fresh buffers, the update threads' creation).
WARMUP_SHARE = 0.05

KIB = 1 << 10
MIB = 1 << 20


# ---------------------------------------------------------------------------
# what a run yields, and how it becomes metrics
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    """Raw outcome of one timed phase.

    ``failed`` counts ops that raised or failed their own check (``notes``
    keeps the first few reasons); ``broken`` lists failed end-of-run
    invariants, any of which voids the whole run.  ``done_t``/``done_cpu``
    stamp every completed op with the wall clock and the process CPU
    clock; ``lat_ms`` is its latency, NaN for ops outside the workload's
    latency class.  ``classes`` optionally keeps per-class latency samples
    and ``counts`` plain tallies for the per-layer pass.
    """

    attempted: int
    failed: int
    notes: List[str]
    broken: List[str]
    done_t: np.ndarray
    done_cpu: np.ndarray
    lat_ms: np.ndarray
    classes: Dict[str, np.ndarray] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)


def reduce_measured(
    measured: Measured,
    tail_blocks: int = BLOCKS,
    speed: Optional[Callable[[float, float], float]] = None,
) -> Dict[str, Dict[str, object]]:
    """Per-block values and their medians for the four timed metrics.

    Blocks hold equal numbers of completed ops, in completion order
    across all clients, and a metric is the median of its per-block
    values.  Everything uses :data:`BLOCKS` blocks except the p99, which
    uses ``tail_blocks`` (1 pools the whole run, for workloads with too
    few samples to support a per-block p99).

    ``speed(begin, end)`` is the machine's relative speed over a wall
    clock window (``calibration.SpeedSampler.speed``); each block's
    value is brought to speed 1.0 with it and the unadjusted values are
    kept as ``raw``.  Without it values are reported as measured.
    """
    order = np.argsort(measured.done_t, kind="stable")
    t = measured.done_t[order]
    cpu = measured.done_cpu[order]
    lat = measured.lat_ms[order]
    skip = int(len(t) * WARMUP_SHARE)
    t, cpu, lat = t[skip:], cpu[skip:], lat[skip:]
    if len(t) < 2:
        raise RuntimeError(f"only {len(t)} timed ops completed")

    def factor(lo: int, hi: int) -> float:
        return speed(t[lo], t[hi]) if speed is not None else 1.0

    cells: Dict[str, Dict[str, List[float]]] = {
        name: {"values": [], "raw": []}
        for name in ("ops_per_s", "cpu_ms_per_op", "lat_ms_p50", "lat_ms_p99")
    }

    def record(name: str, raw: float, adjusted: float) -> None:
        cells[name]["raw"].append(raw)
        cells[name]["values"].append(adjusted)

    # One stamp is the closing edge of the last block.
    for lo, hi in stats.equal_count_blocks(len(t) - 1, BLOCKS):
        ops, f = hi - lo, factor(lo, hi)
        rate = ops / (t[hi] - t[lo])
        cpu_ms = (cpu[hi] - cpu[lo]) * 1e3 / ops
        record("ops_per_s", rate, rate / f)
        record("cpu_ms_per_op", cpu_ms, cpu_ms * f)

    def latencies(lo: int, hi: int) -> np.ndarray:
        block = lat[lo:hi]
        return block[~np.isnan(block)]

    samples: Dict[str, List[int]] = {"lat_ms_p50": [], "lat_ms_p99": []}
    used: List[float] = []
    for name, wanted, blocks in (
        ("lat_ms_p50", 50.0, BLOCKS), ("lat_ms_p99", 99.0, tail_blocks)
    ):
        for lo, hi in stats.equal_count_blocks(len(t), blocks):
            block = latencies(lo, hi)
            if len(block) == 0:
                continue
            value, percentile_used = stats.percentile(block, wanted)
            record(name, value, value * factor(lo, hi - 1))
            samples[name].append(len(block))
            if name == "lat_ms_p99":
                used.append(percentile_used)
    if not used:
        raise RuntimeError("no latency samples in the timed phase")

    units = {"ops_per_s": "1/s"}
    out = {
        name: {
            **stats.summary(cell["values"]),
            "raw": cell["raw"],
            "unit": units.get(name, "ms"),
        }
        for name, cell in cells.items()
    }
    for name, counts in samples.items():
        out[name]["samples_per_block"] = min(counts)
    # Below 1000 samples a block cannot leave ten beyond its p99; the
    # value is then the highest percentile that does, named here.
    out["lat_ms_p99"]["percentile_used"] = min(used)
    return out


class _Workload:
    """Context-manager shell shared by the workloads.

    ``__enter__`` times ``_set_up`` as ``setup_s`` and tears down what a
    failed set-up had already started; subclasses provide ``_set_up``,
    ``__exit__`` (safe to call on a half-built rig) and ``run``.
    """

    setup_s = 0.0

    def __enter__(self):  # type: ignore[no-untyped-def] - returns the subclass
        started = perf_counter()
        try:
            self._set_up()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.setup_s = perf_counter() - started
        return self

    def _set_up(self) -> None:
        raise NotImplementedError

    def __exit__(self, *exc_info: object) -> None:
        raise NotImplementedError


class _Recorder:
    """One load thread's completions (appended only by that thread)."""

    def __init__(self) -> None:
        self.t: List[float] = []
        self.cpu: List[float] = []
        self.lat_ms: List[float] = []
        self.cls: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, problem: str) -> None:
        """Count one failed op (it stays out of the timing samples)."""
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(problem)

    def done(self, started: float, cls: int, problem: Optional[str]) -> None:
        """Record the op begun at ``started``; a ``problem`` fails it."""
        now = perf_counter()
        self.attempted += 1
        if problem is not None:
            self.fail(problem)
            return
        self.t.append(now)
        self.cpu.append(process_time())
        self.lat_ms.append((now - started) * 1e3)
        self.cls.append(cls)


def _run_clients(
    bodies: Sequence[Callable[[_Recorder, float], None]], seconds: float
) -> List[_Recorder]:
    """Run one closed-loop body per client thread for ``seconds``.

    Each body loops until the shared ``stop_at``.  Threads are joined
    before returning and the first unexpected exception is re-raised.
    """
    recorders = [_Recorder() for _ in bodies]
    errors: List[BaseException] = []
    barrier = threading.Barrier(len(bodies) + 1)
    stop_at: List[float] = [0.0]

    def main(body: Callable[[_Recorder, float], None], rec: _Recorder) -> None:
        try:
            barrier.wait(timeout=30)
            body(rec, stop_at[0])
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=main, args=(body, rec), name=f"bench-client-{i}")
        for i, (body, rec) in enumerate(zip(bodies, recorders))
    ]
    for thread in threads:
        thread.start()
    try:
        stop_at[0] = perf_counter() + seconds
        barrier.wait(timeout=30)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return recorders


def _merge(
    recorders: Sequence[_Recorder],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All threads' completions as ``(t, cpu, lat_ms, cls)`` arrays."""

    def column(name: str, dtype: type) -> np.ndarray:
        return np.concatenate(
            [np.asarray(getattr(r, name), dtype=dtype) for r in recorders]
        )

    return (
        column("t", np.float64), column("cpu", np.float64),
        column("lat_ms", np.float64), column("cls", np.int64),
    )


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

BATCH_SIZE = 10
IMAGE_SIZE = 12
CLASSES = 10

#: Far beyond what any run reaches: a training run is ended by the
#: harness raising the stop flag after ``seconds`` (fixed duration), not
#: by an iteration budget.  This box's speed swings 2x between sessions,
#: so fixed work cannot honour a fixed run-time slot.
ITERATION_CAP = 1_000_000

WARMUP_ITERATIONS = 30

#: Relative tolerance of the warm-up job's golden loss.  Re-runs on one
#: machine are bit-identical; OpenBLAS kernels for another CPU family sum
#: in another order and moved the conv loss by 2e-5 rel in a trial, so
#: the ISSUE's 1e-6 would fail on a different host, not on a bug.
GOLDEN_RTOL = 1e-4


def mlp_spec() -> NetSpec:
    """432 -> 2048 -> 10: 907 274 parameters, a 3.46 MiB ``W_g``."""
    spec = NetSpec("bench_mlp")
    data = spec.input("data", (BATCH_SIZE, 3, IMAGE_SIZE, IMAGE_SIZE))
    labels = spec.input("label", (BATCH_SIZE,))
    hidden = spec.relu("relu1", spec.fc("fc1", data, 2048))
    spec.softmax_loss("loss", spec.fc("fc2", hidden, CLASSES), labels)
    return spec


def conv_spec() -> NetSpec:
    """The miniature GoogLeNet at 12x12: 8 534 parameters."""
    return models.scaled_spec(
        "inception_v1", batch_size=BATCH_SIZE, image_size=IMAGE_SIZE
    )


@dataclass(frozen=True)
class TrainSpec:
    """Constants of one training workload."""

    name: str
    doorway: str  # "tcp" or "inproc"
    spec_factory: Callable[[], NetSpec]
    base_lr: float
    #: Final loss of the seed-0 one-worker warm-up job.
    golden_loss: float
    #: Once rank 0 has done ``loss_after`` iterations, the mean of its
    #: last 20 losses must be under ``loss_below``.
    loss_after: int
    loss_below: float


TRAIN_SPECS: Dict[str, TrainSpec] = {
    "train_bulk_tcp": TrainSpec(
        "train_bulk_tcp", "tcp", mlp_spec, base_lr=0.01,
        golden_loss=0.0006891628727316856, loss_after=150, loss_below=0.5,
    ),
    "train_conv_inproc": TrainSpec(
        "train_conv_inproc", "inproc", conv_spec, base_lr=0.05,
        golden_loss=2.228419780731201, loss_after=150, loss_below=2.0,
    ),
}


def _dataset_kwargs(seed: int) -> Dict[str, int]:
    return dict(
        num_classes=CLASSES, image_size=IMAGE_SIZE, channels=3,
        train_per_class=40, test_per_class=2, seed=seed,
    )


class StampedDataset(SyntheticImageDataset):
    """A dataset that notes when each worker asks for its next minibatch.

    One request per iteration (``BaseExchange.train_step``), so the gaps
    between a worker's stamps are its iteration times — measured at a
    public boundary without touching the program.
    """

    def __init__(self, ranks: int, seed: int) -> None:
        super().__init__(**_dataset_kwargs(seed))
        self.ranks = ranks
        self.stamps: Dict[int, List[Tuple[float, float]]] = {}
        #: Set once every rank has asked for its first minibatch.
        self.started = threading.Event()

    def minibatches(
        self, batch_size: int, seed: int = 0, rank: int = 0,
        num_shards: int = 1, skip: int = 0,
    ) -> Iterator[Minibatch]:
        mine = self.stamps.setdefault(rank, [])
        for batch in super().minibatches(batch_size, seed, rank, num_shards, skip):
            mine.append((perf_counter(), process_time()))
            if len(self.stamps) == self.ranks:
                self.started.set()
            yield batch


class TrainWorkload(_Workload):
    """A two-worker SEASGD job, overlap on, ``update_interval=1``."""

    def __init__(
        self,
        spec: TrainSpec,
        seed: int,
        telemetry: Optional[TelemetrySession] = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        #: Handed to the manager and the server through their public
        #: ``telemetry=`` argument on the traced pass; ``None`` otherwise.
        self.telemetry = telemetry
        #: The warm-up job's own session on the traced pass: standalone
        #: one-worker phase times, the perf model's compute input.
        self.warm_telemetry = (
            TelemetrySession("metrics") if telemetry is not None else None
        )
        #: Failed invariants (golden loss, stop flag, end-of-run checks).
        self.broken: List[str] = []
        self.run_wall_s = 0.0
        self.result: Optional[TrainingResult] = None
        self._tcp: Optional[TcpSMBServer] = None
        self._core: Optional[SMBServer] = None
        self._cancel = threading.Event()
        self._stopped_at: Optional[float] = None

    # -- lifecycle --------------------------------------------------------

    def _set_up(self) -> None:
        self.dataset = StampedDataset(CLIENTS, self.seed)
        capacity = 256 * MIB
        if self.spec.doorway == "tcp":
            self._tcp = TcpSMBServer(
                capacity=capacity, telemetry=self.telemetry
            ).start()
        else:
            self._core = SMBServer(capacity=capacity, telemetry=self.telemetry)
        self._warm_up()

    def __exit__(self, *exc_info: object) -> None:
        self._cancel.set()
        if self._tcp is not None:
            self._tcp.stop()
            self._tcp = None
        if self._core is not None:
            self._core.close()
            self._core = None

    # -- pieces -----------------------------------------------------------

    def _client(self) -> SMBClient:
        if self._tcp is not None:
            return SMBClient.connect(self._tcp.address)
        assert self._core is not None
        return SMBClient.in_process(self._core)

    def _manager(
        self,
        dataset: SyntheticImageDataset,
        workers: int,
        iterations: int,
        termination: TerminationCriterion,
        namespace: str,
        seed: int,
        telemetry: Optional[TelemetrySession],
    ) -> DistributedTrainingManager:
        config = ShmCaffeConfig(
            solver=SolverConfig(base_lr=self.spec.base_lr, momentum=0.9),
            max_iterations=iterations,
            termination=termination,
        )
        return DistributedTrainingManager(
            self.spec.spec_factory, config, dataset, BATCH_SIZE, workers,
            server=self._core,
            server_address=self._tcp.address if self._tcp else None,
            namespace=namespace, seed=seed, telemetry=telemetry,
        )

    def _warm_up(self) -> None:
        """Seed-0 one-worker job: warms the doorway, pins the arithmetic."""
        manager = self._manager(
            SyntheticImageDataset(**_dataset_kwargs(0)), 1, WARMUP_ITERATIONS,
            TerminationCriterion.MASTER_STOP, "warm.", 0, self.warm_telemetry,
        )
        loss = manager.run(timeout=60).histories[0].losses[-1]
        golden = self.spec.golden_loss
        if abs(loss - golden) > GOLDEN_RTOL * abs(golden):
            self.broken.append(
                f"warm-up loss {loss!r} differs from golden {golden!r}"
            )

    def _stop_after(self, seconds: float) -> None:
        """Raise the job's stop flag ``seconds`` after both workers began."""
        if not self.dataset.started.wait(timeout=60):
            self.broken.append("workers never asked for a minibatch")
            return
        if self._cancel.wait(seconds):
            return
        client = self._client()
        try:
            shm_key, _ = client.lookup("control")
            ControlBlock.attach(client, "control", shm_key, CLIENTS).signal_stop(
                STOP_FIRST_FINISHER
            )
            self._stopped_at = perf_counter()
        except SMBError as exc:
            self.broken.append(f"could not raise the stop flag: {exc}")
        finally:
            client.close()

    # -- the timed phase --------------------------------------------------

    def run(self, seconds: float) -> Measured:
        """Train for ``seconds``; one op = one worker iteration."""
        manager = self._manager(
            self.dataset, CLIENTS, ITERATION_CAP,
            TerminationCriterion.FIRST_FINISHER, "", self.seed, self.telemetry,
        )
        stopper = threading.Thread(
            target=self._stop_after, args=(seconds,), name="bench-stopper"
        )
        stopper.start()
        began = perf_counter()
        try:
            result = manager.run(timeout=seconds + 90)
        finally:
            self.run_wall_s = perf_counter() - began
            self._cancel.set()
            stopper.join()
        self.result = result
        return self._measured(result)

    def _measured(self, result: TrainingResult) -> Measured:
        stamps = self.dataset.stamps
        broken = self.broken
        pulled = sum(len(s) for s in stamps.values())
        completed = 0
        for history in result.histories:
            completed += history.completed_iterations
            if history.failed:
                broken.append(f"rank {history.rank} failed: {history.failure}")
            if history.completed_iterations != len(stamps.get(history.rank, ())):
                broken.append(
                    f"rank {history.rank} completed "
                    f"{history.completed_iterations} iterations but asked "
                    f"for {len(stamps.get(history.rank, ()))} minibatches"
                )
        if not np.isfinite(result.final_global_weights).all():
            broken.append("W_g is not finite")
        rank0 = result.histories[0]
        if rank0.completed_iterations >= self.spec.loss_after:
            recent = float(np.mean(rank0.losses[-20:]))
            if not recent < self.spec.loss_below:
                broken.append(
                    f"rank 0 mean of last 20 losses {recent:.4f} is not "
                    f"under {self.spec.loss_below}"
                )

        # Steady window: from the moment every worker is iterating to the
        # stop flag.  A stamp's latency is the gap to the same worker's
        # previous stamp, i.e. one whole iteration.
        begin = max(s[0][0] for s in stamps.values())
        end = self._stopped_at if self._stopped_at is not None else min(
            s[-1][0] for s in stamps.values()
        )
        ts, cpus, lats = [], [], []
        for series in stamps.values():
            arr = np.asarray(series, dtype=np.float64)
            gaps = np.concatenate([[np.nan], np.diff(arr[:, 0]) * 1e3])
            keep = (arr[:, 0] >= begin) & (arr[:, 0] <= end)
            ts.append(arr[keep, 0])
            cpus.append(arr[keep, 1])
            lats.append(gaps[keep])
        return Measured(
            attempted=pulled, failed=max(0, pulled - completed),
            notes=[], broken=broken,
            done_t=np.concatenate(ts), done_cpu=np.concatenate(cpus),
            lat_ms=np.concatenate(lats),
        )


# ---------------------------------------------------------------------------
# smb_mix_shm
# ---------------------------------------------------------------------------

#: float32 elements of the two op sizes (1 KiB and 4 MiB).
MIX_SIZES: Dict[str, int] = {"1k": KIB // 4, "4m": MIB}

#: (label, share): read / write / accumulate of each size.
MIX_CLASSES: Tuple[Tuple[str, float], ...] = (
    ("r_1k", 0.35), ("w_1k", 0.15), ("a_1k", 0.15),
    ("r_4m", 0.15), ("w_4m", 0.10), ("a_4m", 0.10),
)
_SMALL_CLASSES = (0, 1, 2)

#: Initial value of the accumulate-only segments; every delta is 1.
MIX_W0 = 3.0

#: WRITE payloads are uniform arrays of these values, in rotation.
_WRITE_VALUES = (1.0, 2.0, 5.0, 7.0)


class _MixClient:
    """One client's connection, segment handles and scratch buffers."""

    def __init__(self, path: str, index: int, shared: Dict[str, RemoteArray]) -> None:
        self.client = SMBClient.connect_local(path)
        self.arrays: Dict[str, RemoteArray] = {}
        for name, array in shared.items():
            self.arrays[name] = self.client.attach_array(
                name, array.shm_key, array.count
            )
        self.out: Dict[str, np.ndarray] = {}
        for size, count in MIX_SIZES.items():
            delta = self.client.create_array(f"delta_{size}_{index}", count)
            delta.write(np.ones(count, dtype=np.float32))
            self.arrays[f"delta_{size}"] = delta
            self.out[size] = np.empty(count, dtype=np.float32)


class SmbMixShm(_Workload):
    """Two ``connect_local`` clients drawing a seeded op mix."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._tmp = None
        self._server: Optional[ShmSMBServer] = None
        self._admin: Optional[SMBClient] = None
        self._clients: List[_MixClient] = []
        self._lock = threading.Lock()
        #: Accepted mutations per shared segment, counted from creation.
        self._mutations: Dict[str, int] = {}

    def _set_up(self) -> None:
        self._tmp = lifecycle.make_tmp("mix")
        self._server = ShmSMBServer(
            lifecycle.short_path(self._tmp / "smb.sock"), capacity=256 * MIB
        ).start()
        self._admin = SMBClient.connect_local(self._server.path)
        shared: Dict[str, RemoteArray] = {}
        for size, count in MIX_SIZES.items():
            for kind, value in (("rw", 0.0), ("acc", MIX_W0)):
                array = self._admin.create_array(f"{kind}_{size}", count)
                array.write(np.full(count, value, dtype=np.float32))
                shared[array.name] = array
                self._mutations[array.name] = 1
        self._shared = shared
        self._payloads = {
            size: [np.full(count, v, dtype=np.float32) for v in _WRITE_VALUES]
            for size, count in MIX_SIZES.items()
        }
        self._clients = [
            _MixClient(self._server.path, i, shared) for i in range(CLIENTS)
        ]
        rng = np.random.default_rng(self.seed)
        shares = [share for _, share in MIX_CLASSES]
        self._draws = [
            rng.choice(len(MIX_CLASSES), size=1 << 17, p=shares)
            for _ in range(CLIENTS)
        ]
        # Warm-up: every class a few times per client (grows each
        # connection's shared block to 4 MiB once, outside the timing).
        warm = _Recorder()
        for client in self._clients:
            for cls in list(range(len(MIX_CLASSES))) * 3:
                self._op(client, cls, warm, 0)
        if warm.failed:
            raise RuntimeError(f"warm-up op failed: {warm.notes}")

    def __exit__(self, *exc_info: object) -> None:
        for client in self._clients:
            client.client.close()
        self._clients = []
        if self._admin is not None:
            self._admin.close()
            self._admin = None
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._tmp is not None:
            lifecycle.remove_tmp(self._tmp)
            self._tmp = None

    def _op(self, client: _MixClient, cls: int, rec: _Recorder, turn: int) -> None:
        label = MIX_CLASSES[cls][0]
        kind, size = label.split("_")
        problem: Optional[str] = None
        mutated: Optional[str] = None
        out: Optional[np.ndarray] = None
        started = perf_counter()
        try:
            if kind == "r":
                out = client.arrays[f"rw_{size}"].read(out=client.out[size])
            elif kind == "w":
                payloads = self._payloads[size]
                client.arrays[f"rw_{size}"].write(payloads[turn % len(payloads)])
                mutated = f"rw_{size}"
            else:
                client.arrays[f"delta_{size}"].accumulate_into(
                    client.arrays[f"acc_{size}"]
                )
                mutated = f"acc_{size}"
        except SMBError as exc:
            problem = f"{label}: {type(exc).__name__}: {exc}"
        rec.done(started, cls, problem)
        # Checks and tallies sit outside the op's latency.
        if out is not None and not (out == out[0]).all():
            rec.fail(f"{label}: READ returned a non-uniform array")
        if problem is None and mutated is not None:
            with self._lock:
                self._mutations[mutated] += 1

    def run(self, seconds: float) -> Measured:
        """One op = one client call; latency is reported for 1 KiB ops."""

        def body(index: int) -> Callable[[_Recorder, float], None]:
            client, draws = self._clients[index], self._draws[index]

            def loop(rec: _Recorder, stop_at: float) -> None:
                turn = 0
                while perf_counter() < stop_at:
                    self._op(client, int(draws[turn % len(draws)]), rec, turn)
                    turn += 1

            return loop

        recorders = _run_clients([body(i) for i in range(CLIENTS)], seconds)
        t, cpu, lat, cls = _merge(recorders)
        return Measured(
            attempted=sum(r.attempted for r in recorders),
            failed=sum(r.failed for r in recorders),
            notes=[note for r in recorders for note in r.notes],
            broken=self._invariants(), done_t=t, done_cpu=cpu,
            lat_ms=np.where(np.isin(cls, _SMALL_CLASSES), lat, np.nan),
            classes={
                label: lat[cls == i] for i, (label, _) in enumerate(MIX_CLASSES)
            },
        )

    def _invariants(self) -> List[str]:
        """Versions advanced once per mutation; accumulators are exact."""
        problems = []
        for name, array in self._shared.items():
            expected = self._mutations[name]
            version = array.version()
            if version != expected:
                problems.append(
                    f"{name}: version {version} after {expected} mutations"
                )
            if name.startswith("acc_"):
                want = np.float32(MIX_W0 + (expected - 1))
                got = array.read()
                if not (got == want).all():
                    problems.append(
                        f"{name}: not W_0 + n*delta = {want} everywhere"
                    )
        return problems


# ---------------------------------------------------------------------------
# serve_http
# ---------------------------------------------------------------------------

SERVE_ELEMENTS = MIB // 4  # a 1 MiB float32 W_g
SERVE_PATH = "/v1/models/default/W_g"
#: Connection 0 folds ones into the primary this often (seconds).
ACCUMULATE_PERIOD = 0.05
#: Untimed full GETs per connection during set-up.
WARMUP_REQUESTS = 20

#: Request kinds and their shares: conditional (the 304 path when the
#: version has not moved), full GET, GET pinned to the last seen version.
SERVE_KINDS: Tuple[Tuple[str, float], ...] = (
    ("conditional", 0.55), ("full", 0.35), ("pinned", 0.10),
)
_COND, _FULL, _PINNED = 0, 1, 2
#: Recorded class of a conditional GET that was answered 304.
_NOT_MODIFIED = 3


class ServeHttp(_Workload):
    """primary TcpSMBServer -> ReplicaServer over TCP -> ModelGateway."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.primary: Optional[TcpSMBServer] = None
        self.replica: Optional[ReplicaServer] = None
        self.gateway: Optional[ModelGateway] = None
        self._writer: Optional[SMBClient] = None
        self.conns: List[http.client.HTTPConnection] = []
        self.accumulates = 0

    def _set_up(self) -> None:
        self.primary = TcpSMBServer(capacity=64 * MIB).start()
        address = self.primary.address
        self._writer = SMBClient.connect(address)
        self.w_g = self._writer.create_array("W_g", SERVE_ELEMENTS)
        #: Version at which W_g is all zeros; body value = version - v0.
        self.v0 = self.w_g.write(np.zeros(SERVE_ELEMENTS, dtype=np.float32))
        self.ones = self._writer.create_array("ones", SERVE_ELEMENTS)
        self.ones.write(np.ones(SERVE_ELEMENTS, dtype=np.float32))
        self.replica = ReplicaServer(
            lambda: SMBClient.connect(address), ["W_g"], name="replica0"
        ).start()
        if not self.replica.wait_ready(timeout=30):
            raise RuntimeError("replica did not finish its initial sync")
        self.gateway = ModelGateway([self.replica]).start()
        host, port = self.gateway.address
        self.conns = [
            http.client.HTTPConnection(host, port, timeout=30)
            for _ in range(CLIENTS)
        ]
        rng = np.random.default_rng(self.seed)
        shares = [share for _, share in SERVE_KINDS]
        self._draws = [
            rng.choice(len(SERVE_KINDS), size=1 << 17, p=shares)
            for _ in range(CLIENTS)
        ]
        # Warm-up: both connections open and every code path taken once.
        for conn in self.conns:
            for _ in range(WARMUP_REQUESTS):
                status, _, _, problem = self.fetch(conn, SERVE_PATH, {})
                if problem or status != 200:
                    raise RuntimeError(f"warm-up GET failed: {status} {problem}")

    def __exit__(self, *exc_info: object) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        if self.replica is not None:
            self.replica.stop()
            self.replica = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self.primary is not None:
            self.primary.stop()
            self.primary = None

    # -- one request ------------------------------------------------------

    def fetch(
        self, conn: http.client.HTTPConnection, path: str, headers: Dict[str, str]
    ) -> Tuple[int, int, bytes, Optional[str]]:
        """``(status, version, body, problem)`` of one keep-alive GET."""
        try:
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()  # reopens on the next request
            return 0, 0, b"", f"{type(exc).__name__}: {exc}"
        raw = response.getheader("X-SMB-Version")
        if raw is None or not raw.isdigit():
            return response.status, 0, body, f"bad X-SMB-Version {raw!r}"
        return response.status, int(raw), body, None

    def check_body(self, version: int, body: bytes) -> Optional[str]:
        """A 200 body is 1 MiB of the float ``version - v0``."""
        if len(body) != SERVE_ELEMENTS * 4:
            return f"body is {len(body)} bytes"
        values = np.frombuffer(body, dtype=np.float32)
        if values[0] != version - self.v0 or not (values == values[0]).all():
            return f"body is not uniformly {version - self.v0} at v{version}"
        return None

    def accumulate(self) -> None:
        """Fold ones into the primary's W_g (bumps its version by one)."""
        self.ones.accumulate_into(self.w_g)
        self.accumulates += 1

    def _loop(self, index: int) -> Callable[[_Recorder, float], None]:
        conn, draws = self.conns[index], self._draws[index]

        def loop(rec: _Recorder, stop_at: float) -> None:
            # The version this connection last saw (pinned GETs ask for
            # it again, so it has to be one the snapshot ring still has).
            _, seen, _, problem = self.fetch(conn, SERVE_PATH, {})
            if problem is not None:
                raise RuntimeError(f"priming GET failed: {problem}")
            next_accumulate = perf_counter()
            turn = 0
            while True:
                now = perf_counter()
                if now >= stop_at:
                    break
                if index == 0 and now >= next_accumulate:
                    self.accumulate()
                    next_accumulate = max(next_accumulate + ACCUMULATE_PERIOD, now)
                kind = int(draws[turn % len(draws)])
                turn += 1
                path, headers = SERVE_PATH, {}
                if kind == _COND:
                    headers = {"If-None-Match": f'"v{seen}"'}
                elif kind == _PINNED:
                    path = f"{SERVE_PATH}?version={seen}"
                started = perf_counter()
                status, version, body, problem = self.fetch(conn, path, headers)
                not_modified = status == 304 and kind == _COND and version == seen
                if problem is None and status != 200 and not not_modified:
                    problem = f"status {status} for a {SERVE_KINDS[kind][0]} GET"
                if problem is None and kind == _PINNED and version != seen:
                    problem = f"pinned v{seen} answered with v{version}"
                if problem is None and kind != _PINNED and version < seen:
                    problem = f"version went backwards: v{seen} then v{version}"
                rec.done(started, _NOT_MODIFIED if not_modified else kind, problem)
                if problem is None and status == 200:
                    bad = self.check_body(version, body)
                    if bad is not None:
                        rec.fail(bad)
                if problem is None and kind != _PINNED:
                    seen = version

        return loop

    def run(self, seconds: float) -> Measured:
        """One op = one answered HTTP request; latency covers them all."""
        assert self._writer is not None
        reads_before = self._writer.stats().get("READ", 0)
        recorders = _run_clients([self._loop(i) for i in range(CLIENTS)], seconds)
        primary_reads = self._writer.stats().get("READ", 0) - reads_before
        t, cpu, lat, cls = _merge(recorders)
        answered = max(1, len(t))
        return Measured(
            attempted=sum(r.attempted for r in recorders),
            failed=sum(r.failed for r in recorders),
            notes=[note for r in recorders for note in r.notes],
            broken=self._invariants(), done_t=t, done_cpu=cpu, lat_ms=lat,
            counts={
                "share_304": float((cls == _NOT_MODIFIED).sum()) / answered,
                "share_pinned": float((cls == _PINNED).sum()) / answered,
                "primary_reads_per_req": primary_reads / answered,
            },
        )

    def _invariants(self) -> List[str]:
        """Primary at v0 + accumulates; the replica catches up to it."""
        assert self.replica is not None
        want = self.v0 + self.accumulates
        version = self.w_g.version()
        if version != want:
            return [f"primary at v{version} after {self.accumulates} accumulates"]
        deadline = perf_counter() + 5.0
        while self.replica.version("W_g") < want and perf_counter() < deadline:
            sleep(0.005)
        got, data = self.replica.read("W_g")
        if got != want:
            return [f"replica stuck at v{got}, primary at v{want}"]
        bad = self.check_body(got, data)
        return [f"replica: {bad}"] if bad else []


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: name -> (why, factory(seed), blocks for the p99).  Training
#: iterations are too few per block for a p99, so theirs pools the run.
WORKLOADS: Dict[str, Tuple[str, Callable[..., object], int]] = {
    "train_bulk_tcp": (
        "exchange-bound SEASGD over TCP: every iteration moves 3 x 3.46 MiB "
        "through client, transport, server offload and accumulate",
        lambda seed: TrainWorkload(TRAIN_SPECS["train_bulk_tcp"], seed),
        1,
    ),
    "train_conv_inproc": (
        "compute-bound SEASGD in-process: SMB is ~0 of an iteration, so "
        "comms and dispatch work must leave it unchanged",
        lambda seed: TrainWorkload(TRAIN_SPECS["train_conv_inproc"], seed),
        1,
    ),
    "smb_mix_shm": (
        "reads beside writes beside accumulates, 1 KiB beside 4 MiB, on the "
        "shm doorway that bypasses fair dispatch",
        SmbMixShm,
        BLOCKS,
    ),
    "serve_http": (
        "the read tier end to end (replica + HTTP gateway, 304 and pinned "
        "paths) while the primary is mutated; training is bypassed",
        ServeHttp,
        BLOCKS,
    ),
}
