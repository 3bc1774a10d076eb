"""The distributed training manager (paper Fig. 1, right-hand column).

This is the component that "performs initialization of the distributed
processing using the MPI programming model and performs parameter exchange
handling using the remote shared memory library provided by the SMB
library".  Concretely:

1. the master (rank 0) creates the ``W_g`` segment on the SMB server,
   seeds it with the initial weights, creates the shared control block,
   and writes the **job document** (namespace, model size, the SHM keys,
   slot capacity) that it **broadcasts over MPI** (paper Fig. 2) and
   publishes in the membership registry when there is one;
2. every participant — launch rank or late joiner — is built by one
   function from that document: replica, client, attach by SHM key,
   slot claim recorded in the registry, warm start from ``W_g``, strategy
   and engine (a worker's ``dW_x`` rides in its accumulate, so it needs
   no segment).  A launch rank gets the document over MPI and its group
   id as slot; a joiner reads the registry and the control block hands
   it the lowest FREE or dead slot;
3. launch ranks meet at one barrier before anyone trains;
4. histories are gathered back to the caller.

``group_size == 1`` yields ShmCaffe-A (pure SEASGD); ``group_size > 1``
yields ShmCaffe-H with one SEASGD participant (the group root) per group.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import logging
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import mpi
from ..caffe.data import SyntheticImageDataset
from ..caffe.net import Net
from ..caffe.netspec import NetSpec
from ..caffe.params import FlatParams
from ..caffe.snapshot import load_solver_state
from ..caffe.solver import SGDSolver
from ..nccl.ring import RingGroup
from ..smb import errors as smb_errors
from ..smb.client import ControlBlock, RemoteArray, SlotClaim, SMBClient
from ..smb.faults import FaultInjectingTransport, FaultPlan
from ..smb.membership import MembershipRegistry
from ..smb.retry import RetryPolicy
from ..smb.server import SMBServer
from ..telemetry import TelemetrySession, resolve as _resolve_telemetry
from .checkpoint import (
    CheckpointCoordinator,
    CheckpointError,
    CheckpointInfo,
    latest_checkpoint,
)
from .config import ShmCaffeConfig, TerminationCriterion
from .engine import TrainingEngine, WorkerHistory
from .exchange import HybridExchange, make_exchange
from .termination import TerminationCoordinator

#: Minibatch size of rank 0's global-weight evaluations (``eval_every``).
EVAL_BATCH_SIZE = 50

#: The job document the master writes (and publishes in the registry):
#: namespace, model size, the SHM keys of ``W_g`` and the control block,
#: slot capacity and the exchange hyper-parameters.
Job = Dict[str, Any]

#: Where a participant's job document comes from — the MPI broadcast or
#: the registry — given its client and replica.  The master, which
#: creates the segments, also hands over its own ``W_g`` and control
#: block handles.
JobSource = Callable[
    [Optional[SMBClient], FlatParams],
    Tuple[Job, Optional[Tuple[RemoteArray, ControlBlock]]],
]


@dataclass
class TrainingResult:
    """What a distributed ShmCaffe run returns."""

    histories: List[WorkerHistory]
    final_global_weights: np.ndarray
    eval_records: List[Tuple[int, Dict[str, float]]] = field(
        default_factory=list
    )

    @property
    def total_iterations(self) -> int:
        """Sum of iterations completed across all workers."""
        return sum(h.completed_iterations for h in self.histories)

    @property
    def failed_ranks(self) -> List[int]:
        """Ranks that lost their SMB path and degraded out of the run."""
        return [h.rank for h in self.histories if h.failed]

    @property
    def surviving_ranks(self) -> List[int]:
        """Ranks that completed the run normally."""
        return [h.rank for h in self.histories if not h.failed]


@dataclass
class ElasticWorkerHandle:
    """One elastically spawned worker, as seen by the spawning side.

    ``slot``/``generation`` are filled in once the worker's claim lands;
    ``history`` once its engine returns; ``error`` if the member died
    before (or outside) its training loop.
    """

    member_id: str
    seq: int
    slot: Optional[int] = None
    generation: Optional[int] = None
    history: Optional[WorkerHistory] = None
    error: Optional[str] = None
    thread: Optional[threading.Thread] = None

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the worker thread; True when it has finished."""
        if self.thread is None:
            return True
        self.thread.join(timeout)
        return not self.thread.is_alive()


class DistributedTrainingManager:
    """Bring-up and execution of one ShmCaffe job.

    Args:
        spec_factory: Zero-argument callable building the (identical) net
            spec for each replica.
        config: ShmCaffe hyper-parameters.
        dataset: Training data, sharded across workers without duplication.
        batch_size: Per-worker minibatch size (the paper uses 60).
        num_workers: Total workers (one per emulated GPU).
        group_size: Workers per HSGD group; 1 means pure ShmCaffe-A.
        server: SMB server core to use; a fresh one is created if omitted.
        server_address: Connect to a remote :class:`TcpSMBServer` at this
            ``(host, port)`` instead of using an in-process core — the
            true multi-process emulation mode.  Overrides ``server``.
        namespace: Prefix for every segment name this run creates, so
            several jobs can share one long-lived SMB server.
        seed: Base seed; replica init is identical across workers, data
            order differs per rank.
        initial_weights: Flat vector to seed every replica (and W_g)
            from, e.g. a :func:`repro.caffe.snapshot.save_net` checkpoint.
        prefetch: Stage each worker's minibatches through the 10-deep
            background prefetcher, as ShmCaffe's data layer does.
        eval_every: If set, rank 0 evaluates the *global* weights on the
            test split every this many of its own iterations, in
            minibatches of :data:`EVAL_BATCH_SIZE`.
        telemetry: Session propagated to the SMB server, every client,
            every worker and every fault injector, so one run's metrics
            and trace land in one place; defaults to the
            :func:`repro.telemetry.current` session at construction.
        retry_policy: Transient-fault policy installed in every worker's
            SMB client (see :class:`~repro.smb.retry.RetryPolicy`);
            ``None`` keeps the fail-fast default.
        fault_plan: Chaos-testing plan: each worker's transport is
            wrapped in a seeded
            :class:`~repro.smb.faults.FaultInjectingTransport` derived
            per rank, so fault sequences are reproducible.  ``None``
            (the default) injects nothing.
        rendezvous: Path of a journaled server's ``endpoint.json``; TCP
            clients re-resolve the server address through it on every
            reconnect, so a server restarted on a new port is found
            without reconfiguration.
        server_down_grace: Seconds each TCP (re)connect keeps retrying a
            dead endpoint before failing — the bounded outage window a
            server restart must fit into.
        checkpoint_dir: Enable coordinated checkpoints into this
            directory (requires ``group_size == 1``).
        checkpoint_every: Boundary interval in iterations (default 0 =
            only meaningful with ``checkpoint_dir``).
        checkpoint_metadata: JSON-serialisable job description stored in
            each checkpoint manifest (``repro checkpoint resume`` uses
            it to rebuild the run).
        resume: Directory previously used as ``checkpoint_dir``; the run
            restarts from its latest complete checkpoint — ``W_g``, each
            rank's solver/momentum/RNG state and dataset cursor, and the
            iteration counters all continue where they stopped.
        registry_dir: Directory for the elastic-membership registry
            (:class:`~repro.smb.membership.MembershipRegistry`).  The
            master publishes the job document (endpoint, SHM keys, spec)
            there and every SEASGD participant holds a leased member
            record, so ``repro smb members`` can inspect the fleet even
            for a fixed-size run.  Required when ``elastic`` is on.
        elastic: Allow the fleet to change size mid-run: the control
            block is sized to ``max_workers`` slots, workers claim slots
            dynamically (generation-stamped), the exchange rescales
            eqs. (5)-(7) over the *live* worker count, and
            :meth:`spawn_worker`/:meth:`retire_worker` add and drain
            members against the registry.  Requires ``group_size == 1``
            and ``AVERAGE_ITERATIONS`` termination (the one Sec. III-E
            criterion whose rescale is well-defined under churn).
        max_workers: Slot capacity of an elastic run (>= ``num_workers``);
            defaults to ``num_workers`` (an elastic run that cannot grow,
            only churn).
    """

    def __init__(
        self,
        spec_factory: Callable[[], NetSpec],
        config: ShmCaffeConfig,
        dataset: SyntheticImageDataset,
        batch_size: int,
        num_workers: int,
        group_size: int = 1,
        server: Optional[SMBServer] = None,
        server_address: Optional[Tuple[str, int]] = None,
        namespace: str = "",
        seed: int = 0,
        initial_weights: Optional[np.ndarray] = None,
        prefetch: bool = False,
        eval_every: Optional[int] = None,
        telemetry: Optional[TelemetrySession] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        rendezvous: Optional[str] = None,
        server_down_grace: float = 0.0,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 0,
        checkpoint_metadata: Optional[Dict] = None,
        resume: Optional[str] = None,
        registry_dir: Optional[str] = None,
        elastic: bool = False,
        max_workers: Optional[int] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if elastic:
            if registry_dir is None:
                raise ValueError(
                    "elastic membership requires registry_dir: late "
                    "joiners discover the job through the registry"
                )
            if group_size != 1:
                raise ValueError(
                    "elastic membership requires group_size == 1: HSGD "
                    "groups are launch-time structures and cannot churn"
                )
            if config.termination is not TerminationCriterion.AVERAGE_ITERATIONS:
                raise ValueError(
                    "elastic membership requires AVERAGE_ITERATIONS "
                    "termination: the mean over the live fleet is the one "
                    "Sec. III-E criterion well-defined under join/leave "
                    "churn"
                )
        if max_workers is not None and max_workers < num_workers:
            raise ValueError(
                f"max_workers {max_workers} < num_workers {num_workers}"
            )
        if max_workers is not None and not elastic:
            raise ValueError("max_workers only applies to elastic runs")
        if group_size < 1 or num_workers % group_size != 0:
            raise ValueError(
                f"group_size {group_size} must divide num_workers "
                f"{num_workers}"
            )
        if group_size > 1 and config.stale_global_read:
            # Fail loudly instead of silently training something else.
            raise ValueError(
                "stale_global_read is not supported with group_size > 1: "
                "the stale-read ablation is defined for direct SEASGD "
                "participants, not HSGD group roots"
            )
        if group_size > 1 and config.algorithm != "seasgd":
            raise ValueError(
                f"algorithm={config.algorithm!r} is not supported with "
                "group_size > 1: HSGD group roots always exchange via "
                "SEASGD"
            )
        self.spec_factory = spec_factory
        self.config = config
        self.dataset = dataset
        self.batch_size = batch_size
        self.num_workers = num_workers
        self.group_size = group_size
        self.num_groups = num_workers // group_size
        self.telemetry = _resolve_telemetry(telemetry)
        self.server_address = server_address
        if server_address is not None:
            self.server = None
        else:
            self.server = server if server is not None else SMBServer(
                capacity=1 << 30, telemetry=self.telemetry
            )
        self.namespace = namespace
        self.seed = seed
        self.initial_weights = (
            np.asarray(initial_weights, dtype=np.float32)
            if initial_weights is not None else None
        )
        self.prefetch = prefetch
        self.eval_every = eval_every
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.rendezvous = rendezvous
        self.server_down_grace = server_down_grace
        if (checkpoint_dir or resume) and group_size > 1:
            raise ValueError(
                "checkpoint/resume requires group_size == 1: only direct "
                "SEASGD participants carry per-rank solver state through "
                "the coordinated checkpoint protocol"
            )
        if checkpoint_dir is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1 with checkpoint_dir, "
                f"got {checkpoint_every}"
            )
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.checkpoint_metadata = checkpoint_metadata
        self._resume_info: Optional[CheckpointInfo] = None
        if resume is not None:
            info = latest_checkpoint(resume)
            if info is None:
                raise CheckpointError(
                    f"no complete checkpoint found under {resume}"
                )
            if info.num_workers != num_workers:
                raise CheckpointError(
                    f"checkpoint was taken with {info.num_workers} "
                    f"worker(s), cannot resume with {num_workers}"
                )
            self._resume_info = info
        self._eval_records: List[Tuple[int, Dict[str, float]]] = []
        # Ring groups are shared objects; one per HSGD group.
        self._rings = [RingGroup(group_size) for _ in range(self.num_groups)]

        # -- elastic membership --------------------------------------------
        self.elastic = elastic
        self.max_workers = (
            max_workers if max_workers is not None else num_workers
        )
        #: Control-block slot capacity: the elastic ceiling, or exactly
        #: one slot per SEASGD participant for a fixed fleet.
        self.control_capacity = self.max_workers if elastic else self.num_groups
        self.registry: Optional[MembershipRegistry] = (
            MembershipRegistry(registry_dir, telemetry=self.telemetry)
            if registry_dir is not None else None
        )
        self._job_ready = threading.Event()
        self._spawn_counter = itertools.count()
        self._elastic_lock = threading.Lock()
        self._elastic_handles: List[ElasticWorkerHandle] = []

    def _make_client(self, rank: Optional[int] = None) -> SMBClient:
        """A fresh SMB client on the configured transport.

        ``rank`` identifies a worker client: it gets the manager's retry
        policy and, when a fault plan is active, a per-rank seeded fault
        injector.  Infrastructure clients (monitor, final-weights reader)
        pass ``None`` and stay clean so chaos targets only the workers.
        """
        policy = self.retry_policy if rank is not None else None
        if self.server_address is not None:
            client = SMBClient.connect(
                self.server_address, self.telemetry, policy,
                rendezvous=self.rendezvous,
                server_down_grace=self.server_down_grace,
            )
        else:
            client = SMBClient.in_process(self.server, self.telemetry, policy)
        if rank is not None and self.fault_plan is not None:
            client.transport = FaultInjectingTransport(
                client.transport, self.fault_plan.for_rank(rank),
                self.telemetry,
            )
        return client

    def _create_array(
        self, client: SMBClient, name: str, count: int,
        dtype: str = "float32",
    ) -> RemoteArray:
        """CREATE a segment; on resume, adopt one a recovery left behind.

        Resuming a job against a journal-recovered server finds its old
        segments still allocated (SHM keys are stable across restarts);
        instead of failing the CREATE, the run adopts them — after
        checking the size still matches the model being resumed.
        """
        try:
            return client.create_array(name, count, dtype)
        except smb_errors.SegmentExistsError:
            if self._resume_info is None:
                raise
        shm_key, nbytes = client.lookup(name)
        expected = count * np.dtype(dtype).itemsize
        if nbytes != expected:
            raise CheckpointError(
                f"segment {name!r} on the recovered server holds {nbytes} "
                f"bytes but the resumed job needs {expected}"
            )
        return client.attach_array(name, shm_key, count, dtype)

    # -- bring-up --------------------------------------------------------------

    def _announce(
        self, client: SMBClient, flat: FlatParams
    ) -> Tuple[Job, Tuple[RemoteArray, ControlBlock]]:
        """Master-side: create the job's segments and write its document.

        Creates and seeds ``W_g``, creates (or, on resume, reclaims) the
        control block, and publishes the job document in the registry
        when there is one.  Returns the document plus the master's own
        handles on the two segments.
        """
        ns = self.namespace
        resume = self._resume_info
        global_array = self._create_array(client, f"{ns}W_g", flat.count)
        # On resume W_g continues from the checkpointed elastic centre,
        # NOT from the master's replica — they differ under EASGD and
        # conflating them would perturb every worker.
        global_array.write(
            resume.load_global_weights() if resume is not None
            else flat.get_vector()
        )
        capacity = self.control_capacity
        control = ControlBlock(self._create_array(
            client, f"{ns}control", 2 * capacity + 1, "int64"
        ), capacity)
        # Every slot starts FREE and each participant claims its own.  An
        # adopted segment is wiped too: a previous run's Iter_x counters
        # and stop flag must not leak into the resumed fleet's
        # termination decisions.
        control.reset()
        job: Job = {
            "namespace": ns,
            "count": flat.count,
            "w_g_key": global_array.shm_key,
            "control_key": control.shm_key,
            "capacity": capacity,
            "num_launch_workers": self.num_workers,
            "algorithm": self.config.algorithm,
            "max_iterations": self.config.max_iterations,
            "moving_rate": self.config.moving_rate,
            "update_interval": self.config.update_interval,
            "elastic": self.elastic,
        }
        if self.registry is not None:
            server_doc: Dict[str, object] = {"mode": "inproc"}
            if self.server_address is not None:
                host, port = self.server_address
                server_doc = {"mode": "tcp", "host": host, "port": port}
                if self.rendezvous:
                    server_doc["rendezvous"] = self.rendezvous
            self.registry.publish_job(server_doc, job)
        return job, (global_array, control)

    @staticmethod
    def _control(client: SMBClient, job: Job) -> ControlBlock:
        """The job's control block as the job document names it, attached
        over ``client``: a participant's own, or a clean client's."""
        return ControlBlock.attach(
            client, f"{job['namespace']}control", job["control_key"],
            job["capacity"],
        )

    def _rank_main(self, comm: mpi.Communicator) -> WorkerHistory:
        """A launch rank: the job document arrives over MPI."""

        def job_over_mpi(client: Optional[SMBClient], flat: FlatParams):
            if not comm.is_master:
                return mpi.bcast(comm, None), None
            assert client is not None
            job, own = self._announce(client, flat)
            mpi.bcast(comm, job)
            return job, own

        def launch_barrier() -> None:
            # Everyone is attached before anyone starts mutating W_g.
            mpi.barrier(comm)
            if comm.is_master:
                # Only now are the launch fleet's slots all claimed and
                # registered — opening the gate earlier would let a
                # spawned joiner race a launch rank for its slot.
                self._job_ready.set()

        return self._participant(
            comm.rank, f"rank{comm.rank}", job_over_mpi, launch_barrier
        )

    def _participant(
        self,
        rank: int,
        member_id: str,
        job_source: JobSource,
        ready: Callable[[], None] = lambda: None,
        on_claim: Callable[[SlotClaim], None] = lambda claim: None,
    ) -> WorkerHistory:
        """Build, run and retire one participant, launch rank or joiner.

        ``job_source`` hands over the job document; ``ready`` runs just
        before training.  Launch ranks are ``0 .. num_workers - 1`` and
        joiners continue the sequence, so ``rank`` decides the rest of
        what differs: a launch rank asks for its group id as slot and
        carries the checkpoint coordinator, whose barrier counts
        ``num_workers``; rank 0 runs the eval monitor; HSGD non-roots
        touch no SMB segment.  Every client opened here is closed on
        every exit path, and so is the registry record.
        """
        launch = rank < self.num_workers
        group_id, group_rank = divmod(rank, self.group_size)
        with contextlib.ExitStack() as stack:
            net = Net(self.spec_factory(), seed=self.seed)
            flat = FlatParams(net)
            if self.initial_weights is not None:
                flat.set_vector(self.initial_weights)
            solver = SGDSolver(net, self.config.solver)
            cursor = 0
            resume = self._resume_info
            restored = False
            if resume is not None and resume.rank_state_path(rank).exists():
                # Local weights, momentum, iteration counter, RNG state —
                # and the dataset cursor to fast-forward the batch stream
                # — all continue from the saved boundary.
                saved = load_solver_state(
                    solver, resume.rank_state_path(rank)
                )
                cursor = solver.iteration if saved is None else saved
                restored = True
            client = (
                stack.enter_context(self._make_client(rank=rank))
                if group_rank == 0 else None
            )
            job, own = job_source(client, flat)
            ns, count = job["namespace"], job["count"]
            if count != flat.count:
                raise smb_errors.MembershipError(
                    f"job model has {count} weights, local spec builds "
                    f"{flat.count}"
                )

            global_array = control = None
            termination = claim = retire_event = None
            if client is not None:
                global_array, control = own or (
                    client.attach_array(f"{ns}W_g", job["w_g_key"], count),
                    self._control(client, job),
                )
                # The control block allocates the slot: a launch rank's
                # is its group id, a joiner's the lowest open one.
                take: Callable[[], SlotClaim] = (
                    functools.partial(control.claim, group_id) if launch
                    else control.claim
                )
                if self.registry is None:
                    claim = take()
                else:
                    # The registry records the claim, run under its lock.
                    member = self.registry.join(member_id, take)
                    stack.callback(self._leave, member_id)
                    retire_event = threading.Event()
                    claim = SlotClaim(member.slot, member.generation)
                    on_claim(claim)
                if not restored:
                    # The replica starts from the current elastic centre:
                    # the master's seed at launch, the checkpointed centre
                    # on resume, wherever the fleet has moved for a joiner.
                    flat.set_vector(global_array.read())
                termination = TerminationCoordinator(
                    control,
                    rank=claim.slot,
                    criterion=self.config.termination,
                    target_iterations=self.config.max_iterations,
                    generation=claim.generation,
                )

            # Joiners share a launch shard (distinct batch order via the
            # rank-salted seed): the shard layout is fixed at launch.
            batches = self.dataset.minibatches(
                self.batch_size,
                seed=self.seed + 1000 + rank,
                rank=rank % self.num_workers,
                num_shards=self.num_workers,
                skip=cursor,
            )
            if self.prefetch:
                # ShmCaffe "prefetches 10 sets of minibatch training
                # data"; wrap the shard stream in the background
                # prefetcher.
                from ..caffe.data import Prefetcher

                batches = stack.enter_context(Prefetcher(batches))
            on_iteration = None
            if rank == 0 and self.eval_every:
                # W_g attached once, on the monitor's own clean client:
                # chaos aimed at the rank must not reach it.
                on_iteration = self._make_monitor(
                    stack.enter_context(self._make_client()).attach_array(
                        f"{ns}W_g", job["w_g_key"], count
                    )
                )
            if retire_event is not None:
                on_iteration = self._membership_monitor(
                    member_id, retire_event, on_iteration
                )

            if self.group_size == 1:
                strategy = make_exchange(
                    self.config,
                    global_weights=global_array,
                    fleet=termination.live_count if self.elastic else None,
                )
            else:
                strategy = HybridExchange(
                    group=self._rings[group_id],
                    group_rank=group_rank,
                    global_weights=global_array,
                )
            coordinator = None
            if launch and self.checkpoint_dir is not None:
                coordinator = CheckpointCoordinator(
                    directory=self.checkpoint_dir,
                    every=self.checkpoint_every,
                    rank=rank,
                    num_workers=self.num_workers,
                    global_weights=global_array if rank == 0 else None,
                    termination=termination,
                    metadata=self.checkpoint_metadata,
                    telemetry=self.telemetry,
                )
            engine = TrainingEngine(
                rank=rank,
                net=net,
                config=self.config,
                batches=batches,
                strategy=strategy,
                termination=termination,
                on_iteration=on_iteration,
                telemetry=self.telemetry,
                solver=solver,
                checkpoint=coordinator,
                start_iteration=solver.iteration,
                retire_signal=retire_event.is_set if self.elastic else None,
            )
            ready()
            history = engine.run()
            if claim is not None and (history.retired or history.failed):
                self._vacate(member_id, job, claim, history)
        return history

    def _make_monitor(self, global_weights: RemoteArray):
        """Rank-0 callback snapshotting global-weight test metrics."""
        eval_net = Net(self.spec_factory(), seed=self.seed)
        eval_flat = FlatParams(eval_net)
        test_batches = [
            b.as_inputs()
            for b in self.dataset.test_batches(EVAL_BATCH_SIZE)
        ]
        manager = self

        def monitor(rank: int, iteration: int, stats: Dict[str, float]) -> None:
            if iteration % manager.eval_every != 0:
                return
            eval_flat.set_vector(global_weights.read())
            metrics = eval_net.evaluate(test_batches)
            manager._eval_records.append((iteration, metrics))

        return monitor

    # -- elastic membership ----------------------------------------------------

    def _membership_monitor(
        self,
        member_id: str,
        retire_event: threading.Event,
        inner: Optional[Callable[[int, int, Dict[str, float]], None]],
    ) -> Callable[[int, int, Dict[str, float]], None]:
        """Per-iteration lease renewal; its answer is the retire pickup.

        Heartbeats are best-effort: a worker must never die because the
        registry hiccuped — at worst its lease lapses and the fleet
        presumes it dead, which is exactly the failure semantics leases
        exist to provide.
        """
        registry = self.registry
        assert registry is not None

        def monitor(rank: int, iteration: int, stats: Dict[str, float]) -> None:
            if inner is not None:
                inner(rank, iteration, stats)
            try:
                if registry.heartbeat(member_id):
                    retire_event.set()
            except smb_errors.MembershipError as exc:
                logging.getLogger(__name__).warning(
                    "heartbeat for %s failed: %s", member_id, exc
                )

        return monitor

    def _vacate(
        self,
        member_id: str,
        job: Job,
        claim: SlotClaim,
        history: WorkerHistory,
    ) -> None:
        """A retired or failed participant's exit from its slot.

        A retired one releases the slot: it becomes reclaimable by a
        later joiner and is excluded from every criterion.  A failed one
        is marked dead on its behalf with its completed count, so
        survivors rescale over it (the slot stays claimable).  A
        participant that *completed* keeps its slot — its final progress
        stays in the mean the fleet terminates on, exactly like the
        fixed fleet.  The write goes over a clean client (no rank, so no
        fault plan applies): a failed worker's own transport is what
        died.  An SMB error is logged and swallowed.
        """
        try:
            with self._make_client() as client:
                control = self._control(client, job)
                if history.failed:
                    control.mark_dead(
                        claim.slot, history.completed_iterations,
                        claim.generation,
                    )
                else:
                    control.release(claim.slot, claim.generation)
        except smb_errors.SMBError as exc:
            logging.getLogger(__name__).warning(
                "slot exit for %s failed: %s", member_id, exc
            )

    def _leave(self, member_id: str) -> None:
        """Drop a participant's registry record, on every exit path."""
        assert self.registry is not None
        try:
            self.registry.leave(member_id)
        except (smb_errors.MembershipError, OSError) as exc:
            # The registry directory may already be torn down.
            logging.getLogger(__name__).warning(
                "registry leave for %s failed: %s", member_id, exc
            )

    def spawn_worker(self, timeout: float = 30.0) -> ElasticWorkerHandle:
        """Add one worker to a live elastic run; returns its handle.

        Safe to call from any thread (the autoscale supervisor, a test
        harness, the elastic drill) once the run is underway; blocks up
        to ``timeout`` for the master's job publication.  The worker
        discovers the job **through the registry** — SHM keys, model
        size, namespace — exactly as an out-of-process joiner would.
        """
        if not self.elastic or self.registry is None:
            raise ValueError("spawn_worker requires an elastic run")
        if not self._job_ready.wait(timeout):
            raise smb_errors.MembershipError(
                f"job not published within {timeout:.1f}s; is run() active?"
            )
        seq = next(self._spawn_counter)
        handle = ElasticWorkerHandle(member_id=f"elastic-{seq}", seq=seq)
        handle.thread = threading.Thread(
            target=self._elastic_member_main,
            args=(handle,),
            name=handle.member_id,
            daemon=True,
        )
        # Started under the lock, so drain_elastic never joins a thread
        # that has not started.
        with self._elastic_lock:
            self._elastic_handles.append(handle)
            handle.thread.start()
        self.telemetry.registry.inc("smb/membership/spawned")
        return handle

    def retire_worker(self, member_id: Optional[str] = None) -> bool:
        """Drain one member out of a live elastic run.

        Without a ``member_id`` the youngest elastic joiner is picked,
        falling back to the highest-slot launch worker except the master
        (slot 0 stays; it owns bring-up and the eval monitor).  Only the
        registry is flagged: the member reads the flag from the
        heartbeat that ends its current iteration, then releases its
        slot and leaves.  Returns False when there is nobody suitable to retire.
        """
        if not self.elastic or self.registry is None:
            raise ValueError("retire_worker requires an elastic run")
        if member_id is None:
            members = [
                m for m in self.registry.read().live_members()
                if m.status == "active" and m.slot != 0
            ]
            if not members:
                return False
            elastic = [
                m for m in members if m.member_id.startswith("elastic-")
            ]
            pool = elastic if elastic else members
            member_id = max(
                pool, key=lambda m: (m.joined_at, m.slot)
            ).member_id
        return self.registry.request_retire(member_id)

    def _elastic_member_main(self, handle: ElasticWorkerHandle) -> None:
        """A late joiner: the job document comes from the registry.

        Its rank continues the launch sequence, so per-worker telemetry
        and fault seeds stay distinct; a failure is recorded on the
        handle instead of raised.
        """
        registry = self.registry
        assert registry is not None

        def job_from_registry(
            client: Optional[SMBClient], flat: FlatParams
        ) -> Tuple[Dict[str, object], None]:
            return registry.wait_for_job().job, None

        def claimed(claim: SlotClaim) -> None:
            handle.slot, handle.generation = claim.slot, claim.generation

        try:
            handle.history = self._participant(
                self.num_workers + handle.seq, handle.member_id,
                job_from_registry, on_claim=claimed,
            )
        except Exception as exc:  # noqa: BLE001 - reported via the handle
            handle.error = f"{type(exc).__name__}: {exc}"
            logging.getLogger(__name__).warning(
                "elastic member %s died: %s", handle.member_id, handle.error
            )

    def drain_elastic(self, timeout: float = 120.0) -> List[WorkerHistory]:
        """Wait for every spawned worker and collect their histories."""
        with self._elastic_lock:
            handles = list(self._elastic_handles)
        histories: List[WorkerHistory] = []
        for handle in handles:
            if not handle.join(timeout):
                handle.error = (
                    handle.error or f"still running after {timeout:.0f}s"
                )
            if handle.history is not None:
                histories.append(handle.history)
        return histories

    # -- public API -----------------------------------------------------------

    def run(self, timeout: Optional[float] = None) -> TrainingResult:
        """Launch all ranks, wait for completion, and collect results.

        For an elastic run the result also folds in every worker spawned
        through :meth:`spawn_worker` while the launch fleet was training
        (their histories ride along after the launch ranks').
        """
        self._eval_records = []
        self._job_ready.clear()
        with self._elastic_lock:
            self._elastic_handles = []
        tel = self.telemetry
        tel.registry.set("run/workers", self.num_workers)
        tel.registry.set("run/group_size", self.group_size)
        with tel.timed("run/time/total", trace_name="training-run"):
            histories = mpi.run_spmd(
                self.num_workers, self._rank_main, timeout=timeout
            )
            histories = list(histories) + self.drain_elastic()
        lost = [h.rank for h in histories if h.failed]
        tel.registry.set("run/workers_lost", len(lost))
        for h in histories:
            if h.failed:
                tel.registry.inc(f"worker{h.rank}/faults/lost")
        if lost:
            logging.getLogger(__name__).warning(
                "run degraded: worker(s) %s lost their SMB path; "
                "%d survivor(s) completed training",
                lost, len(histories) - len(lost),
            )
        with self._make_client() as reader:
            shm_key, nbytes = reader.lookup(f"{self.namespace}W_g")
            final = reader.attach_array(
                f"{self.namespace}W_g", shm_key, nbytes // 4
            ).read()
        return TrainingResult(
            histories=histories,
            final_global_weights=final,
            eval_records=list(self._eval_records),
        )
