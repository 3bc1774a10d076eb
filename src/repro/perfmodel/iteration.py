"""Per-iteration time model: eq. (8) and its platform variants.

The paper decomposes one SEASGD training iteration as

    T_iter = T_comp + T_comm
           = max[T_comp, (T_wwi + T_ugw)] + T_rgw + T_ulw        (8)

i.e. the *write* side (write weight increment ``T_wwi`` + server-side
global-weight update ``T_ugw``) overlaps with computation via the Fig. 6
update thread, while the *read* side (read global weights ``T_rgw`` +
update local weights ``T_ulw``) is synchronous by design.  ``T_comm`` in
the tables is the communication time **not hidden** by computation.

Each platform gets its own breakdown function; all share the
:class:`~repro.perfmodel.hardware.HardwareProfile` constants.  Reported
numbers are milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .hardware import GPUS_PER_NODE, PAPER_HARDWARE, HardwareProfile
from .models import ModelProfile


@dataclass(frozen=True)
class IterationBreakdown:
    """Timing of one training iteration on one platform configuration."""

    platform: str
    model: str
    workers: int
    compute_ms: float
    comm_ms: float
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def iteration_ms(self) -> float:
        """Total per-iteration wall time (eq. 8 left-hand side)."""
        return self.compute_ms + self.comm_ms

    @property
    def comm_ratio(self) -> float:
        """Fraction of the iteration spent in visible communication."""
        return self.comm_ms / self.iteration_ms


def _ms(nbytes: float, bandwidth_gbs: float) -> float:
    """Transfer time in ms for ``nbytes`` at ``bandwidth_gbs`` GB/s."""
    return nbytes / (bandwidth_gbs * 1e9) * 1e3


def caffe_standalone(
    model: ModelProfile, hw: HardwareProfile = PAPER_HARDWARE
) -> IterationBreakdown:
    """BVLC Caffe on one GPU: pure compute plus the data layer."""
    compute = model.compute_ms + hw.data_layer_overhead_ms
    return IterationBreakdown(
        platform="caffe", model=model.name, workers=1,
        compute_ms=compute, comm_ms=0.0,
    )


def caffe_multi_gpu(
    model: ModelProfile,
    workers: int,
    hw: HardwareProfile = PAPER_HARDWARE,
) -> IterationBreakdown:
    """BVLC Caffe multi-GPU SSGD (NCCL over the host-staged PCIe tree).

    Beyond one root complex, Caffe 1.0's aggregation stages through host
    memory and serialises on the dual-socket topology; the super-linear
    ``n^p`` term is calibrated to the paper's measured 8/16-GPU Caffe
    scalability (2.7x / 2.3x).
    """
    if workers == 1:
        return caffe_standalone(model, hw)
    base = _ms(model.param_bytes, hw.pcie_bandwidth_gbs)
    transfer = (
        hw.caffe_host_staging_coeff
        * base
        * workers ** hw.caffe_host_staging_exponent
    )
    straggle = model.compute_ms * (hw.straggler_factor(workers) - 1.0)
    compute = model.compute_ms + hw.data_layer_overhead_ms
    return IterationBreakdown(
        platform="caffe", model=model.name, workers=workers,
        compute_ms=compute,
        comm_ms=transfer + straggle,
        components={"transfer": transfer, "straggler": straggle},
    )


def caffe_mpi(
    model: ModelProfile,
    workers: int,
    hw: HardwareProfile = PAPER_HARDWARE,
) -> IterationBreakdown:
    """Caffe-MPI star-topology SSGD: the master's HCA carries everything.

    Per iteration the master receives ``n`` gradients and sends ``n``
    weight copies over MPI Send/Recv, whose kernel copies run at
    ``mpi_protocol_efficiency`` of the RDMA line rate — the overhead
    ShmCaffe exists to remove.
    """
    if workers == 1:
        return caffe_standalone(model, hw)
    bandwidth = hw.smb_effective_bandwidth_gbs * hw.mpi_protocol_efficiency
    transfer = 2.0 * workers * _ms(model.param_bytes, bandwidth)
    straggle = model.compute_ms * (hw.straggler_factor(workers) - 1.0)
    compute = model.compute_ms + hw.data_layer_overhead_ms
    return IterationBreakdown(
        platform="caffe_mpi", model=model.name, workers=workers,
        compute_ms=compute,
        comm_ms=transfer + straggle,
        components={"transfer": transfer, "straggler": straggle},
    )


def mpi_caffe(
    model: ModelProfile,
    workers: int,
    hw: HardwareProfile = PAPER_HARDWARE,
    gpus_per_node: int = GPUS_PER_NODE,
) -> IterationBreakdown:
    """MPICaffe: SSGD via MPI_Allreduce (ring) across worker ranks.

    Ring volume is ``2 (n-1)/n`` of the payload per rank; ranks on the
    same node share one HCA, multiplying the per-HCA traffic.  Within a
    single node the ring runs over PCIe instead.
    """
    if workers == 1:
        return caffe_standalone(model, hw)
    ring_volume = 2.0 * (workers - 1) / workers * model.param_bytes
    if workers <= gpus_per_node:
        transfer = _ms(ring_volume, hw.pcie_bandwidth_gbs)
    else:
        sharing = min(workers, gpus_per_node)
        bandwidth = (
            hw.smb_effective_bandwidth_gbs * hw.mpi_protocol_efficiency
        )
        transfer = _ms(ring_volume * sharing, bandwidth)
    straggle = model.compute_ms * (hw.straggler_factor(workers) - 1.0)
    compute = model.compute_ms + hw.data_layer_overhead_ms
    return IterationBreakdown(
        platform="mpi_caffe", model=model.name, workers=workers,
        compute_ms=compute,
        comm_ms=transfer + straggle,
        components={"transfer": transfer, "straggler": straggle},
    )


def _seasgd_exchange_terms(
    model: ModelProfile,
    participants: int,
    hw: HardwareProfile,
) -> Dict[str, float]:
    """The four eq.-(8) terms for one SEASGD exchange."""
    contention = hw.contention_factor(participants)
    smb = hw.smb_effective_bandwidth_gbs
    return {
        "t_rgw": _ms(model.param_bytes, smb) * contention,
        "t_wwi": _ms(model.param_bytes, smb) * contention,
        # Server-side accumulate reads dW, reads W_g, writes W_g.
        "t_ugw": _ms(3 * model.param_bytes, hw.server_memory_bandwidth_gbs),
        "t_ulw": _ms(model.param_bytes, hw.local_memory_bandwidth_gbs),
    }


def seasgd_phase_expectations(
    model: ModelProfile,
    participants: int,
    hw: HardwareProfile = PAPER_HARDWARE,
) -> Dict[str, float]:
    """Predicted per-phase times (ms) keyed by telemetry phase names.

    The bridge between this analytic model and the telemetry
    subsystem's measured phase histograms: the four eq.-(8) exchange
    terms plus ``comp``, renamed from ``t_rgw``-style keys to the
    ``rgw``-style phase taxonomy of :mod:`repro.telemetry.phases` so
    ``benchmarks/e2e``'s ``perfmodel.residual.*`` cells can divide one
    by the other.
    """
    terms = _seasgd_exchange_terms(model, participants, hw)
    return {
        "comp": model.compute_ms + hw.data_layer_overhead_ms,
        "wwi": terms["t_wwi"],
        "ugw": terms["t_ugw"],
        "rgw": terms["t_rgw"],
        "ulw": terms["t_ulw"],
    }


def shmcaffe_a(
    model: ModelProfile,
    workers: int,
    hw: HardwareProfile = PAPER_HARDWARE,
    update_interval: int = 1,
) -> IterationBreakdown:
    """ShmCaffe-A (pure SEASGD): eq. (8) with all workers on one SMB server.

    A single worker shares with nobody, so its communication is zero — the
    Table V "1 worker" column.
    """
    compute = model.compute_ms + hw.data_layer_overhead_ms
    if workers == 1:
        return IterationBreakdown(
            platform="shmcaffe_a", model=model.name, workers=1,
            compute_ms=compute, comm_ms=0.0,
        )
    terms = _seasgd_exchange_terms(model, workers, hw)
    # The write side gets update_interval iterations of compute to hide in.
    hideable = update_interval * model.compute_ms
    spill = max(0.0, terms["t_wwi"] + terms["t_ugw"] - hideable)
    per_exchange = terms["t_rgw"] + terms["t_ulw"] + spill
    comm = per_exchange / update_interval
    return IterationBreakdown(
        platform="shmcaffe_a", model=model.name, workers=workers,
        compute_ms=compute, comm_ms=comm,
        components={**terms, "spill": spill,
                    "update_interval": float(update_interval)},
    )


def shmcaffe_multi_server(
    model: ModelProfile,
    workers: int,
    num_servers: int,
    hw: HardwareProfile = PAPER_HARDWARE,
    update_interval: int = 1,
) -> IterationBreakdown:
    """ShmCaffe-A with parameters striped over several SMB servers.

    The paper's stated future work (Sec. V): the single memory server's
    HCA bounds every exchange, so stripe ``W_g`` over K servers.  Each
    stripe carries ``1/K`` of the payload and the stripes move in
    parallel on disjoint HCAs, dividing both the transfer terms and the
    (per-server, still serialised) accumulate time by K.  The local
    weight update ``T_ulw`` is unchanged — the replica is whole either
    way.
    """
    if num_servers < 1:
        raise ValueError(f"num_servers must be >= 1, got {num_servers}")
    compute = model.compute_ms + hw.data_layer_overhead_ms
    if workers == 1:
        return IterationBreakdown(
            platform="shmcaffe_multi", model=model.name, workers=1,
            compute_ms=compute, comm_ms=0.0,
        )
    terms = _seasgd_exchange_terms(model, workers, hw)
    striped = {
        "t_rgw": terms["t_rgw"] / num_servers,
        "t_wwi": terms["t_wwi"] / num_servers,
        "t_ugw": terms["t_ugw"] / num_servers,
        "t_ulw": terms["t_ulw"],
    }
    hideable = update_interval * model.compute_ms
    spill = max(0.0, striped["t_wwi"] + striped["t_ugw"] - hideable)
    per_exchange = striped["t_rgw"] + striped["t_ulw"] + spill
    comm = per_exchange / update_interval
    return IterationBreakdown(
        platform="shmcaffe_multi", model=model.name, workers=workers,
        compute_ms=compute, comm_ms=comm,
        components={**striped, "spill": spill,
                    "num_servers": float(num_servers)},
    )


def shmcaffe_h(
    model: ModelProfile,
    workers: int,
    group_size: int,
    hw: HardwareProfile = PAPER_HARDWARE,
    update_interval: int = 1,
) -> IterationBreakdown:
    """ShmCaffe-H: intra-group NCCL SSGD + per-group-root SEASGD.

    Only the ``workers / group_size`` roots contend on the SMB server;
    group members additionally pay the intra-node ring allreduce, the
    post-exchange weight broadcast, and the group's straggler wait.
    A single group (e.g. the 4(S4) configuration of Table III) never
    touches SMB and degenerates to single-node synchronous Caffe.
    """
    if workers % group_size != 0:
        raise ValueError(
            f"group_size {group_size} must divide workers {workers}"
        )
    if group_size == 1:
        return shmcaffe_a(model, workers, hw, update_interval)
    groups = workers // group_size
    compute = model.compute_ms + hw.data_layer_overhead_ms

    ring_volume = 2.0 * (group_size - 1) / group_size * model.param_bytes
    allreduce = _ms(ring_volume, hw.pcie_bandwidth_gbs)
    straggle = model.compute_ms * (hw.straggler_factor(group_size) - 1.0)

    if groups == 1:
        comm = allreduce + straggle
        components = {"allreduce": allreduce, "straggler": straggle}
    else:
        terms = _seasgd_exchange_terms(model, groups, hw)
        broadcast = _ms(model.param_bytes, hw.pcie_bandwidth_gbs)
        hideable = update_interval * model.compute_ms
        spill = max(0.0, terms["t_wwi"] + terms["t_ugw"] - hideable)
        per_exchange = terms["t_rgw"] + terms["t_ulw"] + broadcast + spill
        comm = allreduce + straggle + per_exchange / update_interval
        components = {
            **terms,
            "allreduce": allreduce,
            "straggler": straggle,
            "broadcast": broadcast,
            "spill": spill,
        }
    return IterationBreakdown(
        platform="shmcaffe_h", model=model.name, workers=workers,
        compute_ms=compute, comm_ms=comm, components=components,
    )
