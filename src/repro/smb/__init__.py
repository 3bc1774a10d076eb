"""Soft Memory Box (SMB): a virtual shared-memory framework.

Python reproduction of the remote shared-memory substrate ShmCaffe builds
on (paper Sec. III-B).  The real SMB allocates granted memory on a memory
server and exposes it to Infiniband RDMA; here the same API is served by an
in-process core (:class:`SMBServer`) optionally fronted by TCP
(:class:`TcpSMBServer`), with :class:`SMBClient` as the worker-side library.

Quick start::

    from repro.smb import SMBServer, SMBClient

    server = SMBServer(capacity=1 << 24)
    master = SMBClient.in_process(server)
    weights = master.create_array("W_g", count=1000)
    # ... broadcast weights.shm_key over MPI ...
    worker = SMBClient.in_process(server)
    view = worker.attach_array("W_g", weights.shm_key, count=1000)
"""

from .buffer import ParameterBuffer
from .client import ControlBlock, RemoteArray, SlotClaim, SMBClient
from .errors import (
    AccessDeniedError,
    CapacityError,
    FaultInjectedError,
    MembershipError,
    NotificationTimeout,
    PayloadSizeError,
    QuotaExceededError,
    RetryExhaustedError,
    SegmentExistsError,
    SegmentRangeError,
    ServerClosingError,
    SlotsExhaustedError,
    SMBConnectionError,
    SMBError,
    SMBProtocolError,
    StaleGenerationError,
    TransportClosedError,
    UnknownKeyError,
    VersionRegressionError,
    is_retryable,
)
from .faults import FaultInjectingTransport, FaultPlan
from .journal import (
    DurabilityStore,
    JournalError,
    PoolImage,
    SegmentImage,
    publish_json,
    read_json,
    read_rendezvous,
    write_rendezvous,
)
from .membership import JobEntry, MemberRecord, MembershipRegistry, RegistryView
from .memory import (
    DEFAULT_POOL_CAPACITY,
    DEFAULT_TENANT,
    MemoryPool,
    Segment,
    TenantGrant,
)
from .fleet import (
    HashRingPlacement,
    Move,
    Placement,
    PlacementError,
    ShardedArray,
    attach_sharded_array,
    create_sharded_array,
    discover_locations,
    rebalance,
    shard_counts,
    shutdown_fanout_executor,
)
from .protocol import Message, Op, Status
from .retry import DEFAULT_RETRY_POLICY, NO_RETRY, RetryPolicy
from .server import ServerStats, SMBServer, TcpSMBServer
from .serving import (
    ReadCache,
    ReplicaServer,
    VersionNotAvailableError,
)
from .shm_transport import ShmSMBServer, ShmTransport
from .transport import InProcTransport, TcpTransport

__all__ = [
    "AccessDeniedError",
    "CapacityError",
    "ControlBlock",
    "DEFAULT_POOL_CAPACITY",
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_TENANT",
    "DurabilityStore",
    "FaultInjectedError",
    "FaultInjectingTransport",
    "FaultPlan",
    "HashRingPlacement",
    "InProcTransport",
    "JobEntry",
    "JournalError",
    "MemberRecord",
    "MembershipError",
    "MembershipRegistry",
    "MemoryPool",
    "Message",
    "NO_RETRY",
    "NotificationTimeout",
    "Move",
    "Op",
    "ParameterBuffer",
    "PayloadSizeError",
    "Placement",
    "PlacementError",
    "PoolImage",
    "QuotaExceededError",
    "ReadCache",
    "RegistryView",
    "RemoteArray",
    "ReplicaServer",
    "RetryExhaustedError",
    "RetryPolicy",
    "Segment",
    "SegmentExistsError",
    "SegmentImage",
    "SegmentRangeError",
    "ServerClosingError",
    "ServerStats",
    "SlotClaim",
    "SlotsExhaustedError",
    "SMBClient",
    "SMBConnectionError",
    "SMBError",
    "SMBProtocolError",
    "SMBServer",
    "ShardedArray",
    "ShmSMBServer",
    "ShmTransport",
    "StaleGenerationError",
    "Status",
    "TcpSMBServer",
    "TcpTransport",
    "TenantGrant",
    "TransportClosedError",
    "UnknownKeyError",
    "VersionNotAvailableError",
    "VersionRegressionError",
    "attach_sharded_array",
    "create_sharded_array",
    "discover_locations",
    "is_retryable",
    "publish_json",
    "read_json",
    "read_rendezvous",
    "rebalance",
    "shard_counts",
    "shutdown_fanout_executor",
    "write_rendezvous",
]
