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

from .client import ControlBlock, RemoteArray, SMBClient
from .errors import (
    MembershipError,
    NotificationTimeout,
    QuotaExceededError,
    SegmentExistsError,
    SMBConnectionError,
    SMBError,
    SMBProtocolError,
    TransportClosedError,
    UnknownKeyError,
    VersionRegressionError,
)
from .faults import FaultInjectingTransport, FaultPlan
from .journal import JournalError, publish_json, read_json, read_rendezvous
from .membership import MembershipRegistry
from .memory import DEFAULT_TENANT
from .protocol import Message, Op, Status
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .server import SMBServer, TcpSMBServer
from .serving import ReplicaServer, VersionNotAvailableError
from .shm_transport import ShmSMBServer, ShmTransport
from .transport import InProcTransport, TcpTransport

__all__ = [
    "ControlBlock",
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_TENANT",
    "FaultInjectingTransport",
    "FaultPlan",
    "InProcTransport",
    "JournalError",
    "MembershipError",
    "MembershipRegistry",
    "Message",
    "NotificationTimeout",
    "Op",
    "QuotaExceededError",
    "RemoteArray",
    "ReplicaServer",
    "RetryPolicy",
    "SegmentExistsError",
    "SMBClient",
    "SMBConnectionError",
    "SMBError",
    "SMBProtocolError",
    "SMBServer",
    "ShmSMBServer",
    "ShmTransport",
    "Status",
    "TcpSMBServer",
    "TcpTransport",
    "TransportClosedError",
    "UnknownKeyError",
    "VersionNotAvailableError",
    "VersionRegressionError",
    "publish_json",
    "read_json",
    "read_rendezvous",
]
