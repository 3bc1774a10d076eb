"""The ``ParameterBuffer`` protocol: what training code needs from SMB.

The SEASGD training stack programs against remote parameter storage
through exactly six capabilities — typed whole-buffer ``read``/``write``,
the server-side ``accumulate`` that implements eq. (7) in one request, the
element ``count``, the element ``dtype``, and the mutation ``version``
counter.
Two backends provide them today:

* :class:`repro.smb.client.RemoteArray` — one segment on one SMB server
  (the evaluated system's single memory server);
* :class:`repro.smb.fleet.ShardedArray` — one logical vector striped
  over K servers (the paper's multi-server future work).

The training engine and its exchange strategies are *typed* against
:class:`ParameterBuffer`, so multi-server sharding is a first-class
backend.  The protocol is :func:`typing.runtime_checkable`, so tests can
assert conformance with ``isinstance``.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class ParameterBuffer(Protocol):
    """Typed remote storage for one flat parameter vector.

    Implementations hold ``count`` elements of ``dtype`` (float32 in every
    training path) in remote shared memory and support RDMA-style
    whole-buffer transfers plus the server-side accumulate of eq. (7).
    """

    #: Logical segment name (diagnostics only).
    name: str
    #: Number of elements in the buffer.
    count: int
    #: Element type of the buffer.
    dtype: np.dtype

    def read(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Fetch the whole buffer as a typed array (RDMA Read).

        With ``out`` (a C-contiguous writable array of ``count`` elements
        of ``dtype``), the transfer lands in the caller's buffer and
        ``out`` is returned — the steady-state training loop reads into
        one preallocated scratch vector instead of allocating a
        model-sized array every exchange.
        """
        ...

    def write(self, values: np.ndarray) -> int:
        """Overwrite the whole buffer; returns the new version."""
        ...

    def accumulate(self, values: np.ndarray, scale: float = 1.0) -> int:
        """Server-side ``self += scale * values`` (the eq.-(7) primitive).

        ``values`` (``count`` elements) travels in the request itself, so
        the write side of an exchange is one request and needs no
        increment segment; returns the new version.
        """
        ...

    def version(self) -> int:
        """Monotone mutation counter (advances on write/accumulate)."""
        ...
