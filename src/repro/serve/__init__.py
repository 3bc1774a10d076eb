"""Model-serving front ends over the SMB read tier.

:mod:`repro.smb.serving` provides the data plane (replicas and their
snapshot rings); this package puts the network front end on it — the
HTTP/REST :class:`~repro.serve.gateway.ModelGateway`, the read tier's
only network door.
"""

from .gateway import ModelGateway

__all__ = ["ModelGateway"]
