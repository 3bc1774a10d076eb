"""Deterministic fault injection for the SMB transport path (chaos layer).

A :class:`FaultInjectingTransport` wraps a
:class:`~repro.smb.transport.ChannelTransport` and, driven by a seeded
:class:`FaultPlan`, makes requests fail the way a congested or flaky
interconnect would: raised connection errors ("the packet never made it"),
added latency, forced disconnects, and — for worker-loss drills — a
permanent kill switch after N requests.

Two design rules keep chaos runs meaningful:

* **Determinism** — every decision comes from one ``random.Random(seed)``
  consumed in request order, so a single-threaded request sequence replays
  identically and a failing scenario can be re-run from its seed (the
  ``repro smb chaos`` CLI does exactly that).
* **Faults fire before the server sees the request** — an injected failure
  means the operation did *not* happen, so a retried ``ACCUMULATE`` is
  applied exactly once and convergence assertions stay exact.  Real
  ack-lost duplication is out of scope for this emulation.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..telemetry import TelemetrySession, resolve as _resolve_telemetry
from .errors import SMBConnectionError, TransportClosedError
from .protocol import Message
from .transport import ChannelTransport

#: Fault kinds a plan can fire, in the order they are considered.
FAULT_KINDS = ("kill", "disconnect", "error", "delay")


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of which faults to inject, and how often.

    Rates are independent per-request probabilities in ``[0, 1]``.

    Attributes:
        seed: Base seed; :meth:`for_rank` derives a distinct deterministic
            stream per worker from it.
        error_rate: Probability of raising a (transient, retried)
            :class:`~repro.smb.errors.SMBConnectionError` before the
            request is sent (lost request / transport error).
        delay_rate: Probability of sleeping :attr:`delay_seconds` before
            the request proceeds (congestion).
        delay_seconds: Length of one injected delay.
        disconnect_rate: Probability of hard-dropping the underlying
            channels first (exercises the reconnect path of whichever
            doorway is wrapped); the request then fails with
            :class:`~repro.smb.errors.SMBConnectionError`.
        ops: Restrict injection to these ``Op`` names (e.g.
            ``("ACCUMULATE", "READ")``); ``None`` targets every op.
        kill_rank: Rank whose transport dies permanently (worker-loss
            drill); ``None`` kills nobody.
        kill_after: Number of successful requests the killed rank is
            allowed before every further request fails.
    """

    seed: int = 0
    error_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.005
    disconnect_rate: float = 0.0
    ops: Optional[Tuple[str, ...]] = None
    kill_rank: Optional[int] = None
    kill_after: int = 0

    def for_rank(self, rank: int) -> "FaultPlan":
        """Derive this rank's plan: distinct RNG stream, kill switch armed
        only on :attr:`kill_rank`."""
        kill = self.kill_rank is not None and rank == self.kill_rank
        return replace(
            self,
            seed=self.seed * 1_000_003 + rank + 1,
            kill_rank=rank if kill else None,
        )


class FaultInjectingTransport:
    """Transport decorator that injects faults per a :class:`FaultPlan`.

    Thread-safe: fault decisions are drawn under a lock so two worker
    threads sharing one client consume one well-defined random stream.
    Injection counts are kept locally in :attr:`stats` and mirrored into
    the ``telemetry`` session (``smb/faults/<kind>``): the one given,
    else the one current at construction, fixed from then on.
    """

    def __init__(
        self,
        inner: ChannelTransport,
        plan: FaultPlan,
        telemetry: Optional[TelemetrySession] = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self._requests = 0
        self._killed = False
        self.stats: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._registry = _resolve_telemetry(telemetry).registry

    def _count(self, kind: str) -> None:
        self.stats[kind] += 1
        self._registry.inc(f"smb/faults/{kind}")

    def _decide(self, message: Message) -> Optional[str]:
        """Pick at most one fault for this request (None = clean)."""
        plan = self.plan
        if self._killed:
            return "kill"
        if plan.kill_rank is not None and self._requests >= plan.kill_after:
            self._killed = True
            return "kill"
        self._requests += 1
        if plan.ops is not None and message.op.name not in plan.ops:
            return None
        # One draw per configured kind keeps the stream length fixed per
        # request, so adding a rate does not shift later decisions.
        fault = None
        if plan.disconnect_rate > 0.0:
            if self._rng.random() < plan.disconnect_rate and fault is None:
                fault = "disconnect"
        if plan.error_rate > 0.0:
            if self._rng.random() < plan.error_rate and fault is None:
                fault = "error"
        if plan.delay_rate > 0.0:
            if self._rng.random() < plan.delay_rate and fault is None:
                fault = "delay"
        return fault

    def request(
        self, message: Message, out: Optional[memoryview] = None
    ) -> Message:
        with self._lock:
            fault = self._decide(message)
            if fault is not None:
                self._count(fault)
        if fault == "kill":
            raise TransportClosedError(
                f"injected worker loss: transport killed after "
                f"{self.plan.kill_after} request(s)"
            )
        if fault == "disconnect":
            self.inner.drop_connection()
            raise SMBConnectionError(
                f"injected disconnect before {message.op.name}"
            )
        if fault == "error":
            raise SMBConnectionError(
                f"injected transport error before {message.op.name}"
            )
        if fault == "delay":
            time.sleep(self.plan.delay_seconds)
        return self.inner.request(message, out)

    def close(self) -> None:
        self.inner.close()
