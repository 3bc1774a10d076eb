"""Retry policy for SMB operations: bounded attempts, backoff, deadlines.

The SMB server is the one shared resource every worker funnels through
(paper Sec. III-A), so a transient transport fault must not take a worker
down — EASGD-family training is explicitly tolerant of asynchrony and
stragglers, and a re-issued exchange is just a slightly later exchange.
:class:`RetryPolicy` bounds that tolerance: how many attempts, how long to
back off between them (exponential with jitter, so a fleet of workers
hitting the same fault does not retry in lockstep), and how long any single
request may sit on the wire before the transport declares it lost.

The policy is *data*; the retry loop lives in
:class:`~repro.smb.client.SMBClient` and the per-request deadlines in
:func:`~repro.smb.transport.TcpTransport`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How an :class:`~repro.smb.client.SMBClient` handles transient faults.

    Attributes:
        max_attempts: Total tries per operation, first attempt included.
            ``1`` disables retries entirely.
        base_backoff: Sleep after the first failed attempt, seconds.
        backoff_factor: Multiplier applied per further attempt
            (exponential backoff).
        max_backoff: Ceiling on any single sleep, seconds.
        jitter: Fraction of each sleep that is randomised (``0.5`` means
            the actual sleep is uniform in ``[0.5*b, b]``), de-correlating
            the retry storms of many workers.
        request_timeout: Per-request wire deadline, seconds.  A response
            not received within this window counts as a transient
            connection failure (and is then subject to retry).
        connect_timeout: Deadline for establishing (or re-establishing)
            a TCP connection, seconds.
        seed: Seed for the jitter RNG; ``None`` draws from the global
            entropy pool.  Chaos tests pin this for reproducibility.
    """

    max_attempts: int = 4
    base_backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.5
    request_timeout: float = 30.0
    connect_timeout: float = 10.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def make_rng(self) -> random.Random:
        """A jitter RNG honouring :attr:`seed`."""
        return random.Random(self.seed)

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (1 = first retry)."""
        if attempt < 1:
            return 0.0
        base = min(
            self.base_backoff * self.backoff_factor ** (attempt - 1),
            self.max_backoff,
        )
        if self.jitter == 0.0:
            return base
        return base * (1.0 - self.jitter * rng.random())


#: Default policy for production-ish runs: 4 attempts, ~0.05/0.1/0.2 s
#: backoff, 30 s wire deadline.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Fail-fast policy: one attempt, no backoff.  The pre-fault-tolerance
#: behaviour, still useful for tests that assert on first failure.
NO_RETRY = RetryPolicy(max_attempts=1)
