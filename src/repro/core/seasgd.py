"""SEASGD update rules: the arithmetic heart of ShmCaffe.

Pure functions implementing eqs. (2)-(7) of the paper, factored out of the
worker so they can be tested and reasoned about in isolation.

EASGD background (eqs. (2)-(4)): after a local SGD step
``W'_x = W_x - eta * G_x``, the classic elastic-averaging exchange is

    W''_x = W'_x - alpha * (W'_x - W_g)        (worker side)
    W'_g  = W_g  + alpha * (W'_x - W_g)        (parameter-server side)

ShmCaffe recasts this for a server that can only *accumulate* (eqs.
(5)-(7)): the worker computes the increment ``dW_x = alpha * (W'_x - W_g)``
once, applies ``W''_x = W'_x - dW_x`` locally, and asks the server for
``W_g += dW_x`` (the paper writes ``dW_x`` to a private SMB segment first;
here it rides in the accumulate request).  The elastic symmetry of EASGD
is preserved exactly, with zero server-side logic beyond vector addition.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def weight_increment(
    local_weights: np.ndarray,
    global_weights: np.ndarray,
    moving_rate: float,
) -> np.ndarray:
    """Eq. (5): ``dW_x = alpha * (W'_x - W_g)``."""
    if local_weights.shape != global_weights.shape:
        raise ValueError(
            f"weight shape mismatch: {local_weights.shape} vs "
            f"{global_weights.shape}"
        )
    return (moving_rate * (local_weights - global_weights)).astype(np.float32)


def apply_increment_local(
    local_weights: np.ndarray, increment: np.ndarray
) -> np.ndarray:
    """Eq. (6): ``W''_x = W'_x - dW_x`` (pulls the replica toward W_g)."""
    return (local_weights - increment).astype(np.float32)


def elastic_pull_(
    local_weights: np.ndarray,
    global_weights: np.ndarray,
    moving_rate: float,
    out: np.ndarray,
) -> np.ndarray:
    """Eqs. (5)-(6) in place, in three sweeps and no allocation.

    Leaves ``dW_x = alpha * (W'_x - W_g)`` in ``out`` (and returns it) and
    pulls ``local_weights`` to ``W'_x - dW_x``.  Bit-identical to
    :func:`weight_increment` followed by :func:`apply_increment_local`,
    which stay as the allocating reference the tests check this against;
    the training stack calls only this.
    """
    np.subtract(local_weights, global_weights, out=out)
    np.multiply(moving_rate, out, out=out)
    np.subtract(local_weights, out, out=local_weights)
    return out


def apply_increment_global(
    global_weights: np.ndarray, increment: np.ndarray
) -> np.ndarray:
    """Eq. (7): ``W'_g = W_g + dW_x`` — what the SMB server's accumulate
    performs remotely; provided here for tests and reference."""
    return (global_weights + increment).astype(np.float32)


def seasgd_exchange(
    local_weights: np.ndarray,
    global_weights: np.ndarray,
    moving_rate: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One full elastic exchange, all in local arithmetic.

    Returns ``(new_local, new_global, increment)``.  The distributed code
    path splits this across worker and SMB server; tests assert both paths
    agree bit-for-bit.
    """
    increment = weight_increment(local_weights, global_weights, moving_rate)
    return (
        apply_increment_local(local_weights, increment),
        apply_increment_global(global_weights, increment),
        increment,
    )


def easgd_worker_update(
    local_weights: np.ndarray,
    global_weights: np.ndarray,
    moving_rate: float,
) -> np.ndarray:
    """Eq. (3): the classic EASGD worker update ``W'' = W' - a(W' - W_g)``."""
    return (
        local_weights - moving_rate * (local_weights - global_weights)
    ).astype(np.float32)


def easgd_server_update(
    local_weights: np.ndarray,
    global_weights: np.ndarray,
    moving_rate: float,
) -> np.ndarray:
    """Eq. (4): the classic EASGD server update ``W_g + a(W' - W_g)``."""
    return (
        global_weights + moving_rate * (local_weights - global_weights)
    ).astype(np.float32)
