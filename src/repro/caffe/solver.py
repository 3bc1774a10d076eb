"""The SGD solver with Caffe's learning-rate policies and momentum rule.

Caffe's SGD update (``solvers/sgd_solver.cpp``) is

    V_{t+1} = mu * V_t + lr * lr_mult * (dW + wd * decay_mult * W)
    W_{t+1} = W_t - V_{t+1}

The paper's experiments use ``base_lr = 0.1``, ``gamma = 0.1``,
``momentum = 0.9`` with the ``step`` policy stepping every 4 epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .net import Net

#: Learning-rate policies implemented (names follow Caffe's solver.prototxt).
LR_POLICIES = ("fixed", "step", "multistep", "poly", "inv", "exp")


@dataclass
class SolverConfig:
    """Hyper-parameters of one solver (a solver.prototxt equivalent)."""

    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_policy: str = "fixed"
    gamma: float = 0.1
    stepsize: int = 1000
    stepvalues: Sequence[int] = field(default_factory=tuple)
    power: float = 1.0
    max_iter: int = 10000
    #: Caffe's ``clip_gradients``: if positive, scale the whole gradient
    #: so its global L2 norm never exceeds this value.
    clip_gradients: float = 0.0

    def __post_init__(self) -> None:
        if self.lr_policy not in LR_POLICIES:
            raise ValueError(
                f"unknown lr_policy {self.lr_policy!r}; "
                f"expected one of {LR_POLICIES}"
            )
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(
                f"momentum must be in [0,1), got {self.momentum}"
            )
        if self.max_iter <= 0:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")

    def learning_rate(self, iteration: int) -> float:
        """Caffe's ``GetLearningRate`` for the configured policy."""
        if self.lr_policy == "fixed":
            return self.base_lr
        if self.lr_policy == "step":
            return self.base_lr * self.gamma ** (iteration // self.stepsize)
        if self.lr_policy == "multistep":
            passed = sum(1 for s in self.stepvalues if iteration >= s)
            return self.base_lr * self.gamma ** passed
        if self.lr_policy == "poly":
            frac = min(iteration / self.max_iter, 1.0)
            return self.base_lr * (1.0 - frac) ** self.power
        if self.lr_policy == "inv":
            return self.base_lr * (1.0 + self.gamma * iteration) ** (
                -self.power
            )
        # exp
        return self.base_lr * self.gamma ** iteration


class SGDSolver:
    """Momentum SGD over one net replica.

    The solver owns the iteration counter and the momentum history; the
    distributed platforms call :meth:`step` for compute+local-update and
    layer their parameter-sharing logic around it.
    """

    def __init__(self, net: Net, config: Optional[SolverConfig] = None) -> None:
        self.net = net
        self.config = config if config is not None else SolverConfig()
        self.iteration = 0
        # One momentum arena laid out like the net's parameter arenas
        # (blob ``i`` at ``net.param_slices[i]``), and one same-sized
        # scratch every model-sized intermediate of an update goes through.
        self._history = np.zeros_like(net.param_data)
        self._scratch = np.empty_like(net.param_data)

    @property
    def learning_rate(self) -> float:
        """Learning rate the *next* step will use."""
        return self.config.learning_rate(self.iteration)

    def step(self, inputs: Dict[str, np.ndarray]) -> Dict[str, float]:
        """One training iteration: forward, backward, update.

        Returns a dict with ``loss``, every metric blob, and ``lr``.
        """
        result = self.compute_gradients(inputs)
        lr = self.learning_rate
        self.apply_update(lr)
        self.advance_iteration()
        result["lr"] = lr
        return result

    def compute_gradients(
        self, inputs: Dict[str, np.ndarray]
    ) -> Dict[str, float]:
        """Forward+backward only (synchronous platforms aggregate first)."""
        outputs = self.net.forward(inputs, train=True)
        self.net.backward()
        result = {"loss": self.net.total_loss(outputs)}
        for name in self.net.metric_names:
            result[name] = float(outputs[name].ravel()[0])
        return result

    @property
    def history(self) -> List[np.ndarray]:
        """Per-blob views of the momentum arena (the snapshot's slots)."""
        return [self._history[window] for window in self.net.param_slices]

    def clip_stored_gradients(self) -> float:
        """Caffe's ClipGradients: rescale diffs to the configured L2 cap.

        Returns the pre-clip global gradient norm (for monitoring).
        """
        threshold = self.config.clip_gradients
        grad = self.net.param_diff
        norm = float(np.sqrt(np.dot(grad, grad)))
        if threshold > 0.0 and norm > threshold:
            grad *= threshold / norm
        return norm

    def _decayed_grad(self, window: slice, decay_mult: float) -> np.ndarray:
        """One blob's gradient plus its L2 term ``wd * decay_mult * W``.

        Returns the live gradient window when no decay applies, else that
        blob's window of the scratch arena.
        """
        grad = self.net.param_diff[window]
        wd = self.config.weight_decay
        if wd == 0.0 or decay_mult == 0.0:
            return grad
        decayed = self._scratch[window]
        np.multiply(wd * decay_mult, self.net.param_data[window], out=decayed)
        return np.add(grad, decayed, out=decayed)

    def apply_update(self, lr: Optional[float] = None) -> None:
        """Apply the momentum update from the currently stored diffs."""
        if self.config.clip_gradients > 0.0:
            self.clip_stored_gradients()
        if lr is None:
            lr = self.learning_rate
        # Per blob (the multipliers differ): scratch = lr * lr_mult * grad.
        for (_, lr_mult, decay_mult), window in zip(
            self.net.param_entries, self.net.param_slices
        ):
            np.multiply(
                lr * lr_mult,
                self._decayed_grad(window, decay_mult),
                out=self._scratch[window],
            )
        # Then three sweeps of the whole arena: V = mu V + scratch; W -= V.
        history = self._history
        history *= self.config.momentum
        history += self._scratch
        np.subtract(self.net.param_data, history, out=self.net.param_data)

    def advance_iteration(self) -> None:
        """Bump the LR clock without running a step (sync platforms)."""
        self.iteration += 1
