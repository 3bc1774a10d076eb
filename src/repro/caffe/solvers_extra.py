"""The rest of Caffe 1.0's solver family: Nesterov, AdaGrad, Adam.

The paper trains exclusively with Caffe's momentum SGD (which SEASGD
wraps), but BVLC Caffe ships these too and the substrate should let a
downstream user swap them in.  Update rules follow Caffe's
``solvers/*.cpp`` exactly:

* Nesterov: ``V' = mu V + lr g``; ``W -= (1 + mu) V' - mu V``
* AdaGrad:  ``H += g^2``; ``W -= lr g / (sqrt(H) + eps)``
* Adam:     bias-corrected first/second moments, as in the paper/Caffe.

All respect per-parameter ``lr_mult`` / ``decay_mult`` (so BatchNorm
statistics with ``lr_mult=0`` stay untouched) and plug into every
distributed platform through the same :class:`SGDSolver` interface.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .net import Net
from .solver import SGDSolver, SolverConfig

#: Numerical floor for the adaptive denominators (Caffe's delta).
ADAPTIVE_EPS = 1e-8


class NesterovSolver(SGDSolver):
    """Nesterov accelerated gradient (Caffe's ``type: "Nesterov"``)."""

    def apply_update(self, lr: Optional[float] = None) -> None:
        if lr is None:
            lr = self.learning_rate
        mu = self.config.momentum
        for (blob, lr_mult, decay_mult), window in zip(
            self.net.param_entries, self.net.param_slices
        ):
            grad = self._decayed_grad(window, decay_mult)
            history = self._history[window]
            previous = history.copy()
            history *= mu
            history += lr * lr_mult * grad
            step = (1.0 + mu) * history - mu * previous
            blob.data -= step.reshape(blob.shape)


class AdaGradSolver(SGDSolver):
    """AdaGrad (Caffe's ``type: "AdaGrad"``); momentum must be 0."""

    def __init__(self, net: Net, config: Optional[SolverConfig] = None) -> None:
        super().__init__(net, config)
        if self.config.momentum != 0.0:
            raise ValueError("AdaGrad does not use momentum; set it to 0")
        # _history doubles as the accumulated squared-gradient buffer.

    def apply_update(self, lr: Optional[float] = None) -> None:
        if lr is None:
            lr = self.learning_rate
        for (blob, lr_mult, decay_mult), window in zip(
            self.net.param_entries, self.net.param_slices
        ):
            if lr_mult == 0.0:
                continue
            grad = self._decayed_grad(window, decay_mult)
            accum = self._history[window]
            accum += grad * grad
            step = lr * lr_mult * grad / (np.sqrt(accum) + ADAPTIVE_EPS)
            blob.data -= step.reshape(blob.shape)


class AdamSolver(SGDSolver):
    """Adam (Caffe's ``type: "Adam"``).

    ``config.momentum`` plays beta1; ``beta2`` is a constructor argument
    (Caffe's ``momentum2``, default 0.999).
    """

    def __init__(
        self,
        net: Net,
        config: Optional[SolverConfig] = None,
        beta2: float = 0.999,
    ) -> None:
        super().__init__(net, config)
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0,1), got {beta2}")
        self.beta2 = beta2
        self._second_moment = np.zeros_like(self._history)

    def apply_update(self, lr: Optional[float] = None) -> None:
        if lr is None:
            lr = self.learning_rate
        beta1 = self.config.momentum
        step_number = self.iteration + 1
        correction = (
            np.sqrt(1.0 - self.beta2 ** step_number)
            / (1.0 - beta1 ** step_number)
        )
        for (blob, lr_mult, decay_mult), window in zip(
            self.net.param_entries, self.net.param_slices
        ):
            if lr_mult == 0.0:
                continue
            grad = self._decayed_grad(window, decay_mult)
            first = self._history[window]
            second = self._second_moment[window]
            first *= beta1
            first += (1.0 - beta1) * grad
            second *= self.beta2
            second += (1.0 - self.beta2) * grad * grad
            step = (
                lr * lr_mult * correction * first
                / (np.sqrt(second) + ADAPTIVE_EPS)
            )
            blob.data -= step.reshape(blob.shape)
