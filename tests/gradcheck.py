"""Numerical gradient checking shared by the layer test modules."""

import numpy as np

from repro.caffe.net import Net


def check_net_gradients(
    spec,
    inputs,
    eps: float = 1e-3,
    tol: float = 5e-3,
    samples_per_param: int = 4,
    check_inputs: bool = False,
    seed: int = 0,
):
    """Compare analytic parameter gradients against central differences.

    Gradients are checked on randomly sampled entries of every parameter
    blob (checking all entries of a conv layer is needlessly slow).  The
    relative error of each sampled entry must stay under ``tol``.
    """
    net = Net(spec, seed=0)
    net.forward(inputs, train=True)
    net.backward()
    analytic = {
        id(blob): blob.diff.copy() for blob in net.params
    }
    rng = np.random.default_rng(seed)

    worst = 0.0
    for blob in net.params:
        flat = blob.data.ravel()
        grad = analytic[id(blob)].ravel()
        count = min(samples_per_param, blob.count)
        for index in rng.choice(blob.count, size=count, replace=False):
            original = flat[index]
            flat[index] = original + eps
            loss_plus = net.total_loss(net.forward(inputs, train=True))
            flat[index] = original - eps
            loss_minus = net.total_loss(net.forward(inputs, train=True))
            flat[index] = original
            numeric = (loss_plus - loss_minus) / (2 * eps)
            scale = max(1.0, abs(numeric), abs(grad[index]))
            error = abs(numeric - grad[index]) / scale
            worst = max(worst, error)
            assert error < tol, (
                f"param {blob.name}[{index}]: analytic {grad[index]:.6f} "
                f"vs numeric {numeric:.6f} (err {error:.2e})"
            )
    return worst
