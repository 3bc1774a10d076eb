"""Heavy integration: the full-size model graphs actually run.

Shape inference proves the graphs are well-formed; these tests prove they
*execute* — forward produces a finite loss and backward fills every
learnable gradient — at reduced resolution so the suite stays fast
(VGG16's fully-connected head is built for whatever resolution the spec
is given, so parameter counts differ from the 224px canonical ones here;
that is checked elsewhere).
"""

import numpy as np
import pytest

from repro.caffe import Net, models

#: (model, reduced image size) pairs chosen so every stage stays legal.
CONFIGS = [
    ("inception_v1", 112),
    ("resnet_50", 96),
    ("inception_resnet_v2", 128),
    ("vgg16", 64),
]


@pytest.mark.parametrize("name,image", CONFIGS)
def test_full_graph_forward_backward(name, image):
    spec = models.full_spec(name, batch_size=1, image_size=image)
    net = Net(spec, seed=0)
    rng = np.random.default_rng(0)
    inputs = {
        "data": rng.standard_normal((1, 3, image, image)).astype(
            np.float32
        ),
        "label": np.asarray([3]),
    }
    outputs = net.forward(inputs, train=True)
    loss = net.total_loss(outputs)
    assert np.isfinite(loss)
    # With 1000 random classes, the head should start near log(1000) —
    # Inception-v1 carries two extra aux losses at weight 0.3 each.
    expected = np.log(1000) * (1.6 if name == "inception_v1" else 1.0)
    assert loss == pytest.approx(expected, rel=0.75)

    net.backward()
    learnable = [
        blob
        for blob, lr_mult, _ in net.param_entries
        if lr_mult > 0.0
    ]
    with_gradient = sum(
        1 for blob in learnable if np.abs(blob.diff).sum() > 0
    )
    # Every learnable tensor must receive some gradient signal.
    assert with_gradient == len(learnable)


def test_inception_v1_aux_heads_receive_gradients():
    spec = models.full_spec("inception_v1", batch_size=1, image_size=112)
    net = Net(spec, seed=0)
    rng = np.random.default_rng(1)
    net.forward(
        {
            "data": rng.standard_normal((1, 3, 112, 112)).astype(
                np.float32
            ),
            "label": np.asarray([0]),
        },
        train=True,
    )
    net.backward()
    aux_params = [
        blob for blob in net.params if blob.name.startswith("loss1")
    ]
    assert aux_params
    assert all(np.abs(blob.diff).sum() > 0 for blob in aux_params)
