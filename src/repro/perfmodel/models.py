"""CNN model profiles: the reproduction's Table IV.

``param_mb`` and ``compute_ms`` are the *measured hardware profile* of the
paper's testbed (parameter size of the Caffe model, forward+backward time
for a 60-image minibatch on one Titan X Pascal).  They are inputs to the
performance model, not outputs of ours; our own model builders cross-check
``param_mb`` against :func:`repro.caffe.netspec.infer` in
``tests/test_models.py``.

Values are reconstructed from the paper's text: Inception-ResNet-v2's
214 MB comes from "the communication volume ... reaches 6848MB
(214MB x 2 x 16)"; VGG16's compute from "the time for the 2 iterations
with 1 GPU, 389.8ms"; ResNet-50 "has about twice as many parameters as
Inception_v1".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class ModelProfile:
    """Size and single-GPU speed of one CNN under the paper's setup."""

    name: str
    #: Parameter payload exchanged per sharing operation, in MB (decimal).
    param_mb: float
    #: Forward+backward+local-update time for one 60-image minibatch (ms).
    compute_ms: float
    #: Training crop size used by the paper for this model.
    image_size: int = 224
    #: Per-worker minibatch.
    minibatch: int = 60

    @property
    def param_bytes(self) -> int:
        """Parameter payload in bytes."""
        return int(self.param_mb * 1e6)


#: Table IV of the reproduction.
PAPER_MODELS: Dict[str, ModelProfile] = {
    "inception_v1": ModelProfile(
        name="inception_v1", param_mb=53.5, compute_ms=257.0,
    ),
    "resnet_50": ModelProfile(
        name="resnet_50", param_mb=102.3, compute_ms=225.0,
    ),
    "inception_resnet_v2": ModelProfile(
        name="inception_resnet_v2", param_mb=214.0, compute_ms=443.0,
        image_size=320,
    ),
    "vgg16": ModelProfile(
        name="vgg16", param_mb=553.4, compute_ms=194.9,
    ),
}

#: ILSVRC-2012 training-set size (paper Sec. IV-C).
IMAGENET_TRAIN_IMAGES = 1_281_167


def model_profile(name: str) -> ModelProfile:
    """Look up a profile by the table name used throughout the paper."""
    try:
        return PAPER_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; expected one of {sorted(PAPER_MODELS)}"
        ) from None


def iterations_for_epochs(
    epochs: int, num_workers: int, minibatch: int = 60
) -> int:
    """Per-worker iterations to consume ``epochs`` passes of ImageNet."""
    if epochs < 1 or num_workers < 1 or minibatch < 1:
        raise ValueError("epochs, num_workers, minibatch must be >= 1")
    return int(round(epochs * IMAGENET_TRAIN_IMAGES / (minibatch * num_workers)))
