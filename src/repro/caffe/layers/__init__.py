"""Layer zoo for the NumPy Caffe substrate.

Importing this package populates :data:`LAYER_REGISTRY`, which
:mod:`repro.caffe.netspec` uses to instantiate layers from specs.
"""

from .activation import ReLU, Sigmoid, TanH
from .base import (
    LAYER_REGISTRY,
    Layer,
    LayerError,
    conv_output_dim,
    pool_output_dim,
    register_layer,
)
from .common import Concat, Dropout, Eltwise, Flatten, Input, Split
from .conv import Convolution, InnerProduct
from .im2col import im2col
from .loss import Accuracy, SoftmaxWithLoss, softmax
from .misc import Power, Scale, Softmax
from .normalization import LRN, BatchNorm
from .pooling import Pooling

__all__ = [
    "Accuracy",
    "BatchNorm",
    "Concat",
    "Convolution",
    "Dropout",
    "Eltwise",
    "Flatten",
    "InnerProduct",
    "Input",
    "LAYER_REGISTRY",
    "Layer",
    "LayerError",
    "LRN",
    "Pooling",
    "Power",
    "ReLU",
    "Scale",
    "Softmax",
    "Sigmoid",
    "SoftmaxWithLoss",
    "Split",
    "TanH",
    "conv_output_dim",
    "im2col",
    "pool_output_dim",
    "register_layer",
    "softmax",
]
