"""Table IV bench: model parameter sizes and compute-time profiles.

Every size comes from the allocation-free shape inference over the
full-size graphs, so a 138 M-parameter VGG16 is sized without building it.
"""

import pytest

from repro.caffe import models
from repro.caffe.netspec import infer
from repro.experiments import table04_models


def test_table4_model_profiles(record):
    result = table04_models.run()
    record("table04_models", result)

    for row in result.rows:
        assert abs(row["size_error_pct"]) < 12.0

    sizes = {row["model"]: row["built_param_mb"] for row in result.rows}
    # Orderings the paper relies on.
    assert sizes["inception_v1"] < sizes["resnet_50"]
    assert sizes["resnet_50"] < sizes["inception_resnet_v2"]
    assert sizes["inception_resnet_v2"] < sizes["vgg16"]


def test_table4_resnet_twice_inception():
    inception = infer(models.full_spec("inception_v1", batch_size=1))
    resnet = infer(models.full_spec("resnet_50", batch_size=1))
    assert resnet.param_count / inception.param_count == pytest.approx(
        2.0, rel=0.25
    )
