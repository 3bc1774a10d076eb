"""The multi-SMB-server layout (the paper's future work), as modelled.

Striping ``W_g`` over K servers is the conclusion's plan, not the
evaluated system, and nothing here builds it: the claim lives in
:func:`repro.perfmodel.shmcaffe_multi_server`, which divides the
exchange's wire time by the server count and leaves the local update
alone.
"""

import pytest

from repro.perfmodel import model_profile, shmcaffe_a, shmcaffe_multi_server


class TestMultiServerModel:
    def test_comm_divided_by_server_count(self):
        model = model_profile("vgg16")
        one = shmcaffe_multi_server(model, 16, 1)
        four = shmcaffe_multi_server(model, 16, 4)
        assert four.comm_ms < one.comm_ms / 2

    def test_single_server_matches_shmcaffe_a(self):
        model = model_profile("resnet_50")
        multi = shmcaffe_multi_server(model, 8, 1)
        single = shmcaffe_a(model, 8)
        assert multi.comm_ms == pytest.approx(single.comm_ms)

    def test_local_update_not_striped(self):
        model = model_profile("resnet_50")
        four = shmcaffe_multi_server(model, 8, 4)
        single = shmcaffe_a(model, 8)
        assert four.components["t_ulw"] == pytest.approx(
            single.components["t_ulw"]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            shmcaffe_multi_server(model_profile("vgg16"), 8, 0)
