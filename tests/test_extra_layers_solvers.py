"""Tests for the extended layer zoo (Scale/Softmax/Power) and the extra
solver family (Nesterov/AdaGrad/Adam), plus the Downpour (ASGD) comparator."""

import numpy as np
import pytest

from repro.caffe import (
    AdaGradSolver,
    AdamSolver,
    NesterovSolver,
    Net,
    SGDSolver,
    SolverConfig,
    SyntheticImageDataset,
)
from repro.caffe.layers import LayerError, Power, Scale, Softmax
from repro.caffe.netspec import NetSpec, infer
from repro.caffe.params import FlatParams
from repro.core import ShmCaffeConfig
from repro.platforms import shmcaffe
from repro.smb import SMBClient, SMBServer

from .gradcheck import check_net_gradients
from .helpers import build_engine
from .test_net_solver import make_inputs
from .test_netspec import small_spec

RNG = np.random.default_rng(5)


def setup_layer(layer, *bottom_shapes):
    return layer.setup(list(bottom_shapes), np.random.default_rng(0))


class TestScale:
    def test_defaults_to_identity(self):
        scale = Scale("s")
        setup_layer(scale, (2, 3, 4, 4))
        x = RNG.standard_normal((2, 3, 4, 4)).astype(np.float32)
        (out,) = scale.forward([x], train=True)
        np.testing.assert_allclose(out, x)

    def test_per_channel_affine(self):
        scale = Scale("s")
        setup_layer(scale, (1, 2, 2, 2))
        scale.params[0].data[:] = [2.0, 3.0]
        scale.params[1].data[:] = [1.0, -1.0]
        x = np.ones((1, 2, 2, 2), dtype=np.float32)
        (out,) = scale.forward([x], train=True)
        np.testing.assert_allclose(out[0, 0], 3.0)
        np.testing.assert_allclose(out[0, 1], 2.0)

    def test_gradients(self):
        spec = NetSpec()
        spec.input("data", (3, 3, 6, 6))
        spec.input("label", (3,))
        top = spec.conv("c", "data", 4, kernel=1)
        top = spec.add("Scale", "sc", [top])[0]
        top = spec.pool("gp", top, method="ave", global_pool=True)
        logits = spec.fc("fc", top, 3)
        spec.softmax_loss("loss", logits, "label")
        inputs = {
            "data": RNG.standard_normal((3, 3, 6, 6)).astype(np.float32),
            "label": RNG.integers(0, 3, 3),
        }
        check_net_gradients(spec, inputs)

    def test_infer_counts_scale_params(self):
        spec = NetSpec()
        spec.input("data", (1, 5, 2, 2))
        spec.add("Scale", "s", ["data"])
        assert infer(spec).param_count == 10  # gamma + beta

    def test_vector_input_rejected(self):
        with pytest.raises(LayerError):
            setup_layer(Scale("s"), (4,))


class TestSoftmaxLayer:
    def test_rows_are_distributions(self):
        layer = Softmax("sm")
        setup_layer(layer, (3, 5))
        logits = RNG.standard_normal((3, 5)).astype(np.float32)
        (out,) = layer.forward([logits], train=False)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-5)

    def test_gradient_matches_jacobian(self):
        layer = Softmax("sm")
        setup_layer(layer, (1, 4))
        logits = RNG.standard_normal((1, 4)).astype(np.float32)
        (top,) = layer.forward([logits], train=True)
        top_diff = RNG.standard_normal((1, 4)).astype(np.float32)
        (analytic,) = layer.backward([top_diff], [logits], [top])
        eps = 1e-3
        for index in range(4):
            bumped = logits.copy()
            bumped[0, index] += eps
            (plus,) = layer.forward([bumped], train=True)
            bumped[0, index] -= 2 * eps
            (minus,) = layer.forward([bumped], train=True)
            numeric = ((plus - minus) / (2 * eps) * top_diff).sum()
            assert analytic[0, index] == pytest.approx(numeric, abs=2e-3)


class TestPower:
    def test_linear_case(self):
        layer = Power("p", power=1.0, scale=2.0, shift=1.0)
        setup_layer(layer, (1, 3))
        x = np.asarray([[0.0, 1.0, 2.0]], dtype=np.float32)
        (out,) = layer.forward([x], train=True)
        np.testing.assert_allclose(out, [[1.0, 3.0, 5.0]])

    def test_square(self):
        layer = Power("p", power=2.0)
        setup_layer(layer, (1, 2))
        x = np.asarray([[3.0, -2.0]], dtype=np.float32)
        (out,) = layer.forward([x], train=True)
        np.testing.assert_allclose(out, [[9.0, 4.0]])
        (grad,) = layer.backward(
            [np.ones((1, 2), dtype=np.float32)], [x], [out]
        )
        np.testing.assert_allclose(grad, [[6.0, -4.0]])


class TestExtraSolvers:
    def test_nesterov_converges_faster_or_equal(self):
        losses = {}
        for cls in (SGDSolver, NesterovSolver):
            solver = cls(
                Net(small_spec(), seed=0),
                SolverConfig(base_lr=0.05, momentum=0.9),
            )
            inputs = make_inputs()
            for _ in range(25):
                stats = solver.step(inputs)
            losses[cls.__name__] = stats["loss"]
        assert losses["NesterovSolver"] < losses["SGDSolver"] + 0.2

    def test_nesterov_first_step_differs_from_sgd(self):
        nets = {}
        for cls in (SGDSolver, NesterovSolver):
            net = Net(small_spec(), seed=0)
            solver = cls(net, SolverConfig(base_lr=0.1, momentum=0.9))
            solver.step(make_inputs())
            solver.step(make_inputs(seed=1))
            nets[cls.__name__] = net.params[0].data.copy()
        assert not np.allclose(
            nets["SGDSolver"], nets["NesterovSolver"]
        )

    def test_adagrad_requires_zero_momentum(self):
        with pytest.raises(ValueError):
            AdaGradSolver(
                Net(small_spec(), seed=0),
                SolverConfig(momentum=0.9),
            )

    def test_adagrad_reduces_loss(self):
        solver = AdaGradSolver(
            Net(small_spec(), seed=0),
            SolverConfig(base_lr=0.05, momentum=0.0),
        )
        inputs = make_inputs()
        first = solver.step(inputs)["loss"]
        for _ in range(30):
            last = solver.step(inputs)["loss"]
        assert last < first

    def test_adagrad_step_sizes_shrink(self):
        solver = AdaGradSolver(
            Net(small_spec(), seed=0),
            SolverConfig(base_lr=0.1, momentum=0.0),
        )
        inputs = make_inputs()
        deltas = []
        weight = solver.net.params[0]
        for _ in range(3):
            before = weight.data.copy()
            solver.step(inputs)
            deltas.append(np.abs(weight.data - before).mean())
        assert deltas[2] < deltas[0]

    def test_adam_reduces_loss(self):
        solver = AdamSolver(
            Net(small_spec(), seed=0),
            SolverConfig(base_lr=0.005, momentum=0.9),
        )
        inputs = make_inputs()
        first = solver.step(inputs)["loss"]
        for _ in range(30):
            last = solver.step(inputs)["loss"]
        assert last < first

    def test_adam_beta2_validation(self):
        with pytest.raises(ValueError):
            AdamSolver(Net(small_spec(), seed=0), beta2=1.0)

    def test_lr0_params_untouched_by_adaptive_solvers(self):
        for cls, config in (
            (AdaGradSolver, SolverConfig(base_lr=0.1, momentum=0.0)),
            (AdamSolver, SolverConfig(base_lr=0.01, momentum=0.9)),
        ):
            net = Net(small_spec(), seed=0)
            solver = cls(net, config)
            stats_blobs = [
                blob for blob, lr_mult, _ in net.param_entries
                if lr_mult == 0.0
            ]
            assert stats_blobs  # BN running stats exist in small_spec
            # Solver must not touch them even with fake gradients present.
            for blob in stats_blobs:
                blob.diff[:] = 1.0
            before = [blob.data.copy() for blob in stats_blobs]
            solver.apply_update()
            for blob, prior in zip(stats_blobs, before):
                np.testing.assert_array_equal(blob.data, prior)


def bn_free_spec(batch=4, channels=3, size=8, classes=4):
    """Gradient pushes cannot carry BN statistics (see
    ``SMBAsgdExchange``); test the Downpour comparator on a BN-free net."""
    spec = NetSpec("bn_free")
    data = spec.input("data", (batch, channels, size, size))
    labels = spec.input("label", (batch,))
    top = spec.conv_relu("conv1", data, 8, kernel=3, pad=1)
    top = spec.pool("pool1", top, method="max", kernel=2, stride=2)
    top = spec.conv_relu("conv2", top, 8, kernel=3, pad=1)
    top = spec.pool("gp", top, method="ave", global_pool=True)
    logits = spec.fc("fc", top, classes)
    spec.softmax_loss("loss", logits, labels)
    spec.accuracy("acc", logits, labels)
    return spec


class TestAsgdBaseline:
    """Downpour, the related-work comparator: ``algorithm="smb_asgd"``.

    The head-to-head convergence claim (elastic averaging does not lose
    to plain ASGD) is a threaded race; it is asserted at scale in
    ``benchmarks/test_ablation_seasgd_vs_asgd.py``, not here.
    """

    @pytest.fixture()
    def dataset(self):
        return SyntheticImageDataset(
            num_classes=4, image_size=8, train_per_class=40,
            test_per_class=8, noise=0.7, seed=6,
        )

    def test_server_applies_updates_on_arrival(self, dataset):
        """One worker, no overlap, two steps: ``W_g = W_0 - sum(lr * g)``
        exactly, and a fetch makes the replica equal ``W_g``."""
        net = Net(bn_free_spec(batch=4), seed=3)
        flat = FlatParams(net)
        client = SMBClient.in_process(SMBServer(capacity=1 << 22))
        global_w = client.create_array("W_g", flat.count)
        global_w.write(flat.get_vector())
        engine = build_engine(
            rank=0, net=net,
            config=ShmCaffeConfig(
                solver=SolverConfig(base_lr=0.05, momentum=0.9),
                overlap_updates=False, algorithm="smb_asgd",
            ),
            global_weights=global_w,
            batches=dataset.minibatches(4, seed=1),
        )
        expected = flat.get_vector()
        for iteration in range(2):
            engine.strategy.exchange(iteration)
            np.testing.assert_array_equal(flat.get_vector(), expected)
            stats = engine.strategy.train_step()
            expected += np.multiply(-stats["lr"], flat.get_grad_vector())
            np.testing.assert_array_equal(global_w.read(), expected)
            # The replica stepped on its own (momentum): it is not W_g
            # again until the next fetch.
            assert not np.array_equal(flat.get_vector(), expected)
        engine.strategy.close()

    def test_training_learns(self, dataset):
        result = shmcaffe.train(
            lambda: bn_free_spec(batch=4), dataset,
            SolverConfig(base_lr=0.02, momentum=0.9),
            batch_size=4, iterations=80, num_workers=2,
            algorithm="smb_asgd",
        )
        assert result.platform == "smb_asgd"
        assert result.final_accuracy > 0.4

    def test_fetch_interval_validation(self, dataset):
        with pytest.raises(ValueError):
            shmcaffe.train(
                lambda: small_spec(batch=4), dataset, SolverConfig(),
                batch_size=4, iterations=2, num_workers=2,
                algorithm="smb_asgd", update_interval=0,
            )
