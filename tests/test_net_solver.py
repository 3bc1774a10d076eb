"""Tests for the Net engine, the SGD solver and flat parameter views."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.caffe import FlatParams, Net, SGDSolver, SolverConfig
from repro.caffe.layers import Convolution, InnerProduct, LayerError
from repro.caffe.models import scaled_spec
from repro.caffe.netspec import NetSpec

from .test_netspec import small_spec
from .test_pooling_kernels import assert_bit_identical


def make_inputs(batch=2, channels=3, size=8, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "data": rng.standard_normal((batch, channels, size, size)).astype(
            np.float32
        ),
        "label": rng.integers(0, classes, batch),
    }


class TestNet:
    def test_same_seed_same_weights(self):
        a = Net(small_spec(), seed=5)
        b = Net(small_spec(), seed=5)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        a = Net(small_spec(), seed=1)
        b = Net(small_spec(), seed=2)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.params, b.params)
        )

    def test_forward_returns_all_blobs(self):
        net = Net(small_spec(), seed=0)
        outputs = net.forward(make_inputs(), train=True)
        assert {"loss", "acc", "fc"} <= set(outputs)

    def test_missing_input_rejected(self):
        net = Net(small_spec(), seed=0)
        with pytest.raises(LayerError, match="missing input"):
            net.forward({"data": np.zeros((2, 3, 8, 8))}, train=True)

    def test_wrong_input_shape_rejected(self):
        net = Net(small_spec(), seed=0)
        inputs = make_inputs()
        inputs["data"] = inputs["data"][:, :, :4, :4]
        with pytest.raises(LayerError, match="shape"):
            net.forward(inputs, train=True)

    def test_batch_dimension_is_free(self):
        net = Net(small_spec(batch=2), seed=0)
        outputs = net.forward(make_inputs(batch=7), train=False)
        assert outputs["fc"].shape == (7, 4)

    def test_backward_before_forward_rejected(self):
        net = Net(small_spec(), seed=0)
        with pytest.raises(LayerError):
            net.backward()

    def test_backward_fills_param_diffs(self):
        net = Net(small_spec(), seed=0)
        net.forward(make_inputs(), train=True)
        net.backward()
        assert any(np.abs(p.diff).sum() > 0 for p in net.params)

    def test_copy_params_from(self):
        a = Net(small_spec(), seed=1)
        b = Net(small_spec(), seed=2)
        b.copy_params_from(a)
        for pa, pb in zip(a.params, b.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_total_loss_sums_loss_blobs(self):
        spec = NetSpec()
        data = spec.input("data", (2, 4))
        labels = spec.input("label", (2,))
        l1 = spec.fc("fc1", data, 3)
        l2 = spec.fc("fc2", data, 3)
        spec.softmax_loss("lossA", l1, labels)
        spec.softmax_loss("lossB", l2, labels, loss_weight=0.5)
        net = Net(spec, seed=0)
        outputs = net.forward(
            {"data": np.zeros((2, 4), dtype=np.float32),
             "label": np.asarray([0, 1])},
            train=True,
        )
        expected = float(outputs["lossA"][0] + outputs["lossB"][0])
        assert net.total_loss() == pytest.approx(expected)

    def test_blob_access(self):
        net = Net(small_spec(), seed=0)
        net.forward(make_inputs(), train=True)
        assert net.blob("fc").shape == (2, 4)
        with pytest.raises(LayerError):
            net.blob("ghost")


def conv_shaped_spec():
    """The benchmark's ``conv_spec()``: 13 convolutions, 9 of them 1x1."""
    return scaled_spec("inception_v1", batch_size=2, image_size=12)


def mlp_shaped_spec():
    """The benchmark's ``mlp_spec()`` with a narrower hidden layer."""
    spec = NetSpec("mlp")
    data = spec.input("data", (2, 3, 12, 12))
    labels = spec.input("label", (2,))
    hidden = spec.relu("relu1", spec.fc("fc1", data, 32))
    spec.softmax_loss("loss", spec.fc("fc2", hidden, 10), labels)
    return spec


def mixed_fan_in_spec(join):
    """An ``Input`` blob and a learnable branch meet in one ``join``."""
    spec = NetSpec("mixed")
    data = spec.input("data", (2, 3, 12, 12))
    labels = spec.input("label", (2,))
    pooled = spec.pool("pool0", data, method="ave", kernel=1, stride=1)
    branch = spec.conv("branch", pooled, 3, kernel=1)
    joined = spec.add(join, "join", [data, branch])[0]
    spec.softmax_loss("loss", spec.fc("fc", joined, 10), labels)
    return spec


def param_diffs(net, inputs):
    net.forward(inputs, train=True)
    net.backward()
    return net.param_diff.copy()


class TestPropagateDown:
    """``Net`` decides at build time which bottom gradients anyone reads."""

    INPUTS = make_inputs(size=12, classes=10)

    @pytest.mark.parametrize(
        "spec_factory",
        [conv_shaped_spec, mlp_shaped_spec,
         lambda: mixed_fan_in_spec("Eltwise"),
         lambda: mixed_fan_in_spec("Concat")],
        ids=["conv", "mlp", "eltwise", "concat"],
    )
    def test_param_diffs_equal_those_of_a_net_that_skips_nothing(
        self, spec_factory
    ):
        net = Net(spec_factory(), seed=3)
        assert any(False in layer.propagate_down for layer in net.layers)
        lean = param_diffs(net, self.INPUTS)
        assert np.abs(lean).sum() > 0
        for layer in net.layers:
            layer.propagate_down = [True] * len(layer.propagate_down)
        full = param_diffs(net, self.INPUTS)
        assert lean.tobytes() == full.tobytes()

    @pytest.mark.parametrize(
        "spec_factory", [conv_shaped_spec, mlp_shaped_spec], ids=["conv", "mlp"]
    )
    def test_only_input_bottoms_are_not_propagated_to(self, spec_factory):
        net = Net(spec_factory(), seed=0)
        for layer, layer_spec in zip(net.layers, net.spec.layers):
            assert layer.propagate_down == [
                name not in net.input_names for name in layer_spec.bottoms
            ], layer.name

    @pytest.mark.parametrize("join", ["Eltwise", "Concat"])
    def test_a_join_of_an_input_and_a_branch_propagates_to_the_branch(
        self, join
    ):
        net = Net(mixed_fan_in_spec(join), seed=0)
        by_name = {layer.name: layer for layer in net.layers}
        # Nothing learns below pool0's top, although it is no Input blob.
        assert by_name["pool0"].propagate_down == [False]
        assert by_name["branch"].propagate_down == [False]
        assert by_name["join"].propagate_down == [False, True]
        assert by_name["fc"].propagate_down == [True]
        param_diffs(net, self.INPUTS)
        assert np.abs(by_name["branch"].params[0].diff).sum() > 0

    @pytest.mark.parametrize(
        "make_layer",
        [lambda: Convolution("c", 4, kernel=1),
         lambda: Convolution("c", 4, kernel=3, pad=1),
         lambda: InnerProduct("ip", 4)],
        ids=["conv1x1", "conv3x3", "fc"],
    )
    def test_a_layer_driven_directly_returns_its_bottom_diff(
        self, make_layer
    ):
        layer, shape = make_layer(), (2, 3, 5, 5)
        rng = np.random.default_rng(0)
        (top_shape,) = layer.setup([shape], rng)
        bottom = rng.standard_normal(shape).astype(np.float32)
        (top,) = layer.forward([bottom], train=True)
        (bottom_diff,) = layer.backward([np.ones_like(top)], [bottom], [top])
        assert bottom_diff.shape == shape
        weight_diff = layer.params[0].diff.copy()

        # Told not to, it returns None and learns exactly the same.
        layer.propagate_down = [False]
        layer.params[0].diff[...] = 0.0
        (top,) = layer.forward([bottom], train=True)
        assert layer.backward([np.ones_like(top)], [bottom], [top]) == [None]
        np.testing.assert_array_equal(layer.params[0].diff, weight_diff)


def one_param_layer_spec(kind):
    """``kind`` between the input and a pooled InnerProduct head."""
    spec = NetSpec(kind)
    data = spec.input("data", (2, 3, 6, 6))
    labels = spec.input("label", (2,))
    if kind == "conv":
        top = spec.conv("layer", data, 4, kernel=3, stride=2, pad=1)
    elif kind == "conv1x1":
        top = spec.conv("layer", data, 4, kernel=1)
    elif kind == "scale":
        top = spec.add("Scale", "layer", [data], bias=True)[0]
    elif kind == "batchnorm":
        top = spec.add("BatchNorm", "layer", [data])[0]
    else:
        top = data
    top = spec.pool("gp", top, method="ave", global_pool=True)
    spec.softmax_loss("loss", spec.fc("fc", top, 4), labels)
    return spec


def dead_branch_spec():
    """``dead`` learns nothing: its top feeds only a metric."""
    spec = NetSpec("dead")
    data = spec.input("data", (2, 3, 4, 4))
    labels = spec.input("label", (2,))
    spec.softmax_loss("loss", spec.fc("live", data, 4), labels)
    spec.accuracy("acc", spec.fc("dead", data, 4), labels)
    return spec


class TestGradientWrite:
    """Backward writes each param gradient; nothing clears the diffs."""

    @pytest.mark.parametrize(
        "kind", ["fc", "conv", "conv1x1", "scale", "batchnorm"]
    )
    def test_two_backwards_equal_one(self, kind):
        net = Net(one_param_layer_spec(kind), seed=0)
        inputs = make_inputs(size=6)
        net.forward(inputs, train=True)
        net.backward()
        once = net.param_diff.copy()
        for blob, lr_mult, _ in net.param_entries:
            assert lr_mult == 0.0 or np.abs(blob.diff).sum() > 0, blob.name
        net.forward(inputs, train=True)
        net.backward()
        assert_bit_identical(net.param_diff, once)

    def test_a_dead_branch_keeps_a_zero_diff_and_its_weights(self):
        net = Net(dead_branch_spec(), seed=0)
        solver = SGDSolver(net, SolverConfig(base_lr=0.1, momentum=0.9))
        dead = next(layer for layer in net.layers if layer.name == "dead")
        weights = [blob.data.copy() for blob in dead.params]
        inputs = make_inputs(size=4)
        for _ in range(3):
            solver.step(inputs)
            for blob, before in zip(dead.params, weights):
                assert not np.any(blob.diff)
                assert_bit_identical(blob.data, before)
        live = next(layer for layer in net.layers if layer.name == "live")
        assert np.any(live.params[0].diff)


class TestInnerProductForward:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 48), inputs=st.integers(1, 64),
        outputs=st.integers(1, 48), seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, inputs=7, outputs=5, seed=0)
    @example(n=9, inputs=3, outputs=5, seed=0)
    def test_matches_a_float64_oracle_within_its_bound(
        self, n, inputs, outputs, seed
    ):
        """Each top value is a length-``in`` float32 dot product plus the
        bias, so it lies within ``(in + 1) * eps`` of the exact value,
        relative to the same sum over magnitudes (the standard bound for
        recursive summation; blocked or FMA kernels only do better).  No
        operand order is assumed: another CPU family's BLAS may round
        differently."""
        rng = np.random.default_rng(seed)
        layer = InnerProduct("ip", outputs)
        layer.setup([(n, inputs)], rng)
        weight, bias = (blob.data for blob in layer.params)
        bias[...] = rng.standard_normal(outputs)
        bottom = rng.standard_normal((n, inputs)).astype(np.float32)
        (top,) = layer.forward([bottom], train=True)
        assert top.dtype == np.float32 and top.flags.c_contiguous
        assert top.shape == (n, outputs)
        wide = bottom.astype(np.float64), weight.astype(np.float64)
        exact = wide[0] @ wide[1].T + bias
        magnitude = np.abs(wide[0]) @ np.abs(wide[1]).T + np.abs(bias)
        bound = (inputs + 1) * np.finfo(np.float32).eps * magnitude
        assert np.all(np.abs(top - exact) <= bound)


class TestSolverConfig:
    def test_fixed_policy(self):
        config = SolverConfig(base_lr=0.1, lr_policy="fixed")
        assert config.learning_rate(0) == config.learning_rate(999) == 0.1

    def test_step_policy(self):
        config = SolverConfig(
            base_lr=0.1, lr_policy="step", gamma=0.1, stepsize=100
        )
        assert config.learning_rate(99) == pytest.approx(0.1)
        assert config.learning_rate(100) == pytest.approx(0.01)
        assert config.learning_rate(250) == pytest.approx(0.001)

    def test_multistep_policy(self):
        config = SolverConfig(
            base_lr=1.0, lr_policy="multistep", gamma=0.5,
            stepvalues=(10, 20),
        )
        assert config.learning_rate(5) == 1.0
        assert config.learning_rate(15) == 0.5
        assert config.learning_rate(25) == 0.25

    def test_poly_policy_reaches_zero(self):
        config = SolverConfig(
            base_lr=1.0, lr_policy="poly", power=1.0, max_iter=100
        )
        assert config.learning_rate(0) == 1.0
        assert config.learning_rate(50) == pytest.approx(0.5)
        assert config.learning_rate(100) == pytest.approx(0.0)

    def test_inv_policy(self):
        config = SolverConfig(
            base_lr=1.0, lr_policy="inv", gamma=1.0, power=1.0
        )
        assert config.learning_rate(1) == pytest.approx(0.5)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(lr_policy="cosine")

    def test_invalid_momentum_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(momentum=1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        policy=st.sampled_from(["step", "multistep", "poly", "inv"]),
        iteration=st.integers(0, 10_000),
    )
    def test_lr_never_exceeds_base_property(self, policy, iteration):
        config = SolverConfig(
            base_lr=0.1, lr_policy=policy, gamma=0.5, stepsize=100,
            stepvalues=(100, 500), power=1.0, max_iter=10_000,
        )
        lr = config.learning_rate(iteration)
        assert 0.0 <= lr <= 0.1 + 1e-12


class TestSGDSolver:
    def test_momentum_update_matches_caffe_rule(self):
        # One FC layer, hand-computed: V1 = lr*g; W1 = W0 - V1;
        # V2 = mu*V1 + lr*g2; W2 = W1 - V2.
        spec = NetSpec()
        data = spec.input("data", (1, 2))
        labels = spec.input("label", (1,))
        logits = spec.fc("fc", data, 2, bias=False)
        spec.softmax_loss("loss", logits, labels)
        net = Net(spec, seed=0)
        solver = SGDSolver(
            net, SolverConfig(base_lr=0.5, momentum=0.9, lr_policy="fixed")
        )
        inputs = {
            "data": np.asarray([[1.0, 0.0]], dtype=np.float32),
            "label": np.asarray([0]),
        }
        weight = net.params[0]
        w0 = weight.data.copy()

        solver.compute_gradients(inputs)
        g1 = weight.diff.copy()
        solver.apply_update()
        np.testing.assert_allclose(
            weight.data, w0 - 0.5 * g1, rtol=1e-5
        )
        v1 = 0.5 * g1

        solver.compute_gradients(inputs)
        g2 = weight.diff.copy()
        solver.apply_update()
        v2 = 0.9 * v1 + 0.5 * g2
        np.testing.assert_allclose(
            weight.data, w0 - v1 - v2, rtol=1e-5
        )

    def test_weight_decay_applied_to_weights_not_biases(self):
        spec = NetSpec()
        data = spec.input("data", (1, 2))
        labels = spec.input("label", (1,))
        logits = spec.fc("fc", data, 2)
        spec.softmax_loss("loss", logits, labels)
        net = Net(spec, seed=0)
        solver = SGDSolver(
            net,
            SolverConfig(base_lr=1.0, momentum=0.0, weight_decay=0.1),
        )
        inputs = {
            "data": np.zeros((1, 2), dtype=np.float32),
            "label": np.asarray([0]),
        }
        weight, bias = net.params
        w0 = weight.data.copy()
        solver.compute_gradients(inputs)
        grad_w = weight.diff.copy()  # zero input -> zero weight grad
        np.testing.assert_allclose(grad_w, 0.0)
        grad_b = bias.diff.copy()
        b0 = bias.data.copy()
        solver.apply_update()
        # Weights decay; biases (decay_mult=0, lr_mult=2) do not decay.
        np.testing.assert_allclose(weight.data, w0 - 0.1 * w0, rtol=1e-5)
        np.testing.assert_allclose(bias.data, b0 - 2.0 * grad_b, rtol=1e-5)

    def test_step_reduces_loss_on_separable_task(self):
        net = Net(small_spec(), seed=0)
        solver = SGDSolver(net, SolverConfig(base_lr=0.1, momentum=0.9))
        inputs = make_inputs()
        first = solver.step(inputs)["loss"]
        for _ in range(30):
            last = solver.step(inputs)["loss"]
        assert last < first

    def test_step_reports_metrics_and_lr(self):
        net = Net(small_spec(), seed=0)
        solver = SGDSolver(net, SolverConfig(base_lr=0.05))
        stats = solver.step(make_inputs())
        assert {"loss", "lr", "acc"} <= set(stats)
        assert stats["lr"] == 0.05

    def test_iteration_counter_advances(self):
        net = Net(small_spec(), seed=0)
        solver = SGDSolver(net)
        solver.step(make_inputs())
        solver.advance_iteration()
        assert solver.iteration == 2

    def test_evaluate_averages_batches(self):
        net = Net(small_spec(), seed=0)
        batches = [make_inputs(seed=s) for s in range(3)]
        metrics = net.evaluate(batches)
        assert set(metrics) >= {"loss", "acc"}

    def test_evaluate_requires_batches(self):
        net = Net(small_spec(), seed=0)
        with pytest.raises(ValueError):
            net.evaluate([])


class TestFlatParams:
    def test_roundtrip(self):
        net = Net(small_spec(), seed=0)
        flat = FlatParams(net)
        vector = flat.get_vector()
        assert vector.size == net.param_count()
        flat.set_vector(vector * 2.0)
        np.testing.assert_allclose(flat.get_vector(), vector * 2.0)

    def test_set_vector_reshapes_into_blobs(self):
        net = Net(small_spec(), seed=0)
        flat = FlatParams(net)
        flat.set_vector(np.arange(flat.count, dtype=np.float32))
        first = net.params[0]
        np.testing.assert_array_equal(
            first.data.ravel(), np.arange(first.count, dtype=np.float32)
        )

    def test_grad_vector_roundtrip(self):
        net = Net(small_spec(), seed=0)
        flat = FlatParams(net)
        grads = np.random.default_rng(0).standard_normal(
            flat.count
        ).astype(np.float32)
        flat.set_grad_vector(grads)
        np.testing.assert_allclose(flat.get_grad_vector(), grads)

    def test_add_to_params(self):
        net = Net(small_spec(), seed=0)
        flat = FlatParams(net)
        before = flat.get_vector()
        delta = np.ones(flat.count, dtype=np.float32)
        flat.add_to_params(delta, scale=-0.5)
        np.testing.assert_allclose(flat.get_vector(), before - 0.5)

    def test_size_mismatch_rejected(self):
        net = Net(small_spec(), seed=0)
        flat = FlatParams(net)
        with pytest.raises(ValueError):
            flat.set_vector(np.zeros(flat.count + 1, dtype=np.float32))
        with pytest.raises(ValueError):
            flat.set_grad_vector(np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError):
            flat.add_to_params(np.zeros(1, dtype=np.float32))

    def test_nbytes(self):
        net = Net(small_spec(), seed=0)
        flat = FlatParams(net)
        assert flat.nbytes == flat.count * 4
