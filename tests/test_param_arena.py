"""The flat parameter arena and the in-place SEASGD exchange over it.

A net's learnable blobs live in two contiguous float32 arenas
(``Net.param_data`` / ``Net.param_diff``); ``FlatParams.vector`` and
``grad_vector`` are those arenas, and ``elastic_pull_`` runs eqs. (5)-(6)
on them in place.  These tests pin the three things that design rests on:

* the in-place kernel is **bit-identical** to the allocating pure
  functions it replaced (property test over hostile float32 inputs);
* nothing ever detaches a blob from the arena — not a solver step, a
  ``set_vector``, a replica copy or a snapshot restore — and an attempt
  to rebind storage is refused loudly;
* a steady-state training iteration (exchange + step) allocates nothing
  model-sized.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.caffe import FlatParams, Net, SGDSolver, SolverConfig, models
from repro.caffe.blob import Blob
from repro.caffe.data import SyntheticImageDataset
from repro.caffe.netspec import NetSpec
from repro.caffe.snapshot import (
    load_net,
    load_solver_state,
    save_net,
    save_solver_state,
)
from repro.core.config import ShmCaffeConfig
from repro.core.engine import TrainingEngine
from repro.core.exchange import SEASGDExchange
from repro.core.seasgd import elastic_pull_, seasgd_exchange
from repro.smb import SMBClient, SMBServer

from .test_netspec import small_spec


def bits(array: np.ndarray) -> np.ndarray:
    """The float32 bit patterns, so NaN payloads and -0.0 compare too."""
    return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)


# -- (i) the kernel is bit-identical to its oracle --------------------------

#: Any float32 bit pattern: subnormals, +-inf, NaNs of every payload, -0.0.
any_float32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


@st.composite
def weight_pairs(draw):
    size = draw(st.integers(min_value=1, max_value=64))
    pattern = hnp.arrays(np.uint32, size, elements=any_float32)
    return (
        draw(pattern).view(np.float32).copy(),
        draw(pattern).view(np.float32).copy(),
    )


unit_rate = st.floats(
    min_value=0.0, max_value=1.0, exclude_min=True, allow_nan=False
)


class TestElasticPullMatchesOracle:
    @staticmethod
    def _check(local, global_now, rate):
        with np.errstate(all="ignore"):
            want_local, _, want_increment = seasgd_exchange(
                local, global_now, rate
            )
            pulled = local.copy()
            out = np.empty_like(local)
            got = elastic_pull_(pulled, global_now, rate, out=out)
        assert got is out
        assert np.array_equal(bits(out), bits(want_increment))
        assert np.array_equal(bits(pulled), bits(want_local))

    @settings(max_examples=200, deadline=None)
    @given(pair=weight_pairs(), alpha=unit_rate)
    def test_fixed_fleet_alpha(self, pair, alpha):
        self._check(*pair, alpha)

    @settings(max_examples=100, deadline=None)
    @given(
        pair=weight_pairs(),
        beta=unit_rate,
        fleet=st.integers(min_value=1, max_value=64),
    )
    def test_elastic_beta_over_p(self, pair, beta, fleet):
        # The membership-aware path: alpha = beta / p, recomputed (as a
        # Python float) at every exchange.
        self._check(*pair, beta / max(int(fleet), 1))

    def test_global_weights_are_left_untouched(self):
        local = np.asarray([1.0, 2.0], dtype=np.float32)
        global_now = np.asarray([3.0, -1.0], dtype=np.float32)
        elastic_pull_(local, global_now, 0.5, out=np.empty_like(local))
        np.testing.assert_array_equal(global_now, [3.0, -1.0])
        np.testing.assert_array_equal(local, [2.0, 0.5])


# -- (ii) nothing detaches a blob from the arena ----------------------------


def assert_homed(net: Net, flat: FlatParams) -> None:
    assert flat.vector is net.param_data
    assert flat.grad_vector is net.param_diff
    assert flat.vector.dtype == np.float32 and flat.vector.ndim == 1
    assert flat.count == sum(blob.count for blob in net.params)
    for blob, window in zip(net.params, net.param_slices):
        assert np.shares_memory(blob.data, flat.vector), blob
        assert np.shares_memory(blob.diff, flat.grad_vector), blob
        assert blob.data.shape == blob.diff.shape == blob.shape
        # Not merely overlapping: exactly this blob's window.
        assert np.array_equal(
            bits(blob.data).ravel(), bits(flat.vector[window])
        )


#: Spec factories for the toy net plus every model in ``caffe/models``.
MODEL_SPECS = [pytest.param(lambda: small_spec(batch=2), id="small")] + [
    pytest.param(
        lambda name=name: models.scaled_spec(
            name, batch_size=2, image_size=12
        ),
        id=name,
    )
    for name in sorted(models.MODEL_MODULES)
]


def batch_for(net: Net) -> dict:
    rng = np.random.default_rng(5)
    inputs = {}
    for name in net.input_names:
        shape = net.blob_shapes[name]
        if len(shape) == 1:
            inputs[name] = rng.integers(0, 2, size=shape).astype(np.float32)
        else:
            inputs[name] = rng.standard_normal(shape).astype(np.float32)
    return inputs


@pytest.mark.parametrize("spec_factory", MODEL_SPECS)
class TestAliasingInvariants:
    def test_blobs_stay_in_the_arena(self, spec_factory, tmp_path):
        net = Net(spec_factory(), seed=1)
        flat = FlatParams(net)
        assert_homed(net, flat)

        solver = SGDSolver(
            net, SolverConfig(base_lr=0.01, momentum=0.9, weight_decay=1e-4)
        )
        solver.step(batch_for(net))
        assert_homed(net, flat)
        assert np.any(flat.grad_vector != 0.0)

        flat.set_vector(np.full(flat.count, 0.5, dtype=np.float32))
        assert_homed(net, flat)
        assert all(np.all(blob.data == 0.5) for blob in net.params)

        other = Net(spec_factory(), seed=2)
        net.copy_params_from(other)
        assert_homed(net, flat)
        assert np.array_equal(bits(flat.vector), bits(other.param_data))
        assert not np.shares_memory(flat.vector, other.param_data)

        save_net(other, tmp_path / "weights.npz")
        flat.set_vector(np.zeros(flat.count, dtype=np.float32))
        load_net(net, tmp_path / "weights.npz")
        assert_homed(net, flat)
        assert np.array_equal(bits(flat.vector), bits(other.param_data))

        save_solver_state(solver, tmp_path / "state.npz")
        expected = flat.get_vector()
        flat.set_vector(np.zeros(flat.count, dtype=np.float32))
        load_solver_state(solver, tmp_path / "state.npz")
        assert_homed(net, flat)
        assert np.array_equal(bits(flat.vector), bits(expected))

    def test_two_accessors_see_one_arena(self, spec_factory):
        net = Net(spec_factory(), seed=1)
        first, second = FlatParams(net), FlatParams(net)
        assert first.vector is second.vector
        assert first.grad_vector is second.grad_vector
        first.set_vector(np.full(first.count, 2.0, dtype=np.float32))
        assert np.all(second.vector == 2.0)

    def test_get_vector_is_a_snapshot(self, spec_factory):
        net = Net(spec_factory(), seed=1)
        flat = FlatParams(net)
        for snapshot, live in (
            (flat.get_vector(), flat.vector),
            (flat.get_grad_vector(), flat.grad_vector),
        ):
            assert not np.shares_memory(snapshot, live)
            before = snapshot.copy()
            live += 1.0
            assert np.array_equal(bits(snapshot), bits(before))


class TestAliasingContractEnforced:
    def test_rebinding_a_homed_blob_is_refused(self):
        net = Net(small_spec(batch=2), seed=0)
        blob = net.params[0]
        with pytest.raises(ValueError, match="arena"):
            blob.data = np.zeros(blob.shape, dtype=np.float32)
        with pytest.raises(ValueError, match="arena"):
            blob.diff = np.zeros(blob.shape, dtype=np.float32)
        with pytest.raises(ValueError, match="arena"):
            blob.data = blob.data.copy()
        # A neighbour's window shares the arena's buffer but not this
        # blob's bytes.
        with pytest.raises(ValueError, match="arena"):
            net.params[1].diff = net.params[3].diff
        assert_homed(net, FlatParams(net))

    def test_in_place_writes_and_same_storage_are_allowed(self):
        net = Net(small_spec(batch=2), seed=0)
        blob = net.params[0]
        blob.data += 1.0  # augmented assignment re-binds the same array
        blob.diff *= 0.5
        blob.data = net.param_data[net.param_slices[0]].reshape(blob.shape)
        assert_homed(net, FlatParams(net))

    def test_free_standing_blob_is_unconstrained(self):
        blob = Blob((2, 3))
        blob.data = np.ones((2, 3), dtype=np.float32)
        assert blob.data[0, 0] == 1.0

    def test_count_is_cached(self):
        blob = Blob((4, 5, 6))
        assert blob.count == 120 and blob.nbytes == 480
        assert isinstance(blob.count, int)

    @pytest.mark.parametrize(
        "method", ["set_vector", "set_grad_vector", "add_to_params"]
    )
    def test_bad_vectors_are_rejected_before_any_write(self, method):
        net = Net(small_spec(batch=2), seed=0)
        flat = FlatParams(net)
        data, grad = flat.get_vector(), flat.get_grad_vector()
        call = getattr(flat, method)
        for bad in (
            np.ones(flat.count + 1, dtype=np.float32),
            np.ones(flat.count - 1, dtype=np.float32),
            np.ones((flat.count, 1), dtype=np.float32),
            np.ones((1, flat.count), dtype=np.float32),
            np.float32(1.0),
        ):
            with pytest.raises(ValueError):
                call(bad)
        assert np.array_equal(bits(flat.vector), bits(data))
        assert np.array_equal(bits(flat.grad_vector), bits(grad))

    def test_float64_input_is_cast_on_the_way_in(self):
        net = Net(small_spec(batch=2), seed=0)
        flat = FlatParams(net)
        flat.set_vector(np.full(flat.count, 0.1, dtype=np.float64))
        assert flat.vector.dtype == np.float32
        assert np.all(flat.vector == np.float32(0.1))
        assert_homed(net, flat)


class TestArenaSolverMatchesPerBlobLoop:
    """The arena update is the per-blob Caffe rule, bit for bit."""

    @staticmethod
    def reference_update(net, history, lr, mu, wd):
        # The allocating per-blob loop SGDSolver.apply_update used to be.
        for (blob, lr_mult, decay_mult), slot in zip(
            net.param_entries, history
        ):
            grad = blob.diff.ravel()
            if wd != 0.0 and decay_mult != 0.0:
                grad = grad + wd * decay_mult * blob.data.ravel()
            slot *= mu
            slot += lr * lr_mult * grad
            blob.data -= slot.reshape(blob.shape)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_momentum_sgd_with_multipliers(self, weight_decay):
        config = SolverConfig(
            base_lr=0.05, momentum=0.9, weight_decay=weight_decay,
            lr_policy="step", gamma=0.5, stepsize=2,
        )
        net = Net(small_spec(batch=2), seed=4)
        solver = SGDSolver(net, config)
        shadow = Net(small_spec(batch=2), seed=4)
        history = [
            np.zeros(blob.count, dtype=np.float32) for blob in shadow.params
        ]
        inputs = batch_for(net)
        for iteration in range(4):
            solver.step(inputs)
            shadow.forward(inputs, train=True)
            shadow.backward()
            self.reference_update(
                shadow, history, config.learning_rate(iteration),
                config.momentum, weight_decay,
            )
            assert np.array_equal(
                bits(net.param_data), bits(shadow.param_data)
            )
        for slot, mine in zip(history, solver.history):
            assert np.array_equal(bits(slot), bits(mine))

    def test_clip_norm_is_one_dot_over_the_arena(self):
        # The one place the arithmetic *order* changed: the global norm is
        # a single float32 dot over the gradient arena instead of a sum of
        # per-blob dots, so it agrees with the loop to float32 rounding,
        # not bit for bit.
        net = Net(small_spec(batch=2), seed=4)
        solver = SGDSolver(
            net, SolverConfig(base_lr=0.05, clip_gradients=0.25)
        )
        solver.compute_gradients(batch_for(net))
        reference = float(np.sqrt(sum(
            float(np.dot(blob.diff.ravel(), blob.diff.ravel()))
            for blob in net.params
        )))
        assert reference > 0.25
        norm = solver.clip_stored_gradients()
        assert norm == pytest.approx(reference, rel=1e-5)
        clipped = float(np.linalg.norm(net.param_diff.astype(np.float64)))
        assert clipped == pytest.approx(0.25, rel=1e-5)


# -- (iii) the steady state allocates nothing model-sized -------------------


def wide_mlp_spec(batch: int = 4) -> NetSpec:
    """192 -> 1400 -> 10: 284 210 parameters, a 1.08 MiB model."""
    spec = NetSpec("arena_mlp")
    data = spec.input("data", (batch, 3, 8, 8))
    labels = spec.input("label", (batch,))
    hidden = spec.relu("relu1", spec.fc("fc1", data, 1400))
    spec.softmax_loss("loss", spec.fc("fc2", hidden, 10), labels)
    return spec


class TestSteadyStateAllocatesNothingModelSized:
    @pytest.mark.parametrize("overlap", [False, True], ids=["sync", "overlap"])
    def test_exchange_plus_step(self, overlap):
        dataset = SyntheticImageDataset(
            num_classes=10, image_size=8, train_per_class=8,
            test_per_class=1, noise=0.6, seed=2,
        )
        net = Net(wide_mlp_spec(), seed=0)
        flat = FlatParams(net)
        assert flat.nbytes >= 1 << 20
        server = SMBServer(capacity=1 << 24)
        with SMBClient.in_process(server) as client:
            global_weights = client.create_array("W_g", flat.count)
            global_weights.write(flat.vector)
            engine = TrainingEngine(
                rank=0,
                net=net,
                config=ShmCaffeConfig(
                    solver=SolverConfig(
                        base_lr=0.01, momentum=0.9, weight_decay=1e-4
                    ),
                    moving_rate=0.2,
                    overlap_updates=overlap,
                ),
                batches=dataset.minibatches(4, seed=1),
                strategy=SEASGDExchange(global_weights),
            )
            strategy = engine.strategy

            def iterate(start: int, count: int) -> None:
                for iteration in range(start, start + count):
                    strategy.exchange(iteration)
                    strategy.train_step()

            try:
                iterate(0, 3)  # scratch buffers, update thread, caches
                tracemalloc.start()
                try:
                    tracemalloc.reset_peak()
                    baseline, _ = tracemalloc.get_traced_memory()
                    iterate(3, 5)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            finally:
                strategy.close()
            # Five iterations; one model-sized temporary anywhere in the
            # exchange, the solver update or the FC backward would show
            # as a full model's bytes of peak growth.
            assert peak - baseline < flat.nbytes // 4
            assert np.isfinite(flat.vector).all()
            assert np.isfinite(global_weights.read()).all()
