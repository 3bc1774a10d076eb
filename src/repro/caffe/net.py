"""The Net: instantiate a spec and run forward/backward over its DAG.

Mirrors Caffe's ``Net<Dtype>``: layers execute in spec order (model builders
emit topologically sorted specs), named blobs carry activations between
layers, and gradients flow back in reverse order with fan-out summing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from .blob import Blob, Shape
from .layers.base import Layer, LayerError
from .netspec import NetSpec, walk


class Net:
    """A runnable network instantiated from a :class:`NetSpec`.

    Args:
        spec: Layer graph to instantiate.
        seed: Seed for parameter initialisation and dropout masks; two nets
            built from the same spec and seed are bit-identical, which the
            distributed platforms rely on for replica initialisation.
    """

    def __init__(self, spec: NetSpec, seed: int = 0) -> None:
        self.spec = spec
        self.name = spec.name
        self._rng = np.random.default_rng(seed)
        self.layers: List[Layer] = []
        self.input_names: List[str] = []
        self.loss_names: List[str] = []
        self.metric_names: List[str] = []
        self._build()
        self._home_params()
        self._activations: Dict[str, np.ndarray] = {}

    def _build(self) -> None:
        # Blobs whose gradient somebody reads: a blob's does iff its
        # producer learns or passes a gradient further down.  ``Input``
        # tops never do.  Decided here, once, like Caffe's Net::Init.
        needs_diff: Set[str] = set()

        def place(layer_spec, layer, bottom_shapes):
            top_shapes = layer.setup(bottom_shapes, self._rng)
            layer.propagate_down = [
                name in needs_diff for name in layer_spec.bottoms
            ]
            if layer.params or any(layer.propagate_down):
                needs_diff.update(layer_spec.tops)
            self.layers.append(layer)
            if layer_spec.type_name == "Input":
                self.input_names.extend(layer_spec.tops)
            elif layer_spec.type_name == "SoftmaxWithLoss":
                self.loss_names.extend(layer_spec.tops)
            elif layer_spec.type_name == "Accuracy":
                self.metric_names.extend(layer_spec.tops)
            return top_shapes

        self.blob_shapes: Dict[str, Shape] = walk(self.spec, place)

    # -- parameters --------------------------------------------------------

    def _home_params(self) -> None:
        """Home every learnable blob in two flat float32 arenas.

        ``param_data`` / ``param_diff`` *are* the flat vectors the
        distributed code exchanges (:class:`~repro.caffe.params.FlatParams`
        hands them out as live views); each blob keeps a reshaped window
        at ``param_slices[i]``, so the solver, the layers and the exchange
        all work on one copy of the model with no gather/scatter between
        representations.
        """
        self._param_entries = [
            entry
            for layer in self.layers
            for entry in zip(layer.params, layer.lr_mults, layer.decay_mults)
        ]
        self._params = [blob for blob, _, _ in self._param_entries]
        total = sum(blob.count for blob in self._params)
        #: All learnable values / gradients, in layer order.  The gradients
        #: start at zero and nothing clears them (see :meth:`backward`).
        self.param_data = np.empty(total, dtype=np.float32)
        self.param_diff = np.zeros(total, dtype=np.float32)
        #: Where blob ``i`` of :attr:`params` lives in the arenas.
        self.param_slices: List[slice] = []
        offset = 0
        for blob in self._params:
            window = slice(offset, offset + blob.count)
            blob.home(self.param_data[window], self.param_diff[window])
            self.param_slices.append(window)
            offset += blob.count

    @property
    def params(self) -> List[Blob]:
        """All learnable blobs in layer order."""
        return self._params

    @property
    def param_entries(self) -> List[tuple]:
        """(blob, lr_mult, decay_mult) triples for the solver."""
        return self._param_entries

    def param_count(self) -> int:
        """Total learnable scalars."""
        return self.param_data.size

    def copy_params_from(self, other: "Net") -> None:
        """Clone another replica's weights (same spec required)."""
        mine, theirs = self.params, other.params
        if len(mine) != len(theirs):
            raise LayerError("cannot copy params between different specs")
        for dst, src in zip(mine, theirs):
            dst.copy_from(src)

    # -- execution ----------------------------------------------------------

    def forward(
        self, inputs: Dict[str, np.ndarray], train: bool = True
    ) -> Dict[str, np.ndarray]:
        """Run the net; returns every named blob (losses, metrics, logits).

        Args:
            inputs: Arrays for each ``Input`` blob, keyed by blob name.
            train: Train-phase behaviour for dropout/batch-norm.
        """
        missing = set(self.input_names) - set(inputs)
        if missing:
            raise LayerError(f"missing input blobs: {sorted(missing)}")
        activations: Dict[str, np.ndarray] = {}
        for name in self.input_names:
            array = np.asarray(inputs[name], dtype=np.float32)
            expected = self.blob_shapes[name]
            # The leading (batch) dimension is free at run time, like a
            # Caffe test net reshaped from the train net.
            if array.shape[1:] != expected[1:] or array.ndim != len(expected):
                raise LayerError(
                    f"input {name!r} has shape {array.shape}, "
                    f"expected (N,) + {expected[1:]}"
                )
            activations[name] = array
        for layer, layer_spec in zip(self.layers, self.spec.layers):
            if layer_spec.type_name == "Input":
                continue
            bottoms = [activations[n] for n in layer_spec.bottoms]
            tops = layer.forward(bottoms, train)
            for name, top in zip(layer_spec.tops, tops):
                activations[name] = top
        self._activations = activations
        return activations

    def backward(self) -> None:
        """Back-propagate from every loss blob; writes the param diffs.

        Each param layer writes its gradient into its diff (``out=``):
        Caffe's ``ClearParamDiffs`` + ``beta = 1`` result without the
        clear, because nothing shares a param blob or sums over
        ``iter_size``, and a param layer runs backward on every step or
        on none.  One with no path to a loss keeps the zero its diff was
        allocated with; BatchNorm's running statistics never get one.
        """
        if not self._activations:
            raise LayerError("backward called before forward")
        blob_diffs: Dict[str, np.ndarray] = {}
        for name in self.loss_names:
            blob_diffs[name] = np.ones_like(self._activations[name])

        for layer, layer_spec in zip(
            reversed(self.layers), reversed(self.spec.layers)
        ):
            if layer_spec.type_name == "Input":
                continue
            top_diffs = []
            any_signal = False
            for name in layer_spec.tops:
                diff = blob_diffs.get(name)
                if diff is None:
                    diff = np.zeros_like(self._activations[name])
                else:
                    any_signal = True
                top_diffs.append(diff)
            if not any_signal and layer_spec.type_name != "SoftmaxWithLoss":
                continue  # dead branch (e.g. metrics); skip the work
            bottoms = [self._activations[n] for n in layer_spec.bottoms]
            tops = [self._activations[n] for n in layer_spec.tops]
            bottom_diffs = layer.backward(top_diffs, bottoms, tops)
            for name, diff in zip(layer_spec.bottoms, bottom_diffs):
                if diff is None:
                    continue  # propagate_down is false: nobody reads it
                if name in blob_diffs:
                    blob_diffs[name] = blob_diffs[name] + diff
                else:
                    blob_diffs[name] = diff

    def total_loss(self, outputs: Optional[Dict[str, np.ndarray]] = None) -> float:
        """Sum of all loss blobs from the latest (or given) forward pass."""
        source = outputs if outputs is not None else self._activations
        return float(sum(source[name].ravel()[0] for name in self.loss_names))

    def evaluate(
        self, batches: Sequence[Dict[str, np.ndarray]]
    ) -> Dict[str, float]:
        """Average loss and metrics over test-phase batches."""
        if not batches:
            raise ValueError("need at least one evaluation batch")
        totals: Dict[str, float] = {}
        for batch in batches:
            outputs = self.forward(batch, train=False)
            totals["loss"] = totals.get("loss", 0.0) + self.total_loss(outputs)
            for name in self.metric_names:
                totals[name] = totals.get(name, 0.0) + float(
                    outputs[name].ravel()[0]
                )
        return {key: value / len(batches) for key, value in totals.items()}

    def blob(self, name: str) -> np.ndarray:
        """Access an activation from the latest forward pass."""
        try:
            return self._activations[name]
        except KeyError:
            raise LayerError(f"no activation named {name!r}") from None
