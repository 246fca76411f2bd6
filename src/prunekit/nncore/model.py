"""Network assembly from a template, forward/backward, feature-map capture."""
from __future__ import annotations

import numpy as np

from .. import archspec
from ..errors import StructureError
from ..util import derive_seed
from . import layers as L

# Samples per evaluation forward; every evaluation runs at this size
EVAL_BATCH = 256


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy. Returns (loss, dlogits)."""
    n = logits.shape[0]
    zmax = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - zmax).sum(axis=1)) + zmax[:, 0]
    loss = float((lse - logits[np.arange(n), labels]).mean())
    d = softmax(logits)
    d[np.arange(n), labels] -= 1.0
    return loss, d / n


def mse(logits, targets):
    """Mean squared error against an explicit target array."""
    diff = logits - targets
    loss = float((diff * diff).mean())
    return loss, 2.0 * diff / diff.size


def _loss_fn(name, logits, labels, num_classes):
    if name == "xent":
        return cross_entropy(logits, labels)
    if name == "mse":
        onehot = np.zeros((logits.shape[0], num_classes), dtype=logits.dtype)
        onehot[np.arange(logits.shape[0]), labels] = 1.0
        return mse(logits, onehot)
    raise ValueError(f"unknown loss {name!r}")


class Network:
    """Runtime network for an instantiated template.

    Weight init is Kaiming fan-in scaling with a per-layer seeded stream, so a
    (template, seed) pair always produces the same parameters. Every layer's
    weight is drawn in the one call below, which splits a large net's draws
    across the usable CPUs, and each layer is built from its drawn array.
    """

    def __init__(self, template: archspec.ArchTemplate, seed: int = 0, dtype=np.float32):
        self.template = template
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.layers: list[L.Layer] = []
        shapes = {}
        for idx, spec in enumerate(template.layers):
            if spec.kind == archspec.KIND_CONV:
                shapes[idx] = (spec.out_channels, spec.in_channels, *spec.kernel)
            elif spec.kind in (archspec.KIND_FC, archspec.KIND_HEAD):
                shapes[idx] = (spec.out_channels, spec.in_channels)
        drawn = L.kaiming_normal(
            [(np.random.default_rng(derive_seed(self.seed, "init", idx)), shape)
             for idx, shape in shapes.items()], self.dtype)
        weights = dict(zip(shapes, drawn))
        for idx, spec in enumerate(template.layers):
            if spec.kind == archspec.KIND_CONV:
                self.layers.append(L.Conv(weights[idx], spec.bias, spec.stride, spec.padding))
            elif spec.kind == archspec.KIND_BN:
                self.layers.append(L.BatchNorm(spec.out_channels, self.dtype))
            elif spec.kind == archspec.KIND_ACT:
                self.layers.append(L.ReLU())
            elif spec.kind == archspec.KIND_POOL:
                self.layers.append(L.MaxPool(spec.kernel[0], spec.stride))
            elif spec.kind in (archspec.KIND_FC, archspec.KIND_HEAD):
                self.layers.append(L.Linear(weights[idx], spec.bias))
            else:  # pragma: no cover
                raise StructureError(f"layer {idx}: unsupported kind {spec.kind!r}")
        self._capture_points = self._locate_capture_points()

    def _locate_capture_points(self) -> dict[int, int]:
        """Map prunable slot -> index of its post-activation output layer.

        Walks forward over batchnorm/activation so the captured map is the
        activated output of the slot's conv.
        """
        points = {}
        specs = self.template.layers
        for slot in self.template.prunable_slots:
            j = slot
            while j + 1 < len(specs) and specs[j + 1].kind in (
                archspec.KIND_BN, archspec.KIND_ACT
            ):
                j += 1
            points[slot] = j
        return points

    def _check_input(self, x):
        c, w, h = self.template.input_shape
        if x.ndim != 4 or x.shape[1] != c or x.shape[2] != h or x.shape[3] != w:
            raise StructureError(
                f"batch shape {x.shape} does not match template input (C,W,H)={self.template.input_shape}"
            )

    def forward(self, x, train=False, capture=False):
        """Run the network. With ``capture`` also returns {slot: feature map}.

        ``capture`` may instead be a callable: it is handed each (slot,
        feature map) as the map is produced, nothing is kept, and only the
        output is returned.
        """
        self._check_input(x)
        # held batch-innermost from here on; see nncore.layers
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0), dtype=self.dtype).transpose(3, 0, 1, 2)
        captured = {}
        sink = captured.__setitem__ if capture is True else capture
        capture_at = {v: k for k, v in self._capture_points.items()} if sink else {}
        for idx, layer in enumerate(self.layers):
            x = layer.forward(x, train)
            if idx in capture_at:
                sink(capture_at[idx], x)
        if capture is True:
            return x, captured
        return x

    def backward(self, dlogits, update=None) -> None:
        """Set every layer's parameter gradients from ``dlogits``. Nothing
        reads the gradient with respect to the network input, so the first
        layer does not form it.

        ``update``, when given, is called with each layer as soon as that
        layer's backward returns. The layer has then used its parameters, and
        no earlier layer's backward reads them, so the callable may change
        them and take the gradients away without changing any value.
        """
        d = dlogits
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            d = layer.backward(d, input_grad=idx > 0)
            if update is not None:
                update(layer)

    def loss_and_grads(self, x, labels, loss="xent", update=None):
        """Training forward, loss and backward; returns the loss. ``update``
        is handed to ``backward``. A non-finite loss runs no backward, so it
        sets no gradient and no ``update`` runs."""
        logits = self.forward(x, train=True)
        value, dlogits = _loss_fn(loss, logits, labels, self.template.num_classes)
        if np.isfinite(value):
            self.backward(dlogits, update)
        return value

    def loss_only(self, x, labels, loss="xent"):
        """The loss of a training forward."""
        logits = self.forward(x, train=True)
        value, _ = _loss_fn(loss, logits, labels, self.template.num_classes)
        return value

    def predict_logits(self, x):
        """Evaluation-mode logits, ``EVAL_BATCH`` samples at a time."""
        outs = []
        for start in range(0, x.shape[0], EVAL_BATCH):
            outs.append(self.forward(x[start:start + EVAL_BATCH], train=False))
        return np.concatenate(outs, axis=0)

    def _named(self, part) -> dict[str, np.ndarray]:
        """Every layer's ``part()`` dict, its keys prefixed "layerNN."."""
        return {f"layer{idx:02d}.{name}": arr for idx, layer in enumerate(self.layers)
                for name, arr in getattr(layer, part)().items()}

    def params(self) -> dict[str, np.ndarray]:
        return self._named("params")

    def grads(self) -> dict[str, np.ndarray]:
        return self._named("grads")

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Parameters plus batchnorm running statistics, for checkpointing."""
        return self._named("state")

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        own = self.state_arrays()
        if set(own) != set(arrays):
            missing = set(own) ^ set(arrays)
            raise StructureError(f"state arrays do not match the model: {sorted(missing)}")
        for name, arr in own.items():
            src = arrays[name]
            if src.shape != arr.shape:
                raise StructureError(f"{name}: shape {src.shape} != {arr.shape}")
            arr[...] = src

    def astype(self, dtype) -> "Network":
        self.dtype = np.dtype(dtype)
        for layer in self.layers:
            layer.astype(self.dtype)
        return self
