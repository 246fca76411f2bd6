"""Network assembly from a template, forward/backward, feature-map capture."""
from __future__ import annotations

import numpy as np

from .. import archspec
from ..errors import StructureError
from ..util import derive_seed
from . import layers as L


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
    (template, seed) pair always produces the same parameters.
    """

    def __init__(self, template: archspec.ArchTemplate, seed: int = 0, dtype=np.float32):
        self.template = template
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        self.layers: list[L.Layer] = []
        for idx, spec in enumerate(template.layers):
            rng = np.random.default_rng(derive_seed(self.seed, "init", idx))
            if spec.kind == archspec.KIND_CONV:
                self.layers.append(
                    L.Conv(spec.in_channels, spec.out_channels, spec.kernel,
                           spec.stride, spec.padding, spec.bias, rng, self.dtype)
                )
            elif spec.kind == archspec.KIND_BN:
                self.layers.append(L.BatchNorm(spec.out_channels, self.dtype))
            elif spec.kind == archspec.KIND_ACT:
                self.layers.append(L.ReLU())
            elif spec.kind == archspec.KIND_POOL:
                self.layers.append(L.MaxPool(spec.kernel[0], spec.stride))
            elif spec.kind in (archspec.KIND_FC, archspec.KIND_HEAD):
                self.layers.append(
                    L.Linear(spec.in_channels, spec.out_channels, spec.bias, rng, self.dtype)
                )
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

    def forward(self, x, train=False, capture=False, update_stats=None):
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
            if isinstance(layer, L.BatchNorm):
                x = layer.forward(x, train, update_stats)
            else:
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

    def loss_and_grads(self, x, labels, loss="xent", train=True, update_stats=None,
                       update=None):
        """Forward, loss and backward; returns the loss. ``update`` is handed
        to ``backward``. A non-finite loss runs no backward, so it sets no
        gradient and no ``update`` runs."""
        logits = self.forward(x, train=train, update_stats=update_stats)
        value, dlogits = _loss_fn(loss, logits, labels, self.template.num_classes)
        if np.isfinite(value):
            self.backward(dlogits, update)
        return value

    def loss_only(self, x, labels, loss="xent", train=True, update_stats=None):
        logits = self.forward(x, train=train, update_stats=update_stats)
        value, _ = _loss_fn(loss, logits, labels, self.template.num_classes)
        return value

    def predict_logits(self, x, batch_size=256):
        outs = []
        for start in range(0, x.shape[0], batch_size):
            outs.append(self.forward(x[start:start + batch_size], train=False))
        return np.concatenate(outs, axis=0)

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for idx, layer in enumerate(self.layers):
            for name, arr in layer.params().items():
                out[f"layer{idx:02d}.{name}"] = arr
        return out

    def grads(self) -> dict[str, np.ndarray]:
        out = {}
        for idx, layer in enumerate(self.layers):
            for name, arr in layer.grads().items():
                out[f"layer{idx:02d}.{name}"] = arr
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Parameters plus batchnorm running statistics, for checkpointing."""
        out = {}
        for idx, layer in enumerate(self.layers):
            for name, arr in layer.state().items():
                out[f"layer{idx:02d}.{name}"] = arr
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        own = self.state_arrays()
        if set(own) != set(arrays):
            missing = set(own) ^ set(arrays)
            raise StructureError(f"state arrays do not match the model: {sorted(missing)}")
        for name, arr in own.items():
            src = arrays[name]
            if src.shape != arr.shape:
                raise StructureError(f"{name}: shape {src.shape} != {arr.shape}")
            arr[...] = src.astype(arr.dtype)

    def astype(self, dtype) -> "Network":
        self.dtype = np.dtype(dtype)
        for layer in self.layers:
            layer.astype(self.dtype)
        return self
