"""SGD training loop with momentum, weight decay, and stepped learning rate."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ..errors import BoundsError, TrainingDiverged
from ..util import derive_seed
from . import layers


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings.

    ``lr_drops`` is a tuple of (fraction_of_run, divisor) pairs; at epoch
    floor(fraction * epochs) the learning rate is divided once by the divisor.
    """

    epochs: int = 160
    batch_size: int = 128
    initial_lr: float = 0.1
    lr_drops: tuple = ((0.5, 10.0), (0.75, 10.0))
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    loss: str = "xent"

    def __post_init__(self):
        if self.epochs < 0:
            raise BoundsError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise BoundsError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.initial_lr <= 0:
            raise BoundsError(f"initial_lr must be > 0, got {self.initial_lr}")
        if not 0 <= self.momentum < 1:
            raise BoundsError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise BoundsError(f"weight_decay must be >= 0, got {self.weight_decay}")
        prev = 0.0
        for frac, div in self.lr_drops:
            if not 0 < frac < 1:
                raise BoundsError(f"lr drop fraction {frac} outside (0, 1)")
            if frac <= prev:
                raise BoundsError("lr drop fractions must be strictly increasing")
            if div <= 1:
                raise BoundsError(f"lr drop factor {div} must be > 1")
            prev = frac


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    test_accuracy: float


def lr_for_epoch(config: TrainConfig, epoch: int) -> float:
    """Learning rate in force during ``epoch`` (0-based).

    A drop at fraction f takes effect at the first epoch boundary at or
    after f * epochs, so short horizons never start below the initial rate.
    """
    if not 0 <= epoch < config.epochs:
        raise BoundsError(f"epoch {epoch} outside [0, {config.epochs})")
    lr = config.initial_lr
    for frac, div in config.lr_drops:
        if epoch >= math.ceil(frac * config.epochs):
            lr /= div
    return lr


def evaluate(net, images, labels) -> float:
    """Top-1 accuracy on the given arrays."""
    if images.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = net.predict_logits(images)
    return float((logits.argmax(axis=1) == labels).mean())


def _sgd_update(layer, velocity, lr, config: TrainConfig) -> None:
    """One momentum step of ``layer``'s parameters, run as soon as its backward
    returns. The layer gives its gradients up, so none outlives its own
    layer's update, and a training step holds one layer's gradients at a time.

    A parameter's velocity is made at its first update, as the step from a
    zero velocity would make it. Large parameters are stepped in bands of
    their first axis (``layers.by_channel``).
    """
    grads = layer.grads()
    layer.release_grads()
    for name, w in layer.params().items():
        fresh = name not in velocity
        if fresh:
            velocity[name] = np.empty_like(w)
        layers.by_channel(_momentum_step, (w, grads.pop(name), velocity[name]),
                          lr, config.weight_decay, config.momentum, fresh)


def _momentum_step(w, g, v, lr, weight_decay, momentum, fresh):
    """``v = momentum * v - lr * (g + weight_decay * w); w += v``, with
    ``v`` taken as zero when ``fresh``.

    ``weight_decay * w`` is the one array allocated: the gradient is added
    into it and the sum scaled by lr, which rounds as ``lr * (g + wd * w)``
    does. The offset backward's weight gradient is a transposed view, so
    adding into the gradient and stepping from it would cross layouts twice.
    A fresh velocity is ``0 - step``, not ``-step``: a zero step then gives
    +0.0, as ``0 * momentum - step`` does.
    """
    step = weight_decay * w
    step += g
    step *= lr
    if fresh:
        np.subtract(0, step, out=v)
    else:
        v *= momentum
        v -= step
    w += v


def train(net, train_images, train_labels, test_images, test_labels,
          config: TrainConfig, trace_path=None):
    """Train in place; returns the list of per-epoch EpochStats.

    One rng (seeded from config.seed) draws exactly one permutation per epoch,
    so the batch order is a pure function of (seed, epoch, n). ``trace_path``,
    when given, is rewritten with a CSV header and one row per epoch.
    """
    rng = np.random.default_rng(derive_seed(config.seed, "shuffle"))
    n = train_images.shape[0]
    velocity = {layer: {} for layer in net.layers}
    history = []

    writer = None
    trace_file = None
    if trace_path is not None:
        trace_file = open(trace_path, "w", newline="")
        writer = csv.writer(trace_file)
        writer.writerow(["epoch", "lr", "train_loss", "test_accuracy"])

    try:
        # a step that overflows ends in a non-finite loss, which raises
        # TrainingDiverged, so NumPy need not warn of the overflow too
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(config.epochs):
                lr = lr_for_epoch(config, epoch)
                order = rng.permutation(n)
                losses = []
                for bi, start in enumerate(range(0, n, config.batch_size)):
                    idx = order[start:start + config.batch_size]
                    # a non-finite loss runs no backward, so no layer updates
                    loss = net.loss_and_grads(
                        train_images[idx], train_labels[idx], loss=config.loss,
                        update=lambda layer: _sgd_update(layer, velocity[layer], lr, config))
                    if not np.isfinite(loss):
                        raise TrainingDiverged(epoch, bi, loss)
                    losses.append(loss)
                acc = evaluate(net, test_images, test_labels)
                stats = EpochStats(epoch, lr, float(np.mean(losses)), acc)
                history.append(stats)
                if writer is not None:
                    writer.writerow([stats.epoch, f"{stats.lr:.6g}",
                                     f"{stats.train_loss:.6f}", f"{stats.test_accuracy:.4f}"])
                    trace_file.flush()
    finally:
        if trace_file is not None:
            trace_file.close()
    return history
