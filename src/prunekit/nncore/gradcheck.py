"""Finite-difference verification of analytic gradients."""
from __future__ import annotations

import numpy as np

from ..errors import BoundsError


def gradient_check(net, x, labels, loss="xent", epsilon=1e-5, floor=1e-6):
    """Max relative error between analytic and central-difference gradients.

    The model must be in double precision. Batchnorm layers run in training
    mode, where the loss reads batch statistics only, so the running
    statistics the probes update do not change any probe's value; they are
    restored, with every other state array, when the check returns.
    ``floor`` bounds the denominator: parameters whose true gradient is
    identically zero (a conv bias feeding a batchnorm, say) give pure
    finite-difference noise, which the floor scores absolutely instead of as
    a 0/0 ratio.
    """
    if epsilon <= 0:
        raise BoundsError(f"epsilon must be > 0, got {epsilon}")
    if net.dtype != np.float64:
        raise ValueError("gradient_check requires a float64 model; call net.astype(np.float64)")
    x = np.asarray(x, dtype=np.float64)
    saved = {k: v.copy() for k, v in net.state_arrays().items()}
    try:
        net.loss_and_grads(x, labels, loss=loss, train=True)
        analytic = {k: v.copy() for k, v in net.grads().items()}
        worst = 0.0
        for name, w in net.params().items():
            flat = w.reshape(-1)
            g_flat = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                plus = net.loss_only(x, labels, loss=loss, train=True)
                flat[i] = orig - epsilon
                minus = net.loss_only(x, labels, loss=loss, train=True)
                flat[i] = orig
                numeric = (plus - minus) / (2.0 * epsilon)
                denom = max(abs(g_flat[i]), abs(numeric), floor)
                worst = max(worst, abs(g_flat[i] - numeric) / denom)
    finally:
        net.load_state(saved)
    return worst
