import importlib
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import (
    conv2d_backward_naive,
    conv2d_naive,
    maxpool_backward_naive,
    maxpool_naive,
)

from prunekit import archspec
from prunekit.archspec import LayerDef, assemble
from prunekit.errors import BoundsError, StructureError, TrainingDiverged
from prunekit.nncore import (
    Network,
    TrainConfig,
    evaluate,
    gradient_check,
    lr_for_epoch,
    softmax,
    train,
)
from prunekit.nncore import layers
from prunekit.nncore.layers import BatchNorm, Conv, Linear, MaxPool, ReLU, col2im, im2col
from prunekit.nncore.model import cross_entropy
from prunekit.util import derive_seed

# the module, which the package's ``train`` function shadows
train_module = importlib.import_module("prunekit.nncore.train")


def small_conv_template(**kwargs):
    defs = [
        LayerDef("conv", out_channels=2, kernel=3, padding=1),
        LayerDef("batchnorm"),
        LayerDef("activation"),
        LayerDef("pool", kernel=2, stride=2),
        LayerDef("classifier-head"),
    ]
    return assemble("small", (1, 4, 4), 3, defs, **kwargs)


def separable_toy_set(n=200, seed=0):
    """Two well-separated constant-offset classes; linearly separable."""
    rng = np.random.default_rng(seed)
    images = np.zeros((n, 1, 4, 4), dtype=np.float32)
    labels = (np.arange(n) % 2).astype(np.int64)
    offsets = np.where(labels == 0, -1.5, 1.5)
    images += offsets[:, None, None, None]
    images += 0.3 * rng.normal(size=images.shape).astype(np.float32)
    return images, labels


def toy_template():
    return assemble("toy", (1, 4, 4), 2, [
        LayerDef("conv", out_channels=4, kernel=3, padding=1),
        LayerDef("activation"),
        LayerDef("pool", kernel=2, stride=2),
        LayerDef("classifier-head"),
    ])


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        t = toy_template()
        net = Network(t, seed=0)
        for arr in net.params().values():
            arr[...] = 0.0
        x = np.random.default_rng(0).normal(size=(3, 1, 4, 4)).astype(np.float32)
        assert np.all(net.forward(x) == 0.0)

    def test_identity_one_by_one_conv(self):
        defs = [LayerDef("conv", out_channels=1, kernel=1, bias=False)]
        t = assemble("id", (1, 3, 3), 2, defs, prunable_slots=())
        net = Network(t, seed=0)
        net.params()["layer00.weight"][...] = 1.0
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        out = net.forward(x)
        assert np.array_equal(out, x)

    def test_matches_naive_conv_pool_oracle(self):
        t = assemble("c", (2, 6, 6), 3, [
            LayerDef("conv", out_channels=3, kernel=3, stride=1, padding=1),
            LayerDef("pool", kernel=2, stride=2),
            LayerDef("classifier-head", bias=False),
        ])
        net = Network(t, seed=5).astype(np.float64)
        x = np.random.default_rng(2).normal(size=(2, 2, 6, 6))
        w = net.params()["layer00.weight"]
        b = net.params()["layer00.bias"]
        ref = conv2d_naive(x, w, b, stride=1, padding=1)
        ref = maxpool_naive(ref, kernel=2, stride=2)
        ref = ref.reshape(2, -1) @ net.params()["layer02.weight"].T
        got = net.forward(x)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_shape_mismatch_raises(self):
        net = Network(toy_template(), seed=0)
        with pytest.raises(StructureError):
            net.forward(np.zeros((2, 3, 4, 4), dtype=np.float32))

    def test_capture_returns_post_activation_maps(self):
        t = archspec.tiny4(num_classes=4)
        net = Network(t, seed=0)
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)
        _, captured = net.forward(x, capture=True)
        assert sorted(captured) == list(t.prunable_slots)
        for slot in t.prunable_slots:
            assert captured[slot].shape[1] == t.layers[slot].out_channels
            assert captured[slot].min() >= 0.0  # ReLU output


class TestKernels:
    """The im2col/col2im pair, Conv.backward and both MaxPool paths against
    loop oracles, in float64."""

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_im2col_layout_and_col2im_adjoint(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        n, c, h, w, kh, kw = 2, 3, 5, 6, 3, 2
        x = rng.normal(size=(n, c, h, w))
        cols, oh, ow = im2col(x, kh, kw, stride, padding)
        assert cols.shape == (c * kh * kw, oh * ow * n)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        grid = cols.reshape(c, kh, kw, oh, ow, n)
        for ci, i, j, yi, xi, ni in np.ndindex(grid.shape):
            assert grid[ci, i, j, yi, xi, ni] == xp[ni, ci, yi * stride + i, xi * stride + j]
        y = rng.normal(size=cols.shape)
        back = col2im(y, x.shape, kh, kw, stride, padding)
        assert back.shape == x.shape
        assert np.sum(cols * y) == pytest.approx(np.sum(x * back), rel=1e-12)

    @pytest.mark.parametrize("stride,padding,bias", [(1, 1, True), (2, 0, False), (2, 1, True)])
    def test_conv_backward_matches_loop_oracle(self, stride, padding, bias):
        rng = np.random.default_rng(stride + 3 * padding)
        conv = Conv(3, 4, (3, 3), stride, padding, bias, rng, np.float64)
        if bias:
            conv.bias[...] = rng.normal(size=4)
        x = rng.normal(size=(2, 3, 6, 5))
        out = conv.forward(x, train=True)
        np.testing.assert_allclose(out, conv2d_naive(x, conv.weight, conv.bias, stride, padding),
                                   rtol=1e-10, atol=1e-12)
        dout = rng.normal(size=out.shape)
        dx = conv.backward(dout)
        want_dx, want_dw, want_db = conv2d_backward_naive(x, conv.weight, dout, stride, padding)
        np.testing.assert_allclose(dx, want_dx, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(conv.d_weight, want_dw, rtol=1e-10, atol=1e-12)
        if bias:
            np.testing.assert_allclose(conv.d_bias, want_db, rtol=1e-10, atol=1e-12)

    # (2, 2) on even sides pools by reshape; the others take the im2col path
    @pytest.mark.parametrize("kernel,stride,h,w", [(2, 2, 4, 6), (3, 2, 5, 7), (2, 2, 5, 5)])
    def test_maxpool_matches_loop_oracle_with_ties(self, kernel, stride, h, w):
        rng = np.random.default_rng(kernel * 100 + h)
        # values from {0, 1, 2} make most windows hold tied maxima
        x = rng.integers(0, 3, size=(2, 3, h, w)).astype(np.float64)
        pool = MaxPool(kernel, stride)
        out = pool.forward(x, train=True)
        np.testing.assert_array_equal(out, maxpool_naive(x, kernel, stride))
        dout = rng.normal(size=out.shape)
        np.testing.assert_allclose(pool.backward(dout),
                                   maxpool_backward_naive(x, dout, kernel, stride),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kernel,stride,side", [(2, 2, 4), (3, 2, 5)])
    def test_maxpool_tie_goes_to_first_window_element(self, kernel, stride, side):
        x = np.ones((1, 1, side, side))
        pool = MaxPool(kernel, stride)
        out = pool.forward(x, train=True)
        dx = pool.backward(np.ones_like(out))
        want = np.zeros_like(x)
        want[0, 0, ::stride, ::stride][:out.shape[2], :out.shape[3]] = 1.0
        np.testing.assert_array_equal(dx, want)

    def test_no_forward_cache_survives_backward(self):
        net = Network(small_conv_template(), seed=0)  # one layer of every kind
        x = np.random.default_rng(0).normal(size=(4, 1, 4, 4)).astype(np.float32)
        net.loss_and_grads(x, np.array([0, 1, 2, 0]))
        for idx, layer in enumerate(net.layers):
            assert layer._cache is None, idx


def spy_bands(monkeypatch):
    """Record the ``rows`` argument of every im2col call."""
    bands = []
    original = layers.im2col

    def recorded(*args, **kwargs):
        bands.append(kwargs.get("rows"))
        return original(*args, **kwargs)
    monkeypatch.setattr(layers, "im2col", recorded)
    return bands


class TestEvalConvBands:
    """The eval-mode Conv.forward, which unfolds and multiplies a band of
    output rows at a time, against the loop oracle and the training forward."""

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_loop_oracle(self, stride, padding, monkeypatch):
        rng = np.random.default_rng(40 + stride * 10 + padding)
        conv = Conv(3, 4, (3, 3), stride, padding, True, rng, np.float64)
        conv.bias[...] = rng.normal(size=4)
        x = rng.normal(size=(2, 3, 11, 6))
        out_h = (11 + 2 * padding - 3) // stride + 1
        out_w = (6 + 2 * padding - 3) // stride + 1
        # a budget of four output rows' columns; no out_h here is a multiple
        # of four, so the last band is always partial
        monkeypatch.setattr(Conv, "BAND_BYTES", 4 * 27 * out_w * 2 * 8)
        bands = spy_bands(monkeypatch)
        out = conv.forward(x, train=False)
        np.testing.assert_allclose(out, conv2d_naive(x, conv.weight, conv.bias, stride, padding),
                                   rtol=1e-10, atol=1e-12)
        starts = list(range(0, out_h, 4))
        assert bands == [(r0, min(r0 + 4, out_h)) for r0 in starts]
        assert len(bands) >= 2 and out_h % 4 != 0

    def test_eval_and_train_forward_agree(self, monkeypatch):
        rng = np.random.default_rng(50)
        conv = Conv(16, 4, (3, 3), 1, 1, True, rng, np.float64)
        conv.bias[...] = rng.normal(size=4)
        # at the default budget: two full bands and a half one
        band = Conv.BAND_BYTES // (16 * 9 * 20 * 8 * 8)
        x = rng.normal(size=(8, 16, 2 * band + band // 2, 20))
        bands = spy_bands(monkeypatch)
        evaluated = conv.forward(x, train=False)
        assert bands == [(0, band), (band, 2 * band), (2 * band, 2 * band + band // 2)]
        trained = conv.forward(x, train=True)
        # the training forward unfolds the same bands and keeps its input,
        # not columns
        _, kept, cols = conv._cache
        assert bands[3:] == bands[:3] and kept is x and cols is None
        np.testing.assert_allclose(evaluated, trained, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("make", [lambda: archspec.tiny4(num_classes=3),
                                      small_conv_template])
    def test_eval_forward_leaves_no_cache(self, make):
        t = make()
        net = Network(t, seed=0)
        x = np.random.default_rng(0).normal(size=(4, *t.input_shape)).astype(np.float32)
        net.forward(x, train=False, capture=True)
        for idx, layer in enumerate(net.layers):
            assert layer._cache is None, idx


class TestTrainConvBands:
    """A training Conv.forward runs banded too: a conv whose columns fit one
    band keeps them for backward, and any larger one keeps its input and
    rebuilds the whole batch's columns in backward."""

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_rebuilt_columns_match_oracle_and_one_band(self, stride, padding, monkeypatch):
        rng = np.random.default_rng(60 + stride * 10 + padding)
        conv = Conv(3, 4, (3, 3), stride, padding, True, rng, np.float64)
        conv.bias[...] = rng.normal(size=4)
        # BLAS may sum a tail narrower than its kernel in another order, so
        # at batch 16 every band, like each of vgg16's, spans a multiple of
        # 16 columns
        x = rng.normal(size=(16, 3, 11, 6))
        out_w = (6 + 2 * padding - 3) // stride + 1

        def step():
            out = conv.forward(x, train=True)
            kept = conv._cache[2] is not None
            dx = conv.backward(dout)
            return kept, out, conv.d_weight, conv.d_bias, dx

        dout = rng.normal(size=conv.forward(x, train=False).shape)
        kept, *one_band = step()
        assert kept
        # a budget of two output rows' columns
        monkeypatch.setattr(Conv, "BAND_BYTES", 2 * 27 * out_w * 16 * 8)
        kept, *banded = step()
        assert not kept
        for got, want in zip(banded, one_band):
            np.testing.assert_array_equal(got, want)
        out, d_weight, d_bias, dx = banded
        np.testing.assert_allclose(out, conv2d_naive(x, conv.weight, conv.bias, stride, padding),
                                   rtol=1e-10, atol=1e-12)
        want_dx, want_dw, want_db = conv2d_backward_naive(x, conv.weight, dout, stride, padding)
        np.testing.assert_allclose(dx, want_dx, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(d_weight, want_dw, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(d_bias, want_db, rtol=1e-10, atol=1e-12)

    def test_gradient_check_when_every_conv_rebuilds(self, monkeypatch):
        monkeypatch.setattr(Conv, "BAND_BYTES", 1)  # one output row per band
        net = Network(two_conv_template(), seed=7).astype(np.float64)
        x = np.random.default_rng(2).normal(size=(3, 2, 5, 5))
        net.forward(x, train=True)
        convs = [layer for layer in net.layers if isinstance(layer, Conv)]
        assert len(convs) == 2 and all(conv._cache[2] is None for conv in convs)
        assert gradient_check(net, x, np.array([0, 1, 2])) < 1e-4

    def test_multi_band_forward_holds_no_columns(self, monkeypatch):
        rng = np.random.default_rng(70)
        conv = Conv(16, 8, (3, 3), 1, 1, True, rng, np.float32)
        x = rng.normal(size=(8, 16, 16, 16)).astype(np.float32)
        col_bytes = 16 * 9 * 16 * 16 * 8 * 4
        monkeypatch.setattr(Conv, "BAND_BYTES", col_bytes // 8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv.forward(x, train=True)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the output (an eighteenth of the columns) and the cache entry
        assert held < col_bytes / 2
        assert out.shape == (8, 8, 16, 16)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0)])
    def test_offset_path_equals_kept_columns_float32(self, stride, padding, monkeypatch):
        # float32 at batch 32, as in a vgg training step; the float64 case is
        # test_rebuilt_columns_match_oracle_and_one_band
        rng = np.random.default_rng(80 + stride * 10 + padding)
        conv = Conv(16, 32, (3, 3), stride, padding, True, rng, np.float32)
        x = batch_innermost(rng.normal(size=(32, 16, 16, 16)).astype(np.float32))
        dout = batch_innermost(
            rng.normal(size=conv.forward(x, train=False).shape).astype(np.float32))

        def step():
            conv.forward(x, train=True)
            kept = conv._cache[2] is not None
            dx = conv.backward(dout)
            return kept, conv.d_weight.copy(), conv.d_bias.copy(), dx

        kept, *columns = step()
        assert kept
        monkeypatch.setattr(Conv, "BAND_BYTES", 1)
        kept, *offsets = step()
        assert not kept
        for got, want in zip(offsets, columns):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want)

    def test_offset_backward_holds_a_fraction_of_the_columns(self, monkeypatch):
        rng = np.random.default_rng(90)
        conv = Conv(16, 16, (3, 3), 1, 1, True, rng, np.float32)
        x = batch_innermost(rng.normal(size=(16, 16, 16, 16)).astype(np.float32))
        dout = batch_innermost(rng.normal(size=x.shape).astype(np.float32))
        col_bytes = 16 * 9 * 16 * 16 * 16 * 4
        monkeypatch.setattr(Conv, "BAND_BYTES", col_bytes // 8)
        conv.forward(x, train=True)
        assert conv._cache[2] is None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dx = conv.backward(dout)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the padded input, one offset's block and the input gradient, each
        # about a ninth of the columns
        assert peak < col_bytes / 2
        assert dx.shape == x.shape

    def test_gradients_do_not_alias_the_workspace(self, monkeypatch):
        monkeypatch.setattr(Conv, "BAND_BYTES", 1)
        rng = np.random.default_rng(100)
        runs = []
        for template in (two_conv_template(), small_conv_template()):
            net = Network(template, seed=1)
            conv = net.layers[0]
            n, shape = 4, template.input_shape
            x = batch_innermost(rng.normal(size=(n, *shape)).astype(np.float32))
            out = conv.forward(x, train=True)
            assert conv._cache[2] is None
            dx = conv.backward(np.ones_like(out))
            runs.append((conv.d_weight, dx, conv.d_weight.copy(), dx.copy()))
        for d_weight, dx, d_weight_then, dx_then in runs:
            assert not np.shares_memory(d_weight, layers.WORKSPACE._buf)
            assert not np.shares_memory(dx, layers.WORKSPACE._buf)
            np.testing.assert_array_equal(d_weight, d_weight_then)
            np.testing.assert_array_equal(dx, dx_then)

    def test_tiny4_training_convs_keep_their_columns(self):
        t = archspec.tiny4(num_classes=3)
        net = Network(t, seed=0)
        x = np.random.default_rng(0).normal(size=(128, *t.input_shape)).astype(np.float32)
        net.forward(x, train=True)
        convs = [layer for layer in net.layers if isinstance(layer, Conv)]
        assert len(convs) == 4 and all(conv._cache[2] is not None for conv in convs)


def two_conv_template():
    return assemble("gc2", (2, 5, 5), 3, [
        LayerDef("conv", out_channels=3, kernel=3, padding=1),
        LayerDef("activation"),
        LayerDef("conv", out_channels=2, kernel=3, padding=1),
        LayerDef("activation"),
        LayerDef("classifier-head"),
    ])


class TestFirstLayerBackward:
    """Network.backward forms no gradient with respect to the network input."""

    def test_first_conv_skips_col2im(self, monkeypatch):
        net = Network(two_conv_template(), seed=7).astype(np.float64)
        x = np.random.default_rng(2).normal(size=(3, 2, 5, 5))
        y = np.array([0, 1, 2])
        scattered = []
        original = layers.col2im

        def recorded(dcols, x_shape, *args):
            scattered.append(x_shape)
            return original(dcols, x_shape, *args)
        monkeypatch.setattr(layers, "col2im", recorded)
        net.forward(x, train=True)
        assert net.backward(np.ones((3, 3)) / 3) is None
        # only the second conv scatters back, onto its (3, 3, 5, 5) input
        assert scattered == [(3, 3, 5, 5)]
        assert gradient_check(net, x, y) < 1e-4

    @pytest.mark.parametrize("first", ["batchnorm", "activation", "pool", "fc"])
    def test_first_layer_of_any_kind_trains(self, first):
        head = [LayerDef("conv", out_channels=3, kernel=3, padding=1),
                LayerDef("activation"), LayerDef("classifier-head")]
        defs = {
            "batchnorm": [LayerDef("batchnorm")] + head,
            "activation": [LayerDef("activation")] + head,
            "pool": [LayerDef("pool", kernel=2, stride=2)] + head,
            "fc": [LayerDef("fc", out_channels=5), LayerDef("activation"),
                   LayerDef("classifier-head")],
        }[first]
        t = assemble(f"{first}-first", (1, 4, 4), 2, defs)
        net = Network(t, seed=3).astype(np.float64)
        rng = np.random.default_rng(4)
        # after a leading ReLU a window can see only zeros, and a zero bias
        # would then sit its conv output on the next ReLU's kink
        for name, arr in net.params().items():
            if name.endswith("bias"):
                arr[...] = rng.normal(size=arr.shape)
        x = rng.normal(size=(4, 1, 4, 4))
        y = np.array([0, 1, 1, 0])
        assert gradient_check(net, x, y) < 1e-4
        images, labels = separable_toy_set(n=64)
        net = Network(t, seed=3)
        cfg = TrainConfig(epochs=3, batch_size=16, initial_lr=0.05, lr_drops=(),
                          weight_decay=0.0, seed=0)
        before = {k: v.copy() for k, v in net.params().items()}
        history = train(net, images, labels, images, labels, cfg)
        assert len(history) == 3 and all(np.isfinite(h.train_loss) for h in history)
        assert any(not np.array_equal(v, before[k]) for k, v in net.params().items())


def batch_innermost(a):
    """The values of an (N, C, H, W) array, held as a (C, H, W, N) buffer."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def make_conv(stride, padding):
    conv = Conv(3, 4, (3, 3), stride, padding, True, np.random.default_rng(1), np.float32)
    conv.bias[...] = np.random.default_rng(2).normal(size=4)
    return conv


def make_eval_batchnorm():
    bn = BatchNorm(3, np.float32)
    rng = np.random.default_rng(3)
    bn.running_mean[...] = rng.normal(size=3)
    bn.running_var[...] = rng.uniform(0.5, 2.0, size=3)
    bn.gamma[...] = rng.normal(size=3)
    return bn


LAYOUT_CASES = {
    "conv-s1-p0": (lambda: make_conv(1, 0), (2, 3, 6, 5)),
    "conv-s1-p1": (lambda: make_conv(1, 1), (2, 3, 6, 5)),
    "conv-s2-p0": (lambda: make_conv(2, 0), (2, 3, 6, 5)),
    "conv-s2-p1": (lambda: make_conv(2, 1), (2, 3, 6, 5)),
    "batchnorm": (lambda: BatchNorm(3, np.float32), (4, 3, 5, 6)),
    "relu": (ReLU, (2, 3, 4, 5)),
    "maxpool-reshape": (lambda: MaxPool(2, 2), (2, 3, 4, 6)),
    "maxpool-im2col": (lambda: MaxPool(3, 2), (2, 3, 5, 7)),
    "linear-4d": (lambda: Linear(3 * 4 * 5, 6, True, np.random.default_rng(4), np.float32),
                  (2, 3, 4, 5)),
}


class TestBatchInnermostLayout:
    """Every layer gives identical results for a C-contiguous (N, C, H, W)
    input and for a batch-innermost view of the same values, and inside a
    network each activation stays batch-innermost."""

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_training_pass_independent_of_input_layout(self, case):
        make, shape = LAYOUT_CASES[case]
        rng = np.random.default_rng(5)
        # integer values make MaxPool windows hold tied maxima
        x = rng.integers(-3, 4, size=shape).astype(np.float32)
        runs = []
        for layout in (np.ascontiguousarray, batch_innermost):
            layer = make()
            out = layer.forward(layout(x), train=True)
            dout = np.random.default_rng(6).normal(size=out.shape).astype(np.float32)
            if dout.ndim == 4:
                dout = layout(dout)
            dx = layer.backward(dout)
            runs.append((out, dx, layer.grads()))
        (out_a, dx_a, grads_a), (out_b, dx_b, grads_b) = runs
        assert np.array_equal(out_a, out_b)
        assert dx_a.shape == shape
        assert np.array_equal(dx_a, dx_b)
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name]), name

    def test_eval_batchnorm_independent_of_input_layout(self):
        x = np.random.default_rng(7).normal(size=(4, 3, 5, 6)).astype(np.float32)
        out_a = make_eval_batchnorm().forward(x, train=False)
        out_b = make_eval_batchnorm().forward(batch_innermost(x), train=False)
        assert np.array_equal(out_a, out_b)

    @pytest.mark.parametrize("train", [False, True])
    def test_tiny4_activations_stay_batch_innermost(self, train, monkeypatch):
        net = Network(archspec.tiny4(num_classes=4), seed=0)
        outputs = []
        for layer in net.layers:
            def recorded(*args, _forward=layer.forward, _layer=layer, **kwargs):
                out = _forward(*args, **kwargs)
                outputs.append((_layer, out))
                return out
            monkeypatch.setattr(layer, "forward", recorded)
        x = np.random.default_rng(8).normal(size=(4, 3, 16, 16)).astype(np.float32)
        net.forward(x, train=train)
        checked = 0
        for layer, out in outputs:
            if isinstance(layer, (Conv, BatchNorm, ReLU, MaxPool)):
                assert out.transpose(1, 2, 3, 0).flags.c_contiguous, type(layer).__name__
                checked += 1
        assert checked == 16

    def test_fc_before_head_backpropagates(self):
        # conv-relu-fc-relu-head: the fc layer takes the 4-D conv output and
        # the head a 2-D one, and backward restores each input's shape
        t = assemble("fc-net", (2, 4, 4), 3, [
            LayerDef("conv", out_channels=3, kernel=3, padding=1),
            LayerDef("activation"),
            LayerDef("fc", out_channels=5),
            LayerDef("activation"),
            LayerDef("classifier-head"),
        ])
        net = Network(t, seed=0).astype(np.float64)
        x = np.random.default_rng(9).normal(size=(4, 2, 4, 4))
        y = np.array([0, 1, 2, 0])
        assert np.isfinite(net.loss_and_grads(x, y))
        assert sorted(net.params()) == [
            "layer00.bias", "layer00.weight", "layer02.bias", "layer02.weight",
            "layer04.bias", "layer04.weight"]
        assert gradient_check(net, x, y) < 1e-4


class TestSoftmaxAndLoss:
    def test_probabilities_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(64, 10)) * 5
        p = softmax(logits)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_cross_entropy_of_uniform_logits(self):
        logits = np.zeros((4, 10))
        labels = np.array([0, 3, 5, 9])
        loss, grad = cross_entropy(logits, labels)
        assert loss == pytest.approx(np.log(10))
        assert grad.shape == (4, 10)


class TestEvaluate:
    def test_constant_predictor_on_balanced_set(self):
        t = toy_template()
        net = Network(t, seed=0)
        for arr in net.params().values():
            arr[...] = 0.0  # argmax ties resolve to class 0
        n = 50
        images = np.random.default_rng(0).normal(size=(n, 1, 4, 4)).astype(np.float32)
        labels = (np.arange(n) % 2).astype(np.int64)
        assert evaluate(net, images, labels) == pytest.approx(0.5)

    def test_two_of_three_correct(self):
        class Stub:
            def predict_logits(self, x, batch_size=256):
                return np.array([[1.0, 0], [1.0, 0], [0, 1.0]])
        acc = evaluate(Stub(), np.zeros((3, 1, 1, 1)), np.array([0, 0, 0]))
        assert acc == pytest.approx(2 / 3)

    def test_empty_set_rejected(self):
        net = Network(toy_template(), seed=0)
        with pytest.raises(ValueError):
            evaluate(net, np.zeros((0, 1, 4, 4), dtype=np.float32), np.zeros(0, dtype=np.int64))


class TestTrainConfig:
    def test_rejects_fraction_at_one(self):
        with pytest.raises(BoundsError):
            TrainConfig(lr_drops=((1.0, 10.0),))

    def test_rejects_non_increasing_fractions(self):
        with pytest.raises(BoundsError):
            TrainConfig(lr_drops=((0.5, 10.0), (0.5, 10.0)))

    def test_rejects_factor_of_one(self):
        with pytest.raises(BoundsError):
            TrainConfig(lr_drops=((0.5, 1.0),))

    def test_lr_drops_at_half_and_three_quarters(self):
        cfg = TrainConfig(epochs=160, initial_lr=0.1)
        assert lr_for_epoch(cfg, 0) == 0.1
        assert lr_for_epoch(cfg, 79) == 0.1
        assert lr_for_epoch(cfg, 80) == pytest.approx(0.01)
        assert lr_for_epoch(cfg, 119) == pytest.approx(0.01)
        assert lr_for_epoch(cfg, 120) == pytest.approx(0.001)

    def test_short_horizon_starts_at_initial_rate(self):
        cfg = TrainConfig(epochs=1, initial_lr=0.1)
        assert lr_for_epoch(cfg, 0) == 0.1


class TestTrain:
    def test_zero_epochs_leave_model_unchanged(self):
        images, labels = separable_toy_set()
        net = Network(toy_template(), seed=1)
        before = {k: v.copy() for k, v in net.params().items()}
        history = train(net, images, labels, images, labels,
                        TrainConfig(epochs=0, seed=0))
        assert history == []
        for k, v in net.params().items():
            assert np.array_equal(v, before[k])

    def test_separable_set_reaches_high_accuracy(self):
        images, labels = separable_toy_set()
        net = Network(toy_template(), seed=11)
        cfg = TrainConfig(epochs=20, batch_size=32, initial_lr=0.05,
                          lr_drops=(), weight_decay=0.0, seed=0)
        history = train(net, images, labels, images, labels, cfg)
        assert history[-1].test_accuracy >= 0.95

    def test_pure_decay_step_scales_weights(self):
        # zero input makes the data gradient of a bias-free linear layer
        # exactly zero, so a single step applies only the decay term:
        # w <- w * (1 - lr * lam)
        defs = [LayerDef("classifier-head", bias=False)]
        t = assemble("lin", (1, 1, 1), 2, defs)
        net = Network(t, seed=3)
        w0 = net.params()["layer00.weight"].copy()
        lr, lam = 0.1, 0.01
        images = np.zeros((4, 1, 1, 1), dtype=np.float32)
        labels = np.zeros(4, dtype=np.int64)
        cfg = TrainConfig(epochs=1, batch_size=4, initial_lr=lr, lr_drops=(),
                          momentum=0.0, weight_decay=lam, seed=0, loss="mse")
        train(net, images, labels, images, labels, cfg)
        np.testing.assert_allclose(net.params()["layer00.weight"],
                                   w0 * (1 - lr * lam), rtol=1e-6)

    def test_loss_decreases_over_first_five_full_batch_steps(self):
        images, labels = separable_toy_set(n=64)
        net = Network(toy_template(), seed=5)
        cfg = TrainConfig(epochs=5, batch_size=64, initial_lr=0.01,
                          lr_drops=(), weight_decay=0.0, seed=0)
        history = train(net, images, labels, images, labels, cfg)
        losses = [h.train_loss for h in history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_identical_seeds_give_bitwise_identical_traces(self):
        images, labels = separable_toy_set()
        cfg = TrainConfig(epochs=6, batch_size=32, seed=42)
        for template in (toy_template, small_conv_template):
            runs = []
            for _ in range(2):
                net = Network(template(), seed=7)
                runs.append(train(net, images, labels, images, labels, cfg))
            a, b = runs
            assert [(s.train_loss, s.test_accuracy) for s in a] == \
                   [(s.train_loss, s.test_accuracy) for s in b]

    @pytest.mark.parametrize("band_bytes", [Conv.BAND_BYTES, 1])
    def test_per_layer_update_equals_a_whole_network_update(self, band_bytes, monkeypatch):
        # band_bytes 1 puts the conv on the offset backward, whose weight
        # gradient is a transposed view the update works in
        monkeypatch.setattr(Conv, "BAND_BYTES", band_bytes)
        images, labels = separable_toy_set(n=48)
        cfg = TrainConfig(epochs=2, batch_size=16, lr_drops=((0.5, 10.0),), seed=3)
        net = Network(small_conv_template(), seed=4)
        train(net, images, labels, images, labels, cfg)

        # every gradient first, then lr * (g + wd * w) for every parameter
        ref = Network(small_conv_template(), seed=4)
        rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
        velocity = {k: np.zeros_like(p) for k, p in ref.params().items()}
        for epoch in range(cfg.epochs):
            lr = lr_for_epoch(cfg, epoch)
            order = rng.permutation(len(images))
            for start in range(0, len(images), cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                ref.loss_and_grads(images[idx], labels[idx])
                grads = ref.grads()
                for k, w in ref.params().items():
                    v = velocity[k]
                    v *= cfg.momentum
                    v -= lr * (grads[k] + cfg.weight_decay * w)
                    w += v
        want = ref.state_arrays()
        for k, got in net.state_arrays().items():
            np.testing.assert_array_equal(got, want[k], err_msg=k)

    def test_each_update_runs_when_no_later_layer_holds_a_gradient(self, monkeypatch):
        images, labels = separable_toy_set(n=32)
        net = Network(small_conv_template(), seed=0)
        update = train_module._sgd_update
        order = []

        def checked(layer, *args):
            k = net.layers.index(layer)
            order.append(k)
            assert all(g is not None for g in layer.grads().values())
            for later in net.layers[k + 1:]:
                assert all(g is None for g in later.grads().values())
            update(layer, *args)

        monkeypatch.setattr(train_module, "_sgd_update", checked)
        cfg = TrainConfig(epochs=1, batch_size=16, lr_drops=(), seed=0)
        train(net, images, labels, images, labels, cfg)
        assert order == [4, 3, 2, 1, 0] * 2

    def test_update_allocates_one_weight_sized_temporary(self):
        rng = np.random.default_rng(0)
        conv = Conv(512, 512, (3, 3), 1, 1, True, rng, np.float32)
        conv.d_weight = rng.standard_normal(conv.weight.shape, dtype=np.float32)
        conv.d_bias = rng.standard_normal(conv.bias.shape, dtype=np.float32)
        velocity = {k: np.zeros_like(p) for k, p in conv.params().items()}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_module._sgd_update(conv, velocity, 0.1, TrainConfig())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # wd * w; the step itself works in the released gradient
        assert peak < 1.5 * conv.weight.nbytes
        assert conv.d_weight is None and conv.d_bias is None

    def test_no_layer_holds_a_gradient_after_training(self):
        images, labels = separable_toy_set(n=32)
        net = Network(small_conv_template(), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=16, lr_drops=(), seed=0)
        train(net, images, labels, images, labels, cfg)
        grads = net.grads()
        assert grads and all(g is None for g in grads.values())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_batch_index(self):
        images, labels = separable_toy_set(n=64)
        net = Network(toy_template(), seed=2)
        # absurd lr forces divergence within a few batches
        cfg = TrainConfig(epochs=50, batch_size=16, initial_lr=1e6,
                          lr_drops=(), seed=0)
        with pytest.raises(TrainingDiverged) as err:
            train(net, images, labels, images, labels, cfg)
        assert err.value.batch_index >= 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_step_moves_no_parameter(self, monkeypatch):
        images, labels = separable_toy_set(n=64)
        net = Network(toy_template(), seed=2)
        cfg = TrainConfig(epochs=50, batch_size=16, initial_lr=1e6,
                          lr_drops=(), seed=0)
        step = Network.loss_and_grads
        before = []

        def snapshot_then_step(self, *args, **kwargs):
            before.append({k: v.copy() for k, v in self.params().items()})
            return step(self, *args, **kwargs)

        monkeypatch.setattr(Network, "loss_and_grads", snapshot_then_step)
        with pytest.raises(TrainingDiverged):
            train(net, images, labels, images, labels, cfg)
        for k, v in net.params().items():
            np.testing.assert_array_equal(v, before[-1][k], err_msg=k)

    def test_bare_loss_and_grads_sets_every_gradient(self):
        images, labels = separable_toy_set(n=8)
        net = Network(small_conv_template(), seed=0)
        net.loss_and_grads(images, labels)
        grads, params = net.grads(), net.params()
        assert grads.keys() == params.keys()
        for k, g in grads.items():
            assert g is not None and g.shape == params[k].shape, k

    def test_trace_csv_has_header_and_rows(self, tmp_path):
        images, labels = separable_toy_set(n=64)
        path = tmp_path / "trace.csv"
        cfg = TrainConfig(epochs=3, batch_size=32, seed=0)
        for _ in range(2):  # a rerun into the same path replaces the trace
            net = Network(toy_template(), seed=2)
            train(net, images, labels, images, labels, cfg, trace_path=str(path))
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "epoch,lr,train_loss,test_accuracy"
            assert len(lines) == 4


class TestGradientCheck:
    def test_linear_layer_quadratic_loss_is_exact(self):
        defs = [LayerDef("classifier-head")]
        t = assemble("lin", (1, 2, 2), 2, defs)
        net = Network(t, seed=5).astype(np.float64)
        x = np.random.default_rng(3).normal(size=(4, 1, 2, 2))
        y = np.array([0, 1, 0, 1])
        assert gradient_check(net, x, y, loss="mse") < 1e-7

    def test_two_conv_net_under_threshold(self):
        defs = [
            LayerDef("conv", out_channels=3, kernel=3, padding=1),
            LayerDef("activation"),
            LayerDef("conv", out_channels=2, kernel=3, padding=1),
            LayerDef("activation"),
            LayerDef("classifier-head"),
        ]
        t = assemble("gc2", (2, 5, 5), 3, defs)
        net = Network(t, seed=7).astype(np.float64)
        x = np.random.default_rng(2).normal(size=(3, 2, 5, 5))
        y = np.array([0, 1, 2])
        assert gradient_check(net, x, y) < 1e-4

    def test_all_layer_kinds_under_threshold(self):
        t = small_conv_template()
        net = Network(t, seed=3).astype(np.float64)
        x = np.random.default_rng(1).normal(size=(4, 1, 4, 4))
        y = np.array([0, 1, 2, 0])
        assert gradient_check(net, x, y) < 1e-4

    def test_zero_epsilon_rejected(self):
        net = Network(toy_template(), seed=0).astype(np.float64)
        x = np.zeros((2, 1, 4, 4))
        with pytest.raises(BoundsError):
            gradient_check(net, x, np.array([0, 1]), epsilon=0)

    def test_leaves_every_state_array_unchanged(self):
        """The probes run training forwards, which move the batchnorm running
        statistics; the check puts every state array back."""
        net = Network(small_conv_template(), seed=3).astype(np.float64)
        x = np.random.default_rng(1).normal(size=(4, 1, 4, 4))
        y = np.array([0, 1, 2, 0])
        net.loss_only(x, y)  # running statistics away from their initial values
        before = {k: v.copy() for k, v in net.state_arrays().items()}
        assert any(".running_" in k for k in before)
        gradient_check(net, x, y)
        after = net.state_arrays()
        assert set(after) == set(before)
        for name, arr in before.items():
            np.testing.assert_array_equal(after[name], arr, err_msg=name)

    def test_single_precision_model_rejected(self):
        net = Network(toy_template(), seed=0)
        with pytest.raises(ValueError):
            gradient_check(net, np.zeros((2, 1, 4, 4)), np.array([0, 1]))


class TestBatchNormSemantics:
    def test_eval_uses_running_statistics(self):
        bn = BatchNorm(3, np.float32)
        rng = np.random.default_rng(0)
        for _ in range(20):
            bn.forward(rng.normal(2.0, 3.0, size=(8, 3, 4, 4)).astype(np.float32), train=True)
        x = rng.normal(2.0, 3.0, size=(64, 3, 4, 4)).astype(np.float32)
        out = bn.forward(x, train=False)
        assert abs(float(out.mean())) < 0.3
        assert abs(float(out.std()) - 1.0) < 0.3


class TestDeterministicInit:
    def test_same_seed_same_weights(self):
        t = toy_template()
        a, b = Network(t, seed=9), Network(t, seed=9)
        for ka, kb in zip(a.params().values(), b.params().values()):
            assert np.array_equal(ka, kb)

    def test_different_seed_different_weights(self):
        t = toy_template()
        a, b = Network(t, seed=9), Network(t, seed=10)
        assert any(not np.array_equal(x, y)
                   for x, y in zip(a.params().values(), b.params().values()))


class RecordingPool(ThreadPoolExecutor):
    """A thread pool that records every callable it is handed."""

    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers)
        self.calls = []
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        self.calls.append(fn)
        self.futures.append(super().submit(fn, *args, **kwargs))
        return self.futures[-1]


@pytest.fixture
def gemm_split(monkeypatch):
    """Split conv products whatever runner the tests are on: BLAS counts as
    one thread, the cutoff is 2^24 multiply-adds, and the pool records what
    it runs. Returns ``(pool, use)``; ``use(cpus)`` sets the usable CPU
    count, where 1 keeps every product whole."""
    pool = RecordingPool(max_workers=3)
    cpus = [1]
    monkeypatch.setattr(layers, "_POOL", pool)
    monkeypatch.setattr(layers, "_blas_one_thread", lambda: True)
    monkeypatch.setattr(layers, "_SPLIT_MACS", 1 << 24)
    monkeypatch.setattr(layers, "_usable_cpus", lambda: cpus[0])
    yield pool, lambda n: cpus.__setitem__(0, n)
    pool.shutdown()


def vgg16_conv_shapes():
    """(in_channels, out_channels, side) of each distinct conv of vgg16-cifar;
    every one is 3x3, stride 1, padding 1."""
    return sorted({(s.in_channels, s.out_channels, s.out_spatial[0])
                   for s in archspec.vgg16_cifar(10).layers if s.kind == archspec.KIND_CONV})


def shape_id(value):
    return "x".join(map(str, value)) if isinstance(value, tuple) else None


def conv_run(shape, batch, train):
    """A seeded vgg16 conv and batch; the returned call runs its forward, and
    in training its backward, and gives the output, then the weight, bias
    and input gradients."""
    in_c, out_c, side = shape
    rng = np.random.default_rng(in_c * 1000 + out_c)
    conv = Conv(in_c, out_c, (3, 3), 1, 1, True, rng, np.float32)
    conv.bias[...] = rng.normal(size=out_c)
    x = batch_innermost(rng.standard_normal((batch, in_c, side, side), dtype=np.float32))
    dout = batch_innermost(rng.standard_normal((batch, out_c, side, side), dtype=np.float32))

    def run():
        out = conv.forward(x, train)
        if not train:
            return [out]
        dx = conv.backward(dout)
        return [out, conv.d_weight, conv.d_bias, dx]
    return run


class TestSplitGemm:
    """Large conv products split across threads give the serial run's bits."""

    KEPT = 1 << 40  # a Conv.BAND_BYTES that keeps every conv's columns

    def split_equals_serial(self, gemm_split, run):
        pool, use = gemm_split
        use(1)
        serial = run()
        assert not pool.calls
        use(2)
        split = run()
        assert pool.calls and all(fn is np.matmul for fn in pool.calls)
        for a, b in zip(serial, split, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("batch", [32, 64])
    @pytest.mark.parametrize("shape", vgg16_conv_shapes(), ids=shape_id)
    def test_eval_forward(self, shape, batch, gemm_split):
        self.split_equals_serial(gemm_split, conv_run(shape, batch, train=False))

    @pytest.mark.parametrize("batch", [32, 64])
    @pytest.mark.parametrize("shape", vgg16_conv_shapes(), ids=shape_id)
    def test_training_with_kept_columns(self, shape, batch, gemm_split, monkeypatch):
        monkeypatch.setattr(Conv, "BAND_BYTES", self.KEPT)
        self.split_equals_serial(gemm_split, conv_run(shape, batch, train=True))

    # conv1 (3 input channels) by offset reaches the cutoff only at batch 128
    @pytest.mark.parametrize("shape, batch", [
        (shape, batch) for batch in (32, 64, 128) for shape in vgg16_conv_shapes()
        if shape[0] > 3 or batch == 128], ids=shape_id)
    def test_training_by_offset(self, shape, batch, gemm_split, monkeypatch):
        in_c, _, side = shape
        # two bands of columns, so backward works by offset
        monkeypatch.setattr(Conv, "BAND_BYTES", in_c * 9 * side * side * batch * 4 // 2)
        self.split_equals_serial(gemm_split, conv_run(shape, batch, train=True))

    @pytest.mark.parametrize("m, k, n, transposed", [
        (64, 576, 2048, False), (128, 1152, 4096, False), (512, 4608, 256, False),
        (64, 32768, 64, True), (512, 2048, 512, True), (256, 2304, 1000, False)])
    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_uneven_pieces(self, m, k, n, transposed, cpus, gemm_split):
        """Pieces need not be equal, and a transposed operand is split as
        its view."""
        pool, use = gemm_split
        rng = np.random.default_rng(m + n)
        a = rng.standard_normal((m, k), dtype=np.float32)
        b = rng.standard_normal((n, k), dtype=np.float32).T if transposed else \
            rng.standard_normal((k, n), dtype=np.float32)
        use(cpus)
        out = layers._matmul(a, b, np.empty((m, n), dtype=np.float32))
        pieces = min(cpus, m * k * n // (layers._SPLIT_MACS // 2), max(m, n) // 16)
        assert len(pool.calls) == pieces - 1
        assert np.array_equal(out, a @ b)

    def test_a_failed_piece_raises_after_every_piece_ends(self, gemm_split):
        pool, use = gemm_split
        use(4)
        a = np.ones((64, 576), dtype=np.float32)
        b = np.ones((576, 4096), dtype=np.float32)
        with pytest.raises(TypeError) as whole:
            np.matmul(a, b, out=np.empty((64, 4096), dtype=np.int32))
        with pytest.raises(TypeError) as split:
            layers._matmul(a, b, np.empty((64, 4096), dtype=np.int32))
        assert str(split.value) == str(whole.value)
        assert len(pool.futures) == 3 and all(f.done() for f in pool.futures)

    def test_only_the_calling_thread_runs_prunekit_code(self, gemm_split, monkeypatch):
        """Helper threads run np.matmul alone, so a tracer that wraps im2col
        and every layer's forward and backward sees one thread."""
        pool, use = gemm_split
        use(2)
        threads = set()

        def recorded(fn):
            def call(*args, **kwargs):
                threads.add(threading.current_thread())
                return fn(*args, **kwargs)
            return call
        monkeypatch.setattr(layers, "im2col", recorded(layers.im2col))
        for cls in (Conv, BatchNorm, ReLU, MaxPool, Linear):
            for name in ("forward", "backward"):
                monkeypatch.setattr(cls, name, recorded(getattr(cls, name)))
        defs = [LayerDef(archspec.KIND_CONV, out_channels=64, kernel=3, stride=1, padding=1),
                LayerDef(archspec.KIND_BN), LayerDef(archspec.KIND_ACT),
                LayerDef(archspec.KIND_CONV, out_channels=64, kernel=3, stride=1, padding=1),
                LayerDef(archspec.KIND_ACT), LayerDef(archspec.KIND_POOL, kernel=2, stride=2),
                LayerDef(archspec.KIND_HEAD)]
        net = Network(assemble("split", (3, 32, 32), 10, defs), seed=0)
        x = np.random.default_rng(0).standard_normal((32, 3, 32, 32), dtype=np.float32)
        net.loss_and_grads(x, np.arange(32) % 10)
        net.forward(x, train=False)
        assert pool.calls and all(fn is np.matmul for fn in pool.calls)
        assert threads == {threading.main_thread()}

    def test_desk_training_starts_no_pool(self):
        """tiny4 at the desk's batch sizes, on a runner forced to look like
        a two-CPU machine with one BLAS thread: no product reaches the
        cutoff, so no pool is made and nothing new is imported."""
        script = textwrap.dedent("""
            import sys
            from prunekit import archspec, data
            from prunekit.nncore import Network, TrainConfig, layers, train
            layers._usable_cpus = lambda: 2
            layers._blas_one_thread = lambda: True
            train_set, test_set = data.make_blobs(data.SyntheticSpec(
                num_classes=4, train_size=256, test_size=256, image_size=16, seed=0))
            net = Network(archspec.tiny4(num_classes=4), seed=0)
            train(net, train_set.images, train_set.labels, test_set.images,
                  test_set.labels, TrainConfig(epochs=1, batch_size=128, seed=0))
            assert layers._POOL is None
            assert "concurrent.futures" not in sys.modules
        """)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                              timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_has_no_pool(self, monkeypatch):
        monkeypatch.setattr(layers, "_POOL", None)
        monkeypatch.setattr(layers, "_blas_one_thread", lambda: True)
        monkeypatch.setattr(layers, "_usable_cpus", lambda: 2)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 576), dtype=np.float32)
        b = rng.standard_normal((576, 2048), dtype=np.float32)
        layers._matmul(a, b, np.empty((64, 2048), dtype=np.float32))
        parent_pool = layers._POOL
        assert parent_pool is not None

        def child():
            # the parent's pool is gone, and the first split makes a new one
            had_none = layers._POOL is None
            out = layers._matmul(a, b, np.empty((64, 2048), dtype=np.float32))
            sys.exit(0 if had_none and layers._POOL is not None
                     and np.array_equal(out, a @ b) else 1)
        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
        parent_pool.shutdown()
        assert proc.exitcode == 0


@pytest.mark.parametrize("env, one", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
    ({"OMP_NUM_THREADS": "2"}, False),
])
def test_blas_one_thread_reads_the_pinning_variables(env, one, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert layers._blas_one_thread() is one
