"""Spans around calls into prunekit, installed from outside the package.

Each wrapper replaces a function at the name its caller looks it up by (a
module global, a package attribute or a class attribute), records one span
per call and restores the original on ``uninstall``. Spans nest through a
stack, so every span's self time is its duration minus the time its child
spans cover, and self times never overlap.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict

from prunekit import cluster, data, featstats, nncore, pipeline, report, swarm
from prunekit.nncore import checkpoint, layers, model

# the layer classes and the tracing name of each
LAYER_KINDS = {"Conv": "conv", "BatchNorm": "batchnorm", "ReLU": "relu",
               "MaxPool": "maxpool", "Linear": "linear"}
CONV_SLOTS = 13  # vgg16-cifar; per-slot metrics exist for each of its convs


class Tracer:
    """Collects spans from wrapped functions until ``uninstall``."""

    def __init__(self):
        self.total = defaultdict(float)    # name -> inclusive seconds
        self.self_s = defaultdict(float)   # name -> self seconds
        self.calls = Counter()             # name -> call count
        self.under = defaultdict(float)    # (parent, name) -> inclusive seconds
        self.calls_under = Counter()       # (parent, name) -> call count
        self.durations = defaultdict(list)  # name -> per-call seconds
        self.counts = Counter()            # work counted by hooks
        self.conv_slots: dict = {}         # id(Conv) -> 1-based slot number
        self._stack: list = []
        self._patches: list = []

    # -- spans ---------------------------------------------------------------
    def wrap(self, name, fn, hook=None):
        """``fn`` recorded as span ``name``; ``hook(args, result)`` counts work."""
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.total[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                self.durations[name].append(elapsed)
                self.under[(parent, name)] += elapsed
                self.calls_under[(parent, name)] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, hook=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation --------------------------------------------------------
    def install(self):
        """Wrap every call site the per-layer metrics read."""
        train_mod = sys.modules["prunekit.nncore.train"]

        for stage in pipeline.STAGES:
            self.patch(pipeline.ExperimentRun, f"stage_{stage}", f"pipeline.{stage}")
        self.patch(swarm.ProxyFitnessEvaluator, "evaluate", "swarm.evaluate")
        # pipeline binds train/save_model at import; the proxy evaluator
        # imports nncore.train inside evaluate, so both names are wrapped
        self.patch(pipeline, "train", "nncore.train")
        self.patch(nncore, "train", "nncore.train")
        self.patch(train_mod, "evaluate", "nncore.evaluate")
        self.patch(pipeline, "save_model", "nncore.checkpoint.save")
        self.patch(model.Network, "loss_and_grads", "nncore.step")
        self.patch(model.Network, "forward", "nncore.network_forward")
        for cls_name, kind in LAYER_KINDS.items():
            cls = getattr(layers, cls_name)
            for direction in ("forward", "backward"):
                hook = self._conv_hook(direction) if kind == "conv" else None
                self.patch(cls, direction, f"nncore.{kind}.{direction}", hook)
        self.patch(layers, "im2col", "nncore.im2col")
        self.patch(layers, "col2im", "nncore.col2im")
        self.patch(featstats, "similarity", "featstats.similarity", self._pairs_hook)
        self.patch(cluster, "coarse_prune", "cluster.coarse_prune", self._kept_hook)
        self.patch(cluster, "dbscan", "cluster.dbscan")
        for owner in (pipeline, swarm, report):
            self.patch(owner, "write_text_atomic", "util.atomic_write")
        self.patch(checkpoint, "write_bytes_atomic", "util.atomic_write")
        self.patch(data, "make_blobs", "data.make_blobs")

    def _conv_hook(self, direction):
        def hook(args, result):
            conv, tensor = args[0], args[1]
            out_c, in_c, kh, kw = conv.weight.shape
            # forward gets the input and returns the output; backward gets
            # the output gradient, so the output size is read from either
            out = result if direction == "forward" else tensor
            self.counts[f"conv.{direction}_macs"] += (
                tensor.shape[0] * out_c * in_c * kh * kw * out.shape[2] * out.shape[3])
            if direction == "forward":
                self.counts["conv.forward_samples"] += tensor.shape[0]
            slot = self.conv_slots.get(id(conv))
            if slot is not None:
                self.durations[f"nncore.conv{slot:02d}.{direction}"].append(
                    self.durations[f"nncore.conv.{direction}"][-1])
        return hook

    def _pairs_hook(self, args, result):
        c = args[0].channels
        self.counts["featstats.pairs"] += c * (c - 1) // 2

    def _kept_hook(self, args, result):
        self.counts["cluster.kept_channels"] += sum(result[0])

    def register_slots(self, net):
        """Time the conv layers of ``net`` per slot, numbered from 1."""
        convs = [layer for layer in net.layers if isinstance(layer, layers.Conv)]
        self.conv_slots = {id(conv): k for k, conv in enumerate(convs, 1)}


def layer_metrics(tr: Tracer, units: int, wall_s: float) -> dict:
    """Per-layer metrics of ``units`` traced units whose median wall is ``wall_s``.

    Returns {name: (value, unit)} with times in seconds per unit. Layer
    forward/backward times are self times (im2col and col2im are their own
    spans); everything else is inclusive.
    """
    per = 1.0 / units
    m = {}

    def sec(name, seconds):
        m[name] = (seconds * per, "s")

    for stage in pipeline.STAGES:
        sec(f"pipeline.{stage}_s", tr.total[f"pipeline.{stage}"])

    evaluate = tr.durations["swarm.evaluate"]
    trainings = tr.calls_under[("swarm.evaluate", "nncore.train")]
    m["swarm.evaluate_calls"] = (len(evaluate) * per, "count")
    m["swarm.trainings"] = (trainings * per, "count")
    m["swarm.cache_hit_ratio"] = (1.0 - trainings / len(evaluate) if evaluate else 0.0,
                                  "ratio")
    m["swarm.evaluate_ms.p50"] = (_percentile(evaluate, 50) * 1e3, "ms")
    m["swarm.evaluate_ms.p90"] = (_percentile(evaluate, 90) * 1e3, "ms")
    sec("swarm.evaluate_s", tr.total["swarm.evaluate"])
    sec("swarm.self_s", tr.total["pipeline.search"] - tr.total["swarm.evaluate"])

    m["nncore.train_calls"] = (tr.calls["nncore.train"] * per, "count")
    m["nncore.epochs"] = (tr.calls["nncore.evaluate"] * per, "count")
    m["nncore.steps"] = (tr.calls["nncore.step"] * per, "count")
    m["nncore.step_ms.p50"] = (_percentile(tr.durations["nncore.step"], 50) * 1e3, "ms")
    sec("nncore.step_s", tr.total["nncore.step"])
    sec("nncore.eval_s", tr.total["nncore.evaluate"])
    sec("nncore.update_s", tr.self_s["nncore.train"])
    for kind in LAYER_KINDS.values():
        for direction in ("forward", "backward"):
            sec(f"nncore.{kind}.{direction}_s", tr.self_s[f"nncore.{kind}.{direction}"])
    sec("nncore.im2col_s", tr.self_s["nncore.im2col"])
    sec("nncore.col2im_s", tr.self_s["nncore.col2im"])
    conv_time = tr.total["nncore.conv.forward"] + tr.total["nncore.conv.backward"]
    # one MAC is 2 FLOPs; a conv backward does two forward-sized GEMMs
    conv_flops = 2 * tr.counts["conv.forward_macs"] + 4 * tr.counts["conv.backward_macs"]
    m["nncore.conv.gflops_per_s"] = (conv_flops / conv_time / 1e9 if conv_time else 0.0,
                                     "GFLOP/s")
    slots = {}
    for slot in range(1, CONV_SLOTS + 1):
        for direction in ("forward", "backward"):
            calls = tr.durations[f"nncore.conv{slot:02d}.{direction}"]
            m[f"nncore.conv{slot:02d}.{direction}_ms"] = (
                sum(calls) / len(calls) * 1e3 if calls else 0.0, "ms")
            slots[f"nncore.conv{slot:02d}.{direction}_pct"] = sum(calls) * per

    sec("featstats.similarity_s", tr.total["featstats.similarity"])
    m["featstats.pairs"] = (tr.counts["featstats.pairs"] * per, "count")
    sec("cluster.capture_forward_s",
        tr.under[("cluster.coarse_prune", "nncore.network_forward")])
    sec("cluster.dbscan_s", tr.total["cluster.dbscan"])
    m["cluster.kept_channels"] = (tr.counts["cluster.kept_channels"] * per, "count")
    sec("nncore.checkpoint.save_s", tr.total["nncore.checkpoint.save"])
    m["util.atomic_writes"] = (tr.calls["util.atomic_write"] * per, "count")
    sec("util.atomic_write_s", tr.total["util.atomic_write"])

    # the share of the traced wall each timed layer was busy
    for name, (value, unit) in list(m.items()):
        if unit == "s":
            m[name[:-2] + "_pct"] = (100.0 * value / wall_s, "%")
    for name, value in slots.items():
        m[name] = (100.0 * value / wall_s, "%")
    return m


def _percentile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
