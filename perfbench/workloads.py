"""The benchmark workloads: set-up, the timed call, and its check.

A workload is built from the run's seed (its set-up), then driven unit by
unit: ``prepare(k)`` returns the zero-argument call the runner times, and
``check(k, result)`` verifies that call's output outside the timed region.
``check`` returns an ``Outcome``; a non-empty ``problems`` list marks the
unit as failed. ``coverage`` reconciles a tracer's counts with what the
traced units did, so a wrapper that is never reached shows up as a problem.
"""
from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from prunekit import archspec, cluster, data, nncore, pipeline
from prunekit.nncore import Network, TrainConfig
from prunekit.swarm import SwarmConfig
from prunekit.util import derive_seed


@dataclass
class Outcome:
    images: int                      # images the timed call consumed
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def conv_macs_per_sample(template) -> int:
    """Conv multiply-accumulates of one forward sample, from archspec.flops_count."""
    fc = sum(layer.in_channels * layer.out_channels for layer in template.layers
             if layer.kind in (archspec.KIND_FC, archspec.KIND_HEAD))
    return archspec.flops_count(template) - fc


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"trace coverage: {label} is {got}, expected {want}")


class Desk:
    """``pipeline.run`` of the README desk config, in a fresh directory per unit."""

    name = "desk"
    warmup_units = 0

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        pipeline.ExperimentRun(self.config(os.path.join(work_dir, "setup")))
        shutil.rmtree(os.path.join(work_dir, "setup"))
        self.reference = None     # (comparable report, swarm trace bytes) of unit 0
        self.config_k = None

    def config(self, out_dir: str) -> pipeline.ExperimentConfig:
        return pipeline.ExperimentConfig(
            template="tiny4",
            dataset=pipeline.DatasetConfig(name="synthetic", num_classes=4,
                                           train_size=512, test_size=256,
                                           image_size=16, channels=3, noise=0.15),
            sample_count=128, epsilon=0.05, min_pts=3, baseline_epochs=10,
            swarm=SwarmConfig(particles=6, iterations=5, proxy_epochs=1),
            out_dir=out_dir, seed=self.seed)

    def prepare(self, k: int):
        config = self.config(os.path.join(self.work_dir, f"unit{k}"))
        if os.path.exists(config.out_dir):
            raise RuntimeError(f"output directory {config.out_dir} is not fresh")
        self.config_k = config
        return lambda: pipeline.run(config)

    def check(self, k: int, report) -> Outcome:
        config = self.config_k
        run_dir = config.run_dir()
        problems = []
        with open(os.path.join(run_dir, "swarm_trace.jsonl"), "rb") as fh:
            trace = fh.read()
        with open(os.path.join(run_dir, "search.json")) as fh:
            trainings = json.load(fh)["evaluations"]
        with open(os.path.join(run_dir, "baseline_trace.csv")) as fh:
            baseline_rows = len(fh.readlines()) - 1
        atomic_files = [f for f in os.listdir(run_dir)
                        if not f.endswith((".csv", ".jsonl"))]
        shutil.rmtree(config.out_dir)

        if report.failed_stage is not None:
            problems.append(f"stage {report.failed_stage} failed: {report.error}")
        if baseline_rows != config.baseline_epochs:
            problems.append(f"baseline trace has {baseline_rows} epochs, "
                            f"expected {config.baseline_epochs}")
        base_acc, final_acc = report.baseline["accuracy"], report.final["accuracy"]
        if final_acc < base_acc - 0.03:
            problems.append(f"final accuracy {final_acc:.4f} is more than 3 points "
                            f"below the baseline {base_acc:.4f}")
        if self.reference is None:
            self.reference = (report.comparable_dict(), trace)
        else:
            if report.comparable_dict() != self.reference[0]:
                problems.append("report differs from the first run of this seed")
            if trace != self.reference[1]:
                problems.append("swarm_trace.jsonl differs from the first run of this seed")

        sw = config.swarm
        epochs = config.baseline_epochs + trainings * sw.proxy_epochs + report.retrain_epochs
        return Outcome(
            images=epochs * config.dataset.train_size, problems=problems,
            info={"final_acc_pct": 100.0 * final_acc, "trainings": trainings,
                  "evaluate_calls": trace.count(b"\n"), "epochs": epochs,
                  "steps": epochs * math.ceil(config.dataset.train_size
                                              / config.trainer.batch_size),
                  # swarm_state.json is rewritten once per iteration
                  "atomic_writes": len(atomic_files) + sw.iterations})

    def coverage(self, tracer, outcomes) -> list:
        problems = []
        total = {key: sum(o.info[key] for o in outcomes) for key in outcomes[0].info
                 if key != "final_acc_pct"}
        for stage in pipeline.STAGES:
            _expect(problems, f"pipeline.{stage} calls",
                    tracer.calls[f"pipeline.{stage}"], len(outcomes))
        _expect(problems, "nncore.train calls", tracer.calls["nncore.train"],
                2 * len(outcomes) + total["trainings"])
        _expect(problems, "swarm.evaluate calls", tracer.calls["swarm.evaluate"],
                total["evaluate_calls"])
        _expect(problems, "nncore.evaluate calls", tracer.calls["nncore.evaluate"],
                total["epochs"])
        _expect(problems, "nncore.step calls", tracer.calls["nncore.step"], total["steps"])
        _expect(problems, "atomic writes", tracer.calls["util.atomic_write"],
                total["atomic_writes"])
        _expect(problems, "checkpoint saves", tracer.calls["nncore.checkpoint.save"],
                2 * len(outcomes))
        return problems


class Vgg:
    """A full-width vgg16-cifar: ``cluster.coarse_prune`` of its seeded, untrained
    weights, then ``nncore.train`` for a fixed number of SGD steps.

    The two calls share one network, reset to its initial weights before each
    unit, so the coarse pass always sees the same weights. The coarse pass runs
    the conv kernels forward-only in eval mode; the training step runs them
    forward and backward.
    """

    name = "vgg"
    warmup_units = 1
    STEPS = 1
    BATCH = 32
    SAMPLES = 128
    CAPTURE_BATCH = 64   # coarse_prune's default batch size
    TOLERANCE = 1e-9

    def __init__(self, seed: int, work_dir: str):
        self.template = archspec.vgg16_cifar(num_classes=10)
        self.train_set, self.test_set = data.make_blobs(data.SyntheticSpec(
            num_classes=10, train_size=self.STEPS * self.BATCH, test_size=10,
            image_size=32, seed=derive_seed(seed, "data")))
        samples, _ = data.make_blobs(data.SyntheticSpec(
            num_classes=10, train_size=self.SAMPLES, test_size=10, image_size=32,
            seed=derive_seed(seed, "samples")))
        self.samples = samples.images
        self.net = Network(self.template, seed=derive_seed(seed, "init"))
        self.initial = {k: v.copy() for k, v in self.net.state_arrays().items()}
        self.config = TrainConfig(epochs=1, batch_size=self.BATCH,
                                  seed=derive_seed(seed, "train"))
        self.params = cluster.NeighborhoodParams(0.05, 3)
        self.matrices: dict = {}
        self.reference = None        # slot -> float64 similarity recomputed here
        self.first = None            # (structure, loss) of the first unit

    def prepare(self, k: int):
        self.net.load_state(self.initial)
        self.matrices = {}

        def unit():
            coarse = cluster.coarse_prune(self.template, self.net, self.samples,
                                          self.params,
                                          similarity_sink=self.matrices.__setitem__)
            history = nncore.train(self.net, self.train_set.images, self.train_set.labels,
                                   self.test_set.images, self.test_set.labels, self.config)
            return coarse, history

        return unit

    def reference_similarity(self) -> dict:
        """Normalized Gram matrices of the float64 mean maps, per prunable slot,
        at the initial weights."""
        self.net.load_state(self.initial)
        sums = {}
        for start in range(0, self.SAMPLES, self.CAPTURE_BATCH):
            _, captured = self.net.forward(self.samples[start:start + self.CAPTURE_BATCH],
                                           train=False, capture=True)
            for slot, maps in captured.items():
                sums[slot] = sums.get(slot, 0.0) + maps.astype(np.float64).sum(axis=0)
        out = {}
        for slot, total in sums.items():
            flat = (total / self.SAMPLES).reshape(total.shape[0], -1)
            norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
            live = norms > 0
            sim = np.zeros((flat.shape[0], flat.shape[0]))
            gram = flat[live] @ flat[live].T
            sim[np.ix_(live, live)] = np.minimum(
                np.abs(gram) / np.outer(norms[live], norms[live]), 1.0)
            np.fill_diagonal(sim, 1.0)
            out[slot] = sim
        return out

    def check(self, k: int, result) -> Outcome:
        (structure, _), history = result
        problems = []
        original = self.template.original_structure()
        for slot, (width, bound) in enumerate(zip(structure, original)):
            if not 1 <= width <= bound:
                problems.append(f"width {width} of layer {slot} outside [1, {bound}]")
        if self.reference is None:
            self.reference = self.reference_similarity()
        if set(self.matrices) != set(self.reference):
            problems.append(f"similarity computed for slots {sorted(self.matrices)}, "
                            f"expected {sorted(self.reference)}")
        for slot, sim in self.matrices.items():
            err = float(np.abs(sim.entries - self.reference[slot]).max())
            if not err <= self.TOLERANCE:
                problems.append(f"slot {slot} similarity differs from the "
                                f"normalized Gram matrix by {err:.3g}")
        loss = history[-1].train_loss
        if not np.isfinite(loss):
            problems.append(f"training loss is {loss}")
        if self.first is None:
            self.first = (tuple(structure), loss)
        else:
            if tuple(structure) != self.first[0]:
                problems.append(f"structure {tuple(structure)} differs from the first "
                                f"run's {self.first[0]}")
            if loss != self.first[1]:
                problems.append(f"loss {loss!r} differs from the first run's "
                                f"{self.first[1]!r}")
        return Outcome(images=self.STEPS * self.BATCH, problems=problems)

    def coverage(self, tracer, outcomes) -> list:
        problems = []
        n = len(outcomes)
        layers = len(self.template.prunable_slots)
        _expect(problems, "coarse_prune calls", tracer.calls["cluster.coarse_prune"], n)
        _expect(problems, "similarity calls", tracer.calls["featstats.similarity"], n * layers)
        _expect(problems, "dbscan calls", tracer.calls["cluster.dbscan"], n * layers)
        _expect(problems, "capture forwards",
                tracer.calls_under[("cluster.coarse_prune", "nncore.network_forward")],
                n * math.ceil(self.SAMPLES / self.CAPTURE_BATCH))
        _expect(problems, "nncore.train calls", tracer.calls["nncore.train"], n)
        _expect(problems, "nncore.step calls", tracer.calls["nncore.step"], n * self.STEPS)
        _expect(problems, "conv backward calls", tracer.calls["nncore.conv.backward"],
                13 * n * self.STEPS)
        _conv_coverage(problems, tracer, self.template)
        return problems


def _conv_coverage(problems, tracer, template):
    """Every network forward reaches all conv layers, and the conv work the
    wrappers counted per sample equals archspec's count."""
    convs = sum(1 for layer in template.layers if layer.kind == archspec.KIND_CONV)
    _expect(problems, "conv forward calls", tracer.calls["nncore.conv.forward"],
            convs * tracer.calls["nncore.network_forward"])
    samples = tracer.counts["conv.forward_samples"] // convs
    _expect(problems, "conv forward MACs", tracer.counts["conv.forward_macs"],
            samples * conv_macs_per_sample(template))


WORKLOADS = {cls.name: cls for cls in (Desk, Vgg)}
