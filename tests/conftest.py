import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from prunekit import archspec, data, pipeline
from prunekit.nncore import Network, TrainConfig, layers, train
from prunekit.swarm import SwarmConfig
from prunekit.util import derive_seed


def desk_experiment_config(out_dir, seed=0):
    """The end-to-end desk configuration the acceptance gate prescribes:
    tiny4 on synthetic blobs, (epsilon, min_pts) = (0.05, 3), 6 particles,
    5 iterations, 1 proxy epoch."""
    return pipeline.ExperimentConfig(
        template="tiny4",
        dataset=pipeline.DatasetConfig(name="synthetic", num_classes=4,
                                       train_size=512, test_size=256,
                                       image_size=16, channels=3, noise=0.15),
        sample_count=128,
        epsilon=0.05,
        min_pts=3,
        baseline_epochs=10,
        swarm=SwarmConfig(particles=6, iterations=5, proxy_epochs=1),
        out_dir=str(out_dir),
        seed=seed,
    )


@pytest.fixture(scope="session")
def desk_run_pair(tmp_path_factory):
    """Two independent executions of the desk experiment with the same seed.

    Shared session-wide: the pipeline and acceptance tests both compare the
    pair, and rerunning it per test would double the suite's runtime.
    """
    root = tmp_path_factory.mktemp("desk")
    config_a = desk_experiment_config(root / "a")
    config_b = desk_experiment_config(root / "b")
    report_a = pipeline.run(config_a)
    report_b = pipeline.run(config_b)
    return {
        "config_a": config_a, "config_b": config_b,
        "report_a": report_a, "report_b": report_b,
    }


@pytest.fixture(scope="session")
def blob_sets():
    spec = data.SyntheticSpec(num_classes=4, train_size=512, test_size=256,
                              image_size=16, channels=3, noise=0.15, seed=11)
    return data.make_blobs(spec)


@pytest.fixture(scope="session")
def trained_tiny4(blob_sets):
    """A tiny4 model trained well enough for its feature maps to cluster."""
    train_set, test_set = blob_sets
    template = archspec.tiny4(num_classes=train_set.num_classes)
    net = Network(template, seed=derive_seed(11, "init"))
    cfg = TrainConfig(epochs=8, batch_size=128, seed=derive_seed(11, "train"))
    train(net, train_set.images, train_set.labels,
          test_set.images, test_set.labels, cfg)
    return template, net


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class RecordingPool(ThreadPoolExecutor):
    """A thread pool that records every callable it is handed and, for each
    piece of a split (``layers._band``), the function the piece runs."""

    def __init__(self, max_workers):
        super().__init__(max_workers=max_workers)
        self.calls = []
        self.runs = []
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        self.calls.append(fn)
        self.runs.append(args[1] if fn is layers._band else fn)
        self.futures.append(super().submit(fn, *args, **kwargs))
        return self.futures[-1]


@pytest.fixture
def gemm_split(monkeypatch):
    """Split conv products and large per-channel ops whatever runner the
    tests are on: the product cutoff is 2^24 multiply-adds, and the pool
    records what it runs. Returns ``(pool, use)``; ``use(cpus)`` sets the
    most pieces of a split (``_SPLIT_CPUS``, the usable CPU count when BLAS
    runs one thread), where 1 keeps every op whole."""
    pool = RecordingPool(max_workers=3)
    monkeypatch.setattr(layers, "_POOL", pool)
    monkeypatch.setattr(layers, "_SPLIT_MACS", 1 << 24)
    monkeypatch.setattr(layers, "_SPLIT_CPUS", 1)
    yield pool, lambda n: monkeypatch.setattr(layers, "_SPLIT_CPUS", n)
    pool.shutdown()
