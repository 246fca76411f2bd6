"""Dataset ingestion: CIFAR-10 binary batches and a synthetic desk-scale set.

Both loaders produce float32 image tensors laid out (N, C, H, W), scaled to
[0, 1] and then standardized per channel with constants computed on the
training split; the constants are recorded in the dataset metadata so a
report can state exactly how inputs were normalized.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, DataFormatError
from .util import sha256_hex

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 pixel bytes
CIFAR_CLASSES = 10
CIFAR_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR_TEST_FILE = "test_batch.bin"


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32, standardized
    labels: np.ndarray  # (N,) int64
    num_classes: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DataFormatError(f"images must be 4-d, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataFormatError(
                f"labels shape {self.labels.shape} does not match {self.images.shape[0]} images")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def input_shape(self):
        """(C, W, H) as templates expect it."""
        n, c, h, w = self.images.shape
        return (c, w, h)


def _read_cifar_file(path) -> tuple[np.ndarray, str]:
    """The file's (N, 3073) uint8 records and the sha256 of its bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) == 0:
        raise DataFormatError(f"{path}: empty file", offset=0)
    if len(blob) % CIFAR_RECORD_BYTES != 0:
        raise DataFormatError(
            f"{path}: truncated record, file size {len(blob)} is not a "
            f"multiple of {CIFAR_RECORD_BYTES}",
            offset=len(blob) - len(blob) % CIFAR_RECORD_BYTES)
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    bad = np.flatnonzero(records[:, 0] >= CIFAR_CLASSES)
    if bad.size:
        first = int(bad[0])
        raise DataFormatError(
            f"{path}: record {first} has label {records[first, 0]} >= {CIFAR_CLASSES}",
            offset=first * CIFAR_RECORD_BYTES)
    return records, sha256_hex(blob)


def _cifar_split(records) -> tuple[np.ndarray, np.ndarray]:
    """Images scaled to [0, 1] and labels of the list ``records`` of each
    file's records, in order. Each file's records are taken from the list,
    converted into their slice of one float32 array and released, so no
    second full-size copy is made."""
    n = sum(r.shape[0] for r in records)
    images = np.empty((n, 3, 32, 32), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    start = 0
    while records:
        part = records.pop(0)
        end = start + part.shape[0]
        labels[start:end] = part[:, 0]
        # pixel block: 1024 red, 1024 green, 1024 blue, each row-major 32x32
        images[start:end] = part[:, 1:].reshape(-1, 3, 32, 32)
        images[start:end] /= 255.0
        start = end
    return images, labels


# Samples per step of the std pass, so its float64 temporaries stay a chunk.
_STD_CHUNK = 1024


def _channel_std(images, mean):
    """``images.std(axis=(0, 2, 3), dtype=np.float64)``, bit for bit, given
    its ``mean``, without NumPy's float64 copy of the whole array.

    NumPy sums the squared deviations of each (sample, channel) plane
    pairwise and adds those sums over the samples in order; a chunk of
    samples at a time does the same. With one channel NumPy sums the whole
    array as one run instead, so that case takes NumPy's own pass.
    """
    n, c, h, w = images.shape
    if c == 1:
        return images.std(axis=(0, 2, 3), dtype=np.float64)
    total = np.zeros(c)
    block = np.empty((min(n, _STD_CHUNK), c, h, w))
    for start in range(0, n, _STD_CHUNK):
        # cast into the block, then subtract in float64: a mixed subtraction
        # makes a float64 copy of the chunk besides its result
        dev = block[:min(_STD_CHUNK, n - start)]
        dev[...] = images[start:start + _STD_CHUNK]
        dev -= mean[:, None, None]
        sums = np.square(dev, out=dev).sum(axis=(2, 3))
        sums[0] += total
        total = np.cumsum(sums, axis=0)[-1]
    return np.sqrt(total / (n * h * w))


def _standardize(train_images, test_images):
    """Standardize both splits in place per channel with the training
    split's mean and std; returns those as float lists."""
    mean = train_images.mean(axis=(0, 2, 3), dtype=np.float64)
    std = _channel_std(train_images, mean)
    std = np.where(std == 0.0, 1.0, std)
    m = mean.astype(np.float32)[None, :, None, None]
    s = std.astype(np.float32)[None, :, None, None]
    for images in (train_images, test_images):
        images -= m
        images /= s
    return [float(v) for v in mean], [float(v) for v in std]


def load_cifar10(root) -> tuple[Dataset, Dataset]:
    """Parse the binary-version CIFAR-10 batches found under ``root``. The
    metadata's ``file_sha256`` maps each batch's path to the sha256 of the
    bytes parsed."""
    records, digests = [], {}
    for name in (*CIFAR_TRAIN_FILES, CIFAR_TEST_FILE):
        path = os.path.join(root, name)
        if not os.path.exists(path):
            raise DataFormatError(f"missing CIFAR-10 batch {path}")
        part, digests[path] = _read_cifar_file(path)
        records.append(part)
    test_images, test_labels = _cifar_split([records.pop()])
    train_images, train_labels = _cifar_split(records)
    mean, std = _standardize(train_images, test_images)
    meta = {"name": "cifar10", "standardize_mean": mean, "standardize_std": std,
            "file_sha256": digests}
    return (Dataset(train_images, train_labels, CIFAR_CLASSES, dict(meta)),
            Dataset(test_images, test_labels, CIFAR_CLASSES, dict(meta)))


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-blob image classes, sized for desk-scale experiments.

    Each class is a smooth bump prototype whose center sits on a ring; a
    sample is its class prototype plus white noise. Easy by construction,
    so short trainings separate the classes and feature maps develop the
    redundancy the clustering stage looks for.
    """

    num_classes: int = 4
    train_size: int = 512
    test_size: int = 256
    image_size: int = 16
    channels: int = 3
    noise: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.num_classes <= 10:
            raise BoundsError(f"num_classes must be in [2, 10], got {self.num_classes}")
        if self.train_size < self.num_classes or self.test_size < 1:
            raise BoundsError("split sizes too small for the class count")
        if self.image_size < 4:
            raise BoundsError(f"image_size must be >= 4, got {self.image_size}")
        if self.channels < 1:
            raise BoundsError(f"channels must be >= 1, got {self.channels}")
        if self.noise < 0:
            raise BoundsError(f"noise must be >= 0, got {self.noise}")


def _blob_prototypes(spec: SyntheticSpec, rng) -> np.ndarray:
    size = spec.image_size
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cx = cy = (size - 1) / 2.0
    ring = size / 4.0
    sigma = size / 5.0
    protos = np.zeros((spec.num_classes, spec.channels, size, size), dtype=np.float64)
    for j in range(spec.num_classes):
        angle = 2.0 * np.pi * j / spec.num_classes
        bx = cx + ring * np.cos(angle)
        by = cy + ring * np.sin(angle)
        bump = np.exp(-((xx - bx) ** 2 + (yy - by) ** 2) / (2.0 * sigma ** 2))
        amps = 0.5 + rng.random(spec.channels)  # distinct channel weights per class
        for ch in range(spec.channels):
            protos[j, ch] = amps[ch] * bump
    return protos


def _render_split(protos, spec: SyntheticSpec, n, rng):
    labels = (np.arange(n) % spec.num_classes).astype(np.int64)
    noise = rng.normal(0.0, spec.noise, size=(n,) + protos.shape[1:])
    images = (protos[labels] + noise).astype(np.float32)
    return images, labels


def make_blobs(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Deterministic synthetic splits; identical tensors for identical specs."""
    rng = np.random.default_rng(spec.seed)
    protos = _blob_prototypes(spec, rng)
    train_images, train_labels = _render_split(protos, spec, spec.train_size, rng)
    test_images, test_labels = _render_split(protos, spec, spec.test_size, rng)
    mean, std = _standardize(train_images, test_images)
    meta = {
        "name": "synthetic",
        "standardize_mean": mean,
        "standardize_std": std,
        "generator": {
            "num_classes": spec.num_classes, "train_size": spec.train_size,
            "test_size": spec.test_size, "image_size": spec.image_size,
            "channels": spec.channels, "noise": spec.noise, "seed": spec.seed,
        },
    }
    return (Dataset(train_images, train_labels, spec.num_classes, dict(meta)),
            Dataset(test_images, test_labels, spec.num_classes, dict(meta)))


def load_dataset(path, name, synthetic_spec: SyntheticSpec | None = None):
    """Dispatch on dataset name: ``cifar10`` reads binary batches under
    ``path``, ``synthetic`` generates blobs from ``synthetic_spec``."""
    if name == "cifar10":
        return load_cifar10(path)
    if name == "synthetic":
        return make_blobs(synthetic_spec or SyntheticSpec())
    raise DataFormatError(f"unknown dataset name {name!r}")


def sample_images(train_set: Dataset, count: int, seed: int) -> np.ndarray:
    """Uniform sample of ``count`` images without replacement, seeded.

    Draws one permutation of the full index range and takes its head, so
    count = len(train_set) returns the whole set in permuted order.
    """
    n = len(train_set)
    if not 1 <= count <= n:
        raise BoundsError(f"sample count {count} outside [1, {n}]")
    idx = np.random.default_rng(seed).permutation(n)[:count]
    return train_set.images[idx]
