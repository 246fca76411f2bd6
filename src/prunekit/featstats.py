"""Sample-averaged channel maps and their pairwise cosine similarities.

For a captured activation tensor (samples, channels, height, width) the mean
map of a channel is its element-wise average over the sample axis. Channel
similarity is the absolute cosine between flattened mean maps; the distance
handed to clustering is 1 minus that, so small epsilon means "nearly
parallel mean maps".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .util import write_text_atomic


@dataclass(frozen=True)
class ChannelMeanMaps:
    """Per-channel mean activation maps for one prunable layer."""

    layer_index: int
    maps: np.ndarray  # (channels, height, width)

    def __post_init__(self):
        if self.maps.ndim != 3:
            raise StructureError(f"mean maps must be 3-d, got shape {self.maps.shape}")

    @property
    def channels(self) -> int:
        return self.maps.shape[0]


@dataclass(frozen=True)
class SimilarityMatrix:
    entries: np.ndarray

    def __post_init__(self):
        e = self.entries
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise StructureError(f"similarity matrix must be square, got {e.shape}")


def similarity(maps: ChannelMeanMaps) -> SimilarityMatrix:
    """Absolute-cosine similarity between every pair of channel mean maps.

    The upper triangle of the normalized Gram matrix is mirrored onto the
    lower one, so the matrix is symmetric exactly, not just to roundoff. A
    zero-norm (dead) channel is defined to have similarity 0 with every
    other channel and 1 with itself. A lone channel gives ``[[1.0]]``.
    """
    c = maps.channels
    flat = maps.maps.reshape(c, -1).astype(np.float64)
    norms = np.sqrt((flat * flat).sum(axis=1))
    live = norms > 0.0
    unit = np.zeros_like(flat)
    unit[live] = flat[live] / norms[live, None]
    upper = np.triu(np.minimum(np.abs(unit @ unit.T), 1.0), 1)
    out = upper + upper.T
    np.fill_diagonal(out, 1.0)
    return SimilarityMatrix(out)


def distance_matrix(sim: SimilarityMatrix) -> np.ndarray:
    """Dissimilarity d = 1 - similarity, with an exactly zero diagonal."""
    d = 1.0 - sim.entries
    np.fill_diagonal(d, 0.0)
    return d


def dump_similarity_csv(path, sim: SimilarityMatrix) -> None:
    """Write one layer's similarity matrix atomically as a plain CSV for
    inspection: a header row, then one row per channel, each entry to nine
    decimals, every row ended by CRLF."""
    c = sim.entries.shape[0]
    row = ",".join(["%.9f"] * c)
    lines = [",".join(["channel", *map(str, range(c))])]
    lines += [f"{i}," + row % tuple(values) for i, values in enumerate(sim.entries.tolist())]
    write_text_atomic(path, "\r\n".join(lines) + "\r\n")
