"""Density clustering of channels and the coarse width vector it implies.

Per prunable layer: DBSCAN over the channel distance matrix, then the layer's
coarse channel count is (#clusters + #noise channels). Clusters of mutually
redundant channels each contribute one kept channel; noise channels are kept
as-is since nothing resembles them.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import archspec, featstats
from .errors import BoundsError, StructureError
from .nncore.layers import by_channel

NOISE = -1


@dataclass(frozen=True)
class NeighborhoodParams:
    """DBSCAN parameters. ``epsilon`` thresholds d = 1 - |cos|."""

    epsilon: float
    min_pts: int

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise BoundsError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.min_pts < 1:
            raise BoundsError(f"min_pts must be >= 1, got {self.min_pts}")


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray      # per channel: cluster id >= 0, or NOISE
    core_flags: np.ndarray  # per channel: neighborhood size >= min_pts

    @property
    def num_clusters(self) -> int:
        ids = self.labels[self.labels != NOISE]
        return int(np.unique(ids).size)

    @property
    def num_noise(self) -> int:
        return int((self.labels == NOISE).sum())


def _check_distances(distances: np.ndarray) -> np.ndarray:
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise StructureError(f"distance matrix must be square, got {d.shape}")
    if d.shape[0] < 1:
        raise StructureError("distance matrix is empty")
    if not np.isfinite(d).all():
        raise StructureError("distance matrix holds a non-finite entry")
    # exactly, so no label depends on which triangle a row reads
    if not np.array_equal(d, d.T):
        raise StructureError("distance matrix is not symmetric")
    if np.abs(np.diagonal(d)).max() > 1e-9:
        raise StructureError("distance matrix diagonal is not zero")
    if d.min() < 0 or d.max() > 1 + 1e-9:
        raise StructureError("distance entries must lie in [0, 1]")
    return d


def dbscan(distances: np.ndarray, params: NeighborhoodParams) -> ClusterAssignment:
    """DBSCAN over a precomputed distance matrix.

    A channel's epsilon-neighborhood includes itself, and a core channel's
    holds at least ``min_pts`` channels. Clusters are the connected
    components of the core channels, numbered in the order of their lowest
    index. A border channel joins the lowest-numbered cluster among its core
    neighbors. With ``min_pts`` above the channel count no neighborhood is
    dense, so every channel is noise.
    """
    d = _check_distances(distances)
    n = d.shape[0]
    within = d <= params.epsilon
    core = within.sum(axis=1) >= params.min_pts
    cores = np.flatnonzero(core)
    links = within[np.ix_(cores, cores)]
    # each core's component, as the lowest core position in it: take the
    # lowest label among the neighbors, then the label's own label, until
    # nothing changes
    comp = np.arange(cores.size)
    while True:
        lowest = np.where(links, comp, cores.size).min(axis=1, initial=cores.size)
        lowest = lowest[lowest]
        if np.array_equal(lowest, comp):
            break
        comp = lowest
    # components numbered by their lowest core, which is their label; every
    # channel takes the lowest cluster among its core neighbors (a core's
    # are all in its own), and one with none is noise
    _, cluster_of_core = np.unique(comp, return_inverse=True)
    reached = np.where(within[:, cores], cluster_of_core, n).min(axis=1, initial=n)
    labels = np.where(reached < n, reached, NOISE).astype(np.int64)
    return ClusterAssignment(labels, core)


def coarse_channel_count(assignment: ClusterAssignment) -> int:
    """Kept-channel count for one layer: distinct clusters plus noise."""
    return assignment.num_clusters + assignment.num_noise


@dataclass(frozen=True)
class LayerClusterReport:
    slot: int
    original_channels: int
    clusters: int
    noise: int
    coarse_channels: int

    def to_dict(self) -> dict:
        return asdict(self)


def _sum_samples(maps, out):
    """Each channel's (H, W) sum over the samples of channel-first maps."""
    maps.swapaxes(0, 1).sum(axis=0, dtype=np.float64, out=out)


def coarse_prune(template: archspec.ArchTemplate, net, sample_images: np.ndarray,
                 params: NeighborhoodParams, batch_size: int = 64,
                 similarity_sink=None):
    """Coarse width vector from clustering a trained model's feature maps.

    Runs the sample set through the network in evaluation mode, averages each
    prunable layer's activations over the samples, clusters channels by
    absolute-cosine distance, and keeps (#clusters + #noise) channels per
    layer. Returns ``(structure, reports)``.

    ``similarity_sink``, when given, is called with (slot, SimilarityMatrix)
    for each layer so callers can dump matrices for offline inspection.
    """
    if sample_images.shape[0] < 1:
        raise BoundsError("sample set is empty")
    slots = template.prunable_slots
    sums = {}
    n_total = sample_images.shape[0]

    def accumulate(slot, maps):
        # summed as the forward produces it, so no map outlives its layer
        acc = np.empty(maps.shape[1:], dtype=np.float64)
        by_channel(_sum_samples, (maps.swapaxes(0, 1), acc))
        if slot in sums:
            sums[slot] += acc
        else:
            sums[slot] = acc

    for start in range(0, n_total, batch_size):
        net.forward(sample_images[start:start + batch_size], train=False, capture=accumulate)
    reports = []
    for slot in slots:
        maps = featstats.ChannelMeanMaps(slot, sums[slot] / n_total)
        sim = featstats.similarity(maps)
        if similarity_sink is not None:
            similarity_sink(slot, sim)
        assignment = dbscan(featstats.distance_matrix(sim), params)
        reports.append(LayerClusterReport(
            slot, maps.channels, assignment.num_clusters, assignment.num_noise,
            coarse_channel_count(assignment)))
    return tuple(r.coarse_channels for r in reports), reports
