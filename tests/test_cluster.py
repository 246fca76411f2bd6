import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dbscan_reference, partition_signature, random_distance_matrix

from prunekit import cluster
from prunekit.archspec import LayerDef, assemble
from prunekit.cluster import (
    NOISE,
    ClusterAssignment,
    NeighborhoodParams,
    coarse_channel_count,
    coarse_prune,
    dbscan,
)
from prunekit.errors import BoundsError, StructureError
from prunekit.featstats import ChannelMeanMaps, distance_matrix, similarity
from prunekit.nncore import Network
from prunekit.util import derive_seed


def two_groups_plus_outlier():
    """8 points: indices 0-3 tight, 4-6 tight, 7 far from everything."""
    d = np.full((8, 8), 0.9)
    for group in ((0, 1, 2, 3), (4, 5, 6)):
        for i in group:
            for j in group:
                d[i, j] = 0.02
    np.fill_diagonal(d, 0.0)
    return d


class TestParams:
    def test_epsilon_bounds(self):
        with pytest.raises(BoundsError):
            NeighborhoodParams(epsilon=0.0, min_pts=1)
        with pytest.raises(BoundsError):
            NeighborhoodParams(epsilon=1.5, min_pts=1)
        NeighborhoodParams(epsilon=1.0, min_pts=1)

    def test_min_pts_positive(self):
        with pytest.raises(BoundsError):
            NeighborhoodParams(epsilon=0.1, min_pts=0)


class TestDbscan:
    def test_all_zero_distances_form_one_cluster(self):
        d = np.zeros((5, 5))
        out = dbscan(d, NeighborhoodParams(0.1, 2))
        assert out.num_clusters == 1
        assert out.num_noise == 0
        assert set(out.labels) == {0}

    def test_all_far_apart_is_all_noise(self):
        d = np.ones((6, 6))
        np.fill_diagonal(d, 0.0)
        out = dbscan(d, NeighborhoodParams(0.1, 2))
        assert out.num_clusters == 0
        assert out.num_noise == 6
        assert all(label == NOISE for label in out.labels)

    def test_two_groups_plus_outlier(self):
        out = dbscan(two_groups_plus_outlier(), NeighborhoodParams(0.05, 3))
        assert out.num_clusters == 2
        assert out.num_noise == 1
        assert out.labels[7] == NOISE
        assert len({out.labels[i] for i in (0, 1, 2, 3)}) == 1
        assert len({out.labels[i] for i in (4, 5, 6)}) == 1
        assert out.labels[0] != out.labels[4]

    def test_min_pts_above_point_count_is_all_noise(self):
        # even three identical channels cannot reach a density of four
        out = dbscan(np.zeros((3, 3)), NeighborhoodParams(0.1, 4))
        assert list(out.labels) == [NOISE] * 3
        assert not out.core_flags.any()
        assert coarse_channel_count(out) == 3

    def test_boundary_distance_is_within_neighborhood(self):
        # eps comparison is inclusive: d == eps counts as a neighbor
        d = np.zeros((2, 2))
        d[0, 1] = d[1, 0] = 0.3
        out = dbscan(d, NeighborhoodParams(0.3, 2))
        assert out.num_clusters == 1

    def test_matrix_validation(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 0.5  # asymmetric
        with pytest.raises(StructureError):
            dbscan(bad, NeighborhoodParams(0.1, 1))

        bad = np.zeros((3, 3))
        bad[1, 1] = 0.2  # nonzero diagonal
        with pytest.raises(StructureError):
            dbscan(bad, NeighborhoodParams(0.1, 1))

        bad = np.full((3, 3), 1.7)  # out of range
        np.fill_diagonal(bad, 0.0)
        with pytest.raises(StructureError):
            dbscan(bad, NeighborhoodParams(0.1, 1))

    def test_asymmetry_below_any_tolerance_is_rejected(self):
        """Two triangles one hair apart across epsilon: each triangle's
        rows would read a different neighbourhood of channels 2 and 3."""
        d = np.full((6, 6), 0.9)
        for group in ((0, 1, 2), (3, 4, 5)):
            d[np.ix_(group, group)] = 0.05
        np.fill_diagonal(d, 0.0)
        d[2, 3] = 0.1
        d[3, 2] = 0.1 + 1e-10
        with pytest.raises(StructureError, match="not symmetric"):
            dbscan(d, NeighborhoodParams(0.1, 3))

    def test_nan_entry_is_named(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = np.nan
        with pytest.raises(StructureError, match="^distance matrix holds a non-finite entry$"):
            dbscan(d, NeighborhoodParams(0.1, 1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(2, 12),
           st.floats(0.05, 0.95), st.integers(1, 4))
    def test_matches_reference_on_random_matrices(self, seed, n, eps, min_pts):
        min_pts = min(min_pts, n)
        d = random_distance_matrix(np.random.default_rng(seed), n)
        got = dbscan(d, NeighborhoodParams(eps, min_pts))
        want_labels, want_cores = dbscan_reference(d, eps, min_pts)
        # Same partition and, because both implementations renumber by
        # lowest founding index, the exact same label values.
        assert partition_signature(got.labels) == partition_signature(want_labels)
        assert list(got.labels) == list(want_labels)
        assert list(got.core_flags) == list(want_cores)

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_matches_reference_on_planted_groups(self, n):
        """Clique and chain groups in shuffled channel order, noise, and
        border channels that touch two groups, at min_pts 4."""
        rng = np.random.default_rng(n)
        d = np.triu(rng.uniform(0.5, 1.0, (n, n)), 1)
        d += d.T

        def near(i, j, value):
            d[i, j] = d[j, i] = value
        order = rng.permutation(n)
        groups, at = [], 0
        while at < n * 3 // 4:
            size = int(rng.integers(4, 12))
            groups.append(order[at:at + size])
            at += size
        for k, group in enumerate(groups):
            if k % 2:  # a chain: each member near the next three
                for step in (1, 2, 3):
                    near(group[:-step], group[step:], rng.uniform(0, 0.08, len(group) - step))
            else:
                i, j = np.triu_indices(len(group), 1)
                near(group[i], group[j], rng.uniform(0, 0.08, i.size))
        borders = order[at:at + n // 16]
        for b in borders:
            first, second = rng.choice(len(groups), 2, replace=False)
            near(b, rng.choice(groups[first]), 0.09)
            near(b, rng.choice(groups[second]), 0.09)
        np.fill_diagonal(d, 0.0)
        got = dbscan(d, NeighborhoodParams(0.1, 4))
        want_labels, want_cores = dbscan_reference(d, 0.1, 4)
        assert list(got.labels) == list(want_labels)
        assert list(got.core_flags) == list(want_cores)
        # a border channel takes the lower of two clusters it touches
        touching = [{got.labels[c] for c in np.flatnonzero(d[b] <= 0.1) if got.core_flags[c]}
                    for b in borders]
        assert all(len(t) == 2 and got.labels[b] == min(t) for b, t in zip(borders, touching))

    def test_counts_consistent(self):
        d = two_groups_plus_outlier()
        out = dbscan(d, NeighborhoodParams(0.05, 3))
        assert out.num_clusters == len({l for l in out.labels if l != NOISE})
        assert out.num_noise == sum(1 for l in out.labels if l == NOISE)


class TestCoarseCount:
    def test_clusters_plus_noise(self):
        assignment = ClusterAssignment(
            labels=np.array([0, 0, 1, NOISE, 1, NOISE]),
            core_flags=np.array([True, True, True, False, True, False]),
        )
        assert coarse_channel_count(assignment) == 4

    def test_permutation_invariance(self):
        rng = np.random.default_rng(42)
        d = random_distance_matrix(rng, 10)
        params = NeighborhoodParams(0.4, 2)
        base = coarse_channel_count(dbscan(d, params))
        for _ in range(20):
            perm = rng.permutation(10)
            shuffled = d[np.ix_(perm, perm)]
            assert coarse_channel_count(dbscan(shuffled, params)) == base

    def test_epsilon_zero_limit_keeps_every_channel(self):
        # at vanishing eps nothing merges, every point is its own
        # neighborhood, so the coarse count equals the original width
        rng = np.random.default_rng(3)
        d = random_distance_matrix(rng, 9)
        d[d == 0.0] = 0.0
        off = ~np.eye(9, dtype=bool)
        d[off] = np.maximum(d[off], 0.05)
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        out = dbscan(d, NeighborhoodParams(1e-9, 2))
        assert coarse_channel_count(out) == 9

    def test_epsilon_one_min_pts_one_collapses_everything(self):
        rng = np.random.default_rng(4)
        d = random_distance_matrix(rng, 7)
        out = dbscan(d, NeighborhoodParams(1.0, 1))
        assert out.num_clusters == 1
        assert coarse_channel_count(out) == 1

    def test_sweep_is_monotone_on_separated_groups(self):
        # three blobs at mutual distance 0.6, intra distance 0.05
        d = np.full((9, 9), 0.6)
        for group in ((0, 1, 2), (3, 4, 5), (6, 7, 8)):
            for i in group:
                for j in group:
                    d[i, j] = 0.05
        np.fill_diagonal(d, 0.0)
        counts = [
            coarse_channel_count(dbscan(d, NeighborhoodParams(eps, 2)))
            for eps in (0.01, 0.1, 0.4, 0.7, 1.0)
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] == 9 and counts[-1] == 1


class TestCoarsePrune:
    def test_matches_manual_per_layer_composition(self, trained_tiny4, blob_sets):
        template, net = trained_tiny4
        train_set, _ = blob_sets
        rng = np.random.default_rng(derive_seed(0, "sample"))
        idx = rng.permutation(train_set.images.shape[0])[:64]
        images = train_set.images[idx]
        params = NeighborhoodParams(0.05, 3)

        structure, reports = coarse_prune(template, net, images, params,
                                          batch_size=32)

        # independent recomputation: capture, average, cluster per slot
        captured = {}
        for start in range(0, images.shape[0], 32):
            batch = images[start:start + 32]
            _, maps = net.forward(batch, train=False, capture=True)
            for slot, m in maps.items():
                summed = m.sum(axis=0)
                captured[slot] = captured.get(slot, 0.0) + summed
        for pos, report in enumerate(reports):
            mean = captured[report.slot] / images.shape[0]
            c = mean.shape[0]
            if c < 2:
                continue
            sim = similarity(ChannelMeanMaps(report.slot, mean))
            out = dbscan(distance_matrix(sim), params)
            want = coarse_channel_count(out)
            assert structure[pos] == want
            assert report.coarse_channels == want
            assert report.clusters == out.num_clusters
            assert report.noise == out.num_noise

    def test_split_sums_give_the_serial_bytes(self, gemm_split):
        """Maps of 64 channels at 32x32 pass the real cutoff, so the coarse
        pass sums them in channel bands at 2 CPUs."""
        pool, use = gemm_split
        defs = [LayerDef("conv", out_channels=64), LayerDef("batchnorm"),
                LayerDef("activation"), LayerDef("conv", out_channels=64),
                LayerDef("activation"), LayerDef("classifier-head")]
        template = assemble("split", (3, 32, 32), 10, defs)
        net = Network(template, seed=0)
        images = np.random.default_rng(0).standard_normal((64, 3, 32, 32), dtype=np.float32)
        runs = []
        for cpus in (1, 2):
            use(cpus)
            sims = {}
            structure, reports = coarse_prune(template, net, images, NeighborhoodParams(0.05, 3),
                                              batch_size=32, similarity_sink=sims.__setitem__)
            runs.append((structure, reports,
                         {slot: sim.entries.tobytes() for slot, sim in sims.items()}))
        assert cluster._sum_samples in pool.runs
        assert runs[0] == runs[1]

    def test_structure_never_wider_than_original(self, trained_tiny4, blob_sets):
        template, net = trained_tiny4
        train_set, _ = blob_sets
        structure, _ = coarse_prune(
            template, net, train_set.images[:48], NeighborhoodParams(0.05, 3))
        original = template.original_structure()
        for pruned, orig in zip(structure, original):
            assert 1 <= pruned <= orig

    def test_reports_carry_slot_metadata(self, trained_tiny4, blob_sets):
        template, net = trained_tiny4
        train_set, _ = blob_sets
        _, reports = coarse_prune(
            template, net, train_set.images[:32], NeighborhoodParams(0.05, 3))
        assert [r.slot for r in reports] == list(template.prunable_slots)
        for report, width in zip(reports, template.original_structure()):
            assert report.original_channels == width
            d = report.to_dict()
            assert d["coarse_channels"] == report.coarse_channels

    def test_tiny_epsilon_keeps_original_widths(self, trained_tiny4, blob_sets):
        # trained feature maps are generically distinct, so a vanishing
        # neighborhood radius must leave every width untouched
        template, net = trained_tiny4
        train_set, _ = blob_sets
        structure, _ = coarse_prune(
            template, net, train_set.images[:48], NeighborhoodParams(1e-6, 2))
        assert list(structure) == list(template.original_structure())


# (clusters, noise) per slot of a template whose convs have 1, 2, 4 and 3
# channels: a lone channel is one cluster at min_pts 1 and noise above it,
# and a layer narrower than min_pts is all noise
THIN_REPORTS = {
    (0.05, 1): [(1, 0), (2, 0), (2, 0), (2, 0)],
    (0.05, 2): [(0, 1), (0, 2), (1, 1), (1, 1)],
    (0.05, 3): [(0, 1), (0, 2), (1, 1), (0, 3)],
    (0.05, 4): [(0, 1), (0, 2), (0, 4), (0, 3)],
    (0.05, 5): [(0, 1), (0, 2), (0, 4), (0, 3)],
    (1.0, 1): [(1, 0), (1, 0), (1, 0), (1, 0)],
    (1.0, 2): [(0, 1), (1, 0), (1, 0), (1, 0)],
    (1.0, 3): [(0, 1), (0, 2), (1, 0), (1, 0)],
    (1.0, 4): [(0, 1), (0, 2), (1, 0), (0, 3)],
    (1.0, 5): [(0, 1), (0, 2), (0, 4), (0, 3)],
}


class TestThinLayers:
    @pytest.fixture(scope="class")
    def thin(self):
        defs = []
        for width in (1, 2, 4, 3):
            defs += [LayerDef("conv", out_channels=width), LayerDef("activation")]
        template = assemble("thin", (3, 8, 8), 2, defs + [LayerDef("classifier-head")])
        images = np.random.default_rng(0).normal(size=(16, 3, 8, 8)).astype(np.float32)
        return template, Network(template, seed=0), images

    @pytest.mark.parametrize("eps,min_pts", sorted(THIN_REPORTS))
    def test_reports_pinned(self, thin, eps, min_pts):
        template, net, images = thin
        structure, reports = coarse_prune(template, net, images,
                                          NeighborhoodParams(eps, min_pts))
        got = [(r.slot, r.original_channels, r.clusters, r.noise, r.coarse_channels)
               for r in reports]
        want = [(slot, width, clusters, noise, clusters + noise)
                for slot, width, (clusters, noise)
                in zip((0, 2, 4, 6), (1, 2, 4, 3), THIN_REPORTS[eps, min_pts])]
        assert got == want
        assert list(structure) == [r.coarse_channels for r in reports]

    def test_every_layer_reaches_the_similarity_sink(self, thin):
        template, net, images = thin
        sims = {}
        coarse_prune(template, net, images, NeighborhoodParams(0.05, 3),
                     similarity_sink=sims.__setitem__)
        assert sorted(sims) == [0, 2, 4, 6]
        assert sims[0].entries.tolist() == [[1.0]]


class TestCoarsePruneMemory:
    def test_peak_under_one_batch_of_captured_maps(self):
        # twelve 1x1 conv slots: each slot's map is as large as its conv's
        # columns, so a pass that keeps every map of a batch peaks above
        # them all, and one that sums each map as it comes stays far below
        defs = []
        for _ in range(12):
            defs += [LayerDef("conv", out_channels=8), LayerDef("activation")]
        template = assemble("pointwise12", (8, 16, 16), 2, defs + [LayerDef("classifier-head")])
        net = Network(template, seed=0)
        images = np.random.default_rng(0).normal(size=(64, 8, 16, 16)).astype(np.float32)
        batch = 32
        captured = len(template.prunable_slots) * batch * 8 * 16 * 16 * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            structure, _ = coarse_prune(template, net, images, NeighborhoodParams(0.05, 3),
                                        batch_size=batch)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(structure) == 12
        assert peak < captured
