import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import abs_cosine, similarity_loop

from prunekit.featstats import (
    ChannelMeanMaps,
    SimilarityMatrix,
    distance_matrix,
    dump_similarity_csv,
    similarity,
)


def random_maps(seed, c=5):
    """Mean maps of a random (3, c, 4, 4) activation tensor."""
    tensor = np.random.default_rng(seed).normal(size=(3, c, 4, 4))
    return ChannelMeanMaps(0, tensor.mean(axis=0))


class TestSimilarity:
    def test_identical_maps_score_one(self):
        maps = ChannelMeanMaps(0, np.stack([np.ones((2, 2)), np.ones((2, 2))]))
        sim = similarity(maps)
        assert sim.entries[0, 1] == pytest.approx(1.0)

    def test_negated_map_scores_one(self):
        m = np.random.default_rng(0).normal(size=(2, 2))
        maps = ChannelMeanMaps(0, np.stack([m, -m]))
        assert similarity(maps).entries[0, 1] == pytest.approx(1.0)

    def test_hand_cosines(self):
        a = np.array([[1.0, 0.0]])  # flattens to (1, 0)
        b = np.array([[0.0, 1.0]])
        c = np.array([[1.0, 1.0]])
        maps = ChannelMeanMaps(0, np.stack([a, b, c]))
        sim = similarity(maps).entries
        assert sim[0, 1] == pytest.approx(0.0, abs=1e-6)
        assert sim[0, 2] == pytest.approx(0.7071, abs=1e-4)

    def test_zero_norm_channel_convention(self):
        m = np.random.default_rng(0).normal(size=(3, 3))
        maps = ChannelMeanMaps(0, np.stack([np.zeros((3, 3)), m, 2 * m]))
        sim = similarity(maps).entries
        assert sim[0, 0] == 1.0
        assert sim[0, 1] == 0.0 and sim[1, 0] == 0.0
        assert sim[0, 2] == 0.0
        assert sim[1, 2] == pytest.approx(1.0)

    def test_single_channel_is_one(self):
        # a dead lone channel too: every channel is 1 with itself
        for fill in (0.0, 2.5):
            sim = similarity(ChannelMeanMaps(0, np.full((1, 2, 2), fill)))
            assert sim.entries.tolist() == [[1.0]]
            assert distance_matrix(sim).tolist() == [[0.0]]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matrix_properties_on_random_tensors(self, seed):
        maps = random_maps(seed)
        sim = similarity(maps).entries
        assert np.array_equal(sim, sim.T)  # exact mirror, not approximate
        assert sim.min() >= 0.0 and sim.max() <= 1.0
        np.testing.assert_array_equal(np.diagonal(sim), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.floats(0.1, 50.0),
           st.integers(0, 4))
    def test_scale_invariance_positive_and_negative(self, seed, scale, channel):
        base = random_maps(seed).maps
        for factor in (scale, -scale):
            scaled = base.copy()
            scaled[channel] *= factor
            a = similarity(ChannelMeanMaps(0, base)).entries
            b = similarity(ChannelMeanMaps(0, scaled)).entries
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_entries_match_pairwise_oracle(self):
        maps = random_maps(3, c=4)
        sim = similarity(maps).entries
        flat = maps.maps.reshape(4, -1)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                assert sim[i, j] == pytest.approx(abs_cosine(flat[i], flat[j]), abs=1e-12)


    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 40), st.integers(0, 3))
    def test_matches_loop_oracle(self, seed, channels, dead):
        rng = np.random.default_rng(seed)
        maps = rng.normal(size=(channels, 3, 5))
        maps[1] = -2.5 * maps[0]  # a parallel pair, |cos| at the clip
        maps[rng.choice(channels, size=min(dead, channels), replace=False)] = 0.0
        got = similarity(ChannelMeanMaps(0, maps)).entries
        np.testing.assert_allclose(got, similarity_loop(maps), rtol=0, atol=1e-12)

class TestDistanceMatrix:
    def test_complement_with_zero_diagonal(self):
        maps = random_maps(1)
        sim = similarity(maps)
        d = distance_matrix(sim)
        assert np.array_equal(np.diagonal(d), np.zeros(d.shape[0]))
        off = ~np.eye(d.shape[0], dtype=bool)
        np.testing.assert_allclose(d[off], 1.0 - sim.entries[off])


class TestCsvDump:
    def test_round_trips_values(self, tmp_path):
        maps = random_maps(5, c=3)
        sim = similarity(maps)
        path = tmp_path / "sim.csv"
        dump_similarity_csv(path, sim)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "channel,0,1,2"
        got = np.array([[float(v) for v in line.split(",")[1:]]
                        for line in lines[1:]])
        np.testing.assert_allclose(got, sim.entries, atol=1e-9)

    def test_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "sim.csv"
        dump_similarity_csv(path, SimilarityMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])))
        assert path.read_bytes() == (b"channel,0,1\r\n0,1.000000000,0.500000000\r\n"
                                     b"1,0.500000000,1.000000000\r\n")

    @pytest.mark.parametrize("channels", [1, 64])
    def test_bytes_equal_a_csv_writer(self, tmp_path, channels):
        """The file is what ``csv.writer`` makes of the header and of each
        row's entries formatted one at a time, NaN and -0.0 included."""
        rng = np.random.default_rng(channels)
        entries = rng.uniform(-1.0, 1.0, size=(channels, channels))
        if channels > 1:
            entries[3, 5] = np.nan
            entries[5, 3] = -0.0
            entries[7, 2] = -1e-12  # prints as -0.000000000
            entries[2, 7] = np.inf
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["channel"] + [str(j) for j in range(channels)])
        for i in range(channels):
            writer.writerow([str(i)] + [f"{v:.9f}" for v in entries[i]])
        path = tmp_path / "sim.csv"
        dump_similarity_csv(path, SimilarityMatrix(entries))
        assert path.read_bytes() == buf.getvalue().encode()
