import os
import tracemalloc

import numpy as np
import pytest

from prunekit import data
from prunekit.data import (
    CIFAR_RECORD_BYTES,
    CIFAR_TEST_FILE,
    CIFAR_TRAIN_FILES,
    Dataset,
    SyntheticSpec,
    load_cifar10,
    load_dataset,
    make_blobs,
    sample_images,
)
from prunekit.errors import BoundsError, DataFormatError


def cifar_record(label, fill=None, rng=None):
    """One 3073-byte binary record: label byte plus 3*1024 pixel bytes."""
    if fill is not None:
        pixels = np.full(3072, fill, dtype=np.uint8)
    else:
        pixels = rng.integers(0, 256, size=3072, dtype=np.uint8)
    return bytes([label]) + pixels.tobytes()


def write_fake_cifar(root, per_batch=4, seed=0):
    rng = np.random.default_rng(seed)
    for name in CIFAR_TRAIN_FILES:
        records = b"".join(cifar_record(i % 10, rng=rng) for i in range(per_batch))
        (root / name).write_bytes(records)
    test_records = b"".join(cifar_record(i % 10, rng=rng) for i in range(per_batch))
    (root / CIFAR_TEST_FILE).write_bytes(test_records)


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(DataFormatError):
            Dataset(np.zeros((2, 3, 4)), np.zeros(2, dtype=np.int64), 2)
        with pytest.raises(DataFormatError):
            Dataset(np.zeros((2, 3, 4, 4)), np.zeros(3, dtype=np.int64), 2)

    def test_input_shape_is_c_w_h(self):
        ds = Dataset(np.zeros((2, 3, 5, 7), dtype=np.float32),
                     np.zeros(2, dtype=np.int64), 2)
        assert ds.input_shape == (3, 7, 5)
        assert len(ds) == 2


class TestCifarParsing:
    def test_counts_and_labels_across_batches(self, tmp_path):
        write_fake_cifar(tmp_path, per_batch=6)
        train, test = load_cifar10(tmp_path)
        assert len(train) == 30 and len(test) == 6
        assert train.images.shape == (30, 3, 32, 32)
        assert train.images.dtype == np.float32
        np.testing.assert_array_equal(train.labels[:6], [0, 1, 2, 3, 4, 5])
        assert train.num_classes == 10

    def test_pixel_scaling_and_standardization(self, tmp_path):
        # constant pixel value v: raw plane is v/255 everywhere, then the
        # train-set standardization with std->1 guard maps it to 0
        for name in CIFAR_TRAIN_FILES:
            (tmp_path / name).write_bytes(cifar_record(3, fill=51))
        (tmp_path / CIFAR_TEST_FILE).write_bytes(cifar_record(7, fill=255))
        train, test = load_cifar10(tmp_path)
        np.testing.assert_allclose(train.images, 0.0, atol=1e-7)
        np.testing.assert_allclose(
            test.images, 1.0 - 51.0 / 255.0, atol=1e-6)
        assert train.metadata["standardize_mean"] == pytest.approx([51.0 / 255.0] * 3)
        assert train.metadata["standardize_std"] == [1.0, 1.0, 1.0]
        assert test.metadata == train.metadata

    def test_channel_block_layout(self, tmp_path):
        # first 1024 pixel bytes are channel 0, then 1, then 2, row-major
        pixels = np.concatenate([
            np.full(1024, 255, dtype=np.uint8),
            np.zeros(1024, dtype=np.uint8),
            np.zeros(1024, dtype=np.uint8),
        ])
        record = bytes([0]) + pixels.tobytes()
        for name in CIFAR_TRAIN_FILES:
            (tmp_path / name).write_bytes(record)
        (tmp_path / CIFAR_TEST_FILE).write_bytes(record)
        train, _ = load_cifar10(tmp_path)
        # standardization is per channel so relative structure survives:
        # channel 0 constant high, others constant, all map to 0 under the
        # zero-std guard; check the raw parse instead via metadata means
        assert train.metadata["standardize_mean"] == [1.0, 0.0, 0.0]

    def test_empty_file_offset_zero(self, tmp_path):
        write_fake_cifar(tmp_path)
        (tmp_path / "data_batch_2.bin").write_bytes(b"")
        with pytest.raises(DataFormatError) as err:
            load_cifar10(tmp_path)
        assert err.value.offset == 0

    def test_truncated_record_offset(self, tmp_path):
        write_fake_cifar(tmp_path)
        good = cifar_record(1, fill=9)
        (tmp_path / "data_batch_4.bin").write_bytes(good + good[:100])
        with pytest.raises(DataFormatError) as err:
            load_cifar10(tmp_path)
        assert err.value.offset == CIFAR_RECORD_BYTES

    def test_out_of_range_label_offset(self, tmp_path):
        write_fake_cifar(tmp_path)
        records = cifar_record(4, fill=1) + cifar_record(11, fill=1)
        (tmp_path / CIFAR_TEST_FILE).write_bytes(records)
        with pytest.raises(DataFormatError) as err:
            load_cifar10(tmp_path)
        assert err.value.offset == CIFAR_RECORD_BYTES
        assert "label 11" in str(err.value)

    def test_missing_batch_file(self, tmp_path):
        write_fake_cifar(tmp_path)
        os.remove(tmp_path / "data_batch_5.bin")
        with pytest.raises(DataFormatError, match="data_batch_5"):
            load_cifar10(tmp_path)

    def test_load_peaks_under_twice_its_arrays(self, tmp_path):
        """Each file is converted into its slice of one array and the std
        is taken a chunk of samples at a time, so the load holds little
        beyond what it returns; a float64 copy of the training images alone
        would be twice their bytes."""
        write_fake_cifar(tmp_path, per_batch=1000)
        tracemalloc.start()
        try:
            train, test = load_cifar10(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(train) == 5000 and len(test) == 1000
        returned = sum(a.nbytes for a in (train.images, train.labels, test.images, test.labels))
        assert peak < 2 * returned

    @pytest.mark.skipif(not os.path.isdir(os.environ.get("CIFAR10_DIR", "")),
                        reason="set CIFAR10_DIR to a directory of CIFAR-10 binary batches")
    def test_real_cifar_split_sizes(self):
        train, test = load_cifar10(os.environ["CIFAR10_DIR"])
        assert len(train) == 50000
        assert len(test) == 10000


class TestStandardize:
    @pytest.mark.parametrize("n,channels,side", [(2500, 3, 8), (1024, 2, 5), (300, 1, 16),
                                                 (7, 5, 4)])
    def test_chunked_std_has_numpys_bits(self, n, channels, side):
        """Past one chunk of samples, and with one channel, where NumPy
        sums the whole array as one run."""
        rng = np.random.default_rng(n + channels)
        x = (rng.normal(size=(n, channels, side, side)) * 2.5 + 0.7).astype(np.float32)
        mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
        want = x.std(axis=(0, 2, 3), dtype=np.float64)
        assert data._channel_std(x, mean).tobytes() == want.tobytes()


class TestSyntheticBlobs:
    def test_spec_validation(self):
        with pytest.raises(BoundsError):
            SyntheticSpec(num_classes=1)
        with pytest.raises(BoundsError):
            SyntheticSpec(num_classes=11)
        with pytest.raises(BoundsError):
            SyntheticSpec(train_size=2, num_classes=4)
        with pytest.raises(BoundsError):
            SyntheticSpec(image_size=3)
        with pytest.raises(BoundsError):
            SyntheticSpec(noise=-0.1)

    def test_identical_specs_give_identical_tensors(self):
        spec = SyntheticSpec(num_classes=3, train_size=60, test_size=30, seed=5)
        a_train, a_test = make_blobs(spec)
        b_train, b_test = make_blobs(spec)
        np.testing.assert_array_equal(a_train.images, b_train.images)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)
        np.testing.assert_array_equal(a_test.images, b_test.images)

    def test_different_seeds_differ(self):
        a, _ = make_blobs(SyntheticSpec(seed=1))
        b, _ = make_blobs(SyntheticSpec(seed=2))
        assert not np.array_equal(a.images, b.images)

    def test_labels_cycle_through_classes(self):
        train, test = make_blobs(SyntheticSpec(num_classes=4, train_size=40,
                                               test_size=12))
        np.testing.assert_array_equal(train.labels, np.arange(40) % 4)
        counts = np.bincount(train.labels, minlength=4)
        assert set(counts) == {10}
        np.testing.assert_array_equal(test.labels, np.arange(12) % 4)

    def test_shapes_follow_spec(self):
        spec = SyntheticSpec(num_classes=2, train_size=10, test_size=4,
                             image_size=8, channels=5)
        train, test = make_blobs(spec)
        assert train.images.shape == (10, 5, 8, 8)
        assert test.images.shape == (4, 5, 8, 8)
        assert train.metadata["generator"]["image_size"] == 8

    def test_dispatch_by_name(self, tmp_path):
        spec = SyntheticSpec(train_size=20, test_size=8)
        train, _ = load_dataset(tmp_path, "synthetic", spec)
        assert train.metadata["name"] == "synthetic"
        with pytest.raises(DataFormatError, match="unknown dataset"):
            load_dataset(tmp_path, "mnist")


class TestSampleImages:
    @pytest.fixture()
    def train_set(self):
        train, _ = make_blobs(SyntheticSpec(train_size=32, test_size=8))
        return train

    def test_replayable_against_rng_oracle(self, train_set):
        got = sample_images(train_set, 10, seed=99)
        idx = np.random.default_rng(99).permutation(len(train_set))[:10]
        np.testing.assert_array_equal(got, train_set.images[idx])

    def test_full_count_is_a_permutation(self, train_set):
        got = sample_images(train_set, len(train_set), seed=3)
        want = np.sort(train_set.images, axis=0)
        np.testing.assert_array_equal(np.sort(got, axis=0), want)

    def test_same_seed_identical(self, train_set):
        a = sample_images(train_set, 7, seed=42)
        b = sample_images(train_set, 7, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_count_out_of_range(self, train_set):
        with pytest.raises(BoundsError):
            sample_images(train_set, 0, seed=0)
        with pytest.raises(BoundsError):
            sample_images(train_set, len(train_set) + 1, seed=0)
