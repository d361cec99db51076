"""Data harness: format parsing, deterministic batching, augmentation."""

import struct

import numpy as np
import pytest

from bitcycle.data import (
    AugmentPolicy,
    Dataset,
    Normalization,
    balanced_subset,
    batches,
    eval_batches,
    load_cifar,
    load_idx,
    make_synthetic,
    read_idx,
)


def write_cifar10_file(path, records):
    """records: list of (label, pixels_3072_uint8)."""
    with open(path, "wb") as f:
        for label, pixels in records:
            f.write(bytes([label]))
            f.write(pixels.tobytes())


def write_cifar100_file(path, records):
    with open(path, "wb") as f:
        for coarse, fine, pixels in records:
            f.write(bytes([coarse, fine]))
            f.write(pixels.tobytes())


def write_idx(path, arr):
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">BBBB", 0, 0, 0x08, arr.ndim))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


class TestCifar:
    def test_two_record_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = [(3, rng.integers(0, 256, 3072, dtype=np.uint8)),
                (7, rng.integers(0, 256, 3072, dtype=np.uint8))]
        p = tmp_path / "two.bin"
        write_cifar10_file(p, recs)
        ds = load_cifar(str(p))
        assert len(ds) == 2
        assert ds.class_count == 10
        np.testing.assert_array_equal(ds.labels, [3, 7])
        for i, (_, pixels) in enumerate(recs):
            np.testing.assert_array_equal(ds.images[i].reshape(-1), pixels)

    def test_hundred_class_uses_fine_label(self, tmp_path):
        pixels = np.zeros(3072, dtype=np.uint8)
        p = tmp_path / "c100.bin"
        write_cifar100_file(p, [(5, 42, pixels)])
        ds = load_cifar(str(p))
        assert ds.class_count == 100
        assert ds.labels[0] == 42

    def test_truncated_file_reports_offset(self, tmp_path):
        p = tmp_path / "bad.bin"
        with open(p, "wb") as f:
            f.write(b"\x00" * 5000)
        with pytest.raises(ValueError, match="offset"):
            load_cifar(str(p))

    def test_directory_layout(self, tmp_path):
        d = tmp_path / "cifar-10-batches-bin"
        d.mkdir()
        pixels = np.zeros(3072, dtype=np.uint8)
        for i in range(1, 6):
            write_cifar10_file(d / f"data_batch_{i}.bin", [(i % 10, pixels)])
        write_cifar10_file(d / "test_batch.bin", [(9, pixels)])
        train = load_cifar(str(tmp_path), "train")
        test = load_cifar(str(tmp_path), "eval")
        assert len(train) == 5
        assert len(test) == 1
        assert test.labels[0] == 9

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar(str(tmp_path), "train")

    def test_loading_is_idempotent(self, tmp_path):
        rng = np.random.default_rng(1)
        p = tmp_path / "x.bin"
        write_cifar10_file(p, [(1, rng.integers(0, 256, 3072, dtype=np.uint8))])
        a = load_cifar(str(p))
        b = load_cifar(str(p))
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestIdx:
    def test_mnist_style_header(self, tmp_path):
        imgs = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
        labels = np.array([1, 0], dtype=np.uint8)
        write_idx(tmp_path / "t-images-idx3-ubyte", imgs)
        write_idx(tmp_path / "t-labels-idx1-ubyte", labels)
        ds = load_idx(str(tmp_path / "t-images-idx3-ubyte"))
        assert ds.images.shape == (2, 1, 4, 4)
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_magic_is_validated(self, tmp_path):
        p = tmp_path / "bad"
        with open(p, "wb") as f:
            f.write(b"\x01\x00\x08\x01\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            read_idx(str(p))

    def test_empty_tensor_is_fine(self, tmp_path):
        write_idx(tmp_path / "e-images-idx3-ubyte", np.zeros((0, 3, 3), dtype=np.uint8))
        write_idx(tmp_path / "e-labels-idx1-ubyte", np.zeros(0, dtype=np.uint8))
        ds = load_idx(str(tmp_path / "e-images-idx3-ubyte"))
        assert len(ds) == 0

    def test_count_mismatch(self, tmp_path):
        write_idx(tmp_path / "m-images-idx3-ubyte", np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx(tmp_path / "m-labels-idx1-ubyte", np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError, match="images but"):
            load_idx(str(tmp_path / "m-images-idx3-ubyte"))

    def test_payload_size_checked(self, tmp_path):
        p = tmp_path / "short"
        with open(p, "wb") as f:
            f.write(struct.pack(">BBBB", 0, 0, 0x08, 2))
            f.write(struct.pack(">2I", 4, 4))
            f.write(b"\x00" * 10)
        with pytest.raises(ValueError, match="payload"):
            read_idx(str(p))


def small_dataset(n=40, classes=4, size=8, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        images=rng.integers(0, 256, (n, 3, size, size), dtype=np.uint8),
        labels=rng.integers(0, classes, n).astype(np.int64),
        split="train",
        class_count=classes,
    )


class TestBatching:
    def test_same_seed_epoch_identical(self):
        ds = small_dataset()
        run1 = [(x.data.copy(), y.copy()) for x, y in batches(ds, 8, seed=5, epoch=2)]
        run2 = [(x.data.copy(), y.copy()) for x, y in batches(ds, 8, seed=5, epoch=2)]
        for (x1, y1), (x2, y2) in zip(run1, run2):
            np.testing.assert_array_equal(x1, x2)
            np.testing.assert_array_equal(y1, y2)

    def test_epochs_differ(self):
        ds = small_dataset()
        y1 = np.concatenate([y for _, y in batches(ds, 8, seed=5, epoch=0)])
        y2 = np.concatenate([y for _, y in batches(ds, 8, seed=5, epoch=1)])
        assert not np.array_equal(y1, y2)

    def test_identity_policy_preserves_pixels(self):
        ds = small_dataset()
        policy = AugmentPolicy(pad=0, horizontal_flip_prob=0.0)
        for x, y in batches(ds, 8, seed=1, epoch=0, policy=policy):
            assert x.data.min() >= 0.0 and x.data.max() <= 1.0
        raw = [(x.data.copy(), y) for x, y in batches(ds, 8, seed=1, epoch=0)]
        aug = [(x.data.copy(), y) for x, y in batches(ds, 8, seed=1, epoch=0, policy=policy)]
        for (a, _), (b, _) in zip(raw, aug):
            np.testing.assert_array_equal(a, b)

    def test_partial_batch_dropped(self):
        ds = small_dataset(n=10)
        got = list(batches(ds, 4, seed=0, epoch=0))
        assert len(got) == 2

    def test_fifty_thousand_over_512_gives_97(self):
        ds = Dataset(images=np.zeros((50_000, 1, 2, 2), dtype=np.uint8),
                     labels=np.zeros(50_000, dtype=np.int64), split="train", class_count=10)
        assert sum(1 for _ in batches(ds, 512, seed=0, epoch=0)) == 97

    def test_shuffle_is_a_permutation(self):
        ds = small_dataset(n=32)
        ds.labels[:] = np.arange(32)
        ds.class_count = 32
        seen = np.concatenate([y for _, y in batches(ds, 8, seed=3, epoch=0)])
        assert sorted(seen) == list(range(32))

    def test_batch_size_larger_than_dataset(self):
        with pytest.raises(ValueError, match="exceeds"):
            next(batches(small_dataset(n=4), 8, seed=0, epoch=0))

    def test_crop_keeps_shape_and_flip_keeps_label(self):
        ds = small_dataset()
        policy = AugmentPolicy(pad=2, horizontal_flip_prob=1.0)
        plain = {tuple(y): x.data.shape for x, y in batches(ds, 8, seed=9, epoch=0)}
        for x, y in batches(ds, 8, seed=9, epoch=0, policy=policy):
            assert x.data.shape == plain[tuple(y)]

    def test_eval_batches_cover_everything_in_order(self):
        ds = small_dataset(n=10)
        ys = np.concatenate([y for _, y in eval_batches(ds, 4)])
        np.testing.assert_array_equal(ys, ds.labels)
        sizes = [len(y) for _, y in eval_batches(ds, 4)]
        assert sizes == [4, 4, 2]


class TestNormalization:
    def test_train_statistics_standardize(self):
        ds = small_dataset(n=100)
        norm = Normalization.from_train(ds)
        x = ds.images.astype(np.float32) / 255.0
        z = norm.apply(x)
        np.testing.assert_allclose(z.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(z.std(axis=(0, 2, 3)), 1.0, atol=1e-3)


class TestSubsetsAndSynthetic:
    def test_balanced_subset_counts(self):
        ds = make_synthetic(per_class=20, class_count=5, image_size=8, seed=0)
        sub = balanced_subset(ds, per_class=6, seed=1)
        counts = np.bincount(sub.labels, minlength=5)
        np.testing.assert_array_equal(counts, [6] * 5)

    def test_balanced_subset_insufficient(self):
        ds = make_synthetic(per_class=3, class_count=4, image_size=8, seed=0)
        with pytest.raises(ValueError, match="only"):
            balanced_subset(ds, per_class=5, seed=0)

    def test_synthetic_deterministic(self):
        a = make_synthetic(per_class=5, class_count=4, image_size=8, seed=7)
        b = make_synthetic(per_class=5, class_count=4, image_size=8, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_synthetic_splits_differ(self):
        a = make_synthetic(per_class=5, class_count=4, image_size=8, seed=7, split="train")
        b = make_synthetic(per_class=5, class_count=4, image_size=8, seed=7, split="eval")
        assert not np.array_equal(a.images, b.images)

    def test_dataset_label_validation(self):
        with pytest.raises(ValueError, match="labels must lie"):
            Dataset(images=np.zeros((2, 1, 2, 2), np.uint8),
                    labels=np.array([0, 5]), split="train", class_count=3)
