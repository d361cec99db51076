"""Dataset ingestion, augmentation, and deterministic batching.

Images are held as raw uint8 in NCHW; scaling to [0, 1] and per-channel
normalization happen on the way into a batch, which keeps memory small and
makes byte-level round-trip tests meaningful. Shuffling, cropping, and
flipping are all pure functions of (seed, epoch), so a batch stream can be
replayed exactly.

Supported on-disk formats: the CIFAR binary layout (one or two label bytes
followed by 3072 pixel bytes per record; the variant is detected from the
file size) and the big-endian IDX layout used by MNIST-style corpora.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .tensor import Tensor

CIFAR10_RECORD = 3073   # 1 label byte + 3072 pixels
CIFAR100_RECORD = 3074  # coarse + fine label bytes + 3072 pixels


@dataclass
class Dataset:
    images: np.ndarray   # uint8, (N, C, H, W)
    labels: np.ndarray   # int64, (N,)
    split: str
    class_count: int
    name: str = ""

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(f"{len(self.images)} images vs {len(self.labels)} labels")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError(
                f"labels must lie in [0, {self.class_count}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class AugmentPolicy:
    """Zero-pad, random-crop back to size, then flip left-right with probability p."""

    pad: int = 4
    horizontal_flip_prob: float = 0.5


@dataclass
class Normalization:
    mean: np.ndarray  # (C,)
    std: np.ndarray   # (C,)

    @staticmethod
    def from_train(ds: Dataset) -> "Normalization":
        """Per-channel statistics of the training split on the [0, 1] scale."""
        x = ds.images.astype(np.float64) / 255.0
        mean = x.mean(axis=(0, 2, 3))
        std = x.std(axis=(0, 2, 3))
        std[std == 0.0] = 1.0
        return Normalization(mean.astype(np.float32), std.astype(np.float32))

    def apply(self, x: np.ndarray) -> np.ndarray:
        c = x.shape[1]
        return (x - self.mean.reshape(1, c, 1, 1)) / self.std.reshape(1, c, 1, 1)

    def to_dict(self) -> dict:
        return {"mean": [float(v) for v in self.mean], "std": [float(v) for v in self.std]}

    @staticmethod
    def from_dict(d: dict) -> "Normalization":
        return Normalization(
            np.asarray(d["mean"], dtype=np.float32),
            np.asarray(d["std"], dtype=np.float32),
        )


# ----------------------------------------------------------------------
# CIFAR binary layout


def _parse_cifar_bytes(raw: bytes, origin: str) -> tuple[np.ndarray, np.ndarray, int]:
    n = len(raw)
    fits10 = n % CIFAR10_RECORD == 0 and n > 0
    fits100 = n % CIFAR100_RECORD == 0 and n > 0
    if fits10 and fits100:
        raise ValueError(f"{origin}: ambiguous size {n} fits both 1- and 2-label records")
    if not fits10 and not fits100:
        off10 = n - n % CIFAR10_RECORD
        off100 = n - n % CIFAR100_RECORD
        raise ValueError(
            f"{origin}: size {n} is not a whole number of records; trailing bytes start at "
            f"offset {off10} (1-label layout) or {off100} (2-label layout)"
        )
    record = CIFAR10_RECORD if fits10 else CIFAR100_RECORD
    label_bytes = record - 3072
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, record)
    labels = arr[:, label_bytes - 1].astype(np.int64)  # fine label when two are present
    images = arr[:, label_bytes:].reshape(-1, 3, 32, 32)
    return images, labels, 10 if fits10 else 100


def _cifar_files(root: str, split: str) -> list[str]:
    if os.path.isfile(root):
        return [root]
    candidates = []
    if split == "train":
        for sub in ("", "cifar-10-batches-bin"):
            batch = [os.path.join(root, sub, f"data_batch_{i}.bin") for i in range(1, 6)]
            if all(os.path.isfile(p) for p in batch):
                candidates = batch
                break
        if not candidates:
            for sub in ("", "cifar-100-binary"):
                p = os.path.join(root, sub, "train.bin")
                if os.path.isfile(p):
                    candidates = [p]
                    break
    else:
        for sub, fname in (("", "test_batch.bin"), ("cifar-10-batches-bin", "test_batch.bin"),
                           ("", "test.bin"), ("cifar-100-binary", "test.bin")):
            p = os.path.join(root, sub, fname)
            if os.path.isfile(p):
                candidates = [p]
                break
    if not candidates:
        raise FileNotFoundError(f"no CIFAR binary files for split {split!r} under {root}")
    return candidates


def load_cifar(path: str, split: str = "train") -> Dataset:
    """Load a CIFAR binary file or directory tree into a Dataset.

    Accepts either a single .bin file or a root directory holding the
    standard distribution layout. The 10- and 100-class variants are told
    apart by record size; the 100-class fine label is used.
    """
    images, labels, class_count = [], [], None
    for p in _cifar_files(path, split):
        with open(p, "rb") as f:
            raw = f.read()
        img, lab, cc = _parse_cifar_bytes(raw, p)
        if class_count is not None and cc != class_count:
            raise ValueError(f"{p}: mixes {cc}-class records with {class_count}-class records")
        class_count = cc
        images.append(img)
        labels.append(lab)
    return Dataset(
        images=np.concatenate(images),
        labels=np.concatenate(labels),
        split=split,
        class_count=class_count,
        name=f"cifar-{class_count}",
    )


# ----------------------------------------------------------------------
# IDX layout


def read_idx(path: str) -> np.ndarray:
    """Parse one IDX tensor file (big-endian dims, ubyte payload)."""
    with open(path, "rb") as f:
        header = f.read(4)
        if len(header) < 4 or header[0] != 0 or header[1] != 0:
            raise ValueError(f"{path}: bad IDX magic {header!r}")
        dtype_code, ndim = header[2], header[3]
        if dtype_code != 0x08:
            raise ValueError(f"{path}: only ubyte IDX payloads are supported, got code {dtype_code:#x}")
        dims = struct.unpack(f">{ndim}I", f.read(4 * ndim))
        payload = f.read()
    expected = int(np.prod(dims)) if dims else 0
    if len(payload) != expected:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, dims {dims} need {expected}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path: str, labels_path: Optional[str] = None,
             split: str = "train", class_count: Optional[int] = None) -> Dataset:
    """Load an IDX image file plus its label file ("images" -> "labels" by name)."""
    if labels_path is None:
        guess = images_path.replace("images", "labels").replace("idx3", "idx1")
        if guess == images_path or not os.path.isfile(guess):
            raise FileNotFoundError(f"cannot locate labels file for {images_path}")
        labels_path = guess
    images = read_idx(images_path)
    labels = read_idx(labels_path).astype(np.int64)
    if images.ndim == 3:
        images = images[:, None, :, :]
    elif images.ndim != 4:
        raise ValueError(f"{images_path}: expected 3- or 4-d image tensor, got dims {images.shape}")
    if labels.ndim != 1:
        raise ValueError(f"{labels_path}: expected 1-d labels, got dims {labels.shape}")
    if len(images) != len(labels):
        raise ValueError(f"{len(images)} images but {len(labels)} labels")
    if class_count is None:
        class_count = int(labels.max()) + 1 if len(labels) else 0
    return Dataset(images=images, labels=labels, split=split, class_count=class_count, name="idx")


# ----------------------------------------------------------------------
# batching


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch)]))


def _augment(x: np.ndarray, policy: AugmentPolicy, rng: np.random.Generator) -> np.ndarray:
    b, c, h, w = x.shape
    p = policy.pad
    if p:
        padded = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        offs = rng.integers(0, 2 * p + 1, size=(b, 2))
        out = np.empty_like(x)
        for i in range(b):
            oy, ox = offs[i]
            out[i] = padded[i, :, oy : oy + h, ox : ox + w]
        x = out
    if policy.horizontal_flip_prob > 0:
        flips = rng.random(b) < policy.horizontal_flip_prob
        x[flips] = x[flips, :, :, ::-1]
    return x


def batches(ds: Dataset, batch_size: int, seed: int, epoch: int,
            policy: Optional[AugmentPolicy] = None,
            norm: Optional[Normalization] = None) -> Iterator[tuple[Tensor, np.ndarray]]:
    """Shuffled training batches, deterministic in (seed, epoch).

    The final partial batch is dropped so every epoch has exactly
    ``len(ds) // batch_size`` iterations.
    """
    n = len(ds)
    if batch_size > n:
        raise ValueError(f"batch size {batch_size} exceeds dataset size {n}")
    rng = _epoch_rng(seed, epoch)
    perm = rng.permutation(n)
    for i in range(n // batch_size):
        idx = perm[i * batch_size : (i + 1) * batch_size]
        x = ds.images[idx].astype(np.float32) / 255.0
        if policy is not None:
            x = _augment(x, policy, rng)
        if norm is not None:
            x = norm.apply(x)
        yield Tensor(x), ds.labels[idx]


def eval_batches(ds: Dataset, batch_size: int,
                 norm: Optional[Normalization] = None) -> Iterator[tuple[Tensor, np.ndarray]]:
    """In-order batches over the whole split, tail included, no augmentation."""
    n = len(ds)
    for i in range(0, n, batch_size):
        x = ds.images[i : i + batch_size].astype(np.float32) / 255.0
        if norm is not None:
            x = norm.apply(x)
        yield Tensor(x), ds.labels[i : i + batch_size]


def balanced_subset(ds: Dataset, per_class: int, seed: int) -> Dataset:
    """A class-balanced random subset with ``per_class`` examples per class."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB5E7]))
    picks = []
    for c in range(ds.class_count):
        pool = np.flatnonzero(ds.labels == c)
        if len(pool) < per_class:
            raise ValueError(f"class {c} has only {len(pool)} examples, need {per_class}")
        picks.append(rng.permutation(pool)[:per_class])
    idx = rng.permutation(np.concatenate(picks))
    return Dataset(images=ds.images[idx], labels=ds.labels[idx], split=ds.split,
                   class_count=ds.class_count, name=ds.name)


# ----------------------------------------------------------------------
# synthetic corpus for smoke tests and demos


def make_synthetic(per_class: int, class_count: int = 8, image_size: int = 16,
                   seed: int = 0, split: str = "train") -> Dataset:
    """Procedural image classes: oriented gratings with class-coded colors.

    Each class is a sinusoidal grating whose frequency and orientation are
    functions of the class index, drawn with a random phase, a class-coded
    channel emphasis, and pixel noise. Deterministic in the seed; useful
    wherever a real corpus is too heavy or unavailable.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5F17, 0 if split == "train" else 1]))
    s = image_size
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64) / s
    images = np.empty((per_class * class_count, 3, s, s), dtype=np.uint8)
    labels = np.empty(per_class * class_count, dtype=np.int64)
    i = 0
    for c in range(class_count):
        freq = 2.0 + (c // 4) * 2.0
        theta = (c % 4) * np.pi / 4.0
        proj = xx * np.cos(theta) + yy * np.sin(theta)
        emphasis = np.ones(3) * 0.35
        emphasis[c % 3] = 1.0
        for _ in range(per_class):
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.uniform(45.0, 70.0)
            grating = np.sin(2 * np.pi * freq * proj + phase)
            img = 128.0 + amp * emphasis[:, None, None] * grating[None, :, :]
            img += rng.normal(0.0, 18.0, size=(3, s, s))
            images[i] = np.clip(img, 0, 255).astype(np.uint8)
            labels[i] = c
            i += 1
    order = rng.permutation(len(labels))
    return Dataset(images=images[order], labels=labels[order], split=split,
                   class_count=class_count, name="synthetic")
