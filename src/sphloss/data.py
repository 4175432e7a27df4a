"""Dataset loading (MNIST IDX files), seeded splitting, and synthetic
large-vocabulary categorical task generation."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxParseError(ValueError):
    """Structured IDX parse failure (bad magic, truncation, mismatch)."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, input_dim) float64
    labels: np.ndarray    # (N,) int64 in [0, D)
    D: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be (N, input_dim), labels (N,)")
        if self.features.shape[0] != self.labels.shape[0] or self.features.shape[0] == 0:
            raise ValueError("features/labels length mismatch or empty dataset")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.labels.min() < 0 or self.labels.max() >= self.D:
            raise ValueError("labels out of range")

    def __len__(self):
        return self.features.shape[0]


@dataclass(frozen=True)
class SplitSpec:
    train_n: int
    valid_n: int
    test_n: int
    seed: int = 0


def _read_be_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise IdxParseError(f"{path}: truncated header at offset {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def _read_idx(path: str, magic: int) -> np.ndarray:
    """The uint8 array of the IDX file at ``path``, whose magic number must
    be ``magic``; the magic's low byte is the number of dimensions."""
    with open(path, "rb") as f:
        buf = f.read()
    found = _read_be_u32(buf, 0, path)
    if found != magic:
        raise IdxParseError(
            f"{path}: bad magic 0x{found:08x} at offset 0, expected 0x{magic:08x}"
        )
    dims = [_read_be_u32(buf, 4 * k, path) for k in range(1, (magic & 0xFF) + 1)]
    start = 4 * (len(dims) + 1)
    size = start + math.prod(dims)
    if len(buf) != size:
        raise IdxParseError(f"{path}: expected {size} bytes, got {len(buf)}")
    return np.frombuffer(buf, dtype=np.uint8, offset=start).reshape(dims)


def load_mnist(images_path: str, labels_path: str) -> Dataset:
    """Load one MNIST IDX image/label file pair; pixels scaled to [0, 1]."""
    pixels = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    n, rows, cols = pixels.shape
    if n != len(labels):
        raise IdxParseError(f"image/label count mismatch: {n} images vs {len(labels)} labels")
    features = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    return Dataset(features=features, labels=labels.astype(np.int64), D=10)


def concat(a: Dataset, b: Dataset) -> Dataset:
    if a.D != b.D or a.features.shape[1] != b.features.shape[1]:
        raise ValueError("datasets are not compatible")
    return Dataset(
        features=np.concatenate([a.features, b.features]),
        labels=np.concatenate([a.labels, b.labels]),
        D=a.D,
    )


def random_split(dataset: Dataset, spec: SplitSpec) -> Tuple[Dataset, Dataset, Optional[Dataset]]:
    """Disjoint (train, valid, test) from a seeded shuffle.  The test part
    is None when ``test_n`` is 0, for a dataset whose test rows come from
    elsewhere; an empty train or valid part is a ValueError."""
    if min(spec.train_n, spec.valid_n, spec.test_n) < 0:
        raise ValueError(f"split sizes must be >= 0, got {spec}")
    total = spec.train_n + spec.valid_n + spec.test_n
    if total > len(dataset):
        raise ValueError(f"split sizes sum to {total} > N={len(dataset)}")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(len(dataset))

    def part(lo: int, hi: int) -> Dataset:
        idx = perm[lo:hi]
        return Dataset(features=dataset.features[idx], labels=dataset.labels[idx],
                       D=dataset.D)

    valid_end = spec.train_n + spec.valid_n
    return (part(0, spec.train_n), part(spec.train_n, valid_end),
            part(valid_end, total) if spec.test_n else None)


def zipf_frequencies(D: int, exponent: float) -> np.ndarray:
    """Class frequencies proportional to (k+1)^-exponent, k = 0..D-1."""
    w = np.arange(1, D + 1, dtype=np.float64) ** (-exponent)
    return w / w.sum()


def synthetic_categorical(
    D: int,
    input_dim: int,
    N: int,
    zipf_exponent: float = 1.0,
    seed: int = 0,
    separation: float = 1.0,
) -> Dataset:
    """Class-conditional Gaussian task with Zipf class frequencies.

    Each class has a unit-norm mean direction scaled by ``separation``;
    features are that mean plus standard Gaussian noise.  At separation 0
    the features carry no information and the best achievable accuracy is
    max_k p_k.
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    if zipf_exponent < 0:
        raise ValueError("zipf_exponent must be >= 0")
    rng = np.random.default_rng(seed)
    p = zipf_frequencies(D, zipf_exponent)
    labels = rng.choice(D, size=N, p=p).astype(np.int64)
    # every class draws its mean, to keep the stream of draws, but only the
    # rows drawn as labels are normalized
    means = rng.normal(size=(D, input_dim))[labels]
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    features = separation * means + rng.normal(size=(N, input_dim))
    return Dataset(features=features, labels=labels, D=D)
