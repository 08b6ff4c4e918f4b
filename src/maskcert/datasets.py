"""Dataset construction and file loading.

Synthetic data: isotropic Gaussian clusters with a designated semantic
direction v that is orthogonal to every between-class mean difference, so
the Bayes-optimal label is invariant under x + delta * v for any delta.

IDX data: the classic big-endian ubyte image/label pair format, pixels
scaled to [0, 1] and flattened.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DatasetError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class Dataset(NamedTuple):
    x: np.ndarray  # (m, n) float64
    y: np.ndarray  # (m,) int64

    def __len__(self):
        return len(self.x)


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    dim: int = 16
    classes: int = 2
    train_per_class: int = 200
    test_per_class: int = 100
    separation: float = 1.0
    noise: float = 0.35
    semantic_noise_scale: float = 1.0  # stretches the covariance along v
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if self.dim < self.min_dim():
            raise ValueError(
                f"dim {self.dim} too small; need >= {self.min_dim()} so a unit "
                f"direction orthogonal to all class-mean differences exists")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("per-class sample counts must be positive")
        if self.noise <= 0 or self.separation <= 0:
            raise ValueError("noise and separation must be positive")
        if self.semantic_noise_scale <= 0:
            raise ValueError("semantic_noise_scale must be positive")

    def min_dim(self) -> int:
        return 2 if self.classes == 2 else self.classes + 1

    def class_means(self) -> np.ndarray:
        means = np.zeros((self.classes, self.dim))
        if self.classes == 2:
            means[0, 0] = -self.separation
            means[1, 0] = +self.separation
        else:
            for c in range(self.classes):
                means[c, c] = self.separation
        return means

    def semantic_direction(self) -> np.ndarray:
        v = np.zeros(self.dim)
        v[1 if self.classes == 2 else self.classes] = 1.0
        return v


def gen_synthetic(spec: SyntheticDatasetSpec):
    """Deterministic per-class Gaussian clusters; returns (train, test, v).

    The (diagonal) covariance is shared by all classes and may be stretched
    along the semantic direction; the Bayes boundary then still depends only
    on the mean-difference directions, so the optimal label stays invariant
    under shifts along v.
    """
    means = spec.class_means()
    v = spec.semantic_direction()
    diffs = means[None, :, :] - means[:, None, :]
    if np.abs(diffs @ v).max() > 1e-9:
        raise ValueError("semantic direction is not orthogonal to class-mean differences")
    scale = np.full(spec.dim, spec.noise)
    scale[np.argmax(v)] *= spec.semantic_noise_scale

    def _split(count, stream):
        rng = np.random.default_rng([spec.seed, stream])
        xs, ys = [], []
        for c in range(spec.classes):
            xs.append(means[c] + scale * rng.standard_normal((count, spec.dim)))
            ys.append(np.full(count, c, dtype=np.int64))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        perm = rng.permutation(len(x))
        return Dataset(x[perm], y[perm])

    return _split(spec.train_per_class, 0), _split(spec.test_per_class, 1), v


def _read_exact(fh, count, path, what):
    data = fh.read(count)
    if len(data) != count:
        raise DatasetError(f"{path}: truncated {what} (wanted {count} bytes, got {len(data)})")
    return data


def load_idx(images_path, labels_path, expected_classes: int | None = None) -> Dataset:
    """Load an IDX image/label file pair, pixels scaled to [0, 1] and
    flattened to (count, rows*cols)."""
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, "header"))
        if magic != IDX_IMAGE_MAGIC:
            raise DatasetError(f"{images_path}: bad image magic 0x{magic:08x}")
        payload = _read_exact(fh, count * rows * cols, images_path, "pixel payload")
        if fh.read(1):
            raise DatasetError(f"{images_path}: trailing bytes after pixel payload")
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path, "header"))
        if magic != IDX_LABEL_MAGIC:
            raise DatasetError(f"{labels_path}: bad label magic 0x{magic:08x}")
        label_bytes = _read_exact(fh, label_count, labels_path, "label payload")
        if fh.read(1):
            raise DatasetError(f"{labels_path}: trailing bytes after label payload")
    if label_count != count:
        raise DatasetError(
            f"image/label count mismatch: {count} images vs {label_count} labels")
    x = np.frombuffer(payload, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols) / 255.0
    y = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    if expected_classes is not None and count and y.max() >= expected_classes:
        raise DatasetError(
            f"{labels_path}: label {int(y.max())} out of range for {expected_classes} classes")
    return Dataset(x, y)


def write_dataset_csv(path, ds: Dataset) -> None:
    """Plain CSV export: feature columns f0..fN-1 then an integer label."""
    cols = [f"f{i}" for i in range(ds.x.shape[1])] + ["label"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row, label in zip(ds.x, ds.y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def accuracy(model, ds: Dataset) -> float:
    if len(ds) == 0:
        raise ValueError("cannot score an empty dataset")
    probs = model.forward(ds.x)
    return float(np.mean(np.argmax(probs, axis=1) == ds.y))
