"""Dataset construction and file loading.

Synthetic data: isotropic Gaussian clusters with a designated semantic
direction v that is orthogonal to every between-class mean difference, so
the Bayes-optimal label is invariant under x + delta * v for any delta.
Two class means sit at -separation and +separation on the first axis and v
is the second; K > 2 class means sit at separation on the first K axes and
v is axis K + 1, so config.validate asks for synthetic_dim >= 2 or >= K + 1.

IDX data: the classic big-endian ubyte image/label pair format, pixels
scaled to [0, 1] and flattened.

Both return a transforms.Dataset with no picked rows.
"""

from __future__ import annotations

import os
import stat
import struct

import numpy as np

from .config import STREAM_SYNTHETIC_TEST, STREAM_SYNTHETIC_TRAIN, ExperimentConfig
from .errors import DatasetError
from .transforms import Dataset

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _class_means(cfg: ExperimentConfig) -> np.ndarray:
    means = np.zeros((cfg.synthetic_classes, cfg.synthetic_dim))
    if cfg.synthetic_classes == 2:
        means[0, 0] = -cfg.synthetic_separation
        means[1, 0] = +cfg.synthetic_separation
    else:
        for c in range(cfg.synthetic_classes):
            means[c, c] = cfg.synthetic_separation
    return means


def _semantic_direction(cfg: ExperimentConfig) -> np.ndarray:
    v = np.zeros(cfg.synthetic_dim)
    v[1 if cfg.synthetic_classes == 2 else cfg.synthetic_classes] = 1.0
    return v


def gen_synthetic(cfg: ExperimentConfig):
    """Deterministic per-class Gaussian clusters from the synthetic_*
    settings and seed; returns (train, test, v).

    The (diagonal) covariance is shared by all classes and may be stretched
    by synthetic_semantic_noise along the semantic direction; the Bayes
    boundary then still depends only on the mean-difference directions, so
    the optimal label stays invariant under shifts along v.
    """
    means = _class_means(cfg)
    v = _semantic_direction(cfg)
    scale = np.full(cfg.synthetic_dim, cfg.synthetic_noise)
    scale[np.argmax(v)] *= cfg.synthetic_semantic_noise

    def _split(count, stream):
        rng = np.random.default_rng([cfg.seed, stream])
        xs, ys = [], []
        for c in range(cfg.synthetic_classes):
            xs.append(means[c] + scale * rng.standard_normal((count, cfg.synthetic_dim)))
            ys.append(np.full(count, c, dtype=np.int64))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        perm = rng.permutation(len(x))
        return Dataset(x[perm], y[perm])

    train = _split(cfg.synthetic_train_per_class, STREAM_SYNTHETIC_TRAIN)
    return train, _split(cfg.synthetic_test_per_class, STREAM_SYNTHETIC_TEST), v


def _read_exact(fh, count, path, what):
    """`count` bytes of fh, else DatasetError naming `path`. A regular file
    is never read past its end, so a header's claimed size allocates nothing."""
    st = os.fstat(fh.fileno())
    held = st.st_size - fh.tell() if stat.S_ISREG(st.st_mode) else count
    data = fh.read(min(count, held))
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
        if rows == 0 or cols == 0:
            raise DatasetError(f"{images_path}: images of {rows}x{cols} pixels have no pixels")
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
    x = np.frombuffer(payload, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols)
    x /= 255.0  # in place: the float copy is the only pixel array
    y = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    if expected_classes is not None and count and y.max() >= expected_classes:
        raise DatasetError(
            f"{labels_path}: label {int(y.max())} out of range for {expected_classes} classes")
    return Dataset(x, y)


def write_dataset_csv(path, ds: Dataset) -> None:
    """Plain CSV export of ds.x, ds.y (no picked rows): feature columns
    f0..fN-1 then an integer label."""
    cols = [f"f{i}" for i in range(ds.x.shape[1])] + ["label"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row, label in zip(ds.x, ds.y):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def accuracy(model, ds: Dataset) -> float:
    """Share of ds.x classified as ds.y (the callers' sets have no picked rows)."""
    if len(ds) == 0:
        raise ValueError("cannot score an empty dataset")
    probs = model.forward(ds.x)
    return float(np.mean(np.argmax(probs, axis=1) == ds.y))
