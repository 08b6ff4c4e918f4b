"""Seeded generator of small 28x28, 10-class IDX image datasets.

Each class has a prototype made of a few random Gaussian strokes. A sample is
its class prototype shifted by up to two pixels, scaled by a random contrast,
plus independent pixel noise, clipped to [0, 1] and quantized to bytes. The
same seed always gives byte-identical files.

The pixel noise sets how hard the task is. The idx-wide output check compares
certified fractions, which can only show drift while they are well below 1.
At the reference seed, NOISE = 0.35 gives a clean accuracy near 0.88 and
certified fractions of 0.4 to 0.5.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

ROWS = COLS = 28
CLASSES = 10
STROKES = 4
NOISE = 0.35
MAX_SHIFT = 2

FILES = {
    "idx_train_images": "train-images-idx3-ubyte",
    "idx_train_labels": "train-labels-idx1-ubyte",
    "idx_test_images": "t10k-images-idx3-ubyte",
    "idx_test_labels": "t10k-labels-idx1-ubyte",
}


def prototypes(rng: np.random.Generator) -> np.ndarray:
    """(CLASSES, ROWS, COLS) images in [0, 1], each a sum of STROKES blobs."""
    yy, xx = np.mgrid[0:ROWS, 0:COLS].astype(np.float64)
    protos = np.zeros((CLASSES, ROWS, COLS))
    for c in range(CLASSES):
        for _ in range(STROKES):
            cy, cx = rng.uniform(6, ROWS - 6, size=2)
            sy, sx = rng.uniform(1.0, 4.0, size=2)
            protos[c] += np.exp(-((yy - cy) / sy) ** 2 - ((xx - cx) / sx) ** 2)
        protos[c] /= protos[c].max()
    return protos


def samples(protos: np.ndarray, per_class: int, rng: np.random.Generator):
    """Shuffled (images uint8 (m, ROWS, COLS), labels uint8 (m,))."""
    labels = np.repeat(np.arange(CLASSES), per_class)
    rng.shuffle(labels)
    images = np.empty((len(labels), ROWS, COLS))
    shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(len(labels), 2))
    contrast = rng.uniform(0.7, 1.0, size=len(labels))
    for i, c in enumerate(labels):
        images[i] = contrast[i] * np.roll(protos[c], tuple(shifts[i]), axis=(0, 1))
    images += NOISE * rng.standard_normal(images.shape)
    pixels = np.rint(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)
    return pixels, labels.astype(np.uint8)


def write_idx(images_path: Path, labels_path: Path, images: np.ndarray,
              labels: np.ndarray) -> None:
    count, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, count))
        fh.write(labels.tobytes())


def generate(seed: int, out: Path, train_per_class: int,
             test_per_class: int) -> dict[str, str]:
    """Write the four IDX files under `out`; returns config key -> path."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x1D8])
    protos = prototypes(rng)
    paths = {key: str(out / name) for key, name in FILES.items()}
    for split, per_class in (("train", train_per_class), ("test", test_per_class)):
        images, labels = samples(protos, per_class, rng)
        write_idx(Path(paths[f"idx_{split}_images"]), Path(paths[f"idx_{split}_labels"]),
                  images, labels)
    return paths

