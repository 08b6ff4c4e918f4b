"""Parametric semantic transformation spaces.

Two families stand in for generative-model mutations: additive shifts along
a fixed unit direction (synthetic feature vectors), and pixel-level linear
interpolation toward a corrupted copy of the input (image vectors in
[0, 1]). Magnitude delta lives in [0, 1]; delta = 0 returns the input
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("direction_shift", "interp_corrupt")
CORRUPTIONS = ("haze", "gaussian_blur3")


@dataclass(frozen=True)
class CorruptionTag:
    name: str
    severity: float

    def __post_init__(self):
        if self.name not in CORRUPTIONS:
            raise ValueError(f"unknown corruption {self.name!r}")
        if self.name == "haze" and not 0.0 < self.severity <= 1.0:
            raise ValueError(f"haze severity must be in (0, 1], got {self.severity}")
        if self.name == "gaussian_blur3" and self.severity <= 0.0:
            raise ValueError(f"blur severity must be positive, got {self.severity}")


@dataclass(frozen=True, eq=False)
class TransformSpec:
    kind: str
    direction: np.ndarray | None = None
    corrupt: CorruptionTag | None = None
    delta_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        lo, hi = self.delta_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValueError(f"delta_range must satisfy 0 <= lo <= hi <= 1, got {self.delta_range}")
        if self.kind == "direction_shift":
            if self.direction is None:
                raise ValueError("direction_shift needs a direction vector")
            v = np.asarray(self.direction, dtype=np.float64)
            if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError("direction must be a unit vector (within 1e-9)")
            object.__setattr__(self, "direction", v)
        else:
            if self.corrupt is None:
                raise ValueError("interp_corrupt needs a corruption tag")


def corrupt_input(tag: CorruptionTag, x: np.ndarray) -> np.ndarray:
    """Fully corrupted endpoint corrupt(x); x may be a vector or a batch."""
    x = np.asarray(x, dtype=np.float64)
    if tag.name == "haze":
        # Monotone brightening toward white with one intensity parameter.
        return (1.0 - tag.severity) * x + tag.severity
    # 3-tap normalized kernel [s, 1, s] / (1 + 2s) along the last axis with
    # edge replication; a convex combination, so [0, 1] inputs stay there.
    s = tag.severity
    padded = np.concatenate([x[..., :1], x, x[..., -1:]], axis=-1)
    return (s * padded[..., :-2] + padded[..., 1:-1] + s * padded[..., 2:]) / (1.0 + 2.0 * s)


def apply(spec: TransformSpec, x: np.ndarray, delta: float) -> np.ndarray:
    """T(x, delta); delta must lie inside the transform's delta range."""
    lo, hi = spec.delta_range
    if not lo <= delta <= hi:
        raise ValueError(f"delta {delta} outside range [{lo}, {hi}]")
    x = np.asarray(x, dtype=np.float64)
    if delta == 0.0:
        return x.copy()
    if spec.kind == "direction_shift":
        return x + delta * spec.direction
    cx = corrupt_input(spec.corrupt, x)
    return np.clip((1.0 - delta) * x + delta * cx, 0.0, 1.0)


def sample_set(spec: TransformSpec, x: np.ndarray, n, rng: np.random.Generator,
               out=None, work=None) -> np.ndarray:
    """Transformed copies of x with delta ~ U(delta_range): n an int gives
    shape (n, *x.shape), a shape tuple (l, n) gives (l, n, *x.shape), whose
    deltas are the l·n draws of l successive calls with n in order, so every
    row has the bits of those calls. Deterministic given the generator state.

    With `out` the copies are written there; interp_corrupt then also needs
    `work`, an array of the same shape, for its second term.
    """
    shape = (n,) if isinstance(n, (int, np.integer)) else tuple(n)
    if min(shape) < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x = np.asarray(x, dtype=np.float64)
    lo, hi = spec.delta_range
    d = rng.uniform(lo, hi, size=shape).reshape(shape + (1,) * x.ndim)
    if spec.kind == "direction_shift":
        out = np.multiply(d, spec.direction, out=out)
        return np.add(x, out, out=out)
    cx = corrupt_input(spec.corrupt, x)
    out = np.multiply(1.0 - d, x, out=out)
    out += np.multiply(d, cx, out=work)
    return np.clip(out, 0.0, 1.0, out=out)


def augment_dataset(x: np.ndarray, y: np.ndarray, spec: TransformSpec, count: int,
                    delta_fixed: float = 1.0, rng: np.random.Generator | None = None):
    """Append `count` transformed samples at a fixed magnitude.

    Originals are drawn by cycling seeded permutations, so count == len(x)
    selects every sample exactly once. Returns (x_aug, y_aug, pairs) where
    pairs = (clean, transformed) row-aligned arrays for the selected
    originals; labels are carried over unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if len(x) == 0:
        raise ValueError("cannot augment an empty dataset")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        empty = np.empty((0, x.shape[1]))
        return x.copy(), y.copy(), (empty, empty.copy())
    if rng is None:
        rng = np.random.default_rng(0)
    picks = []
    while len(picks) < count:
        picks.extend(rng.permutation(len(x)).tolist())
    idx = np.asarray(picks[:count], dtype=np.int64)
    clean = x[idx]
    transformed = apply(spec, clean, delta_fixed)
    x_aug = np.concatenate([x, transformed])
    y_aug = np.concatenate([y, y[idx]])
    return x_aug, y_aug, (clean, transformed)
