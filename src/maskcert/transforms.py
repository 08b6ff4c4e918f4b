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
    """Fully corrupted endpoint corrupt(x); x may be a vector or a batch.
    Haze allocates the result alone, the blur one temporary besides."""
    x = np.asarray(x, dtype=np.float64)
    s = tag.severity
    if tag.name == "haze":
        # Monotone brightening toward white with one intensity parameter.
        out = np.multiply(x, 1.0 - s)
        out += s
        return out
    # 3-tap normalized kernel [s, 1, s] / (1 + 2s) along the last axis with
    # edge replication; a convex combination, so [0, 1] inputs stay there.
    # Each entry adds (s * left + centre) + s * right, then divides.
    out = np.empty_like(x)
    np.multiply(x[..., :-1], s, out=out[..., 1:])
    np.multiply(x[..., :1], s, out=out[..., :1])
    out += x
    out[..., :-1] += np.multiply(x[..., 1:], s)
    out[..., -1:] += np.multiply(x[..., -1:], s)
    out /= 1.0 + 2.0 * s
    return out


def apply(spec: TransformSpec, x: np.ndarray, delta: float, out=None) -> np.ndarray:
    """T(x, delta); delta must lie inside the transform's delta range.

    With `out` the result is written there, and `out` may be x itself: the
    rows are then transformed in place."""
    lo, hi = spec.delta_range
    if not lo <= delta <= hi:
        raise ValueError(f"delta {delta} outside range [{lo}, {hi}]")
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    if delta == 0.0:
        np.copyto(out, x)
        return out
    if spec.kind == "direction_shift":
        return np.add(x, delta * spec.direction, out=out)
    cx = corrupt_input(spec.corrupt, x)  # taken before out overwrites x
    np.multiply(x, 1.0 - delta, out=out)
    cx *= delta
    out += cx
    return np.clip(out, 0.0, 1.0, out=out)


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
    selects every sample exactly once. Returns (x_aug, y_aug, rows): x_aug
    holds x in its first len(x) rows and T(x[rows[j]], delta_fixed) in row
    len(x) + j, and labels are carried over unchanged. The pairs are row
    indices, not copies: pair j is clean row x_aug[rows[j]] and transformed
    row x_aug[len(x) + j]. x_aug is the one array of the data's size this
    allocates; the selected rows are gathered into its tail and transformed
    there.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if len(x) == 0:
        raise ValueError("cannot augment an empty dataset")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if rng is None:
        rng = np.random.default_rng(0)
    picks = []
    while len(picks) < count:
        picks.extend(rng.permutation(len(x)).tolist())
    rows = np.asarray(picks[:count], dtype=np.int64)
    x_aug = np.empty((len(x) + count, *x.shape[1:]))
    x_aug[:len(x)] = x
    # mode="clip" gathers straight into the tail (rows are all in range);
    # the default mode would buffer a copy of it
    tail = np.take(x, rows, axis=0, out=x_aug[len(x):], mode="clip")
    apply(spec, tail, delta_fixed, out=tail)
    return x_aug, np.concatenate([y, y[rows]]), rows
