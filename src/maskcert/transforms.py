"""Parametric semantic transformation spaces.

Two families stand in for generative-model mutations: additive shifts along
a fixed unit direction (synthetic feature vectors), and pixel-level linear
interpolation toward a corrupted copy of the input (image vectors in
[0, 1]). Magnitude delta lives in [0, 1]. `apply` is the one definition of
T(x, delta), for one delta or an array of them; delta = 0 returns the input
for a shift (a -0.0 entry may come back as +0.0) and its clip to [0, 1] for
an interpolation, which is the input itself on [0, 1] data.

Every labelled set is a Dataset: clean rows plus the indices of the rows it
transforms (none for a set read from data), each transformed row formed
only when a batch gathers it. Dataset lives here, beside augment_dataset,
as config, which datasets imports, imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KINDS = ("direction_shift", "interp_corrupt")
CORRUPTIONS = ("haze", "gaussian_blur3")
AUGMENT_DELTA = 1.0  # the magnitude of every transformed training row


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


def apply(spec: TransformSpec, x: np.ndarray, delta, out=None, work=None) -> np.ndarray:
    """T(x, delta): x + delta v for a shift, clip(x (1 - delta) + delta c(x),
    0, 1) for an interpolation. delta is a number or an array that broadcasts
    against x, each entry inside the delta range; (l, n, 1) deltas against a
    vector x give l·n copies, each with the bits of the call on its own
    delta. With `out` the result is written there, and `out` may be x
    itself. The delta term is formed in `work`, shaped like the result, when
    the result outgrows x (in a fresh array without it), and otherwise in a
    temporary no larger than x, for an interpolation c(x) itself.
    """
    lo, hi = spec.delta_range
    d = np.asarray(delta, dtype=np.float64)
    if not lo <= d.min() <= d.max() <= hi:
        raise ValueError(f"delta outside range [{lo}, {hi}]: min {d.min()}, max {d.max()}")
    x = np.asarray(x, dtype=np.float64)
    wide = np.broadcast(d, x).shape != x.shape  # the result outgrows x
    if spec.kind == "direction_shift":
        return np.add(x, np.multiply(d, spec.direction, out=work if wide else None), out=out)
    cx = corrupt_input(spec.corrupt, x)  # taken before out overwrites x
    out = np.multiply(x, 1.0 - d, out=out)
    out += np.multiply(cx, d, out=work if wide else cx)
    return np.clip(out, 0.0, 1.0, out=out)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A labelled set of len(x) + len(rows) rows: row i < len(x) is x[i] and
    row len(x) + j is T(x[rows[j]], AUGMENT_DELTA) under spec, each with its
    source row's label. Only x is held: a transformed row is formed when it
    is read, with the bits of a transform of the whole tail, since T works
    entry by entry (row by row for the blur). gather, the one reader, alone
    knows the pixel scale: uint8 pixels read as p / 255.0. Without rows it
    is the clean set alone, as gen_synthetic and load_idx return it."""
    x: np.ndarray  # (n, features) float64 features or uint8 pixels
    y: np.ndarray  # (n,) labels
    rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    spec: TransformSpec | None = None

    def __post_init__(self):
        """Raises ValueError naming the first pick that is not an integer
        row index in [0, len(x)): gather's take would clip it and its label
        lookup wrap around, so it would read another row's label."""
        rows = np.asarray(self.rows)
        if rows.dtype.kind in "iu":
            bad = (rows < 0) | (rows >= len(self.x))
        else:
            bad = np.ones(rows.shape, dtype=bool)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(f"Dataset: pick {j} is {rows[j].item()!r}, not an integer "
                             f"in [0, {len(self.x)})")

    def __len__(self) -> int:
        return len(self.x) + len(self.rows)

    def gather(self, idx, out=None):
        """(inputs, labels) of rows idx, in idx's order, the float64 inputs
        gathered into `out` if given: one take of the source rows (uint8
        pixels divided by 255.0), then the transform of the positions in the
        tail. A non-integer index, or one outside [0, len(self)), raises
        IndexError."""
        idx = np.asarray(idx)
        if idx.size and idx.dtype.kind not in "iu":
            raise IndexError(f"row indices must be integers, got dtype {idx.dtype}")
        src = idx.astype(np.int64)  # a copy; an empty list arrives as float64
        if src.size and not 0 <= src.min() <= src.max() < len(self):
            raise IndexError(f"row index outside [0, {len(self)}): {src.min()} to {src.max()}")
        at = np.flatnonzero(src >= len(self.x))
        src[at] = self.rows[src[at] - len(self.x)]
        if self.x.dtype == np.uint8:
            xb = np.divide(np.take(self.x, src, axis=0), 255.0, out=out)
        else:  # mode="clip" gathers straight into `out` (every row is in range)
            xb = np.take(self.x, src, axis=0, out=out, mode="clip")
        if at.size:
            tail = xb[at]
            xb[at] = apply(self.spec, tail, AUGMENT_DELTA, out=tail)
        return xb, self.y[src]


def augment_dataset(x: np.ndarray, y: np.ndarray, spec: TransformSpec, count: int,
                    rng: np.random.Generator | None = None) -> Dataset:
    """The Dataset of x and y with `count` transformed samples, each at
    magnitude AUGMENT_DELTA.

    Originals are drawn by cycling seeded permutations, so count == len(x)
    selects every sample exactly once; the picks are the set's rows, so
    pair j is clean row x[rows[j]] and transformed row len(x) + j. Nothing
    is copied or transformed here.
    """
    x = np.asarray(x)
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
    return Dataset(x, y, np.asarray(picks[:count], dtype=np.int64), spec)
