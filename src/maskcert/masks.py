"""Soft-mask lifecycle: percentile-scaled init, noise injection (the noisy
draws with the indicator through which their gradient passes), and
layer-wise top-k binarization.

A soft mask is a list of per-layer float vectors in [0, 1] whose lengths are
the model's prunable-unit counts (mask_dims); exempt layers carry empty
vectors. Stage 2 holds it as one flat vector C, every prunable unit in layer
order, and the list as views of C (layer_views). A hard mask is the same
list with 0/1 entries, as binarize returns it and checkpoints store it;
hard_multipliers shapes it to apply to the weights. Keep counts use exact
rational arithmetic so that e.g. a 0.7 pruning ratio on 10 units keeps
ceil(3) = 3 units, not 4.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from .model import MaskableModel, mask_shape


def unit_magnitudes(model: MaskableModel) -> list[np.ndarray]:
    """Per-unit weight magnitude per layer: |w| flattened in unstructured
    mode, row L2 norms in structured mode. Exempt layers give empty arrays."""
    if model.mask_mode == "unstructured":  # no layer is exempt
        return [np.abs(w).ravel() for w in model.weights]
    return [np.sqrt((w * w).sum(axis=1)) if n else np.empty(0)
            for w, n in zip(model.weights, model.mask_dims())]


def layer_views(c: np.ndarray, dims) -> list[np.ndarray]:
    """Per-layer views of a flat soft mask c: its last axis split into the
    lengths dims (a model's mask_dims), any leading axes kept."""
    return [c[..., end - n:end] for n, end in zip(dims, itertools.accumulate(dims))]


def init_percentile_scaled(model: MaskableModel, tau: float) -> list[np.ndarray]:
    """Soft mask C = clip(|w| / Q, 0, 1) per layer, where Q is the
    ceil(tau% * N)-th largest magnitude, so exactly the top tau% of units
    start at the clip ceiling (nearest-rank convention). A zero Q (a layer
    whose top tau% of magnitudes are all zero) raises FloatingPointError."""
    if not 0.0 < tau < 100.0:
        raise ValueError(f"tau must be in (0, 100), got {tau}")
    frac = Fraction(str(tau)) / 100
    soft = layer_views(np.concatenate(unit_magnitudes(model)), model.mask_dims())
    for i, mags in enumerate(soft):
        n = mags.size
        if n == 0:
            continue
        kappa = math.ceil(frac * n)
        q = np.partition(mags, n - kappa)[n - kappa]
        if q <= 0.0:  # the divisor below
            raise FloatingPointError(
                f"layer {i}: percentile threshold is zero; re-initialize the "
                f"weights before building a mask")
        np.clip(mags / q, 0.0, 1.0, out=mags)
    return soft


def sample_noisy(c: np.ndarray, mu: float, rng: np.random.Generator,
                 draws: int = 1, out: np.ndarray | None = None):
    """`draws` independent draws of clip(C + xi, 0, 1), xi ~ U(-mu, mu) i.i.d.
    per entry, fresh per call, in one call, so a flat soft mask is drawn
    draw by draw over every layer. Returns the draws, stacked as
    (draws, *C.shape) and written into `out` when given, and `passed`, the
    indicator of C + xi in the closed interval [0, 1], through which each
    draw's gradient on C passes (at exact saturation too).

    The noise is drawn straight into the draws' array as lo + (hi - lo)·u
    from rng.random, the bits rng.uniform(lo, hi) gives, and C is added in
    place."""
    if not mu >= 0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    lo, hi = -mu, mu
    xi = rng.random(out=np.empty((draws, *c.shape)) if out is None else out)
    xi *= hi - lo
    xi += lo
    xi += c
    passed = (xi >= 0.0) & (xi <= 1.0)
    return np.clip(xi, 0.0, 1.0, out=xi), passed


def _top_k(c: np.ndarray, kappa: int, out: np.ndarray) -> np.ndarray:
    """0/1 float indicator of the kappa largest entries of c, written into
    `out`, ties at the threshold kept by lower index first: the set
    argsort(-c, kind="stable")[:kappa] keeps. Selection, not sorting, so
    O(n): with v the kappa-th largest value, every entry > v is kept (at most
    kappa - 1 of them) and the lowest-index entries == v fill the rest."""
    n = c.size
    if np.isnan(c).any():
        raise FloatingPointError("top-k projection of a mask with NaN entries")
    v = np.partition(c, n - kappa)[n - kappa]
    np.greater(c, v, out=out)
    ties = np.flatnonzero(c == v)
    out[ties[:kappa - np.count_nonzero(out)]] = 1.0
    return out


@functools.lru_cache(maxsize=32)
def keep_counts(sizes: tuple[int, ...], pr: float) -> tuple[int, ...]:
    """ceil((1-pr) * N_i) for each layer size N_i, in exact rational
    arithmetic. Results are remembered, so a mask search that binarizes at
    every step computes them once."""
    if not 0.0 <= pr < 1.0:
        raise ValueError(f"pruning ratio must be in [0, 1), got {pr}")
    keep_frac = 1 - Fraction(str(pr))
    return tuple(math.ceil(keep_frac * n) for n in sizes)


def binarize(soft_mask: list[np.ndarray], pr: float,
             out: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Hard mask by layer-wise top-k projection: keep keep_counts units per
    layer, ties broken by lower index kept first (see _top_k). With `out`,
    one array per layer shaped like its soft mask, each layer is written
    there."""
    kappas = keep_counts(tuple(c.size for c in soft_mask), pr)
    out = out or [np.empty(c.shape) for c in soft_mask]
    return [_top_k(c, k, o) if c.size else np.empty(0)
            for c, k, o in zip(soft_mask, kappas, out)]


def hard_multipliers(model: MaskableModel, hard: list | None) -> list | None:
    """Per-layer multipliers of a hard mask for MaskableModel.folded (and
    stage 3's weight gradients): each vector reshaped to its layer's
    mask_shape, None for an empty vector (a dense layer); None for no mask.
    A vector of the wrong length raises ValueError naming its layer."""
    if hard is None:
        return None
    if len(hard) != len(model.specs):
        raise ValueError("hard mask must have one entry per layer")
    out = []
    for i, (vec, spec) in enumerate(zip(hard, model.specs)):
        v = np.asarray(vec, dtype=np.float64)
        shape = mask_shape(spec, model.mask_mode)
        if v.size and v.shape != (math.prod(shape),):
            raise ValueError(
                f"hard mask layer {i}: expected length {math.prod(shape)}, got {v.shape}")
        out.append(v.reshape(shape) if v.size else None)
    return out


def effective_ratio(hard: list | None, model: MaskableModel) -> float:
    """Realized pruning ratio: zeroed weight entries / total weight entries,
    counted with exact integers; 0 without a hard mask."""
    zeroed = sum(int(np.count_nonzero(np.broadcast_to(m, w.shape) == 0))
                 for m, w in zip(hard_multipliers(model, hard) or [], model.weights)
                 if m is not None)
    return zeroed / model.weight_count()
