"""Soft-mask lifecycle: percentile-scaled init, noise injection, and
layer-wise top-k binarization.

A soft mask is a list of per-layer float vectors in [0, 1] whose lengths are
the model's prunable-unit counts (mask_dims); exempt layers carry empty
vectors. Keep counts use exact rational arithmetic so that e.g. a 0.7
pruning ratio on 10 units keeps ceil(3) = 3 units, not 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import autodiff as ad
from .model import MaskableModel, broadcast_mask


@dataclass
class HardMask:
    """Binary per-layer masks: one 0/1 vector per layer, empty for exempt
    layers."""
    layers: list[np.ndarray]


def unit_magnitudes(model: MaskableModel) -> list[np.ndarray]:
    """Per-unit weight magnitude per layer: |w| flattened in unstructured
    mode, row L2 norms in structured mode. Exempt layers give empty arrays."""
    out = []
    for w, n in zip(model.weights, model.mask_dims()):
        if n == 0:
            out.append(np.empty(0))
        elif model.mask_mode == "unstructured":
            out.append(np.abs(w).ravel().copy())
        else:
            out.append(np.sqrt((w * w).sum(axis=1)))
    return out


def _keep_count(fraction: Fraction, n: int) -> int:
    return math.ceil(fraction * n) if n > 0 else 0


def init_percentile_scaled(model: MaskableModel, tau: float) -> list[np.ndarray]:
    """Soft mask C = clip(|w| / Q, 0, 1) per layer, where Q is the
    ceil(tau% * N)-th largest magnitude, so exactly the top tau% of units
    start at the clip ceiling (nearest-rank convention)."""
    if not 0.0 < tau < 100.0:
        raise ValueError(f"tau must be in (0, 100), got {tau}")
    frac = Fraction(str(tau)) / 100
    soft = []
    for i, mags in enumerate(unit_magnitudes(model)):
        n = mags.size
        if n == 0:
            soft.append(np.empty(0))
            continue
        kappa = _keep_count(frac, n)
        q = np.partition(mags, n - kappa)[n - kappa]
        if q <= 0.0:
            raise ValueError(
                f"layer {i}: percentile threshold is zero; re-initialize the "
                f"weights before building a mask")
        soft.append(np.clip(mags / q, 0.0, 1.0))
    return soft


def sample_noisy(c_layers: list, mu: float, rng: np.random.Generator,
                 draws: int = 1, out: list | None = None) -> list:
    """`draws` independent draws of clip(C + xi, 0, 1), xi ~ U(-mu, mu) i.i.d.
    per entry, fresh per call, taken draw by draw over every layer. Returns
    one (value, vjp) pair of the noisy kind per layer, the value stacked as
    (draws, *C.shape) and written into that layer's `out` array when given.
    The VJP gives each draw's gradient on C, which passes where C + xi lies
    in [0, 1]."""
    if mu < 0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    xis = [[rng.uniform(-mu, mu, size=c.shape) for c in c_layers] for _ in range(draws)]
    return [ad.primitive("noisy", [np.broadcast_to(c, (draws, *c.shape))],
                         xi=[layer_xis[i] for layer_xis in xis],
                         out=None if out is None else out[i])
            for i, c in enumerate(c_layers)]


def _top_k(c: np.ndarray, kappa: int) -> np.ndarray:
    """0/1 float indicator of the kappa largest entries of c, ties at the
    threshold kept by lower index first: the set argsort(-c, kind="stable")
    [:kappa] keeps. Selection, not sorting, so O(n): with v the kappa-th
    largest value, every entry > v is kept (at most kappa - 1 of them) and
    the lowest-index entries == v fill the rest."""
    n = c.size
    if np.isnan(c).any():
        raise FloatingPointError("top-k projection of a mask with NaN entries")
    v = np.partition(c, n - kappa)[n - kappa]
    keep = c > v
    ties = np.flatnonzero(c == v)
    keep[ties[:kappa - np.count_nonzero(keep)]] = True
    return keep.astype(np.float64)


def binarize(soft_mask: list[np.ndarray], pr: float) -> HardMask:
    """Layer-wise top-k projection: keep ceil((1-pr) * N_i) units per layer,
    ties broken by lower index kept first (see _top_k)."""
    if not 0.0 <= pr < 1.0:
        raise ValueError(f"pruning ratio must be in [0, 1), got {pr}")
    keep_frac = 1 - Fraction(str(pr))
    layers = [_top_k(c, _keep_count(keep_frac, c.size)) if c.size else np.empty(0)
              for c in soft_mask]
    return HardMask(layers)


def effective_ratio(mask_layers, model: MaskableModel) -> float:
    """Realized pruning ratio: zeroed weight entries / total weight entries,
    counted with exact integers. Accepts a HardMask or a per-layer list of
    vectors; empty entries leave a layer dense."""
    if isinstance(mask_layers, HardMask):
        mask_layers = mask_layers.layers
    if len(mask_layers) != len(model.specs):
        raise ValueError("mask must have one entry per layer")
    zeroed = 0
    for spec, vec in zip(model.specs, mask_layers):
        v = np.asarray(vec)
        if v.size == 0:
            continue
        if model.mask_mode == "unstructured":
            if v.shape != (spec.out_dim * spec.in_dim,):
                raise ValueError(
                    f"mask length {v.size} != {spec.out_dim * spec.in_dim}")
            zeroed += int(np.count_nonzero(v == 0))
        else:
            if v.shape != (spec.out_dim,):
                raise ValueError(f"mask length {v.size} != {spec.out_dim}")
            zeroed += int(np.count_nonzero(v == 0)) * spec.in_dim
    return zeroed / model.weight_count()


def hard_multipliers(model: MaskableModel, hard: HardMask | None) -> list | None:
    """Broadcast a hard mask to per-layer weight-shaped multipliers."""
    if hard is None:
        return None
    return [broadcast_mask(vec, spec, model.mask_mode) if vec.size else None
            for vec, spec in zip(hard.layers, model.specs)]
