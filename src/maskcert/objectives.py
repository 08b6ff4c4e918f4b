"""The composite mask-search objective and its building blocks.

One training step draws three independent noisy soft masks, compares the
resulting predictions for structural stability, aligns the soft-mask
predictions with the binarized mask through a straight-through node, and
penalizes the prediction discrepancy between clean and transformed inputs
relative to the classification margin. All terms are assembled on a single
tape so one backward pass yields the full gradient on the soft mask while
frozen weights never receive gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvariantError
from .masks import binarize, noisy_mask_values, sample_noisy
from .model import MaskableModel, broadcast_mask


@dataclass(frozen=True)
class LossWeights:
    stab: float = 5.0
    ratio: float = 1.0
    consis: float = 1.0
    l1: float = 1e-4
    eta: float = 1.0          # safety threshold on the robustness ratio
    margin_eps: float = 1e-6  # keeps the ratio finite at zero margin

    def __post_init__(self):
        if min(self.stab, self.ratio, self.consis, self.l1) < 0:
            raise ValueError("loss weights must be non-negative")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.margin_eps <= 0:
            raise ValueError(f"margin_eps must be positive, got {self.margin_eps}")


@dataclass
class StepReport:
    step: int
    l_stab: float
    l_ratio: float
    l_consis: float
    l1_normalized: float
    l1_raw: float
    composite: float
    grad_norm: float
    draw_seed: str


def mask_node_shape(spec, mode):
    """Leaf shape for a layer's mask so that it broadcasts against the
    (out, in) weight: (out, in) unstructured, (out, 1) structured."""
    if mode == "unstructured":
        return (spec.out_dim, spec.in_dim)
    return (spec.out_dim, 1)


@dataclass
class CompositeResult:
    loss: object                 # scalar Node
    report: StepReport
    grads: list[np.ndarray]      # per layer, flattened to mask-vector shape


def composite_step_loss(model: MaskableModel, soft_mask, x, x_t,
                        weights: LossWeights, pr: float, mu: float,
                        rng: np.random.Generator, step: int = 0,
                        draw_seed: str = "") -> CompositeResult:
    """One full objective evaluation plus backward pass on a fresh tape.

    Weights are frozen (their gradients are never allocated); only the soft
    mask receives gradients. Returns the loss node, a StepReport, and the
    per-layer mask gradients.
    """
    x = np.asarray(x, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    if len(x) == 0:
        raise ValueError("composite_step_loss: empty batch")
    if x.shape != x_t.shape:
        raise ValueError(f"batch pair shapes differ: {x.shape} vs {x_t.shape}")
    if sum(c.size for c in soft_mask) == 0:
        raise ValueError("model has no prunable units to search over")

    tape = ad.Tape()
    # one leaf per maskable layer, None for exempt ones
    leaves = [tape.leaf(c.reshape(mask_node_shape(spec, model.mask_mode)), requires_grad=True)
              if c.size else None for spec, c in zip(model.specs, soft_mask)]
    live = [c for c in leaves if c is not None]
    ws = [tape.const(w) for w in model.weights]
    bs = [tape.const(b) for b in model.biases]

    def probs(inp, masks):
        return ad.softmax(ad.masked_mlp(inp, ws, bs, model.specs, masks))

    # The terms are recorded in this order so that gradient reaches p_m from
    # the ratio term first, then consistency, then stability.
    c_m, c_n, c_s = (sample_noisy(leaves, mu, rng) for _ in range(3))
    x_node = tape.const(x)
    p_m = probs(x_node, c_m)
    l_stab = ad.stability(p_m, probs(x_node, c_n))
    hard = binarize(soft_mask, pr)
    p_h = probs(x_node, [None if c is None else ad.ste(c, vec.reshape(c.value.shape))
                         for c, vec in zip(leaves, hard.layers)])
    l_consis = ad.consistency(p_m, p_h)
    l_ratio = ad.ratio_penalty(p_m, probs(tape.const(x_t), c_s),
                               weights.eta, weights.margin_eps)
    l1_norm = ad.l1_mean(live)
    total = ad.weighted_sum([l_stab, l_ratio, l_consis, l1_norm],
                            [weights.stab, weights.ratio, weights.consis, weights.l1])

    grad_map = ad.backprop(total)
    grads = [np.empty(0) if leaf is None else grad_map[leaf.id].reshape(c.shape)
             for leaf, c in zip(leaves, soft_mask)]
    report = StepReport(
        step=step,
        l_stab=float(l_stab.value),
        l_ratio=float(l_ratio.value),
        l_consis=float(l_consis.value),
        l1_normalized=float(l1_norm.value),
        l1_raw=float(sum(np.abs(c.value).sum() for c in live)),
        composite=float(total.value),
        grad_norm=float(np.sqrt(sum(float((g * g).sum()) for g in grads))),
        draw_seed=draw_seed,
    )
    return CompositeResult(loss=total, report=report, grads=grads)


@dataclass
class TriangleCheck:
    z_c: float
    bound: float
    term_a: float
    term_b: float
    term_c: float


def triangle_bound_check(model: MaskableModel, soft_mask, x, x_t, mu: float,
                         rng: np.random.Generator, draws: int) -> TriangleCheck:
    """Numerically verify the three-term bound on the prediction discrepancy
    of one fixed noisy draw against the noisy-mask ensemble mean.

    The bound holds for any reference point by the triangle inequality plus
    the norm ordering, so it must hold for the empirical mean too; violation
    raises InvariantError.
    """
    if draws < 2:
        raise ValueError(f"draws must be >= 2, got {draws}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_t = np.atleast_2d(np.asarray(x_t, dtype=np.float64))

    def _forward(mask_vals, inp):
        mult = [broadcast_mask(v, spec, model.mask_mode) if v.size else None
                for v, spec in zip(mask_vals, model.specs)]
        return model.forward(inp, mult)[0]

    fixed = noisy_mask_values(soft_mask, mu, rng)
    p_c_x = _forward(fixed, x)
    p_c_xt = _forward(fixed, x_t)

    acc_x = np.zeros(model.class_count)
    acc_xt = np.zeros(model.class_count)
    for _ in range(draws):
        draw = noisy_mask_values(soft_mask, mu, rng)
        acc_x += _forward(draw, x)
        acc_xt += _forward(draw, x_t)
    bar_x = acc_x / draws
    bar_xt = acc_xt / draws

    z_c = float(np.abs(p_c_x - p_c_xt).max())
    term_a = float(np.sqrt(((p_c_x - bar_x) ** 2).sum()))
    term_b = float(np.abs(bar_x - bar_xt).max())
    term_c = float(np.sqrt(((bar_xt - p_c_xt) ** 2).sum()))
    bound = term_a + term_b + term_c
    if z_c > bound + 1e-9:
        raise InvariantError(
            f"triangle bound violated: Z_C={z_c} > A+B+C={bound}")
    return TriangleCheck(z_c, bound, term_a, term_b, term_c)
