"""The composite mask-search objective and its gradient on the soft mask.

One training step draws three independent noisy soft masks, compares the
resulting predictions for structural stability, aligns the soft-mask
predictions with the binarized mask through a straight-through mask, and
penalizes the prediction discrepancy between clean and transformed inputs
relative to the classification margin. The four masked copies of the network
run as one stacked forward, and one backward pass chains the VJPs of the
terms by hand, so the frozen weights never receive gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import ExperimentConfig
from .masks import binarize, layer_views, sample_noisy
from .model import MaskableModel, mask_shape


@dataclass
class StepReport:
    step: int
    l_stab: float
    l_ratio: float
    l_consis: float
    l1_normalized: float
    composite: float
    grad_norm: float


@dataclass
class CompositeResult:
    report: StepReport
    grad: np.ndarray             # on the flat soft mask (see masks.layer_views)


def composite_step_loss(model: MaskableModel, soft_mask, x, x_t, cfg: ExperimentConfig,
                        rng: np.random.Generator, step: int = 0,
                        work: dict | None = None) -> CompositeResult:
    """One evaluation of the objective and its gradient on the flat soft
    mask C, every prunable unit of the model in layer order (layer_views).

    The objective weighs its terms by cfg's lambda_* settings, the ratio
    term takes safety_threshold and margin_epsilon, the noise is
    U(-noise_magnitude, noise_magnitude) and the hard mask binarizes at
    pruning_ratio. The noise comes from `rng` in one (3, C.size) draw, in the
    order m, n, s. The four masks form one (4, C.size) stack in copy order
    [clip(C + xi_m), clip(C + xi_n), clip(C + xi_s), hard], each layer
    running its slice of it in mask shape. The hard copy is the
    straight-through mask hard + (C - c0) at its point c0 = C, which is hard
    bit for bit; its gradient passes to C unchanged. The copies run on
    stack([x, x, x_t, x]) in one forward, and one backward chains the term
    VJPs. Gradients add up in a fixed order: on p_m ratio, then consistency,
    then stability; on C the L1 term, then the straight-through, s, n and m
    copies. Weights are frozen and get no gradient. Returns a StepReport and
    the flat gradient on C.

    A caller that steps in a loop passes one `work` dict to every call, which
    keeps the mask stack and the stacked forward's arrays allocated once, so
    the step's cost does not depend on how the allocator sized its heap. The
    mask-sized arrays of a step all live in the stack: the noise is drawn
    into it, the hard mask is written into it, and in unstructured mode each
    layer's masked weight and then its gradient take its slice of it.
    """
    x = np.asarray(x, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    c = np.asarray(soft_mask, dtype=np.float64)
    dims = model.mask_dims()
    if x.ndim != 2:
        raise ValueError(f"composite_step_loss: expected (batch, features) inputs, got {x.shape}")
    if len(x) == 0:
        raise ValueError("composite_step_loss: empty batch")
    if x.shape != x_t.shape:
        raise ValueError(f"batch pair shapes differ: {x.shape} vs {x_t.shape}")
    if c.shape != (sum(dims),) or c.size == 0:
        raise ValueError(f"composite_step_loss: expected a flat soft mask of the model's "
                         f"{sum(dims)} prunable units (at least one), got shape {c.shape}")

    views = layer_views(c, dims)
    stack = ad.buffer(work, "mask", (4, c.size))
    # each masked layer's slice of the stack, in mask shape
    layers = [(i, v.reshape(4, *mask_shape(model.specs[i], model.mask_mode)))
              for i, v in enumerate(layer_views(stack, dims)) if dims[i]]
    _, noisy_vjp = sample_noisy(c, cfg.noise_magnitude, rng, draws=3, out=stack[:3])
    binarize(views, cfg.pruning_ratio, out=layer_views(stack[3], dims))
    # The weights each copy runs with, W * mask, formed in the mask stack
    # itself where the shapes allow.
    unstructured = model.mask_mode == "unstructured"
    ws = list(model.weights)
    for i, m in layers:
        ws[i] = np.multiply(m, ws[i], out=m if unstructured else None)

    x4 = np.stack([x, x, x_t, x], out=ad.buffer(work, "x", (4, *x.shape)))
    logits, mlp_vjp = ad.primitive("masked_mlp", [x4, *ws, *model.biases],
                                   specs=tuple(model.specs), work=work)
    probs, softmax_vjp = ad.primitive("softmax", [logits])
    p_m, p_n, p_s, p_h = probs
    l_stab, stab_vjp = ad.primitive("stability", [p_m, p_n])
    l_consis, consis_vjp = ad.primitive("consistency", [p_m, p_h])
    l_ratio, ratio_vjp = ad.primitive("ratio_penalty", [p_m, p_s],
                                      eta=cfg.safety_threshold, eps=cfg.margin_epsilon)
    l1_norm, l1_vjp = ad.primitive("l1_mean", [v for v in views if v.size])
    l_stab, l_ratio, l_consis, l1_norm = map(float, (l_stab, l_ratio, l_consis, l1_norm))
    total = ((cfg.lambda_stab * l_stab + cfg.lambda_ratio * l_ratio)
             + (cfg.lambda_consis * l_consis + cfg.lambda_l1 * l1_norm))
    if not np.isfinite(total):
        raise FloatingPointError("composite_step_loss: non-finite objective")

    # each term's upstream gradient is its weight
    both = (True, True)
    g_probs = np.empty_like(probs)
    ratio_m, g_probs[2] = ratio_vjp(cfg.lambda_ratio, both)
    consis_m, g_probs[3] = consis_vjp(cfg.lambda_consis, both)
    stab_m, g_probs[1] = stab_vjp(cfg.lambda_stab, both)
    np.add(ratio_m + consis_m, stab_m, out=g_probs[0])
    g_logits = softmax_vjp(g_probs, (True,))[0]
    # In unstructured mode each weight gradient goes straight into its layer's
    # slice of the stack, which held the masked weight until then.
    g_ws = mlp_vjp(g_logits, [False] + [d > 0 for d in dims] + [False] * len(dims),
                   out=dict(layers) if unstructured else None)

    # The stack now takes the gradient on each copy's mask.
    for i, g_m in layers:
        w = model.weights[i]
        if unstructured:
            g_m *= w
        else:  # a structured (out, 1) mask collects its row's gradient
            g_m[...] = (g_ws[1 + i] * w).sum(axis=-1, keepdims=True)
    grad = np.concatenate(l1_vjp(cfg.lambda_l1, (True,) * len(layers)))
    grad += stack[3]  # the straight-through copy's gradient
    noisy_vjp(stack[:3], (True,), out=stack[:3])
    grad += stack[2]
    grad += stack[1]
    grad += stack[0]
    report = StepReport(
        step=step,
        l_stab=l_stab,
        l_ratio=l_ratio,
        l_consis=l_consis,
        l1_normalized=l1_norm,
        composite=total,
        grad_norm=float(np.sqrt(sum(float((g * g).sum()) for g in layer_views(grad, dims)))),
    )
    return CompositeResult(report=report, grad=grad)
