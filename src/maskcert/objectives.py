"""The composite mask-search objective and its gradient on the soft mask.

One training step draws three independent noisy soft masks, compares the
resulting predictions for structural stability, aligns the soft-mask
predictions with the binarized mask through a straight-through mask, and
penalizes the prediction discrepancy between clean and transformed inputs
relative to the classification margin. Each term is a plain function that
takes its upstream gradient g last and returns its value and the gradients
of g times it on its inputs. The four masked copies run as one stacked
`model.masked_forward`, and one backward pass chains the terms' gradients by
hand through `autodiff`'s softmax kind and `model.masked_backward`, then
forms weight gradients for the masked layers alone; the weights stay frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import ExperimentConfig
from .masks import binarize, layer_views, sample_noisy
from .model import (MaskableModel, _buffer, _row_max, _row_sum, mask_shape, masked_backward,
                    masked_forward)

# Both arguments of the consistency term are mixed with the uniform
# distribution at this weight before taking logs, so exact zeros in a
# probability vector cannot produce log(0).
KL_SMOOTHING = 1e-8


def _check_pair(kind, p, q):
    if p.shape != q.shape or p.ndim != 2:
        raise ValueError(f"{kind}: expected matching (batch, classes) inputs, "
                         f"got {p.shape} and {q.shape}")


def stability(p, q, g):
    """Batch mean of the squared L2 distance between the probability rows of
    two independent mask draws."""
    _check_pair("stability", p, q)
    diff = p - q
    rows = _row_sum(diff * diff)
    g_diff = (g / rows.size * 2.0) * diff
    return rows.mean(), g_diff, -g_diff


def ratio_penalty(p, q, eta, eps, g):
    """Batch mean of softplus(Z / (d + eps) - eta), with Z the sup-norm
    distance between the clean and transformed rows and d half the gap
    between the clean row's top two entries: a smooth penalty on the
    robustness ratio exceeding the safety threshold."""
    _check_pair("ratio_penalty", p, q)
    if p.shape[1] < 2:
        raise ValueError(f"ratio_penalty: need at least 2 classes, got shape {p.shape}")
    rows = np.arange(p.shape[0])
    diff = p - q
    # Sup-norm and top-2 subgradients are supported at the first attaining
    # index alone (np.argmax order).
    abs_diff = np.abs(diff)
    top = np.argmax(abs_diff, axis=1)
    z = _row_max(abs_diff)
    i1 = np.argmax(p, axis=1)
    rest = p.copy()
    rest[rows, i1] = -np.inf
    i2 = np.argmax(rest, axis=1)
    den = (p[rows, i1] - p[rows, i2]) / 2.0 + eps
    s = z / den - eta
    softplus = np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))  # never overflows
    g_s = (g / s.size) * np.exp(-np.logaddexp(0.0, -s))
    g_den = -g_s * z / (den * den)
    g_top2 = np.zeros_like(p)
    g_top2[rows, i1] += g_den / 2.0
    g_top2[rows, i2] -= g_den / 2.0
    g_diff = np.zeros_like(diff)
    g_diff[rows, top] = np.sign(diff[rows, top]) * (g_s / den)
    return softplus.mean(), g_top2 + g_diff, -g_diff


def consistency(p, q, g):
    """Batch mean KL(p || q) with uniform smoothing of both arguments."""
    _check_pair("consistency", p, q)
    k = p.shape[-1]
    ps = (1.0 - KL_SMOOTHING) * p + KL_SMOOTHING / k
    qs = (1.0 - KL_SMOOTHING) * q + KL_SMOOTHING / k
    log_ratio = np.log(ps) - np.log(qs)
    rows = _row_sum(ps * log_ratio)
    scale = g / rows.size * (1.0 - KL_SMOOTHING)  # each row's share of the mean
    return rows.mean(), scale * (log_ratio + 1.0), scale * (-ps / qs)


def l1_mean(c, dims, g):
    """Mean of |C| over the flat soft mask c, summed layer by layer (its
    layer_views at dims), and the gradient g * sign(C) / C.size. |C| is
    formed in the gradient's array, which then takes sign(C)."""
    scale = 1.0 / c.size
    grad = np.abs(c)
    total = sum(v.sum() for v in layer_views(grad, dims) if v.size) * scale
    np.sign(c, out=grad)
    grad *= g * scale
    return total, grad


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


def _batch_slots(work: dict, shape) -> tuple:
    """The clean and transformed slots, each of `shape`, of the stacked
    input that composite_step_loss runs in `work`. A batch gathered into
    them is not copied again."""
    x4 = _buffer(work, "x", (4, *shape))
    return x4[0], x4[2]


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
    stack([x, x, x_t, x]) in one forward, and one backward chains the terms'
    gradients. Gradients add up in a fixed order: on p_m ratio, then
    consistency, then stability; on C the L1 term, then the straight-through,
    s, n and m copies, each noisy copy's gradient passing where C + xi lies
    in [0, 1]. Weights are frozen and get no gradient. Returns a StepReport
    and the flat gradient on C.

    A caller that steps in a loop passes one `work` dict to every call, which
    keeps the mask stack and the stacked forward's arrays allocated once, so
    the step's cost does not depend on how the allocator sized its heap. The
    mask-sized arrays of a step all live in the stack, under "mask" of
    `work`: the noise is drawn into it, the hard mask is written into it,
    and the squares that grad_norm sums take its first row. Each masked
    layer's W * mask, and once the backward returns its weight gradient,
    take one (4, out, in) array, formed copy by copy: the layer's slice of
    the stack where the mask has the weight's shape (unstructured), else
    ("dw", i) of `work`, whose rows a structured mask then sums. The stack
    is dead once the call returns, until the next call overwrites
    all of it, so the loop may use it as scratch in between: stage 2's
    Adam step forms its update in its first two rows. The stacked input
    also lives in `work`; x and x_t may already be its clean and transformed
    slots (_batch_slots), as stage 2 gathers each batch's clean and
    transformed rows into them, and then only the other two copies are
    made.
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

    stack = _buffer(work, "mask", (4, c.size))
    # each masked layer's slice of the stack, in mask shape
    layers = {i: v.reshape(4, *mask_shape(model.specs[i], model.mask_mode))
              for i, v in enumerate(layer_views(stack, dims)) if dims[i]}
    _, passed = sample_noisy(c, cfg.noise_magnitude, rng, draws=3, out=stack[:3])
    binarize(layer_views(c, dims), cfg.pruning_ratio, out=layer_views(stack[3], dims))
    # W * mask one copy at a time: numpy would buffer a whole strided
    # (4, out, in) layer view multiplied in place by a broadcast weight
    ws = list(model.weights)
    for i, m in layers.items():
        w = ws[i]
        ws[i] = m if m.shape[1:] == w.shape else _buffer(work, ("dw", i), (4, *w.shape))
        for m_j, w_j in zip(m, ws[i]):
            np.multiply(m_j, w, out=w_j)

    x4 = _buffer(work, "x", (4, *x.shape))
    for j, x_j in enumerate((x, x, x_t, x)):
        x4[j] = x_j  # a copy, or nothing where x_j is already slot j
    with np.errstate(all="ignore"):  # masked_backward checks the pre-activations
        hs, zs = masked_forward(x4, ws, model.biases, model.specs, work)
    probs, softmax_vjp = ad.primitive("softmax", [hs[-1]])
    p_m, p_n, p_s, p_h = probs
    # each term's upstream gradient is its weight
    g_probs = np.empty_like(probs)
    with np.errstate(all="ignore"):
        l_stab, stab_m, g_probs[1] = stability(p_m, p_n, cfg.lambda_stab)
        l_consis, consis_m, g_probs[3] = consistency(p_m, p_h, cfg.lambda_consis)
        l_ratio, ratio_m, g_probs[2] = ratio_penalty(
            p_m, p_s, cfg.safety_threshold, cfg.margin_epsilon, cfg.lambda_ratio)
        l1_norm, grad = l1_mean(c, dims, cfg.lambda_l1)
    l_stab, l_ratio, l_consis, l1_norm = map(float, (l_stab, l_ratio, l_consis, l1_norm))
    total = ((cfg.lambda_stab * l_stab + cfg.lambda_ratio * l_ratio)
             + (cfg.lambda_consis * l_consis + cfg.lambda_l1 * l1_norm))
    if not np.isfinite(total):
        raise FloatingPointError("composite_step_loss: non-finite objective")

    np.add(ratio_m + consis_m, stab_m, out=g_probs[0])
    gz = masked_backward(zs, ws, model.specs, softmax_vjp(g_probs)[0], work)

    # the stack now takes the gradient on each copy's mask, a structured
    # (out, 1) mask its row's sum
    for i, m in layers.items():
        g_w = np.matmul(gz[i].mT, hs[i], out=ws[i])
        for g_j in g_w:
            g_j *= model.weights[i]
        if g_w is not m:
            np.sum(g_w, axis=-1, keepdims=True, out=m)
    grad += stack[3]  # the straight-through copy's gradient
    stack[:3] *= passed
    grad += stack[2]
    grad += stack[1]
    grad += stack[0]
    sq = np.multiply(grad, grad, out=stack[0])  # the stack is dead from here on
    report = StepReport(
        step=step,
        l_stab=l_stab,
        l_ratio=l_ratio,
        l_consis=l_consis,
        l1_normalized=l1_norm,
        composite=total,
        grad_norm=float(np.sqrt(sum(float(v.sum()) for v in layer_views(sq, dims)))),
    )
    return CompositeResult(report=report, grad=grad)
