"""Values and vector-Jacobian products of the pieces of the two objectives
maskcert trains.

Each kind is one function of its input values (and fixed attributes) that
computes its value eagerly and returns it with a vector-Jacobian product over
the residuals of that forward pass: vjp(g, needs) gives one gradient per
input, None where `needs` is False. There are eight kinds: the masked MLP
logits, on weights with their masks folded in; a softmax; the batch-mean
cross-entropy of stages 1 and 3; and for the stage-2 mask search the noisy
mask draws (one noise array shaped like the stacked copies of the flat soft
mask), the stability, ratio and consistency terms and the L1 mean.
`primitive` dispatches to them; the stage-2 step
(`objectives.composite_step_loss`) and the cross-entropy step
(`pipeline._ce_epochs`) chain the VJPs by hand in straight-line code, each
applying its masks to the weights and to their gradients itself.

The masked MLP and the softmax accept stacked copies: an input of shape
(..., batch, features) with weights stacked the same way. numpy's matmul
runs one GEMM per trailing 2-D block, so each copy gets the bits it would
get alone.
"""

from __future__ import annotations

import numpy as np

from .model import masked_forward, softmax as softmax_values

__all__ = ["primitive", "buffer", "KL_SMOOTHING"]

# Both arguments of the consistency term are mixed with the uniform
# distribution at this weight before taking logs, so exact zeros in a
# probability vector cannot produce log(0).
KL_SMOOTHING = 1e-8


def primitive(kind: str, values: list, **attrs):
    """(value, vjp) of one registered kind at the given input values.

    Floating-point warnings are silenced; callers check finiteness where a
    value can first go non-finite (masked_mlp checks its pre-activations).
    """
    op = _OPS.get(kind)
    if op is None:
        raise ValueError(f"unknown primitive kind {kind!r}")
    if not values:
        raise ValueError(f"{kind}: at least one input value required")
    with np.errstate(all="ignore"):
        return op(values, **attrs)


def _unstack(g, ndim):
    """Sum a gradient over the leading stack axes its input did not have."""
    return g.sum(axis=tuple(range(g.ndim - ndim))) if g.ndim > ndim else g


# ---------------------------------------------------------------------------
# kinds: (input values, **attrs) -> (value, vjp(g, needs) -> input gradients)


def buffer(work, key, shape):
    """An array of `shape` kept under `key` in the dict `work` across calls,
    or a fresh one when work is None."""
    if work is None:
        return np.empty(shape)
    buf = work.get(key)
    if buf is None or buf.shape != shape:
        buf = work[key] = np.empty(shape)
    return buf


def _masked_mlp(v, specs, work=None):
    """Logits of the layer stack on inputs [x, *weights, *biases], each
    weight with its mask already folded in (MaskableModel.folded); the
    caller masks the weight gradients it gets back.

    Each layer's pre-activation and output and each gradient of the VJP go
    into arrays from `work` (see buffer), so a loop of calls that keeps one
    dict allocates them once; the logits and the weight and input gradients
    returned are then those arrays, valid until the next call.

    The VJP takes an optional `out`, a dict from layer index to the array
    that layer's weight gradient is written into. Each layer's input
    gradient is taken before its weight gradient, so that array may be the
    layer's own weight input when the caller no longer needs it."""
    n = len(specs)
    x, ws, bs = v[0], v[1:n + 1], v[n + 1:]
    if len(ws) != n or len(bs) != n:
        raise ValueError("masked_mlp: one weight and bias per layer required")
    if x.ndim < 2 or x.shape[-1] != ws[0].shape[-1]:
        raise ValueError(f"masked_mlp: input shape {x.shape} does not match weight {ws[0].shape}")
    out = pre = None
    if work is not None:
        out, pre, lead = [], [], x.shape[:-1]
        for i, (spec, w) in enumerate(zip(specs, ws)):
            lead = np.broadcast_shapes(lead[:-1], w.shape[:-2]) + lead[-1:]
            shape = lead + w.shape[-2:-1]
            out.append(buffer(work, ("h", i), shape))
            pre.append(buffer(work, ("z", i), shape) if spec.activation == "relu" else None)
    hs, zs = masked_forward(x, ws, bs, specs, out=out, pre=pre)
    for i, z in enumerate(zs):
        if not np.isfinite(z).all():
            raise FloatingPointError(f"masked_mlp: non-finite pre-activation in layer {i}")

    def vjp(g, needs, out=None):
        grads = [None] * len(v)
        for i in reversed(range(n)):
            if specs[i].activation == "relu":
                g = np.multiply(g, zs[i] > 0, out=buffer(work, ("dz", i), g.shape))
            if needs[n + 1 + i]:
                grads[n + 1 + i] = _unstack(g, 1)
            g_in = None
            if i > 0 or needs[0]:
                g_in = np.matmul(g, ws[i], out=buffer(
                    work, ("dx", i), g.shape[:-1] + ws[i].shape[-1:]))
            if needs[1 + i]:
                # g carries every stack axis of hs[i] and of the weight
                target = (out or {}).get(i)
                if target is None:
                    target = buffer(work, ("dw", i), g.shape[:-2] + ws[i].shape[-2:])
                grads[1 + i] = _unstack(np.matmul(g.mT, hs[i], out=target), ws[i].ndim)
            g = g_in
        if needs[0]:
            grads[0] = g
        return grads

    return hs[-1], vjp


def _softmax(v):
    """Softmax over the last axis, shifted by the row max."""
    x = v[0]
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError(f"softmax: expected a non-empty last axis, got shape {x.shape}")
    p = softmax_values(x)
    return p, lambda g, needs: [p * (g - (g * p).sum(axis=-1, keepdims=True))]


def _cross_entropy(v, labels):
    """Batch mean negative log likelihood from 2-D logits (fused log-softmax)."""
    logits = v[0]
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy: expected 2-D logits, got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(
            f"cross_entropy: labels shape {labels.shape} does not match batch {logits.shape[0]}")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= logits.shape[1]:
        raise ValueError("cross_entropy: label out of range")
    rows = np.arange(logits.shape[0])
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    nll = -(z - np.log(total))[rows, labels]

    def vjp(g, needs):
        onehot = np.zeros_like(logits)
        onehot[rows, labels] = 1.0
        g_rows = np.ones_like(nll) * (g / nll.size)
        return [g_rows[:, None] * (e / total - onehot)]

    return nll.mean(), vjp


def _noisy(v, xi, out=None):
    """clip(c + xi, 0, 1) for copies c of a soft mask stacked on the first
    axis and a fixed noise array xi of the same shape, one draw per copy,
    written into `out` when given (which may be xi itself). The VJP takes an
    optional `out` too, which may be its gradient g."""
    c = v[0]
    if np.shape(xi) != c.shape:
        raise ValueError(f"noisy: noise of shape {c.shape} required, got {np.shape(xi)}")
    shifted = np.add(c, xi, out=out)
    # Gradient passes on the closed interval [0, 1]; it flows at exact
    # saturation boundaries.
    passed = (shifted >= 0.0) & (shifted <= 1.0)
    return (np.clip(shifted, 0.0, 1.0, out=shifted),
            lambda g, needs, out=None: [np.multiply(g, passed, out=out)])


def _check_pair(kind, p, q):
    if p.shape != q.shape or p.ndim != 2:
        raise ValueError(f"{kind}: expected matching (batch, classes) inputs, "
                         f"got {p.shape} and {q.shape}")


def _row_mean_grad(g, rows):
    """Gradient of the batch mean on each row, as a column."""
    return np.expand_dims(np.ones_like(rows) * (g / rows.size), -1)


def _stability(v):
    """Batch mean of the squared L2 distance between the probability rows of
    two independent mask draws."""
    p, q = v
    _check_pair("stability", p, q)
    diff = p - q
    rows = (diff * diff).sum(axis=-1)

    def vjp(g, needs):
        g_diff = _row_mean_grad(g, rows) * 2.0 * diff
        return [g_diff, -g_diff]

    return rows.mean(), vjp


def _ratio_penalty(v, eta, eps):
    """Batch mean of softplus(Z / (d + eps) - eta), with Z the sup-norm
    distance between the clean and transformed rows and d half the gap
    between the clean row's top two entries: a smooth penalty on the
    robustness ratio exceeding the safety threshold."""
    p, q = v
    _check_pair("ratio_penalty", p, q)
    if p.shape[1] < 2:
        raise ValueError(f"ratio_penalty: need at least 2 classes, got shape {p.shape}")
    rows = np.arange(p.shape[0])
    diff = p - q
    # Sup-norm and top-2 subgradients are supported at the first attaining
    # index alone (np.argmax order).
    abs_diff = np.abs(diff)
    top = np.argmax(abs_diff, axis=1)
    z = abs_diff.max(axis=1)
    i1 = np.argmax(p, axis=1)
    rest = p.copy()
    rest[rows, i1] = -np.inf
    i2 = np.argmax(rest, axis=1)
    den = (p[rows, i1] - p[rows, i2]) / 2.0 + eps
    s = z / den - eta
    softplus = np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))  # never overflows

    def vjp(g, needs):
        g_s = np.ones_like(s) * (g / s.size) * np.exp(-np.logaddexp(0.0, -s))
        g_den = -g_s * z / (den * den)
        g_top2 = np.zeros_like(p)
        g_top2[rows, i1] += g_den / 2.0
        g_top2[rows, i2] -= g_den / 2.0
        g_diff = np.zeros_like(diff)
        g_diff[rows, top] = np.sign(diff[rows, top]) * (g_s / den)
        return [g_top2 + g_diff, -g_diff]

    return softplus.mean(), vjp


def _consistency(v):
    """Batch mean KL(p || q) with uniform smoothing of both arguments."""
    p, q = v
    _check_pair("consistency", p, q)
    k = p.shape[-1]
    ps = (1.0 - KL_SMOOTHING) * p + KL_SMOOTHING / k
    qs = (1.0 - KL_SMOOTHING) * q + KL_SMOOTHING / k
    log_ratio = np.log(ps) - np.log(qs)
    rows = (ps * log_ratio).sum(axis=-1)

    def vjp(g, needs):
        g_rows = _row_mean_grad(g, rows)
        return [g_rows * (1.0 - KL_SMOOTHING) * (log_ratio + 1.0),
                g_rows * (1.0 - KL_SMOOTHING) * (-ps / qs)]

    return rows.mean(), vjp


def _l1_mean(v):
    """Sum of |x| over every entry of the inputs, divided by their entry count."""
    scale = 1.0 / sum(x.size for x in v)
    value = sum(np.abs(x).sum() for x in v) * scale
    return value, lambda g, needs: [g * scale * np.sign(x) for x in v]


_OPS = {
    "masked_mlp": _masked_mlp,
    "softmax": _softmax,
    "cross_entropy": _cross_entropy,
    "noisy": _noisy,
    "stability": _stability,
    "ratio_penalty": _ratio_penalty,
    "consistency": _consistency,
    "l1_mean": _l1_mean,
}
