"""Values and vector-Jacobian products of the network maskcert trains.

Each kind is one function of its input values (and fixed attributes) that
computes its value eagerly and returns it with a vector-Jacobian product over
the residuals of that forward pass: vjp(g, needs) gives one gradient per
input, None where `needs` is False. There are three kinds: the masked MLP
logits, on weights with their masks folded in; a softmax; and the batch-mean
cross-entropy of stages 1 and 3. `primitive` dispatches to them; the stage-2
step (`objectives.composite_step_loss`, whose loss terms are plain functions
of `objectives`) and the cross-entropy step (`pipeline._ce_epochs`) chain the
VJPs by hand in straight-line code, each applying its masks to the weights
and to their gradients itself.

The masked MLP and the softmax accept stacked copies: an input of shape
(..., batch, features) with weights stacked the same way. numpy's matmul
runs one GEMM per trailing 2-D block, so each copy gets the bits it would
get alone.
"""

from __future__ import annotations

import numpy as np

from .model import masked_forward, softmax as softmax_values

__all__ = ["primitive", "buffer"]


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


_OPS = {
    "masked_mlp": _masked_mlp,
    "softmax": _softmax,
    "cross_entropy": _cross_entropy,
}
