"""Values and vector-Jacobian products of the network maskcert trains.

Each kind is one function of its input values (and fixed attributes) that
computes its value eagerly and returns it with a vector-Jacobian product over
the residuals of that forward pass: vjp(g, needs) gives one gradient per
input, None where `needs` is False. There are two kinds: the masked MLP
logits, on weights with their masks folded in, and a softmax. `primitive`
dispatches to them; the stage-2 step (`objectives.composite_step_loss`, whose
loss terms are plain functions of `objectives`) and the cross-entropy step
(`pipeline._ce_epochs`, whose loss is the plain `pipeline.cross_entropy`)
chain the VJPs by hand in straight-line code, each applying its masks to the
weights and to their gradients itself.

The masked MLP and the softmax accept stacked copies: an input of shape
(..., batch, features) with weights stacked the same way. numpy's matmul
runs one GEMM per trailing 2-D block, so each copy gets the bits it would
get alone. The masked MLP keeps its forward and VJP arrays in the caller's
work dict, the one way every forward of the package keeps them
(model._buffer).
"""

from __future__ import annotations

import numpy as np

from .model import _buffer, masked_forward, softmax as softmax_values

__all__ = ["primitive"]


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


def _masked_mlp(v, specs, work=None):
    """Logits of the layer stack on inputs [x, *weights, *biases], each
    weight with its mask already folded in (MaskableModel.folded); the
    caller masks the weight gradients it gets back.

    Each layer's pre-activation and output (see masked_forward) and each
    gradient of the VJP go into arrays from `work` (see model._buffer), so a
    loop of calls that keeps one dict allocates them once; the logits and
    the weight and input gradients returned are then those arrays, valid
    until the next call.

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
    hs, zs = masked_forward(x, ws, bs, specs, work)
    for i, z in enumerate(zs):
        if not np.isfinite(z).all():
            raise FloatingPointError(f"masked_mlp: non-finite pre-activation in layer {i}")

    def vjp(g, needs, out=None):
        grads = [None] * len(v)
        for i in reversed(range(n)):
            if specs[i].activation == "relu":
                g = np.multiply(g, zs[i] > 0, out=_buffer(work, ("dz", i), g.shape))
            if needs[n + 1 + i]:
                grads[n + 1 + i] = _unstack(g, 1)
            g_in = None
            if i > 0 or needs[0]:
                g_in = np.matmul(g, ws[i], out=_buffer(
                    work, ("dx", i), g.shape[:-1] + ws[i].shape[-1:]))
            if needs[1 + i]:
                # g carries every stack axis of hs[i] and of the weight
                target = (out or {}).get(i)
                if target is None:
                    target = _buffer(work, ("dw", i), g.shape[:-2] + ws[i].shape[-2:])
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


_OPS = {
    "masked_mlp": _masked_mlp,
    "softmax": _softmax,
}
