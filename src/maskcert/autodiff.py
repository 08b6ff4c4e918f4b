"""The softmax and its vector-Jacobian product, behind a one-kind dispatcher.

`primitive(kind, values)` computes a kind's value eagerly and returns it
with a VJP over the residuals of that forward pass: vjp(g) gives one
gradient per input. The one kind left is the softmax of the stage-2 step
(`objectives.composite_step_loss`), which accepts stacked copies, an input of
shape (..., batch, classes). The masked MLP is `model.masked_forward` and
its chain rule `model.masked_backward`. This module stays only
because the benchmark's tracer reads `primitive` and reports the softmax
kind's time under its name; it goes once the tracer hooks functions by name.
"""

from __future__ import annotations

import numpy as np

from .model import softmax as softmax_values

__all__ = ["primitive"]


def primitive(kind: str, values: list, **attrs):
    """(value, vjp) of one registered kind at the given input values, with
    floating-point warnings silenced."""
    op = _OPS.get(kind)
    if op is None:
        raise ValueError(f"unknown primitive kind {kind!r}")
    if not values:
        raise ValueError(f"{kind}: at least one input value required")
    with np.errstate(all="ignore"):
        return op(values, **attrs)


def _softmax(v):
    """Softmax over the last axis, shifted by the row max."""
    x = v[0]
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError(f"softmax: expected a non-empty last axis, got shape {x.shape}")
    p = softmax_values(x)
    return p, lambda g: [p * (g - (g * p).sum(axis=-1, keepdims=True))]


_OPS = {"softmax": _softmax}
