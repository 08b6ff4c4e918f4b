"""Reverse-mode differentiation of the two objectives maskcert trains.

The tape records one node per piece of those objectives: the masked MLP
logits, a softmax, the batch-mean cross-entropy of stages 1 and 3, and for
the stage-2 mask search the noisy mask draw, the straight-through node, the
stability, ratio and consistency terms, the L1 mean and the weighted sum that
joins them. Each kind is one function that computes its value eagerly and
returns a vector-Jacobian product over the residuals of that forward pass, so
the backward pass never evaluates a forward again. Insertion order is a valid
topological order and the backward pass is a single reverse sweep.

A tape can also be *replayed* with substituted leaf values: the recorded
graph is re-evaluated as a pure function, with the noise draws held fixed and
the straight-through node shifting linearly with the soft mask from the point
it was recorded at. Replay is what makes finite-difference checks of tape
gradients well defined, including through the straight-through path.

Tapes are single-threaded; use one tape per worker. Nodes never change after
creation except for the grad slot, which is written only by this tape's own
backward pass.
"""

from __future__ import annotations

import numpy as np

from .model import masked_forward, softmax as softmax_values

__all__ = [
    "Tape", "Node", "primitive", "backprop",
    "masked_mlp", "softmax", "cross_entropy", "noisy", "ste", "stability",
    "ratio_penalty", "consistency", "l1_mean", "weighted_sum", "KL_SMOOTHING",
]

# Both arguments of the consistency term are mixed with the uniform
# distribution at this weight before taking logs, so exact zeros in a
# probability vector cannot produce log(0).
KL_SMOOTHING = 1e-8


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Node:
    """One tape entry: value, provenance, and a lazily allocated grad slot."""

    __slots__ = ("tape", "id", "value", "grad", "op", "parents", "attrs",
                 "requires_grad", "vjp")

    def __init__(self, tape, nid, value, op, parents, attrs, requires_grad, vjp):
        self.tape = tape
        self.id = nid
        self.value = value
        self.grad = None
        self.op = op
        self.parents = parents
        self.attrs = attrs
        self.requires_grad = requires_grad
        self.vjp = vjp

    def __repr__(self):
        return f"Node(id={self.id}, op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Append-only node store; node id equals insertion index."""

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, value, requires_grad: bool = False) -> Node:
        node = Node(self, len(self.nodes), _f64(value), "leaf", (), {},
                    requires_grad, None)
        self.nodes.append(node)
        return node

    def const(self, value) -> Node:
        return self.leaf(value, requires_grad=False)

    def release(self) -> None:
        """Drop the node list once the tape's step is done; the tape cannot
        be swept or replayed afterwards. Each node points back at its tape, so
        until then tape and nodes form a cycle that only the cyclic garbage
        collector frees; after it, reference counting frees the step's arrays
        as soon as the caller drops its last node."""
        self.nodes.clear()

    def replay(self, overrides: dict) -> list[np.ndarray]:
        """Re-evaluate the recorded graph with some leaf values substituted.

        `overrides` maps Node (or node id) to a replacement array of the same
        shape. Returns the list of recomputed values indexed by node id.
        Noise draws and the straight-through point keep their recorded
        values, so the replayed function is exactly the one the backward pass
        differentiates.
        """
        subst = {}
        for key, val in overrides.items():
            nid = key.id if isinstance(key, Node) else int(key)
            node = self.nodes[nid]
            if node.op != "leaf":
                raise ValueError(f"replay: node {nid} ({node.op}) is not a leaf")
            arr = _f64(val)
            if arr.shape != node.value.shape:
                raise ValueError(
                    f"replay: leaf {nid} expects shape {node.value.shape}, got {arr.shape}")
            subst[nid] = arr
        values: list[np.ndarray] = [None] * len(self.nodes)
        with np.errstate(all="ignore"):
            for node in self.nodes:
                if node.op == "leaf":
                    values[node.id] = subst.get(node.id, node.value)
                else:
                    parent_vals = [values[p.id] for p in node.parents]
                    values[node.id] = _f64(_OPS[node.op](parent_vals, **node.attrs)[0])
        return values


def primitive(kind: str, inputs: list[Node], **attrs) -> Node:
    """Append one operation of the given kind and eagerly compute its value."""
    if kind not in _OPS:
        raise ValueError(f"unknown primitive kind {kind!r}")
    if not inputs:
        raise ValueError(f"{kind}: at least one input node required")
    tape = inputs[0].tape
    if any(n.tape is not tape for n in inputs):
        raise ValueError(f"{kind}: inputs live on different tapes")
    with np.errstate(all="ignore"):
        value, vjp = _OPS[kind]([n.value for n in inputs], **attrs)
    value = _f64(value)
    nid = len(tape.nodes)
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"{kind}: non-finite forward value at node {nid}")
    requires_grad = any(n.requires_grad for n in inputs)
    node = Node(tape, nid, value, kind, tuple(inputs), attrs, requires_grad,
                vjp if requires_grad else None)
    tape.nodes.append(node)
    return node


def backprop(root: Node) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar root; returns {leaf id: gradient}.

    Each node's VJP returns one list of parent gradients. Gradients
    accumulate over all paths in reverse tape order; parents that do not
    require grad are skipped, and the VJP may return None for them.
    Requires-grad leaves that no gradient reached report zeros.
    """
    if root.value.size != 1:
        raise ValueError(f"backprop: root must be scalar, got shape {root.value.shape}")
    tape = root.tape
    if root.id >= len(tape.nodes) or tape.nodes[root.id] is not root:
        raise ValueError("backprop: root is not on a live tape")
    for node in tape.nodes:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(tape.nodes[: root.id + 1]):
        if node.grad is None or node.vjp is None:
            continue
        needs = [p.requires_grad for p in node.parents]
        for parent, g in zip(node.parents, node.vjp(node.grad, needs)):
            if parent.requires_grad:
                parent.grad = g if parent.grad is None else parent.grad + g
    return {n.id: (n.grad if n.grad is not None else np.zeros_like(n.value))
            for n in tape.nodes if n.op == "leaf" and n.requires_grad}


# ---------------------------------------------------------------------------
# kinds: (parent values, **attrs) -> (value, vjp(g, needs) -> parent gradients)


def _masked_mlp(v, specs, masked):
    n = len(specs)
    x, ws, bs = v[0], v[1:n + 1], v[n + 1:2 * n + 1]
    slot = dict(zip(masked, range(2 * n + 1, len(v))))  # layer -> mask input
    if x.ndim != 2 or x.shape[1] != ws[0].shape[1]:
        raise ValueError(f"masked_mlp: input shape {x.shape} does not match weight {ws[0].shape}")
    for i, j in slot.items():
        if v[j].shape not in (ws[i].shape, (ws[i].shape[0], 1)):
            raise ValueError(
                f"masked_mlp: mask shape {v[j].shape} does not broadcast to weight "
                f"{ws[i].shape} in layer {i}")
    hs, zs, effective = masked_forward(x, ws, bs, specs, [v[slot[i]] if i in slot else None
                                                          for i in range(n)])
    for i, z in enumerate(zs):
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"masked_mlp: non-finite pre-activation in layer {i}")

    def vjp(g, needs):
        grads = [None] * len(v)
        for i in reversed(range(n)):
            if specs[i].activation == "relu":
                g = g * (zs[i] > 0)
            if needs[n + 1 + i]:
                grads[n + 1 + i] = g.sum(axis=0)
            j = slot.get(i)
            if needs[1 + i] or (j is not None and needs[j]):
                gw = g.T @ hs[i]
                if j is None:
                    grads[1 + i] = gw
                else:
                    if needs[j]:
                        g_mask = gw * ws[i]
                        # a structured (out, 1) mask collects its row's gradient
                        grads[j] = (g_mask if v[j].shape == g_mask.shape
                                    else g_mask.sum(axis=1, keepdims=True))
                    if needs[1 + i]:
                        grads[1 + i] = gw * v[j]
            if i > 0 or needs[0]:
                g = g @ effective[i]
        if needs[0]:
            grads[0] = g
        return grads

    return hs[-1], vjp


def _softmax(v):
    x = v[0]
    if x.ndim not in (1, 2) or x.shape[-1] < 1:
        raise ValueError(f"softmax: expected 1-D or 2-D input, got shape {x.shape}")
    p = softmax_values(x)
    return p, lambda g, needs: [p * (g - (g * p).sum(axis=-1, keepdims=True))]


def _cross_entropy(v, labels):
    logits = v[0]
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


def _noisy(v, xi):
    if xi.shape != v[0].shape:
        raise ValueError(f"noisy: noise shape {xi.shape} does not match {v[0].shape}")
    shifted = v[0] + xi
    # Gradient passes on the closed interval [0, 1]; it flows at exact
    # saturation boundaries.
    passed = (shifted >= 0.0) & (shifted <= 1.0)
    return np.clip(shifted, 0.0, 1.0), lambda g, needs: [g * passed]


def _ste(v, hard, c0):
    if hard.shape != v[0].shape:
        raise ValueError(f"ste: hard mask shape {hard.shape} does not match {v[0].shape}")
    # Value equals the binary mask exactly at the recorded point c0 and
    # shifts linearly with the soft mask, so replay differentiates to the
    # identity.
    return hard + (v[0] - c0), lambda g, needs: [g]


def _check_pair(kind, p, q):
    if p.shape != q.shape or p.ndim != 2:
        raise ValueError(f"{kind}: expected matching (batch, classes) inputs, "
                         f"got {p.shape} and {q.shape}")


def _row_mean_grad(g, rows):
    """Gradient of the batch mean on each row, as a column."""
    return np.expand_dims(np.ones_like(rows) * (g / rows.size), -1)


def _stability(v):
    p, q = v
    _check_pair("stability", p, q)
    diff = p - q
    rows = (diff * diff).sum(axis=-1)

    def vjp(g, needs):
        g_diff = _row_mean_grad(g, rows) * 2.0 * diff
        return [g_diff, -g_diff]

    return rows.mean(), vjp


def _ratio_penalty(v, eta, eps):
    p, q = v
    _check_pair("ratio_penalty", p, q)
    if p.shape[1] < 2:
        raise ValueError(f"ratio_penalty: need at least 2 classes, got shape {p.shape}")
    rows = np.arange(p.shape[0])
    diff = p - q
    # Sup-norm and top-2 subgradients are supported at the first attaining
    # index alone (np.argmax order).
    top = np.argmax(np.abs(diff), axis=1)
    z = np.abs(diff).max(axis=1)
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
    scale = 1.0 / sum(x.size for x in v)
    value = sum(np.abs(x).sum() for x in v) * scale
    return value, lambda g, needs: [g * scale * np.sign(x) for x in v]


def _pairwise_sum(terms):
    """Sum with the halves added first: four terms add as (t0 + t1) + (t2 + t3)."""
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def _weighted_sum(v, weights):
    if len(weights) != len(v) or any(np.shape(w) != x.shape for w, x in zip(weights, v)):
        raise ValueError("weighted_sum: one weight of each input's shape required")
    value = _pairwise_sum([(w * x).sum() for w, x in zip(weights, v)])
    return value, lambda g, needs: [g * w for w in weights]


_OPS = {
    "masked_mlp": _masked_mlp,
    "softmax": _softmax,
    "cross_entropy": _cross_entropy,
    "noisy": _noisy,
    "ste": _ste,
    "stability": _stability,
    "ratio_penalty": _ratio_penalty,
    "consistency": _consistency,
    "l1_mean": _l1_mean,
    "weighted_sum": _weighted_sum,
}


# ---------------------------------------------------------------------------
# wrappers


def masked_mlp(x: Node, weights: list[Node], biases: list[Node], specs,
               masks: list | None = None) -> Node:
    """Logits of the layer stack, each weight multiplied by its mask node.

    A mask has the weight's (out, in) shape or a structured (out, 1) shape;
    a None entry, or masks=None, leaves that layer dense.
    """
    masks = masks or [None] * len(specs)
    masked = tuple(i for i, m in enumerate(masks) if m is not None)
    return primitive("masked_mlp", [x, *weights, *biases, *(masks[i] for i in masked)],
                     specs=tuple(specs), masked=masked)


def softmax(x: Node) -> Node:
    """Row-wise softmax over the last axis, shifted by the row max."""
    return primitive("softmax", [x])


def cross_entropy(logits: Node, labels) -> Node:
    """Batch mean negative log likelihood from logits (fused log-softmax)."""
    return primitive("cross_entropy", [logits], labels=np.asarray(labels, dtype=np.int64))


def noisy(c: Node, xi) -> Node:
    """clip(C + xi, 0, 1) for a fixed noise draw xi."""
    return primitive("noisy", [c], xi=_f64(xi))


def ste(c: Node, hard) -> Node:
    """Straight-through node: forward value is the binary mask, gradient is identity in c."""
    return primitive("ste", [c], hard=_f64(hard), c0=c.value)


def stability(p_m: Node, p_n: Node) -> Node:
    """Batch mean of the squared L2 distance between probability rows from
    two independent mask draws."""
    return primitive("stability", [p_m, p_n])


def ratio_penalty(p: Node, p_t: Node, eta: float, eps: float) -> Node:
    """Batch mean of softplus(Z / (d + eps) - eta), with Z the sup-norm
    distance between the clean and transformed rows and d half the gap between
    the clean row's top two entries: a smooth penalty on the robustness ratio
    exceeding the safety threshold."""
    return primitive("ratio_penalty", [p, p_t], eta=float(eta), eps=float(eps))


def consistency(p_soft: Node, p_hard: Node) -> Node:
    """Batch mean KL(p_soft || p_hard) with uniform smoothing of both
    arguments; p_hard normally arrives through the straight-through node so
    gradient reaches the soft mask."""
    return primitive("consistency", [p_soft, p_hard])


def l1_mean(xs: list[Node]) -> Node:
    """Sum of |x| over every entry of the inputs, divided by their entry count."""
    return primitive("l1_mean", list(xs))


def weighted_sum(xs: list[Node], weights) -> Node:
    """Sum over inputs of sum(weight * x), each weight shaped like its input."""
    return primitive("weighted_sum", list(xs), weights=tuple(weights))
