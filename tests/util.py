"""Shared oracles for the test suite: replay-based finite differences and
kink-free random instance construction for every autodiff primitive."""

import numpy as np

from maskcert import autodiff as ad
from maskcert.model import LayerSpec, mlp_specs

FD_H = 1e-5
FD_TOL = 1e-4


def rel_err(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=float)
    f = np.asarray(numeric, dtype=float)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
    return float(np.max(np.abs(a - f) / denom))


def fd_leaf_grad(tape, root, leaf, h=FD_H) -> np.ndarray:
    """Central differences of the recorded tape function w.r.t. one leaf."""
    base = leaf.value
    g = np.zeros_like(base)
    for i in range(base.size):
        vp = base.copy()
        vp.ravel()[i] += h
        vm = base.copy()
        vm.ravel()[i] -= h
        fp = tape.replay({leaf: vp})[root.id]
        fm = tape.replay({leaf: vm})[root.id]
        g.ravel()[i] = (float(fp) - float(fm)) / (2 * h)
    return g


def check_graph_fd(tape, root, leaves, tol=FD_TOL, h=FD_H) -> float:
    grads = ad.backprop(root)
    worst = 0.0
    for leaf in leaves:
        worst = max(worst, rel_err(grads[leaf.id], fd_leaf_grad(tape, root, leaf, h)))
    assert worst < tol, f"gradient mismatch vs finite differences: {worst:.3e}"
    return worst


def _row_gap(x):
    s = np.sort(x, axis=-1)
    return s[..., -1] - s[..., -2]


def _relu_margin(node):
    """Smallest |pre-activation| of any relu layer of a masked_mlp node,
    recomputed from its inputs."""
    specs, masked = node.attrs["specs"], node.attrs["masked"]
    n = len(specs)
    v = [p.value for p in node.parents]
    masks = dict(zip(masked, v[2 * n + 1:]))
    margin, h = np.inf, v[0]
    for i, spec in enumerate(specs):
        w = masks[i] * v[1 + i] if i in masks else v[1 + i]
        h = h @ w.T + v[n + 1 + i]
        if spec.activation == "relu":
            margin = min(margin, float(np.abs(h).min()))
            h = np.maximum(h, 0.0)
    return margin


def tape_kink_margin(tape) -> float:
    """Distance from the recorded values to the nearest non-smooth point of
    any kinked primitive on the tape: relu pre-activations in masked_mlp,
    clip edges in noisy, sup-norm and top-2 gaps in ratio_penalty, and zeros
    in l1_mean. Instances are admitted for finite differencing only when this
    clears a margin."""
    margin = np.inf
    for node in tape.nodes:
        v = [p.value for p in node.parents]
        if node.op == "masked_mlp":
            margin = min(margin, _relu_margin(node))
        elif node.op == "noisy":
            x = v[0] + node.attrs["xi"]
            margin = min(margin, float(np.abs(x).min()), float(np.abs(x - 1.0).min()))
        elif node.op == "ratio_penalty":
            a = np.abs(v[0] - v[1])
            margin = min(margin, float(_row_gap(a).min()), float(a.max(axis=-1).min()))
            s = np.sort(v[0], axis=-1)
            margin = min(margin, float((s[..., -1] - s[..., -2]).min()))
            if s.shape[-1] >= 3:
                margin = min(margin, float((s[..., -2] - s[..., -3]).min()))
        elif node.op == "l1_mean":
            margin = min(margin, *(float(np.abs(x).min()) for x in v))
    return margin


def weighted_scalar(out, rng):
    """Contract a node against a random constant so the upstream gradient in
    finite-difference checks is non-uniform."""
    return ad.weighted_sum([out], [rng.uniform(0.5, 1.5, size=out.value.shape)])


def _spaced(rng, n, lo, hi, min_gap_factor=0.25):
    """n values with guaranteed pairwise gaps, in random order."""
    base = np.linspace(lo, hi, n)
    jitter = rng.uniform(-1, 1, n) * (base[1] - base[0]) * min_gap_factor
    vals = base + jitter
    return rng.permutation(vals)


def _signed_away_from_zero(rng, shape, lo=0.2, hi=2.0):
    mag = rng.uniform(lo, hi, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _distinct_abs_rows(rng, shape, lo=0.3, hi=2.0):
    """Rows whose |entries| are pairwise separated (safe for the sup-norm)."""
    out = np.stack([_spaced(rng, shape[-1], lo, hi) for _ in range(shape[0])])
    return out * np.where(rng.uniform(size=out.shape) < 0.5, -1.0, 1.0)


def _distinct_rows(rng, shape, lo=-1.5, hi=1.5):
    """Rows with pairwise-separated raw values (safe for the top-2 margin)."""
    return np.stack([_spaced(rng, shape[-1], lo, hi) for _ in range(shape[0])])


def _probs(rng, shape, alpha=2.0, floor=1e-3):
    p = rng.dirichlet(np.full(shape[-1], alpha), size=shape[:-1] or None)
    p = np.maximum(p, floor)
    return p / p.sum(axis=-1, keepdims=True)


def _leafed(rng, arrays):
    tape = ad.Tape()
    leaves = [tape.leaf(a, requires_grad=True) for a in arrays]
    return tape, leaves


def _case_masked_mlp(rng, specs, mask_shapes):
    """Every input a leaf; redrawn until each relu pre-activation is clear of
    the kink."""
    while True:
        arrays = [rng.standard_normal((5, specs[0].in_dim))]
        arrays += [rng.standard_normal((s.out_dim, s.in_dim)) for s in specs]
        arrays += [rng.standard_normal(s.out_dim) for s in specs]
        arrays += [rng.uniform(0.2, 1.0, size=m) for m in mask_shapes if m is not None]
        tape, leaves = _leafed(rng, arrays)
        n = len(specs)
        it = iter(leaves[2 * n + 1:])
        masks = [None if m is None else next(it) for m in mask_shapes]
        out = ad.masked_mlp(leaves[0], leaves[1:n + 1], leaves[n + 1:2 * n + 1], specs, masks)
        if tape_kink_margin(tape) > 1e-2:
            return tape, weighted_scalar(out, rng), leaves


def _case_softmax(rng, shape):
    tape, (x,) = _leafed(rng, [rng.standard_normal(shape)])
    return tape, weighted_scalar(ad.softmax(x), rng), [x]


def _case_cross_entropy(rng):
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    tape, (x,) = _leafed(rng, [logits])
    return tape, weighted_scalar(ad.cross_entropy(x, labels), rng), [x]


def _case_noisy(rng, shape, c_lo, c_hi):
    xi = rng.uniform(-0.5, 0.5, size=shape)
    c = rng.uniform(c_lo, c_hi, size=shape)
    for edge in (0.0, 1.0):
        c = np.where(np.abs(c + xi - edge) < 5e-3, c + 0.05, c)
    tape, (c_leaf,) = _leafed(rng, [c])
    return tape, weighted_scalar(ad.noisy(c_leaf, xi), rng), [c_leaf]


def _case_ste(rng, shape):
    c = rng.uniform(0.05, 0.95, size=shape)
    hard = (rng.uniform(size=shape) < 0.5).astype(float)
    tape, (c_leaf,) = _leafed(rng, [c])
    return tape, weighted_scalar(ad.ste(c_leaf, hard), rng), [c_leaf]


def _case_stability(rng, shape):
    tape, (p, q) = _leafed(rng, [rng.standard_normal(shape), rng.standard_normal(shape)])
    return tape, weighted_scalar(ad.stability(p, q), rng), [p, q]


def _case_ratio(rng, shape, margin_lo=-1.5, margin_hi=1.5, shift=0.2, eta=1.0):
    """p with separated rows (top-2 gap) and p_t = p - delta with separated
    |delta| per row (sup-norm gap)."""
    p = _distinct_rows(rng, shape, margin_lo, margin_hi)
    delta = _distinct_abs_rows(rng, shape) * shift
    tape, (p_leaf, q_leaf) = _leafed(rng, [p, p - delta])
    node = ad.ratio_penalty(p_leaf, q_leaf, eta, 1e-6)
    return tape, weighted_scalar(node, rng), [p_leaf, q_leaf]


def _case_consistency(rng, shape, alpha=2.0, floor=1e-3):
    tape, (p, q) = _leafed(rng, [_probs(rng, shape, alpha, floor),
                                 _probs(rng, shape, alpha, floor)])
    return tape, weighted_scalar(ad.consistency(p, q), rng), [p, q]


def _case_l1_mean(rng):
    tape, leaves = _leafed(rng, [_signed_away_from_zero(rng, s) for s in ((3, 4), (5,), (2, 1))])
    return tape, weighted_scalar(ad.l1_mean(leaves), rng), leaves


def _case_weighted_sum(rng):
    shapes = [(3, 4), (), (5,), (2, 2)]
    tape, leaves = _leafed(rng, [rng.standard_normal(s) for s in shapes])
    weights = [rng.uniform(-1.5, 1.5, size=s) for s in shapes]
    return tape, weighted_scalar(ad.weighted_sum(leaves, weights), rng), leaves


_MLP = mlp_specs(3, [4], 2)

# kind -> list of (label, builders); each builder(rng) -> (tape, root, leaves).
# A label names the elementary operation its cases stress inside the kind,
# and labels are unique across kinds.
PRIMITIVE_CASES = {
    "masked_mlp": [
        ("affine", [lambda r: _case_masked_mlp(r, [LayerSpec(3, 2, "none")], [None])]),
        ("relu", [lambda r: _case_masked_mlp(r, _MLP, [None, None])]),
        ("mul", [lambda r: _case_masked_mlp(r, _MLP, [(4, 3), (2, 4)]),   # unstructured
                 lambda r: _case_masked_mlp(r, _MLP, [(4, 1), None])])],  # structured
    "softmax": [("softmax", [lambda r: _case_softmax(r, (5,)),
                             lambda r: _case_softmax(r, (4, 3))])],
    "cross_entropy": [("cross_entropy", [_case_cross_entropy])],
    "noisy": [
        ("add", [lambda r: _case_noisy(r, (3, 5), 0.5, 0.5)]),  # C + xi stays inside [0, 1]
        ("clip", [lambda r: _case_noisy(r, (8,), 0.0, 1.0),    # some entries saturate
                  lambda r: _case_noisy(r, (3, 5), 0.0, 1.0)])],
    "ste": [("ste", [lambda r: _case_ste(r, (6,)), lambda r: _case_ste(r, (3, 4))])],
    "stability": [("l2_norm_sq", [lambda r: _case_stability(r, (3, 4))])],
    "ratio_penalty": [
        ("topk_margin", [lambda r: _case_ratio(r, (4, 2)), lambda r: _case_ratio(r, (4, 4))]),
        ("inf_norm", [lambda r: _case_ratio(r, (3, 5), shift=0.5)]),
        ("div", [lambda r: _case_ratio(r, (4, 3), -0.05, 0.05, shift=0.01)]),  # small margins
        ("softplus", [lambda r: _case_ratio(r, (4, 3), shift=1.0, eta=0.1),    # s > 0
                      lambda r: _case_ratio(r, (4, 3), shift=0.05, eta=1.0)])],  # s < 0
    "consistency": [
        ("kl_div", [lambda r: _case_consistency(r, (4, 3))]),
        ("log", [lambda r: _case_consistency(r, (3, 6), 0.3, 1e-2)])],  # many entries near 0
    "l1_mean": [("l1_sum", [_case_l1_mean])],
    "weighted_sum": [("sum", [_case_weighted_sum])],
}

CASE_LABELS = {label: builders for cases in PRIMITIVE_CASES.values()
               for label, builders in cases}


def run_case_fd(label, instances_per_case=20, seed_base=1000) -> float:
    """Finite-difference check of one labelled case over its seeded
    instances. Returns the worst relative error seen."""
    worst = 0.0
    for j, build in enumerate(CASE_LABELS[label]):
        for k in range(instances_per_case):
            rng = np.random.default_rng([seed_base, sum(map(ord, label)), j, k])
            tape, root, leaves = build(rng)
            worst = max(worst, check_graph_fd(tape, root, leaves))
    return worst


def run_primitive_fd_suite(instances_per_case=20, seed_base=1000):
    """Finite-difference check of every primitive over all its cases.
    Returns the worst relative error seen."""
    return max(run_case_fd(label, instances_per_case, seed_base) for label in CASE_LABELS)
