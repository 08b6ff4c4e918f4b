"""Shared oracles for the test suite: a validated config with overrides,
finite differences of the registered autodiff kind (the softmax), of the
masked MLP's forward/backward pair, of the stage-2 loss terms, noisy draws
and cross-entropy, and of the composite stage-2 objective, kink-free random instance construction, and reference forms of
helpers the program itself no longer needs (per-layer Adam, the scalar
log Y, value-level noisy masks and the triangle bound check), and a
tracemalloc measure of a call's allocations (TracedPeak)."""

import dataclasses
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from maskcert import autodiff as ad
from maskcert.certify import _logsumexp
from maskcert.config import ExperimentConfig, validate
from maskcert.masks import binarize, hard_multipliers, layer_views, sample_noisy
from maskcert.model import LayerSpec, mask_shape, masked_backward, masked_forward, mlp_specs
from maskcert.objectives import consistency, l1_mean, ratio_penalty, stability
from maskcert.pipeline import cross_entropy

FD_H = 1e-5
FD_TOL = 1e-4


class InvariantError(RuntimeError):
    """An internal consistency check failed."""


def make_cfg(**overrides) -> ExperimentConfig:
    """The default ExperimentConfig with `overrides`, validated as a parsed
    config is."""
    return validate(dataclasses.replace(ExperimentConfig(), **overrides))


class TracedPeak:
    """tracemalloc over a with block. On exit, `rise` is how far the traced
    peak rose above the memory held at the block's start, or at the last
    reset() inside it, and `held` how much more is held than there.
    tracemalloc sees numpy's array data, so neither depends on the
    allocator."""

    def __enter__(self):
        tracemalloc.start()
        self.reset()
        return self

    def reset(self):
        tracemalloc.reset_peak()
        self.base = tracemalloc.get_traced_memory()[0]

    def __exit__(self, *exc):
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        self.held, self.rise = held - self.base, peak - self.base


def rel_err(analytic, numeric) -> float:
    a = np.asarray(analytic, dtype=float)
    f = np.asarray(numeric, dtype=float)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
    return float(np.max(np.abs(a - f) / denom))


def fd_grad(f, base, h=FD_H) -> np.ndarray:
    """Central differences of the scalar function f at the array base."""
    g = np.zeros_like(base)
    for i in range(base.size):
        vp = base.copy()
        vp.ravel()[i] += h
        vm = base.copy()
        vm.ravel()[i] -= h
        g.ravel()[i] = (f(vp) - f(vm)) / (2 * h)
    return g


def _kind(kind):
    """A registered autodiff kind as evaluate(inputs, g, **attrs) -> (value,
    gradients of sum(g * value) on each input, or None when g is None)."""
    def evaluate(inputs, g, **attrs):
        value, vjp = ad.primitive(kind, inputs, **attrs)
        return value, None if g is None else vjp(g)
    return evaluate


def _term(fn):
    """A loss term of objectives, which takes its upstream gradient g as its
    last argument, as evaluate(inputs, g, **attrs)."""
    def evaluate(inputs, g, **attrs):
        value, *grads = fn(*inputs, **attrs, g=1.0 if g is None else g)
        return value, grads
    return evaluate


def _noisy(inputs, g, mu, seed, draws):
    """sample_noisy's draws from default_rng(seed), so every evaluation takes
    the same noise, and the gradient of sum(g * draws) on C."""
    value, passed = sample_noisy(inputs[0], mu, np.random.default_rng(seed), draws)
    return value, None if g is None else [(g * passed).sum(axis=0)]


def _masked_mlp(inputs, g, specs):
    """masked_forward's logits on the inputs [x, *weights, *biases], and the
    gradients of sum(g * logits) on every weight and bias, formed from the
    pre-activation gradients masked_backward gives (None on x, whose
    gradient it does not compute)."""
    n = len(specs)
    ws, bs = inputs[1:n + 1], inputs[n + 1:]
    hs, zs = masked_forward(inputs[0], ws, bs, specs)
    if g is None:
        return hs[-1], None
    gz = masked_backward(zs, ws, specs, g)
    return hs[-1], [None, *(g_i.mT @ h for g_i, h in zip(gz, hs)),
                    *(g_i.sum(axis=tuple(range(g_i.ndim - 1))) for g_i in gz)]


def _cross_entropy(inputs, g, labels):
    """pipeline.cross_entropy's loss and g times its gradient on the logits."""
    value, grad = cross_entropy(inputs[0], labels)
    return value, None if g is None else [g * grad]


EVALUATE = {**{kind: _kind(kind) for kind in ad._OPS},
            "stability": _term(stability), "ratio_penalty": _term(ratio_penalty),
            "consistency": _term(consistency), "l1_mean": _term(l1_mean), "noisy": _noisy,
            "cross_entropy": _cross_entropy, "masked_mlp": _masked_mlp}


def check_kind_fd(kind, inputs, attrs, checked, rng, tol=FD_TOL, h=FD_H) -> float:
    """The gradients of one kind or term (EVALUATE) against central
    differences of its value, each checked input perturbed on its own. The
    value is contracted against a random weight, the upstream gradient g, so
    that it is non-uniform. Returns the worst relative error."""
    evaluate = EVALUATE[kind]
    weight = rng.uniform(0.5, 1.5, size=np.shape(evaluate(inputs, None, **attrs)[0]))
    grads = evaluate(inputs, weight, **attrs)[1]
    worst = 0.0
    for i in checked:
        def f(arr, i=i):
            vals = list(inputs)
            vals[i] = arr
            return float((weight * evaluate(vals, None, **attrs)[0]).sum())
        worst = max(worst, rel_err(grads[i], fd_grad(f, inputs[i], h)))
    assert worst < tol, f"{kind}: gradient mismatch vs finite differences: {worst:.3e}"
    return worst


def _row_gap(x):
    s = np.sort(x, axis=-1)
    return s[..., -1] - s[..., -2]


def fold(masks, weights):
    """Each weight times its mask (None leaves a weight dense), as
    MaskableModel.folded forms it."""
    return [w if m is None else m * w for m, w in zip(masks, weights)]


def relu_margin(x, weights, biases, specs) -> float:
    """Smallest |pre-activation| of any relu layer, read from the
    pre-activations masked_forward returns."""
    _, zs = masked_forward(x, weights, biases, specs)
    return min((float(np.abs(z).min()) for z, s in zip(zs, specs) if s.activation == "relu"),
               default=np.inf)


def ratio_margin(p, q) -> float:
    """Distance of (p, q) from the sup-norm and top-2 kinks of ratio_penalty."""
    a = np.abs(p - q)
    margin = min(float(_row_gap(a).min()), float(a.max(axis=-1).min()))
    s = np.sort(p, axis=-1)
    margin = min(margin, float((s[..., -1] - s[..., -2]).min()))
    if s.shape[-1] >= 3:
        margin = min(margin, float((s[..., -2] - s[..., -3]).min()))
    return margin


# ---------------------------------------------------------------------------
# the composite objective as a pure function of the soft mask


def _value(kind, *inputs, **attrs):
    return ad.primitive(kind, list(inputs), **attrs)[0]


def composite_objective(model, cs, x, x_t, cfg, xis, hard, c0):
    """The stage-2 objective as a pure function of the per-layer soft masks
    cs (maskable layers only, in mask shape), with the noise draws
    xis = (xi_m, xi_n, xi_s) (each one array per layer), the hard masks and
    the straight-through point c0 held fixed. It is assembled from
    masked_forward, the softmax kind and the loss terms, with the noisy masks clip(c + xi)
    and the straight-through mask written out, one masked copy at a time,
    each copy's masks folded into the weights.
    Returns the total and the distance of this evaluation from the nearest
    kink: relu pre-activations, clip edges of the noisy masks, the sup-norm
    and top-2 gaps of the ratio term, and zeros of the L1 term."""
    masked = [i for i, n in enumerate(model.mask_dims()) if n]

    def masks_of(layer_masks):
        full = [None] * len(model.specs)
        for i, m in zip(masked, layer_masks):
            full[i] = m
        return full

    noisy = [[np.clip(c + xi, 0.0, 1.0) for c, xi in zip(cs, draw)] for draw in xis]
    # straight-through masks: hard at the point c0, shifting linearly with c
    ste = [h + (c - c_0) for c, h, c_0 in zip(cs, hard, c0)]
    copies = [(x, noisy[0]), (x, noisy[1]), (x, ste), (x_t, noisy[2])]
    probs, margin = [], np.inf
    for inp, layer_masks in copies:
        ws = fold(masks_of(layer_masks), model.weights)
        logits = masked_forward(inp, ws, model.biases, model.specs)[0][-1]
        probs.append(_value("softmax", logits))
        margin = min(margin, relu_margin(inp, ws, model.biases, model.specs))
    p_m, p_n, p_h, p_s = probs
    flat = np.concatenate([c.ravel() for c in cs])
    stab, ratio, consis, l1 = map(float, (
        stability(p_m, p_n, 1.0)[0],
        ratio_penalty(p_m, p_s, cfg.safety_threshold, cfg.margin_epsilon, 1.0)[0],
        consistency(p_m, p_h, 1.0)[0],
        l1_mean(flat, [c.size for c in cs], 1.0)[0]))
    total = ((cfg.lambda_stab * stab + cfg.lambda_ratio * ratio)
             + (cfg.lambda_consis * consis + cfg.lambda_l1 * l1))
    shifted = [c + xi for draw in xis for c, xi in zip(cs, draw)]
    margin = min(margin, ratio_margin(p_m, p_s),
                 *(float(np.abs(s).min()) for s in shifted),
                 *(float(np.abs(s - 1.0).min()) for s in shifted),
                 *(float(np.abs(c).min()) for c in cs))
    return float(total), margin


def composite_fd(model, flat_soft, x, x_t, cfg, seed, result, min_margin=1e-3):
    """Finite-difference check of one composite_step_loss result on the flat
    soft mask flat_soft, computed with rng default_rng(seed): the same draws
    are taken again draw by draw over every layer, and every entry of each
    layer's soft mask is perturbed in composite_objective. Returns the worst
    relative error, or None when the instance lies within min_margin of a
    kink."""
    rng = np.random.default_rng(seed)
    soft = layer_views(flat_soft, model.mask_dims())
    grads = layer_views(result.grad, model.mask_dims())
    masked = [i for i, c in enumerate(soft) if c.size]
    cs = [soft[i].reshape(mask_shape(model.specs[i], model.mask_mode)) for i in masked]
    mu = cfg.noise_magnitude
    xis = [[rng.uniform(-mu, mu, size=c.shape) for c in cs] for _ in range(3)]
    hard = [binarize(soft, cfg.pruning_ratio)[i].reshape(c.shape) for i, c in zip(masked, cs)]

    def objective(layer_masks):
        return composite_objective(model, layer_masks, x, x_t, cfg, xis, hard, cs)

    total, margin = objective(cs)
    assert total == result.report.composite, "stacked step and per-copy oracle disagree"
    if margin < min_margin:
        return None
    worst = 0.0
    for k, i in enumerate(masked):
        def f(arr, k=k):
            return objective(cs[:k] + [arr] + cs[k + 1:])[0]
        worst = max(worst, rel_err(grads[i].reshape(cs[k].shape), fd_grad(f, cs[k])))
    return worst


# ---------------------------------------------------------------------------
# kink-free random instances of every kind


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


def _case_masked_mlp(rng, specs, mask_shapes, stack=()):
    """Input, weights and biases, each weight with a mask of the given shape
    (None for none) folded in, and the weights and biases checked; redrawn
    until each relu pre-activation is clear of the kink. `stack` prepends
    copy axes to the input, the weights and the masks."""
    n = len(specs)
    while True:
        x = rng.standard_normal((*stack, 5, specs[0].in_dim))
        ws = [rng.standard_normal((*stack, s.out_dim, s.in_dim)) for s in specs]
        bs = [rng.standard_normal(s.out_dim) for s in specs]
        masks = [None if m is None else rng.uniform(0.2, 1.0, size=(*stack, *m))
                 for m in mask_shapes]
        ws = fold(masks, ws)
        if relu_margin(x, ws, bs, specs) > 1e-2:
            return "masked_mlp", [x, *ws, *bs], {"specs": tuple(specs)}, range(1, 2 * n + 1)


def _case_softmax(rng, shape):
    return "softmax", [rng.standard_normal(shape)], {}, [0]


def _case_cross_entropy(rng):
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    return "cross_entropy", [logits], {"labels": labels}, [0]


def _case_noisy(rng, draws, n, c_lo, c_hi, mu=0.5):
    """A flat soft mask C of n entries and the seed of `draws` noise draws
    through sample_noisy; each entry of C is moved up until no draw puts
    C + xi within 5e-3 of a clip edge. xi is rebuilt from the seed as
    rng.uniform(-mu, mu), whose bits sample_noisy's in-place draw has."""
    seed = int(rng.integers(2 ** 32))
    xi = np.random.default_rng(seed).uniform(-mu, mu, size=(draws, n))
    c = rng.uniform(c_lo, c_hi, size=n)
    while True:
        near = ((np.abs(c + xi) < 5e-3) | (np.abs(c + xi - 1.0) < 5e-3)).any(axis=0)
        if not near.any():
            return "noisy", [c], {"mu": mu, "seed": seed, "draws": draws}, [0]
        c = np.where(near, c + 0.05, c)


def _case_stability(rng, shape):
    return "stability", [rng.standard_normal(shape), rng.standard_normal(shape)], {}, [0, 1]


def _case_ratio(rng, shape, margin_lo=-1.5, margin_hi=1.5, shift=0.2, eta=1.0):
    """p with separated rows (top-2 gap) and p_t = p - delta with separated
    |delta| per row (sup-norm gap)."""
    p = _distinct_rows(rng, shape, margin_lo, margin_hi)
    delta = _distinct_abs_rows(rng, shape) * shift
    return "ratio_penalty", [p, p - delta], {"eta": eta, "eps": 1e-6}, [0, 1]


def _case_consistency(rng, shape, alpha=2.0, floor=1e-3):
    return ("consistency", [_probs(rng, shape, alpha, floor), _probs(rng, shape, alpha, floor)],
            {}, [0, 1])


def _case_l1_mean(rng):
    """A flat soft mask over layers of 12, 5 and 2 units, away from zero."""
    dims = (12, 5, 2)
    return "l1_mean", [_signed_away_from_zero(rng, sum(dims))], {"dims": dims}, [0]


_MLP = mlp_specs(3, [4], 2)

# kind -> list of (label, builders); each builder(rng) -> (kind, inputs,
# attrs, indices of the inputs to check). A label names the elementary
# operation its cases stress inside the kind, and labels are unique across
# kinds and terms.
PRIMITIVE_CASES = {
    "softmax": [("softmax", [lambda r: _case_softmax(r, (5,)),
                             lambda r: _case_softmax(r, (4, 3)),
                             lambda r: _case_softmax(r, (2, 4, 3))])],
}

# The same for the plain functions: the masked MLP's forward/backward pair,
# the stage-2 loss terms of objectives, sample_noisy's draws and
# pipeline.cross_entropy.
TERM_CASES = {
    "masked_mlp": [
        ("affine", [lambda r: _case_masked_mlp(r, [LayerSpec(3, 2, "none")], [None])]),
        ("relu", [lambda r: _case_masked_mlp(r, _MLP, [None, None])]),
        ("mul", [lambda r: _case_masked_mlp(r, _MLP, [(4, 3), (2, 4)]),   # unstructured
                 lambda r: _case_masked_mlp(r, _MLP, [(4, 1), None])]),  # structured
        ("stack", [lambda r: _case_masked_mlp(r, _MLP, [None, None], stack=(3,)),
                   lambda r: _case_masked_mlp(r, _MLP, [(4, 1), (2, 4)], stack=(2,))])],
    "noisy": [
        ("add", [lambda r: _case_noisy(r, 3, 5, 0.5, 0.5)]),  # C + xi stays inside [0, 1]
        ("clip", [lambda r: _case_noisy(r, 1, 8, 0.0, 1.0),  # some entries saturate
                  lambda r: _case_noisy(r, 3, 5, 0.0, 1.0)])],
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
    "cross_entropy": [("cross_entropy", [_case_cross_entropy])],
}

CASE_LABELS = {label: builders for cases in (*PRIMITIVE_CASES.values(), *TERM_CASES.values())
               for label, builders in cases}


def run_case_fd(label, instances_per_case=20, seed_base=1000) -> float:
    """Finite-difference check of one labelled case over its seeded
    instances. Returns the worst relative error seen."""
    worst = 0.0
    for j, build in enumerate(CASE_LABELS[label]):
        for k in range(instances_per_case):
            rng = np.random.default_rng([seed_base, sum(map(ord, label)), j, k])
            kind, inputs, attrs, checked = build(rng)
            worst = max(worst, check_kind_fd(kind, inputs, attrs, list(checked), rng))
    return worst


def run_primitive_fd_suite(instances_per_case=20, seed_base=1000):
    """Finite-difference check of every kind and term over all its cases.
    Returns the worst relative error seen."""
    return max(run_case_fd(label, instances_per_case, seed_base) for label in CASE_LABELS)


# ---------------------------------------------------------------------------
# reference forms of helpers the program no longer needs


class PerLayerAdam:
    """Adam over a list of per-layer arrays, one moment pair per non-empty
    layer: the form stage 2 used before it held one flat mask vector."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.m: dict[int, np.ndarray] = {}
        self.v: dict[int, np.ndarray] = {}
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for i, (p, g) in enumerate(zip(params, grads)):
            if g.size == 0:
                continue
            m = self.m.get(i)
            v = self.v.get(i)
            if m is None:
                m, v = np.zeros_like(g), np.zeros_like(g)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            self.m[i], self.v[i] = m, v
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.EPS)


def log_y(z: np.ndarray, d: float, t: float) -> float:
    """log of (1/(n e^{dt})) sum_i e^{Z_i t}, overflow-free for t up to 1e4:
    the scalar form of certify.log_y_grid."""
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    if d < 0:
        raise ValueError(f"margin must be non-negative, got {d}")
    z = np.asarray(z, dtype=np.float64)
    return float(_logsumexp(z * t) - math.log(z.size) - d * t)


def noisy_mask_values(c_layers: list[np.ndarray], mu: float,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """clip(C + xi, 0, 1) per layer with xi ~ U(-mu, mu), values only."""
    if mu < 0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    return [np.clip(c + rng.uniform(-mu, mu, size=c.shape), 0.0, 1.0)
            for c in c_layers]


@dataclass
class TriangleCheck:
    z_c: float
    bound: float
    term_a: float
    term_b: float
    term_c: float


def triangle_bound_check(model, soft_mask, x, x_t, mu: float,
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
        return model.folded(hard_multipliers(model, mask_vals)).forward(inp)[0]

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
