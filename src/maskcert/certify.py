"""Probabilistic certification of a deployed (hard-masked) classifier.

For each evaluation sample the flip probability under the transformation
space is bounded by an exponential-moment estimate: draw n transformed
inputs, form Y(t) = (1/n) sum_i exp(Z_i t) / exp(d t), take the max over l
independent repetitions (conservative against underestimation), then the
min over a log-spaced temperature grid. All bound arithmetic lives in log
space, since t reaches 1e4 and exp(Z t) overflows any fixed-width float.

The grid minimum is found without evaluating the whole grid. Each
log Y_j(t) = logsumexp_i(Z_ji t) - log n - d t is a log-sum-exp of affine
functions of t plus an affine term, so it is convex in t; the max over
repetitions of convex functions is convex too. Sampled at increasing grid
points, a convex function never rises and then falls: for i < j < k,
f(t_j) <= max(f(t_i), f(t_k)). A discrete ternary search therefore finds
its first minimizing grid point with O(log T) evaluations; the tests check
it against the brute-force grid.

Every deployed model of one architecture is certified in one pass
(pca_models; pca is the pass over a list of one), one loop over blocks of
samples. A block's clean predictions come from one stacked forward of its
(B, 1, d) inputs through all k models, each layer's weights stacked as
(k, 1, out, in) and biases as (k, 1, 1, out); each sample's is shared by
its margin, its pass decision and every repetition's discrepancies. Each
sample's deltas are drawn once, (r, n) for each chunk of r repetitions, and
its transformed inputs go through all k models as stacked forwards of whole
repetitions, up to a float budget per model. A grid search then steps the
block's samples, every model's rows of them, in lockstep. The pass decision
uses max{Y} itself; the alpha-scaled value max{Y}/alpha of the
underestimation-confidence bound is not computed. The arrays live in work
dicts allocated once per call (model._buffer), and none spans the
evaluation set. Inputs and weights are stacked, never flattened into one
matrix, because matmul runs one GEMM per trailing 2-D block and so gives
each model and repetition the bits of its own call, which one larger GEMM
does not.

For interp_corrupt on an evaluation set inside [0, 1] the first layer of the
transformed inputs takes a closed form. Haze and the 3-tap blur are convex
combinations of [0, 1] values, so T(x, delta) = (1 - delta) x + delta c(x)
stays in [0, 1] and its clip does nothing. A draw's first-layer
pre-activation is then affine in delta: a + delta g, with a = Wx + b the
clean forward's own pre-activation and g = W(c(x) - x), one matrix-vector
product per sample and model. An outer product replaces the (reps, n, in)
transformed inputs and their GEMM; layers 1.. run stacked as before. This
path is not bit-exact: each Z moves by rounding only (the tests hold it to
1e-12, and so log Y(t) to t 1e-12, since log Y is 1-Lipschitz in t times
the largest change of Z). At delta = 0 a draw's pre-activation is a, the
clean bits, exactly. direction_shift, and interp_corrupt with any
evaluation input outside [0, 1], take the stacked path, which the
bit-for-bit statements above describe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import STREAM_CERT_SAMPLE, ExperimentConfig
from .model import MaskableModel, _buffer, forward_probs, masked_forward, softmax
from .transforms import TransformSpec, apply, corrupt_input

# Work-buffer budgets in float64 entries, shared by the k models of a pass.
# A stacked forward of a sample's transformed inputs takes whole repetitions
# while its widest layer buffer, (k, reps, n, width), stays within
# STACK_FLOATS; it runs through forward_probs, which keeps one such buffer
# per layer and no pre-activation. A grid-search block takes samples while
# the (B, k, l, 3, n) products of its k models stay within GRID_FLOATS, and
# its clean forward takes those B samples. Each takes at least one
# repetition or sample, which at the certification caps is as much as one
# per-model, per-repetition call would allocate.
STACK_FLOATS = 1 << 15
GRID_FLOATS = 48 << 10


def t_grid(cfg: ExperimentConfig) -> np.ndarray:
    """The log-spaced temperature grid of cert_t_count points on
    [cert_t_lo, cert_t_hi]."""
    return np.logspace(math.log10(cfg.cert_t_lo), math.log10(cfg.cert_t_hi), cfg.cert_t_count)


def clean_margin(p: np.ndarray):
    """(p_(1) - p_(2)) / 2 of each probability vector along the last axis of
    p; a float for one vector."""
    p = np.asarray(p)
    if p.ndim < 1 or p.shape[-1] < 2:
        raise ValueError(f"margin needs at least 2 class probabilities, got shape {p.shape}")
    top2 = np.sort(p, axis=-1)[..., -2:]
    return (top2[..., 1] - top2[..., 0]) / 2.0


def _logsumexp(a: np.ndarray, axis=-1) -> np.ndarray:
    """log sum exp along `axis`, shifted by the max; overwrites a."""
    m = a.max(axis=axis, keepdims=True)
    np.subtract(a, m, out=a)
    np.exp(a, out=a)
    return (m + np.log(a.sum(axis=axis, keepdims=True))).squeeze(axis)


def log_y_grid(z: np.ndarray, d, t_grid: np.ndarray, work=None) -> np.ndarray:
    """log Y(t) = log of (1/(n e^{dt})) sum_i e^{Z_i t}, overflow-free for t
    up to 1e4, across k temperatures: z of shape (n,) gives (k,);
    z of shape (l, n) gives (l, k), row j equal to the call on z[j]. A block
    of samples passes z of shape (B, l, n), t_grid of shape (B, 1, k) and d
    of shape (B, 1, 1), and gets (B, l, k), each sample's rows equal to its
    own call. The (..., k, n) products are formed in the array under "grid"
    of the dict `work` (model._buffer)."""
    z = np.asarray(z, dtype=np.float64)
    t = np.asarray(t_grid, dtype=np.float64)
    shape = np.broadcast_shapes(t.shape + (1,), z.shape[:-1] + (1, z.shape[-1]))
    a = np.multiply(t[..., :, None], z[..., None, :], out=_buffer(work, "grid", shape))
    return _logsumexp(a) - math.log(z.shape[-1]) - d * t


def grid_min(rep_z: np.ndarray, d: np.ndarray, grid: np.ndarray,
             work=None) -> tuple[np.ndarray, np.ndarray]:
    """For each sample b of a block, the first index of the minimum over the
    grid of max_j log Y(t) of rep_z[b, j] at margin d[b], and that minimum,
    by discrete ternary search (the function is convex in t); rep_z has
    shape (B, l, n) and d shape (B,).

    The first step evaluates the last two points, T-2 and T-1: where
    f(T-2) > f(T-1), convexity makes T-1 the first minimizer and the search
    ends there (a bound still falling at the top of the grid, as it does for
    samples that no draw moves). Otherwise, if f(m1) <= f(m2) then every point
    past m2 is at least f(m1) and the first minimizer is at or before m2;
    otherwise every point up to m1 is above f(m2). The last (at most three)
    points are scanned. The samples step in lockstep: each step evaluates
    every sample's new points in one log_y_grid call (into `work`, see
    log_y_grid), and each point of a sample is evaluated once; a point's
    value has the same bits whatever else is in the call.
    """
    rep_z = np.asarray(rep_z, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    count = len(d)
    known: list[dict[int, float]] = [{} for _ in range(count)]

    def at(rows, points):
        """f at points[k] of sample rows[k], for every k."""
        todo = [[i for i in dict.fromkeys(pts) if i not in known[r]]
                for r, pts in zip(rows, points)]
        need = [k for k, pts in enumerate(todo) if pts]
        if need:
            width = max(len(todo[k]) for k in need)
            # pad each sample's points to one width by repeating its last one
            idx = [todo[k] + todo[k][-1:] * (width - len(todo[k])) for k in need]
            sel = [rows[k] for k in need]
            z = rep_z if len(sel) == count else rep_z[sel]
            vals = log_y_grid(z, d[sel, None, None], grid[idx][:, None, :], work)
            for k, v in zip(need, vals.max(axis=1).tolist()):
                known[rows[k]].update(zip(todo[k], v))
        return [[known[r][i] for i in pts] for r, pts in zip(rows, points)]

    last = len(grid) - 1
    lo, hi = [0] * count, [last] * count
    if last > 0:
        for b, (f2, f1) in enumerate(at(range(count), [(last - 1, last)] * count)):
            if f2 > f1:
                lo[b] = last
    while True:
        rows = [b for b in range(count) if hi[b] - lo[b] > 2]
        if not rows:
            break
        mids = []
        for b in rows:
            third = (hi[b] - lo[b]) // 3
            mids.append((lo[b] + third, hi[b] - third))
        for b, (m1, m2), (f1, f2) in zip(rows, mids, at(rows, mids)):
            if f1 <= f2:
                hi[b] = m2
            else:
                lo[b] = m1 + 1
    tails = at(range(count), [range(lo[b], hi[b] + 1) for b in range(count)])
    firsts = [int(np.argmin(tail)) for tail in tails]
    return (np.array([lo[b] + k for b, k in enumerate(firsts)], dtype=np.int64),
            np.array([tail[k] for tail, k in zip(tails, firsts)]))


@dataclass
class SampleCert:
    sample_id: int
    label: int
    predicted: int
    margin: float
    eps_hat: float
    best_t: float
    certified: bool
    rep_z_max: np.ndarray  # (l,) largest discrepancy of each repetition


@dataclass
class PcaResult:
    fraction: float
    rows: list[SampleCert]
    paley: float
    # sample counts: a minimum at an end of the temperature grid means the
    # range was too narrow for that sample; eps_hat_zero bounds underflowed
    best_t_at_t_lo: int
    best_t_at_t_hi: int
    eps_hat_zero: int
    # natural log of the grid-minimum bound (before eps_hat's clamp to
    # [0, 1]) over the samples with a nonzero margin; nan if there are none
    log_eps_hat_min: float
    log_eps_hat_median: float
    log_eps_hat_max: float
    # how the transformed inputs' first layer ran: "closed_form" or "stacked"
    first_layer: str


def pca(deployed: MaskableModel, x_eval, y_eval, spec: TransformSpec,
        cfg: ExperimentConfig) -> PcaResult:
    """Certified fraction of one deployed model over an evaluation set, with
    the full per-sample table: pca_models on a list of one."""
    return pca_models([deployed], x_eval, y_eval, spec, cfg)[0]


def pca_models(deployed: list[MaskableModel], x_eval, y_eval, spec: TransformSpec,
               cfg: ExperimentConfig) -> list[PcaResult]:
    """Certified fraction of each deployed model (its hard mask already
    folded into the weights, MaskableModel.folded) over one evaluation set,
    with the full per-sample table, in the order of `deployed`. The models
    must share their layer specs. Sample i is certified <=> its clean
    prediction is correct and its flip-probability bound is at or below the
    error bound cert_error_bound; a zero margin is trivially uncertifiable
    (eps_hat = 1, best_t = nan), not an error.

    Sample i draws from a stream derived as (seed, namespace, i), so every
    model, in this call or another, sees identical transform draws; they are
    drawn once per call for all models. The k models run as one stack, each
    layer's weights as (k, 1, out, in), in one loop over grid-search blocks
    of samples: a block's clean predictions come from masked_forward on its
    (B, 1, d) stack; each of its samples' l·n transformed inputs go through
    stacked forwards of whole repetitions; and its samples, every model's
    rows of them, share each grid-search step. The clean forward keeps its
    arrays in one work dict and the rest in another (model._buffer), so each
    is allocated once per call. On the stacked path every forward, transform
    and bound has the bits of a per-model, per-sample, per-repetition
    evaluation: stacked matmul runs one GEMM per trailing 2-D block.

    When spec is interp_corrupt and every x_eval entry lies in [0, 1], the
    clip of the transform does nothing and the transformed inputs' first
    layer is computed in closed form instead (module docstring): from the
    same delta draws, each input's pre-activation is a + delta g, a being
    the block's clean forward's zs[0]. The clean predictions and margins
    keep their bits; each Z is within rounding of the stacked path's (held
    to 1e-12 by the tests), so log eps_hat is within cert_t_hi times that.
    Any other input takes the stacked path.

    Labels must be class indices of the models, integral and in
    [0, classes), in any numeric dtype; else ValueError.
    """
    x_eval = np.asarray(x_eval, dtype=np.float64)
    y_eval = np.asarray(y_eval)
    if len(x_eval) == 0:
        raise ValueError("pca: empty evaluation set")
    if y_eval.shape != (len(x_eval),):
        raise ValueError(f"pca: expected one label per sample ({len(x_eval)}), "
                         f"got labels of shape {y_eval.shape}")
    if not deployed:
        raise ValueError("pca: no models to certify")
    specs = deployed[0].specs
    if any(model.specs != specs for model in deployed[1:]):
        raise ValueError("pca: the models to certify differ in their layer specs")
    classes = specs[-1].out_dim
    with np.errstate(invalid="ignore"):  # inf % 1 is nan: an infinite label is bad
        bad = (np.ones(len(y_eval), dtype=bool) if y_eval.dtype.kind not in "iuf"
               else ~((y_eval >= 0) & (y_eval < classes) & (y_eval % 1 == 0)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"pca: label {y_eval[i].item()!r} of sample {i} is not a class index "
                         f"in [0, {classes})")
    k, m, l, n = len(deployed), len(x_eval), cfg.cert_repetitions, cfg.cert_samples
    grid = t_grid(cfg)
    weights = [np.stack(ws)[:, None] for ws in zip(*(model.weights for model in deployed))]
    biases = [np.stack(bs)[:, None, None] for bs in zip(*(model.biases for model in deployed))]
    # the one check: interp_corrupt keeps [0, 1] inputs in [0, 1], unclipped
    closed = spec.kind == "interp_corrupt" and bool(((x_eval >= 0.0) & (x_eval <= 1.0)).all())

    # `reps` repetitions of every model's forward at a time, grid-search
    # blocks of `block` samples of every model
    widest = max(specs[0].in_dim, *(s.out_dim for s in specs))
    reps = min(l, max(1, STACK_FLOATS // (k * n * widest)))
    block = min(m, max(1, GRID_FLOATS // (3 * k * l * n)))
    # the clean forward has a dict of its own: the closed path's layers 1..
    # write ("h", 0) of `work`, which holds zs[0] where layer 0 has no relu
    work, clean_work = {}, {}
    rep_z = np.empty((block, k, l, n))
    rows = [[] for _ in deployed]
    log_bounds = [[] for _ in deployed]
    for start in range(0, m, block):
        ids = range(start, min(start + block, m))
        hs, zs = masked_forward(x_eval[start:ids.stop, None], weights, biases, specs, clean_work)
        # not in place: on one layer hs[-1] is zs[0], the closed path's a
        p_clean = softmax(hs[-1])[:, :, 0]
        if not np.isfinite(p_clean).all():
            raise FloatingPointError("forward: non-finite output probabilities")
        for b, i in enumerate(ids):
            rng = np.random.default_rng([cfg.seed, STREAM_CERT_SAMPLE, i])
            if closed:  # every model's first-layer slope in delta, W(c(x) - x)
                g = np.matmul(weights[0][:, 0], corrupt_input(spec.corrupt, x_eval[i]) - x_eval[i])
            for j in range(0, l, reps):
                r = min(reps, l - j)
                delta = rng.uniform(*spec.delta_range, size=(r, n))
                if closed:  # relu(a + delta g), then layers 1..
                    h = np.multiply(delta[:, :, None], g[:, None, None],
                                    out=_buffer(work, "a", (k, r, n, g.shape[-1])))
                    h += zs[0][:, b, None]
                    if specs[0].activation == "relu":
                        np.maximum(h, 0.0, out=h)
                    pt = forward_probs(h, weights[1:], biases[1:], specs[1:], work)
                else:
                    shape = (r, n, specs[0].in_dim)
                    pt = forward_probs(apply(spec, x_eval[i], delta[:, :, None],
                                             out=_buffer(work, "xt", shape),
                                             work=_buffer(work, "dt", shape)),
                                       weights, biases, specs, work)
                # each model's sup-norm discrepancies to its clean probabilities
                pt -= p_clean[:, b, None, None]
                np.abs(pt, out=pt)
                pt.max(axis=-1, out=rep_z[b, :, j:j + r])
        d = clean_margin(p_clean).T
        # a zero-margin sample is searched too, but its result is not used
        best, log_min = grid_min(rep_z[:len(ids)].reshape(-1, l, n), d.ravel(), grid, work)
        best, log_min = best.reshape(d.shape), log_min.reshape(d.shape)
        for b, i in enumerate(ids):
            for q in range(k):
                eps_hat, best_t = 1.0, float("nan")
                if d[b, q] > 0.0:
                    log_bounds[q].append(float(log_min[b, q]))
                    eps_hat = min(1.0, float(np.exp(log_min[b, q])))
                    best_t = float(grid[best[b, q]])
                predicted = int(np.argmax(p_clean[q, b]))
                rows[q].append(SampleCert(
                    sample_id=i, label=int(y_eval[i]), predicted=predicted,
                    margin=float(d[b, q]), eps_hat=eps_hat, best_t=best_t,
                    certified=predicted == int(y_eval[i]) and eps_hat <= cfg.cert_error_bound,
                    rep_z_max=rep_z[b, q].max(axis=1)))
    first_layer = "closed_form" if closed else "stacked"
    return [_pca_result(r, logs, grid, cfg, first_layer) for r, logs in zip(rows, log_bounds)]


def _pca_result(rows: list[SampleCert], log_bounds: list[float], grid: np.ndarray,
                cfg: ExperimentConfig, first_layer: str) -> PcaResult:
    """One model's PcaResult from its rows and the logs of its nonzero-margin
    bounds."""
    frac = float(np.mean([r.certified for r in rows]))
    best_t = np.array([r.best_t for r in rows])
    # the median by hand: np.median imports numpy.ma (about 14 ms, 0.7 MB)
    logs = sorted(log_bounds) or [math.nan]
    half = len(logs) // 2
    return PcaResult(fraction=frac, rows=rows, paley=paley_confidence(cfg),
                     best_t_at_t_lo=int(np.sum(best_t == grid[0])),
                     best_t_at_t_hi=int(np.sum(best_t == grid[-1])),
                     eps_hat_zero=sum(r.eps_hat == 0.0 for r in rows),
                     log_eps_hat_min=logs[0],
                     log_eps_hat_median=(logs[half] + logs[~half]) / 2,
                     log_eps_hat_max=logs[-1], first_layer=first_layer)


def paley_confidence(cfg: ExperimentConfig) -> float:
    """Closed-form bound on the probability that the max-of-l estimator still
    underestimates: (1 / (1 + n (1-alpha)^2 / C_v^2))^l, with n, l, alpha
    and C_v the cert_samples, cert_repetitions, cert_alpha and cert_cv.

    Evaluated in exact rational arithmetic from the decimal forms of the
    inputs with a single rounding at the end, so e.g. alpha = 0.9, n = 100,
    l = 10, C_v = 1 gives exactly 2**-10.
    """
    cv = Fraction(str(cfg.cert_cv))
    alpha = Fraction(str(cfg.cert_alpha))
    n = cfg.cert_samples
    val = (Fraction(1) / (1 + n * (1 - alpha) ** 2 / cv ** 2)) ** cfg.cert_repetitions
    return float(val)
