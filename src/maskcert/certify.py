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

The clean prediction of a sample is computed once and shared by its margin,
its pass decision and every repetition's discrepancies. The pass decision
uses max{Y} itself. The alpha-scaled value max{Y}/alpha, which enters the
underestimation-confidence bound, is kept on each SampleCert for callers;
the report files do not carry it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import MaskableModel
from .transforms import TransformSpec, sample_set

CERT_SAMPLE_STREAM = 77  # rng namespace for per-sample certification streams


@dataclass(frozen=True)
class CertConfig:
    samples_per_rep: int = 100   # n
    repetitions: int = 10        # l
    alpha: float = 0.9
    error_bound: float = 1e-3
    t_count: int = 500
    t_lo: float = 1e-4
    t_hi: float = 1e4
    eval_size: int = 100         # m
    c_v: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_rep < 1 or self.repetitions < 1:
            raise ValueError("samples_per_rep and repetitions must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.error_bound < 1.0:
            raise ValueError(f"error_bound must be in (0, 1), got {self.error_bound}")
        if not self.t_lo < self.t_hi:
            raise ValueError("temperature grid needs t_lo < t_hi")
        if self.t_count < 2:
            raise ValueError("temperature grid needs at least 2 points")
        if self.eval_size < 1:
            raise ValueError("eval_size must be >= 1")
        if self.c_v <= 0:
            raise ValueError("c_v must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def t_grid(self) -> np.ndarray:
        return np.logspace(math.log10(self.t_lo), math.log10(self.t_hi), self.t_count)


def clean_margin(p: np.ndarray) -> float:
    """(p_(1) - p_(2)) / 2 of one probability vector."""
    p = np.asarray(p)
    if p.ndim != 1 or p.size < 2:
        raise ValueError(f"margin needs at least 2 class probabilities, got shape {p.shape}")
    top2 = np.sort(p)[-2:]
    return float((top2[1] - top2[0]) / 2.0)


def z_samples(model: MaskableModel, multipliers, x: np.ndarray, p: np.ndarray,
              spec: TransformSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sup-norm prediction discrepancies between the clean probabilities p
    of x and n fresh transformed inputs."""
    x = np.asarray(x, dtype=np.float64)
    xt = sample_set(spec, x, n, rng)
    pt = model.forward(xt, multipliers)
    return np.abs(pt - p).max(axis=1)


def _logsumexp(a: np.ndarray, axis=-1) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def log_y(z: np.ndarray, d: float, t: float) -> float:
    """log of (1/(n e^{dt})) sum_i e^{Z_i t}, overflow-free for t up to 1e4."""
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    if d < 0:
        raise ValueError(f"margin must be non-negative, got {d}")
    z = np.asarray(z, dtype=np.float64)
    return float(_logsumexp(z * t) - math.log(z.size) - d * t)


def log_y_grid(z: np.ndarray, d: float, t_grid: np.ndarray) -> np.ndarray:
    """Vectorized log_y across k temperatures: z of shape (n,) gives (k,);
    z of shape (l, n) gives (l, k), row j equal to the call on z[j]."""
    z = np.asarray(z, dtype=np.float64)
    t = np.asarray(t_grid, dtype=np.float64)
    return _logsumexp(t[:, None] * z[..., None, :]) - math.log(z.shape[-1]) - d * t


def grid_min(rep_z: np.ndarray, d: float, grid: np.ndarray) -> tuple[int, float]:
    """First index of the minimum over the grid of max_j log_y(rep_z[j], d, t),
    and that minimum, by discrete ternary search (the function is convex in t).

    If f(m1) <= f(m2) then every point past m2 is at least f(m1) and the first
    minimizer is at or before m2; otherwise every point up to m1 is above f(m2).
    The last (at most three) points are scanned. Each point is evaluated once.
    """
    known: dict[int, float] = {}

    def at(idx):
        todo = [i for i in idx if i not in known]
        if todo:
            known.update(zip(todo, np.max(log_y_grid(rep_z, d, grid[todo]), axis=0)))
        return [known[i] for i in idx]

    lo, hi = 0, len(grid) - 1
    while hi - lo > 2:
        third = (hi - lo) // 3
        m1, m2 = lo + third, hi - third
        f1, f2 = at((m1, m2))
        if f1 <= f2:
            hi = m2
        else:
            lo = m1 + 1
    tail = at(range(lo, hi + 1))
    k = int(np.argmin(tail))
    return lo + k, float(tail[k])


@dataclass
class BoundResult:
    margin: float
    eps_hat: float
    eps_hat_alpha: float
    best_t: float
    rep_z: np.ndarray  # (l, n) raw discrepancies per repetition


def bound_estimate(model: MaskableModel, multipliers, x, p: np.ndarray,
                   spec: TransformSpec, config: CertConfig,
                   rng: np.random.Generator) -> BoundResult:
    """Flip-probability bound for one sample with clean probabilities p.

    Fresh transforms per repetition; per temperature the max over repetition
    estimates, then the min over the grid, clamped to [0, 1]. A zero margin
    is trivially uncertifiable (eps_hat = 1), not an error.
    """
    x = np.asarray(x, dtype=np.float64)
    d = clean_margin(p)
    rep_z = np.stack([
        z_samples(model, multipliers, x, p, spec, config.samples_per_rep, rng)
        for _ in range(config.repetitions)])
    if d == 0.0:
        return BoundResult(d, 1.0, 1.0, float("nan"), rep_z)
    grid = config.t_grid()
    best, log_min = grid_min(rep_z, d, grid)
    eps_hat = min(1.0, float(np.exp(log_min)))
    eps_alpha = min(1.0, float(np.exp(log_min)) / config.alpha)
    return BoundResult(d, eps_hat, eps_alpha, float(grid[best]), rep_z)


@dataclass
class SampleCert:
    sample_id: int
    label: int
    predicted: int
    margin: float
    eps_hat: float
    eps_hat_alpha: float
    best_t: float
    certified: bool
    rep_z_mean: np.ndarray
    rep_z_max: np.ndarray

    @property
    def correct_on_clean(self) -> bool:
        return self.predicted == self.label


def certify_sample(model: MaskableModel, multipliers, x, y: int, spec: TransformSpec,
                   config: CertConfig, rng: np.random.Generator,
                   sample_id: int = 0) -> SampleCert:
    """certified <=> the clean prediction is correct and the flip-probability
    bound is at or below the configured error bound."""
    x = np.asarray(x, dtype=np.float64)
    p = model.forward(x[None, :], multipliers)[0]
    predicted = int(np.argmax(p))
    res = bound_estimate(model, multipliers, x, p, spec, config, rng)
    certified = (predicted == int(y)) and (res.eps_hat <= config.error_bound)
    return SampleCert(
        sample_id=sample_id,
        label=int(y),
        predicted=predicted,
        margin=res.margin,
        eps_hat=res.eps_hat,
        eps_hat_alpha=res.eps_hat_alpha,
        best_t=res.best_t,
        certified=certified,
        rep_z_mean=res.rep_z.mean(axis=1),
        rep_z_max=res.rep_z.max(axis=1),
    )


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


def pca(model: MaskableModel, multipliers, x_eval, y_eval, spec: TransformSpec,
        config: CertConfig) -> PcaResult:
    """Certified fraction over an evaluation set, with the full per-sample
    table. Sample i draws from a stream derived as (seed, namespace, i), so
    different models certified against the same config see identical
    transform draws. The multipliers are folded into the weights once
    (MaskableModel.folded), which gives bit-identical forwards."""
    x_eval = np.asarray(x_eval, dtype=np.float64)
    y_eval = np.asarray(y_eval)
    if len(x_eval) == 0:
        raise ValueError("pca: empty evaluation set")
    deployed = model.folded(multipliers)
    rows = []
    for i in range(len(x_eval)):
        rng = np.random.default_rng([config.seed, CERT_SAMPLE_STREAM, i])
        rows.append(certify_sample(deployed, None, x_eval[i], y_eval[i],
                                   spec, config, rng, sample_id=i))
    frac = float(np.mean([r.certified for r in rows]))
    grid = config.t_grid()
    best_t = np.array([r.best_t for r in rows])
    return PcaResult(fraction=frac, rows=rows, paley=paley_confidence(config),
                     best_t_at_t_lo=int(np.sum(best_t == grid[0])),
                     best_t_at_t_hi=int(np.sum(best_t == grid[-1])),
                     eps_hat_zero=sum(r.eps_hat == 0.0 for r in rows))


def paley_confidence(config: CertConfig, c_v: float | None = None) -> float:
    """Closed-form bound on the probability that the max-of-l estimator still
    underestimates: (1 / (1 + n (1-alpha)^2 / C_v^2))^l.

    Evaluated in exact rational arithmetic from the decimal forms of the
    inputs with a single rounding at the end, so e.g. alpha = 0.9, n = 100,
    l = 10, C_v = 1 gives exactly 2**-10.
    """
    cv = Fraction(str(config.c_v if c_v is None else c_v))
    if cv <= 0:
        raise ValueError("c_v must be positive")
    alpha = Fraction(str(config.alpha))
    n = config.samples_per_rep
    val = (Fraction(1) / (1 + n * (1 - alpha) ** 2 / cv ** 2)) ** config.repetitions
    return float(val)
