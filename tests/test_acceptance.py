"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 compares the end-to-end experiment outputs with a recorded
fixture bit-exactly; a missing fixture is a failure (tests/regen_fixtures.py
records it).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from maskcert import autodiff as ad
from maskcert.certify import log_y_grid, paley_confidence, pca, t_grid
from maskcert.cli import EXIT_OK, main
from maskcert.config import ExperimentConfig, parse_config
from maskcert.masks import (binarize, effective_ratio, hard_multipliers,
                            init_percentile_scaled)
from maskcert.model import LayerSpec, MaskableModel, mlp_specs
from maskcert.objectives import composite_step_loss
from maskcert.pipeline import run_experiment
from maskcert.transforms import TransformSpec
from regen_fixtures import (DEFAULT_CONFIG, DEFAULT_FIXTURE as FIXTURE,
                            REGEN_HINT, default_experiment_record,
                            small_run_config_text)
from util import (PRIMITIVE_CASES, TERM_CASES, composite_fd, log_y, make_cfg,
                  noisy_mask_values, run_primitive_fd_suite, triangle_bound_check)

# The seeds whose composite instance clears every kink by 1e-3, pinned so
# that a change to the draws or to the kink margin cannot silently change
# which instances criterion 1 checks.
ADMITTED_SEEDS = [2, 5, 7, 8, 9, 11, 14, 16, 20, 22, 27, 28, 32, 34, 36, 41, 42, 43, 45, 55]


def criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} - {description}"
          + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"criterion {number} failed: {description} {detail}"


def budget(number, seconds, limit):
    assert seconds < limit, f"criterion {number} exceeded its {limit}s budget: {seconds:.1f}s"


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    covered = (set(PRIMITIVE_CASES) == set(ad._OPS) == {"softmax"}
               and set(TERM_CASES) == {"masked_mlp", "stability", "ratio_penalty",
                                       "consistency", "l1_mean", "noisy", "cross_entropy"})
    worst = run_primitive_fd_suite(instances_per_case=20)

    # full composite objective on a 2-layer toy model; instances are admitted
    # only when clear of every kink by construction
    cfg = make_cfg()
    admitted = []
    seed = 0
    while len(admitted) < 20 and seed < 200:
        seed += 1
        rng = np.random.default_rng([7, seed])
        model = MaskableModel.initialized(mlp_specs(5, [6], 3), "unstructured",
                                          np.random.default_rng([8, seed]))
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        x = rng.standard_normal((4, 5))
        x_t = x + 0.3 * rng.standard_normal((4, 5))
        res = composite_step_loss(model, soft, x, x_t, cfg, np.random.default_rng([9, seed]))
        err = composite_fd(model, soft, x, x_t, cfg, [9, seed], res)
        if err is None:
            continue
        worst = max(worst, err)
        admitted.append(seed)
    elapsed = time.perf_counter() - start
    budget(1, elapsed, 30.0)
    criterion(1, "all kinds, loss terms and the composite objective match finite "
                 "differences at 1e-4", covered and admitted == ADMITTED_SEEDS and worst < 1e-4,
              f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_variance_identity():
    start = time.perf_counter()
    model = MaskableModel.initialized(mlp_specs(6, [10], 3), "unstructured",
                                      np.random.default_rng(42))
    soft = init_percentile_scaled(model, 30.0)
    x = np.random.default_rng(43).standard_normal((1, 6))
    mu = 0.5
    rng = np.random.default_rng(44)

    def probs():
        vals = noisy_mask_values(soft, mu, rng)
        return model.folded(hard_multipliers(model, vals)).forward(x)[0]

    n = 10_000
    p_a = np.stack([probs() for _ in range(n)])
    p_b = np.stack([probs() for _ in range(n)])
    p_ref = np.stack([probs() for _ in range(n)])  # disjoint set for the mean
    lhs = ((p_a - p_b) ** 2).sum(axis=1).mean()
    p_bar = p_ref.mean(axis=0)
    # centered side estimated over the same draws as the pair side, so the
    # per-draw squared-norm fluctuations cancel in the comparison
    rhs = (((p_a - p_bar) ** 2).sum(axis=1).mean()
           + ((p_b - p_bar) ** 2).sum(axis=1).mean())
    rel = abs(lhs - rhs) / rhs
    elapsed = time.perf_counter() - start
    budget(2, elapsed, 60.0)
    criterion(2, "pair distance equals twice the centered variance within 2%",
              rel < 0.02, f"lhs={lhs:.5e} rhs={rhs:.5e} rel={rel:.3%}, {elapsed:.1f}s")


def test_criterion_3_triangle_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    archs = [(4, [5], 2), (6, [8], 3), (5, [4, 4], 3)]
    worst_slack = -np.inf
    eq_err = 0.0
    for i in range(1000):
        in_dim, hidden, k = archs[i % len(archs)]
        model = MaskableModel.initialized(mlp_specs(in_dim, hidden, k),
                                          "unstructured", np.random.default_rng([56, i]))
        soft = [rng.uniform(0.2, 1.0, size=n) for n in model.mask_dims()]
        x = rng.standard_normal(in_dim)
        x_t = x + rng.uniform(0, 1) * rng.standard_normal(in_dim) * 0.5
        mu = (0.0, 0.3, 0.7)[i % 3]
        res = triangle_bound_check(model, soft, x, x_t, mu,
                                   np.random.default_rng([57, i]),
                                   draws=(2, 8, 16)[i % 3])
        worst_slack = max(worst_slack, res.z_c - res.bound)
        if mu == 0.0:
            eq_err = max(eq_err, abs(res.z_c - res.bound))
    elapsed = time.perf_counter() - start
    budget(3, elapsed, 60.0)
    criterion(3, "Z_C <= A+B+C on 1000 random tuples, equality at mu=0",
              worst_slack <= 1e-9 and eq_err < 1e-12,
              f"max(Z-bound)={worst_slack:.2e}, mu=0 gap={eq_err:.2e}, {elapsed:.1f}s")


def test_criterion_4_label_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    total = 100_000
    k = 6
    p = rng.dirichlet(np.ones(k), size=total)
    s = np.sort(p, axis=1)
    d = (s[:, -1] - s[:, -2]) / 2.0
    keep = d > 0
    p, d = p[keep], d[keep]
    noise = rng.uniform(-1.0, 1.0, size=p.shape)
    p_t = p + noise * (d * (1.0 - 1e-9))[:, None]
    assert np.all(np.abs(p_t - p).max(axis=1) < d)
    preserved = np.argmax(p_t, axis=1) == np.argmax(p, axis=1)
    elapsed = time.perf_counter() - start
    budget(4, elapsed, 10.0)
    criterion(4, "argmax preserved whenever the sup-norm gap is below the margin",
              bool(np.all(preserved)),
              f"{preserved.sum()}/{len(preserved)} preserved, {elapsed:.1f}s")


def test_criterion_5_chernoff_soundness():
    start = time.perf_counter()
    grid = t_grid(make_cfg())
    cases = [
        (np.array([0.0, 0.0, 0.0, 0.5]), 0.4),
        (np.array([0.1, 0.2, 0.3, 0.4, 0.5]), 0.35),
        (np.array([0.0, 1.0]), 0.9),
        (np.array([0.25] * 3 + [0.75]), 0.5),
        (np.array([0.05, 0.05, 0.6, 0.6, 0.6]), 0.6),
    ]
    sound = True
    for atoms, d in cases:
        tail = float(np.mean(atoms >= d))
        logs = log_y_grid(atoms, d, grid)
        sound &= bool(np.all(logs >= math.log(tail) - 1e-12))

    # log-space evaluation agrees with the direct formula at small t
    rng = np.random.default_rng(77)
    parity = 0.0
    for _ in range(200):
        z = rng.uniform(0, 1, size=int(rng.integers(2, 40)))
        d = rng.uniform(0, 0.5)
        t = rng.uniform(1e-4, 10.0)
        direct = math.log(np.exp(z * t).sum() / (len(z) * math.exp(d * t)))
        parity = max(parity, abs(log_y(z, d, t) - direct))

    z_hot = np.linspace(0.5, 1.0, 5)
    with np.errstate(over="ignore"):
        overflow = np.isinf(np.exp(z_hot * 1e4).sum())
    finite = np.isfinite(log_y(z_hot, 0.2, 1e4))
    elapsed = time.perf_counter() - start
    budget(5, elapsed, 10.0)
    criterion(5, "exponential-moment bound dominates exact tails; log form is "
                 "exact at small t and finite at t=1e4",
              sound and parity < 1e-12 and overflow and finite,
              f"parity={parity:.2e}, {elapsed:.1f}s")


def test_criterion_6_paley_value():
    start = time.perf_counter()
    cfg = make_cfg(cert_samples=100, cert_repetitions=10, cert_alpha=0.9, cert_cv=1.0)
    value = paley_confidence(cfg)
    rel = abs(value - 2.0 ** -10) / 2.0 ** -10
    elapsed = time.perf_counter() - start
    budget(6, elapsed, 1.0)
    criterion(6, "underestimation bound equals 2^-10 at the documented settings",
              rel <= 1e-15, f"value={value!r}, rel={rel:.2e}")


def test_criterion_7_mask_machinery():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    archs = [(16, [64, 64], 2), (9, [11, 7], 4), (6, [8], 3)]
    ok = True
    for in_dim, hidden, k in archs:
        model = MaskableModel.initialized(mlp_specs(in_dim, hidden, k),
                                          "unstructured", rng)
        dims = model.mask_dims()
        soft = [rng.uniform(size=n) for n in dims]
        for pr in (0.0, 0.3, 0.5, 0.7, 0.9):
            hard = binarize(soft, pr)
            for vec, n in zip(hard, dims):
                expect = math.ceil((1 - Fraction(str(pr))) * n)
                ok &= int(vec.sum()) == expect
            ratio = effective_ratio(hard, model)
            slack = 1.0 / min(dims)
            ok &= pr - slack <= ratio <= pr + slack
        for tau in (10.0, 20.0, 30.0, 40.0):
            for c, n in zip(init_percentile_scaled(model, tau), dims):
                ok &= int(np.count_nonzero(c == 1.0)) == math.ceil(Fraction(str(tau)) / 100 * n)
    elapsed = time.perf_counter() - start
    budget(7, elapsed, 5.0)
    criterion(7, "binarize keep counts, realized ratios, and percentile-init "
                 "ceiling counts are exact", ok, f"{elapsed:.1f}s")


def test_criterion_8_end_to_end_default_experiment():
    start = time.perf_counter()
    cfg = parse_config(DEFAULT_CONFIG)
    assert cfg == ExperimentConfig(), "shipped default config must equal the built-in defaults"
    out = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    rows = out.results
    directional = rows["csam"].cert.fraction >= rows["lmp"].cert.fraction
    acc_close = rows["csam"].clean_accuracy >= rows["vanilla"].clean_accuracy - 0.05

    if not FIXTURE.exists():
        raise AssertionError(f"criterion 8: missing fixture {FIXTURE}; regenerate it "
                             f"with `{REGEN_HINT} default_experiment`")
    frozen = json.loads(FIXTURE.read_text())
    fixture_ok = frozen == default_experiment_record(out, cfg)

    criterion(8, "default experiment meets the directional contract and "
                 "reproduces the recorded fixtures bit-exactly",
              directional and acc_close and elapsed < 600.0 and fixture_ok,
              f"lmp pca={rows['lmp'].cert.fraction} csam pca={rows['csam'].cert.fraction} "
              f"acc gap={rows['vanilla'].clean_accuracy - rows['csam'].clean_accuracy:+.3f}, "
              f"{elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(small_run_config_text(), encoding="utf-8")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run-all", "--config", str(cfg_path), "--out", str(out1)]) == EXIT_OK
    assert main(["run-all", "--config", str(cfg_path), "--out", str(out2)]) == EXIT_OK
    names = ["summary.csv", "stage1_log.csv", "stage2_log.csv",
             "stage3_log_csam.csv", "stage3_log_lmp.csv",
             "cert_report_vanilla.csv", "cert_report_lmp.csv",
             "cert_report_csam.csv"]
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    criterion(9, "re-running a command reproduces byte-identical CSV bodies",
              identical, f"{len(names)} files compared")


def test_criterion_10_certification_anchors():
    start = time.perf_counter()
    cfg = make_cfg(seed=5)
    v = np.zeros(4)
    v[1] = 1.0
    spec = TransformSpec(kind="direction_shift", direction=v)
    rng = np.random.default_rng(99)
    x_eval = rng.standard_normal((25, 4))

    # constant classifier, evaluated on the subset labeled with its output
    constant = MaskableModel([LayerSpec(4, 2, "none")], [np.zeros((2, 4))],
                             [np.array([2.0, 0.0])], "unstructured")
    res_const = pca(constant, x_eval, np.zeros(25, dtype=int), spec, cfg)

    # classifier whose argmax flips for any positive shift along v
    scale, gap = 50.0, 1e-9
    w = np.zeros((2, 4))
    w[0, 1] = scale
    w[1, 1] = -scale
    flipper = MaskableModel([LayerSpec(4, 2, "none")], [w],
                            [np.array([-scale * gap, scale * gap])], "unstructured")
    x_flat = x_eval.copy()
    x_flat[:, 1] = 0.0  # clean inputs sit exactly on the flip threshold side
    res_flip = pca(flipper, x_flat, np.ones(25, dtype=int), spec, cfg)
    all_flipped = all(np.all(r.rep_z_max >= r.margin) for r in res_flip.rows)

    elapsed = time.perf_counter() - start
    budget(10, elapsed, 30.0)
    criterion(10, "constant-correct classifier certifies everywhere; "
                  "always-flipping classifier certifies nowhere",
              res_const.fraction == 1.0 and res_flip.fraction == 0.0 and all_flipped,
              f"const={res_const.fraction} flip={res_flip.fraction}, {elapsed:.1f}s")
