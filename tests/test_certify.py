import math

import numpy as np
import pytest

from maskcert import certify
from maskcert.certify import (clean_margin, grid_min, log_y_grid, paley_confidence, pca,
                              pca_models, t_grid)
from maskcert.config import ExperimentConfig
from maskcert.masks import binarize, hard_multipliers
from maskcert.model import LayerSpec, MaskableModel, masked_forward, mlp_specs, softmax
from maskcert.transforms import CorruptionTag, TransformSpec, apply
from util import fold, log_y, make_cfg


def constant_model(bias=(2.0, 0.0), in_dim=4):
    """Zero weights: output distribution is softmax(bias) regardless of input."""
    k = len(bias)
    return MaskableModel([LayerSpec(in_dim, k, "none")],
                         [np.zeros((k, in_dim))], [np.asarray(bias, dtype=float)],
                         "unstructured")


def direction_spec(n=4, axis=1):
    v = np.zeros(n)
    v[axis] = 1.0
    return TransformSpec(kind="direction_shift", direction=v)


def flipping_model(in_dim=4, axis=1, scale=50.0, gap=1e-9):
    """Class 1 on clean inputs with x[axis] == 0, class 0 after any shift
    delta > gap along the axis."""
    w = np.zeros((2, in_dim))
    w[0, axis] = scale
    w[1, axis] = -scale
    b = np.array([-scale * gap, scale * gap])
    return MaskableModel([LayerSpec(in_dim, 2, "none")], [w], [b], "unstructured")


def clean_probs(model, x):
    return model.forward(np.asarray(x, dtype=float)[None, :])[0]


def small_cfg(**kw):
    return make_cfg(**{"cert_samples": 20, "cert_repetitions": 3, "cert_t_count": 60,
                       "seed": 0, **kw})


def certify_one(model, x, y, spec, cfg):
    """pca's row for a one-sample evaluation set."""
    return pca(model, np.asarray(x, dtype=float)[None, :], [y], spec, cfg).rows[0]


def grid_min_one(rep_z, d, grid):
    """grid_min on a block of one sample, as (index, value)."""
    best, value = grid_min(np.asarray(rep_z)[None], np.array([d]), grid)
    return int(best[0]), float(value[0])


def per_sample_oracle(model, multipliers, x_eval, y_eval, spec, config):
    """The per-sample certification pca replaces: a 1-row clean forward,
    then one forward per repetition of n transformed inputs, `apply` at n
    deltas drawn from the sample's stream, then one grid search per sample,
    every forward multiplying the masks into the weights itself. One dict
    per sample, plus the log of the grid-minimum bound of each sample with a
    nonzero margin."""
    def forward(x):
        ws = model.weights if multipliers is None else fold(multipliers, model.weights)
        return softmax(masked_forward(x, ws, model.biases, model.specs)[0][-1])

    grid = t_grid(config)
    rows, logs = [], []
    for i, (x, y) in enumerate(zip(x_eval, y_eval)):
        rng = np.random.default_rng([config.seed, certify.STREAM_CERT_SAMPLE, i])
        p = forward(x[None, :])[0]
        lo, hi = spec.delta_range
        rep_z = np.stack([
            np.abs(forward(apply(spec, x, rng.uniform(lo, hi, (config.cert_samples, 1))))
                   - p).max(axis=1)
            for _ in range(config.cert_repetitions)])
        d = clean_margin(p)
        eps_hat, best_t = 1.0, math.nan
        if d > 0.0:
            best, log_min = grid_min_one(rep_z, d, grid)
            eps_hat, best_t = min(1.0, float(np.exp(log_min))), float(grid[best])
            logs.append(log_min)
        predicted = int(np.argmax(p))
        rows.append(dict(margin=d, eps_hat=eps_hat, best_t=best_t, predicted=predicted,
                         certified=predicted == int(y) and eps_hat <= config.cert_error_bound,
                         rep_z=rep_z))
    return rows, logs


def assert_rows_equal_oracle(result, oracle):
    """pca rows == the oracle's on every reported field, nan best_t included."""
    rows, logs = oracle
    assert len(result.rows) == len(rows)
    for row, want in zip(result.rows, rows):
        assert (row.margin, row.eps_hat, row.predicted, row.certified) == \
               (want["margin"], want["eps_hat"], want["predicted"], want["certified"])
        assert row.best_t == want["best_t"] or (math.isnan(row.best_t)
                                                and math.isnan(want["best_t"]))
        assert np.array_equal(row.rep_z_max, want["rep_z"].max(axis=1))
    if logs:
        assert (result.log_eps_hat_min, result.log_eps_hat_max) == (min(logs), max(logs))
        assert result.log_eps_hat_median == float(np.median(logs))
    else:
        assert all(math.isnan(v) for v in (result.log_eps_hat_min, result.log_eps_hat_median,
                                           result.log_eps_hat_max))


class TestCleanMargin:
    def test_stack_equals_per_vector_calls(self):
        # a (k, B, K) stack's margins are each vector's own, bit for bit, and
        # a single vector's is half its top-two gap
        rng = np.random.default_rng(12)
        p = softmax(rng.standard_normal((3, 5, 4)))
        p[0, 1, :2] = p[0, 1].max()  # a tie for the top
        d = clean_margin(p)
        assert d.shape == (3, 5) and d[0, 1] == 0.0
        for q in range(3):
            for b in range(5):
                top2 = np.sort(p[q, b])[-2:]
                assert d[q, b] == clean_margin(p[q, b]) == (top2[1] - top2[0]) / 2.0
        assert isinstance(clean_margin(p[0, 0]), float)


class TestLogY:
    def test_zero_z_closed_form(self):
        z = np.zeros(100)
        assert log_y(z, 0.1, 10.0) == -1.0

    def test_constant_z_closed_form(self):
        z = np.full(7, 0.3)
        for t in (0.5, 4.0):
            assert abs(log_y(z, 0.2, t) - (0.3 - 0.2) * t) < 1e-12

    def test_matches_direct_evaluation_small_t(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(0, 1, size=rng.integers(2, 30))
            d = rng.uniform(0, 0.5)
            t = rng.uniform(1e-4, 10.0)
            direct = math.log(np.exp(z * t).sum() / (len(z) * math.exp(d * t)))
            assert abs(log_y(z, d, t) - direct) < 1e-12

    def test_finite_where_direct_overflows(self):
        z = np.linspace(0.5, 1.0, 5)
        with np.errstate(over="ignore"):
            direct = np.exp(z * 1e4).sum()
        assert np.isinf(direct)
        val = log_y(z, 0.2, 1e4)
        assert np.isfinite(val)

    def test_against_arbitrary_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        z = [0.11, 0.37, 0.52, 0.88, 1.0]
        d, t = 0.2, 1e4
        oracle = mp.log(sum(mp.e ** (mp.mpf(zi) * t) for zi in z) / 5) - d * t
        assert abs(log_y(np.array(z), d, t) - float(oracle)) < 1e-9 * abs(float(oracle))

    def test_grid_matches_scalar(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(0, 1, 12)
        grid = t_grid(make_cfg())[::50]
        vals = log_y_grid(z, 0.3, grid)
        for got, t in zip(vals, grid):
            assert abs(got - log_y(z, 0.3, float(t))) < 1e-12

    def test_repetition_rows_equal_per_repetition_calls(self):
        rng = np.random.default_rng(2)
        grid = t_grid(make_cfg())
        for l, n in ((1, 1), (3, 17), (10, 100)):
            rep_z = rng.uniform(0, 1, (l, n))
            batched = log_y_grid(rep_z, 0.2, grid)
            assert batched.shape == (l, len(grid))
            for row, z in zip(batched, rep_z):
                assert np.array_equal(row, log_y_grid(z, 0.2, grid))

    def test_block_rows_equal_per_sample_calls(self):
        rng = np.random.default_rng(4)
        grid = t_grid(make_cfg())
        rep_z = rng.uniform(0, 1, (5, 3, 40))
        d = rng.uniform(0, 0.5, 5)
        idx = rng.integers(0, len(grid), (5, 3))
        t = grid[idx][:, None, :]
        want = np.stack([log_y_grid(z, dd, grid[ix]) for z, dd, ix in zip(rep_z, d, idx)])
        for work in (None, {"grid": np.empty(5 * 3 * 3 * 40 + 7)}):
            assert np.array_equal(log_y_grid(rep_z, d[:, None, None], t, work), want)

    def test_grid_subset_equals_full_grid_columns(self):
        # the search evaluates a few points at a time; each must be the value
        # the whole grid would give there
        rng = np.random.default_rng(3)
        grid = t_grid(make_cfg())
        rep_z = rng.uniform(0, 1, (10, 100))
        full = log_y_grid(rep_z, 0.3, grid)
        for idx in ([0], [166, 333], [497, 498, 499]):
            assert np.array_equal(log_y_grid(rep_z, 0.3, grid[idx]), full[:, idx])

    def test_validation(self):
        with pytest.raises(ValueError, match="temperature"):
            log_y(np.zeros(3), 0.1, 0.0)
        with pytest.raises(ValueError, match="margin"):
            log_y(np.zeros(3), -0.1, 1.0)


class TestZSamples:
    """The per-repetition discrepancies Z, seen through rep_z_max."""

    def test_constant_classifier_all_zero(self):
        row = certify_one(constant_model(), np.zeros(4), 0, direction_spec(),
                          small_cfg(cert_samples=50))
        assert np.array_equal(row.rep_z_max, np.zeros(3))

    def test_collapsed_range_all_zero(self):
        rng = np.random.default_rng(3)
        model = MaskableModel.initialized(mlp_specs(4, [5], 3), "unstructured", rng)
        spec = TransformSpec(kind="direction_shift", direction=direction_spec().direction,
                             delta_range=(0.0, 0.0))
        row = certify_one(model, rng.standard_normal(4), 0, spec, small_cfg())
        assert np.array_equal(row.rep_z_max, np.zeros(3))

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(5)
        model = MaskableModel.initialized(mlp_specs(4, [6], 3), "unstructured", rng)
        row = certify_one(model, rng.standard_normal(4), 0, direction_spec(),
                          small_cfg(cert_samples=40))
        assert np.all((row.rep_z_max >= 0) & (row.rep_z_max <= 1))


class TestBoundEstimate:
    def test_constant_classifier_certifies(self):
        model = constant_model()
        row = certify_one(model, np.zeros(4), 0, direction_spec(), small_cfg())
        d = clean_margin(clean_probs(model, np.zeros(4)))
        # all Z are 0, so the best bound is exp(-d * t_max), which underflows
        assert row.eps_hat <= math.exp(-d * 1e4) * 1.01
        assert row.best_t == pytest.approx(1e4)

    def test_always_flipping_uncertifiable(self):
        model = flipping_model()
        x = np.zeros((1, 4))
        cfg = small_cfg()
        (want,), _ = per_sample_oracle(model, None, x, [1], direction_spec(), cfg)
        assert np.all(want["rep_z"] >= want["margin"])  # every transform flips
        row = pca(model, x, [1], direction_spec(), cfg).rows[0]
        assert row.eps_hat == 1.0

    def test_zero_margin_uncertifiable_not_error(self):
        row = certify_one(constant_model(bias=(0.0, 0.0)), np.zeros(4), 0,
                          direction_spec(), small_cfg())
        assert row.margin == 0.0 and row.eps_hat == 1.0
        assert math.isnan(row.best_t)

    def test_eps_hat_never_exceeds_one(self):
        rng = np.random.default_rng(10)
        for seed in range(5):
            model = MaskableModel.initialized(mlp_specs(4, [5], 2), "unstructured",
                                              np.random.default_rng(seed))
            row = certify_one(model, rng.standard_normal(4), 0, direction_spec(),
                              small_cfg(seed=seed))
            assert 0.0 <= row.eps_hat <= 1.0

    def test_monotone_conservative_in_repetitions(self):
        rng = np.random.default_rng(11)
        grid = t_grid(small_cfg())
        logs = [log_y_grid(rng.uniform(0, 1, 20), 0.3, grid) for _ in range(6)]
        prefix = None
        prev_eps = -np.inf
        for lg in logs:
            prefix = lg if prefix is None else np.maximum(prefix, lg)
            eps = float(np.exp(prefix.min()))
            assert eps >= prev_eps - 1e-15
            prev_eps = eps


def brute_min(rep_z, d, grid):
    """The oracle: every grid point, then the first argmin."""
    f = np.max(log_y_grid(rep_z, d, grid), axis=0)
    best = int(np.argmin(f))
    return best, f[best], f


def eps_of(log_value):
    return min(1.0, float(np.exp(log_value)))


def random_grid(rng):
    if rng.uniform() < 0.5:
        return t_grid(make_cfg())
    return t_grid(make_cfg(cert_t_count=int(rng.integers(2, 601)),
                           cert_t_lo=10 ** rng.uniform(-5, -1),
                           cert_t_hi=10 ** rng.uniform(0, 4)))


def random_rep_z(rng, family, l, n):
    """(rep_z, d) of shape (l, n) for one property-test case of the family."""
    d = float(rng.uniform(1e-6, 0.5))
    if family == "uniform":
        rep_z = rng.uniform(0, 1, (l, n))
    elif family == "rare_flips":  # mean below d, max above: interior minima
        rep_z = rng.uniform(0, 0.05, (l, n))
        flips = rng.uniform(size=(l, n)) < 0.1
        rep_z[flips] = rng.uniform(d, 1, flips.sum())
    elif family == "zero":  # decreasing: minimum at the top of the grid
        rep_z = np.zeros((l, n))
    elif family == "above":  # every transform flips: minimum at the bottom
        rep_z = rng.uniform(d + 1e-3, 1, (l, n))
    elif family == "atoms":  # a few repeated values, d one of them
        atoms = rng.uniform(0, 1, 3)
        rep_z = rng.choice(atoms, (l, n))
        d = float(rng.choice(atoms))
    else:  # "z_equals_d": log Y_j(t) = 0 for every t in exact arithmetic
        rep_z = np.full((l, n), d)
    return rep_z, d


FAMILIES = ("uniform", "rare_flips", "zero", "above", "atoms", "z_equals_d")


def check_against_oracle(rep_z, d, grid, family=""):
    """Search result vs brute-force grid: bitwise equal unless the bound is
    flat up to rounding, and never a different certified decision."""
    best, value = grid_min_one(rep_z, d, grid)
    o_best, o_value, f = brute_min(rep_z, d, grid)
    # every evaluated point equals the whole grid's value there
    assert value == f[best]
    eps, o_eps = eps_of(value), eps_of(o_value)
    if family == "z_equals_d":
        assert abs(eps - o_eps) <= 1e-12
    elif np.any(rep_z.max(axis=1) == d):
        # some repetition's log Y tends to a constant from above, and the tail
        # is flat up to rounding of the cancelled d*t terms
        assert abs(value - o_value) <= 8 * np.spacing(d * grid[-1])
    else:
        assert eps == o_eps and best == o_best
    error_bound = make_cfg().cert_error_bound
    assert (eps <= error_bound) == (o_eps <= error_bound)


def check_block_equals_single(rep_z, d, grid, result=None):
    """A block's search gives each sample the bits of its block of one."""
    best, value = grid_min(rep_z, d, grid) if result is None else result
    for b in range(len(d)):
        assert (int(best[b]), float(value[b])) == grid_min_one(rep_z[b], d[b], grid)


def search_tables(monkeypatch, tables):
    """grid_min over one block whose sample b has f(t_k) = tables[b][k] on
    the grid t_k = k, through a stand-in for log_y_grid. Returns the result
    and each sample's set of evaluated points."""
    tables = np.asarray(tables, dtype=np.float64)
    seen = [set() for _ in tables]

    def fake(z, d, t, work=None):
        ids = z[:, 0, 0].astype(np.int64)
        points = np.asarray(t, dtype=np.int64)  # (B, 1, width)
        for b, pts in zip(ids, points[:, 0]):
            seen[b].update(pts.tolist())
        return tables[ids[:, None, None], points]

    monkeypatch.setattr(certify, "log_y_grid", fake)
    ids = np.arange(len(tables), dtype=np.float64).reshape(-1, 1, 1)
    result = grid_min(ids, np.zeros(len(tables)), np.arange(tables.shape[1], dtype=np.float64))
    return result, seen


CONVEX_ROWS = {
    "descending": [9, 7, 5, 4, 3, 2.5, 2.25],
    "ascending": [1, 2, 4, 7, 11, 16, 22],
    "v_shaped": [6, 3, 1, 0, 1, 3, 6],
    "flat_plateau": [5, 3, 1, 1, 1, 2, 4],
    "plateau_at_the_top": [5, 3, 2, 1.5, 1, 1, 1],
    "flat": [2, 2, 2, 2, 2, 2, 2],
}


class TestGridSearchShapes:
    """The search on convex rows of known shape against a brute-force argmin
    (the first minimizer), through a stand-in bound."""

    @pytest.mark.parametrize("shape", sorted(CONVEX_ROWS))
    def test_first_minimizer(self, monkeypatch, shape):
        row = CONVEX_ROWS[shape]
        (best, value), _ = search_tables(monkeypatch, [row])
        assert (int(best[0]), float(value[0])) == (int(np.argmin(row)), float(min(row)))

    def test_strictly_descending_row_takes_two_evaluations(self, monkeypatch):
        _, seen = search_tables(monkeypatch, [np.arange(500, 0, -1)])
        assert seen == [{498, 499}]

    def test_random_convex_blocks(self, monkeypatch):
        # integer-valued rows with nondecreasing differences, so ties are
        # exact: plateaus anywhere, rows still falling at the top, blocks
        # whose samples leave the search at different steps
        rng = np.random.default_rng(35)
        for _ in range(200):
            length, count = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            diffs = np.sort(rng.integers(-4, 5, size=(count, length - 1)), axis=1)
            tables = np.concatenate([np.zeros((count, 1)), np.cumsum(diffs, axis=1)], axis=1)
            (best, value), _ = search_tables(monkeypatch, tables)
            assert np.array_equal(best, np.argmin(tables, axis=1))
            assert np.array_equal(value, tables.min(axis=1))


class TestGridSearch:
    def test_matches_brute_force_grid(self):
        # 6,000 cases in 1,000 blocks, one shape and grid per block and every
        # family once per block in random order, so the samples of a block
        # leave the ternary loop at different steps
        rng = np.random.default_rng(30)
        for _ in range(1000):
            l, n, grid = int(rng.integers(1, 7)), int(rng.integers(1, 31)), random_grid(rng)
            families = rng.permutation(FAMILIES)
            cases = [random_rep_z(rng, family, l, n) for family in families]
            rep_z = np.stack([z for z, _ in cases])
            d = np.array([dd for _, dd in cases])
            check_block_equals_single(rep_z, d, grid)
            for z, dd, family in zip(rep_z, d, families):
                check_against_oracle(z, dd, grid, family=family)

    def test_matches_brute_force_on_pipeline_runs(self, monkeypatch):
        from regen_fixtures import SMALL_RUN
        from maskcert.config import ExperimentConfig, validate
        from maskcert.pipeline import run_experiment

        calls = []
        real = certify.grid_min

        def spy(rep_z, d, grid, work=None):
            result = real(rep_z, d, grid, work)
            calls.append((rep_z.copy(), d, grid, result))
            return result

        monkeypatch.setattr(certify, "grid_min", spy)
        run_experiment(validate(ExperimentConfig(**SMALL_RUN)))
        rng = np.random.default_rng(31)
        model = MaskableModel.initialized(mlp_specs(4, [8], 2), "unstructured", rng)
        pca(model, rng.standard_normal((40, 4)), rng.integers(0, 2, 40),
            direction_spec(), make_cfg(seed=5))
        assert sum(len(d) for _, d, _, _ in calls) > 60
        assert max(len(d) for _, d, _, _ in calls) > 1
        for rep_z, d, grid, result in calls:
            check_block_equals_single(rep_z, d, grid, result)
            for z, dd in zip(rep_z, d):
                check_against_oracle(z, dd, grid)

    def test_evaluations_logarithmic_in_grid_size(self, monkeypatch):
        t_count = 100_000
        points = []
        real = certify.log_y_grid

        def spy(z, d, t_grid, work=None):
            points.extend(np.asarray(t_grid).ravel().tolist())
            return real(z, d, t_grid, work)

        monkeypatch.setattr(certify, "log_y_grid", spy)
        rng = np.random.default_rng(32)
        model = MaskableModel.initialized(mlp_specs(4, [5], 2), "unstructured", rng)
        limit = 2 * math.ceil(math.log(t_count, 1.5)) + 3
        for i in range(5):
            points.clear()
            cfg = small_cfg(cert_samples=10, cert_t_count=t_count, seed=i)
            certify_one(model, rng.standard_normal(4), 0, direction_spec(), cfg)
            assert 0 < len(points) <= limit
            assert len(set(points)) == len(points)  # no point evaluated twice

    def test_flat_sequence_takes_first_point(self):
        grid = t_grid(make_cfg())
        assert grid_min_one(np.zeros((2, 3)), 0.0, grid) == (0, 0.0)

    def test_one_log_y_grid_call_per_step(self, monkeypatch):
        calls = []
        real = certify.log_y_grid

        def spy(z, d, t_grid, work=None):
            calls.append(len(z))
            return real(z, d, t_grid, work)

        monkeypatch.setattr(certify, "log_y_grid", spy)
        rng = np.random.default_rng(34)
        grid = t_grid(make_cfg())
        rep_z = rng.uniform(0, 0.05, (16, 3, 20))
        rep_z[rng.uniform(size=rep_z.shape) < 0.1] = 0.5
        d = rng.uniform(0.01, 0.3, 16)
        single_steps = []
        for z, dd in zip(rep_z, d):
            calls.clear()
            grid_min_one(z, dd, grid)
            single_steps.append(len(calls))
        calls.clear()
        grid_min(rep_z, d, grid)
        # the block steps as long as its longest search, each step one call
        # over the samples still searching, and never evaluates more rows
        assert len(set(single_steps)) > 1
        assert len(calls) == max(single_steps)
        assert calls[0] == 16 and sum(calls) == sum(single_steps)


class TestCertifySampleAndPca:
    def test_misclassified_never_certified(self):
        model = constant_model(bias=(2.0, 0.0))  # always predicts class 0
        row = certify_one(model, np.zeros(4), 1, direction_spec(), small_cfg())
        assert not row.certified
        assert row.eps_hat <= 1e-3  # the bound itself is tiny; the label gate fails

    def test_constant_correct_certified(self):
        model = constant_model(bias=(2.0, 0.0))
        row = certify_one(model, np.zeros(4), 0, direction_spec(), small_cfg())
        assert row.certified

    def test_pca_constant_classifier_counts_majority(self):
        model = constant_model(bias=(2.0, 0.0))
        rng = np.random.default_rng(14)
        x = rng.standard_normal((12, 4))
        y = np.array([0, 1] * 6)
        res = pca(model, x, y, direction_spec(), small_cfg())
        expected = np.mean(y == 0)
        assert res.fraction == expected

    def test_pca_grid_edge_counts(self):
        x = np.zeros((6, 4))
        cfg = small_cfg()
        # all Z = 0: the bound decreases along the grid and underflows at t_hi
        res = pca(constant_model(), x, np.zeros(6), direction_spec(), cfg)
        assert (res.best_t_at_t_lo, res.best_t_at_t_hi, res.eps_hat_zero) == (0, 6, 6)
        # every transform flips: the bound increases, eps_hat is clamped to 1
        res = pca(flipping_model(), x, np.ones(6), direction_spec(), cfg)
        assert (res.best_t_at_t_lo, res.best_t_at_t_hi, res.eps_hat_zero) == (6, 0, 0)
        # zero margin: no grid point is chosen
        res = pca(constant_model(bias=(0.0, 0.0)), x, np.zeros(6), direction_spec(), cfg)
        assert (res.best_t_at_t_lo, res.best_t_at_t_hi, res.eps_hat_zero) == (0, 0, 0)

    def test_one_clean_forward_per_set(self, monkeypatch):
        clean, draws, transformed = [], [], []
        real_masked, real_forward, real_apply = (certify.masked_forward, certify.forward_probs,
                                                 certify.apply)

        def masked_spy(x, weights, biases, specs, work=None):
            clean.append(x.shape)
            return real_masked(x, weights, biases, specs, work)

        def forward_spy(x, weights, biases, specs, work=None):
            draws.append(x.shape)
            return real_forward(x, weights, biases, specs, work)

        def apply_spy(spec, x, delta, out=None, work=None):
            transformed.append((x.shape, delta.shape))
            return real_apply(spec, x, delta, out, work)

        monkeypatch.setattr(certify, "masked_forward", masked_spy)
        monkeypatch.setattr(certify, "forward_probs", forward_spy)
        monkeypatch.setattr(certify, "apply", apply_spy)
        cfg = small_cfg()
        l, n = cfg.cert_repetitions, cfg.cert_samples
        x = np.zeros((5, 4))
        pca(constant_model(), x, np.zeros(5), direction_spec(), cfg)
        # the five samples fit one grid-search block: one forward of its
        # (5, 1) clean stack, then one of an (l, n) stack per sample, each of
        # one transform of the sample at (l, n, 1) deltas
        assert clean == [(5, 1, 4)]
        assert draws == [(l, n, 4)] * 5
        assert transformed == [((4,), (l, n, 1))] * 5

    def test_one_clean_forward_per_block(self, monkeypatch):
        # blocks of 2: each block's clean forward takes its own samples only,
        # beside its draws, and none spans the evaluation set
        calls = []
        real_masked, real_forward = certify.masked_forward, certify.forward_probs

        def masked_spy(x, weights, biases, specs, work=None):
            calls.append(("clean", x.shape))
            return real_masked(x, weights, biases, specs, work)

        def forward_spy(x, weights, biases, specs, work=None):
            calls.append(("draws", x.shape[:-1]))
            return real_forward(x, weights, biases, specs, work)

        monkeypatch.setattr(certify, "masked_forward", masked_spy)
        monkeypatch.setattr(certify, "forward_probs", forward_spy)
        model, cfg = constant_model(), small_cfg()
        set_budgets(monkeypatch, cfg.cert_repetitions, 2, model, cfg)
        pca(model, np.zeros((5, 4)), np.zeros(5), direction_spec(), cfg)
        draws = ("draws", (cfg.cert_repetitions, cfg.cert_samples))
        assert calls == [("clean", (2, 1, 4)), draws, draws,
                         ("clean", (2, 1, 4)), draws, draws,
                         ("clean", (1, 1, 4)), draws]

    @pytest.mark.parametrize("labels", [[0.7, 1.7, 0.0], [5, 6, 0], [-1, 0, 1],
                                        [0.0, np.nan, 1.0], [0.0, np.inf, 1.0],
                                        [0.0, -np.inf, 1.0], ["0", "1", "0"]])
    def test_pca_labels_must_be_class_indices(self, labels):
        # a 2-class model: a fractional, out-of-range or non-numeric label is
        # an error, not a truncated or never-matching one in the CSV
        with pytest.raises(ValueError, match="class index in \\[0, 2\\)"):
            pca(constant_model(), np.zeros((3, 4)), np.array(labels), direction_spec(),
                small_cfg())

    @pytest.mark.parametrize("labels", [np.zeros(3), np.array([1.0, 0.0, 1.0]),
                                        np.array([1, 0, 1], dtype=np.uint8)])
    def test_pca_integral_labels_of_any_numeric_dtype(self, labels):
        res = pca(constant_model(), np.zeros((3, 4)), labels, direction_spec(), small_cfg())
        assert [r.label for r in res.rows] == [int(v) for v in labels]

    def test_pca_empty_rejected(self):
        model = constant_model()
        with pytest.raises(ValueError, match="empty"):
            pca(model, np.empty((0, 4)), np.empty(0), direction_spec(),
                small_cfg())

    @pytest.mark.parametrize("labels", [9, 3])
    def test_pca_label_count_checked(self, labels):
        # six samples: nine labels would certify with the extra three
        # ignored, three would run out partway through the pass
        with pytest.raises(ValueError, match="one label per sample"):
            pca(constant_model(), np.zeros((6, 4)), np.zeros(labels), direction_spec(),
                small_cfg())

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        model = MaskableModel.initialized(mlp_specs(4, [6], 2), "unstructured", rng)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 2, 5)
        r1 = pca(model, x, y, direction_spec(), small_cfg(seed=99))
        r2 = pca(model, x, y, direction_spec(), small_cfg(seed=99))
        assert r1.fraction == r2.fraction
        for a, b in zip(r1.rows, r2.rows):
            assert a.eps_hat == b.eps_hat and a.best_t == b.best_t
            assert np.array_equal(a.rep_z_max, b.rep_z_max)


class TestFoldedCertification:
    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    def test_rows_equal_masked_forward_certification(self, mode):
        rng = np.random.default_rng(17)
        model = MaskableModel.initialized(mlp_specs(4, [8, 6], 2), mode, rng)
        for b in model.biases:
            b[:] = rng.uniform(0.1, 0.5, b.size)  # live relus, nonzero margins
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 2, 6)
        hard = binarize([rng.uniform(size=n) for n in model.mask_dims()], 0.5)
        mult = hard_multipliers(model, hard)
        cfg = small_cfg(seed=5)
        result = pca(model.folded(mult), x, y, direction_spec(), cfg)
        assert all(row.margin > 0 for row in result.rows)
        # the per-sample path multiplies the masks inside every forward
        assert_rows_equal_oracle(result,
                                 per_sample_oracle(model, mult, x, y, direction_spec(), cfg))


# the closed-form first layer's tolerance against the stacked path: each
# repetition's largest Z within Z_TOL, so log Y(t), which is 1-Lipschitz in
# t times the largest change of Z, within cert_t_hi * Z_TOL
Z_TOL = 1e-12


def assert_rows_close_to_oracle(result, oracle, cfg):
    """pca rows == the oracle's on predicted, margin and certified, and
    within the closed form's tolerance on rep_z_max and log eps_hat."""
    rows, logs = oracle
    tol = cfg.cert_t_hi * Z_TOL
    assert len(result.rows) == len(rows)
    for row, want in zip(result.rows, rows):
        assert (row.margin, row.predicted, row.certified) == \
               (want["margin"], want["predicted"], want["certified"])
        assert np.abs(row.rep_z_max - want["rep_z"].max(axis=1)).max() <= Z_TOL
        got, expected = (math.log(e) if e > 0.0 else -math.inf
                         for e in (row.eps_hat, want["eps_hat"]))
        assert got == expected or abs(got - expected) <= tol
    if logs:
        for got, expected in zip((result.log_eps_hat_min, result.log_eps_hat_median,
                                  result.log_eps_hat_max),
                                 (min(logs), float(np.median(logs)), max(logs))):
            assert abs(got - expected) <= tol
    else:
        assert all(math.isnan(v) for v in (result.log_eps_hat_min, result.log_eps_hat_median,
                                           result.log_eps_hat_max))


def check_models(model, mults, x, y, spec, cfg):
    """pca_models on `model` folded by each of `mults` against each one's
    per_sample_oracle: bit for bit on the stacked path. interp_corrupt on
    these [0, 1] inputs takes the closed-form first layer and is held to its
    tolerance; the same inputs with one entry set to 1.5 then take the
    stacked path, bit for bit. Returns the stacked path's results."""
    def run(x):
        results = pca_models([model.folded(mult) for mult in mults], x, y, spec, cfg)
        assert len(results) == len(mults)
        return results, [per_sample_oracle(model, mult, x, y, spec, cfg) for mult in mults]

    if spec.kind == "interp_corrupt":
        assert ((x >= 0.0) & (x <= 1.0)).all()
        for result, oracle in zip(*run(x)):
            assert result.first_layer == "closed_form"
            assert_rows_close_to_oracle(result, oracle, cfg)
        x = x.copy()
        x[0, 0] = 1.5
    results, oracles = run(x)
    for result, oracle in zip(results, oracles):
        assert result.first_layer == "stacked"
        assert_rows_equal_oracle(result, oracle)
    return results


def stacked_spec(kind, in_dim):
    if kind == "direction_shift":
        v = np.zeros(in_dim)
        v[:2] = (0.6, 0.8)
        return TransformSpec(kind="direction_shift", direction=v)
    severity = {"haze": 0.4, "gaussian_blur3": 0.7}[kind]
    return TransformSpec(kind="interp_corrupt", corrupt=CorruptionTag(kind, severity))


def set_budgets(monkeypatch, reps, block, model, cfg, k=1):
    """Budgets that stack `reps` repetitions per forward and `block` samples
    per grid search when certifying k models; returns the block size pca
    will use."""
    widest = max(model.in_dim, *(s.out_dim for s in model.specs))
    monkeypatch.setattr(certify, "STACK_FLOATS", reps * k * cfg.cert_samples * widest)
    monkeypatch.setattr(certify, "GRID_FLOATS",
                        block * 3 * k * cfg.cert_repetitions * cfg.cert_samples)
    return block


def live_model(mode, seed, in_dim=6, classes=10):
    rng = np.random.default_rng(seed)
    model = MaskableModel.initialized(mlp_specs(in_dim, [8, 5], classes), mode, rng)
    for b in model.biases[:-1]:
        b[:] = rng.uniform(0.1, 0.5, b.size)  # live relus
    hard = binarize([rng.uniform(size=n) for n in model.mask_dims()], 0.5)
    return model, hard_multipliers(model, hard), rng


class TestStackedPass:
    """pca equals the per-sample algorithm it replaced, bit for bit on the
    stacked path and within the stated tolerance on the closed form."""

    KINDS = ("direction_shift", "haze", "gaussian_blur3")

    def check(self, model, mult, x, y, kind, cfg):
        return check_models(model, [mult], x, y, stacked_spec(kind, model.in_dim), cfg)[0]

    @pytest.mark.parametrize("where", ["m=1", "m=block-1", "m=block+1"])
    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("budget", ["default", "tight"])
    def test_rows_equal_per_sample_oracle(self, monkeypatch, budget, kind, mode, where):
        model, mult, rng = live_model(mode, seed=40)
        if budget == "default":  # the default l and n: one forward per sample
            cfg = make_cfg(seed=3)
            block = certify.GRID_FLOATS // (3 * cfg.cert_repetitions * cfg.cert_samples)
        else:  # repetitions stacked 2 + 1, blocks of 4
            cfg = small_cfg(cert_samples=7, seed=3)
            block = set_budgets(monkeypatch, 2, 4, model, cfg)
        m = {"m=1": 1, "m=block-1": block - 1, "m=block+1": block + 1}[where]
        self.check(model, mult, rng.uniform(size=(m, 6)), rng.integers(0, 10, m), kind, cfg)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", ["T=2", "T=3", "l=1", "n=1"])
    def test_small_shapes(self, monkeypatch, kind, shape):
        model, mult, rng = live_model("unstructured", seed=41)
        sizes = {"T=2": dict(cert_t_count=2), "T=3": dict(cert_t_count=3),
                 "l=1": dict(cert_repetitions=1), "n=1": dict(cert_samples=1)}[shape]
        cfg = small_cfg(**{"cert_samples": 5, "seed": 4, **sizes})
        block = set_budgets(monkeypatch, 2, 3, model, cfg)
        self.check(model, mult, rng.uniform(size=(block + 1, 6)),
                   rng.integers(0, 10, block + 1), kind, cfg)

    def test_clean_forward_per_block_over_many_blocks(self, monkeypatch):
        # 30 samples in grid-search blocks of 4: eight clean forwards, the
        # last of two samples
        model, mult, rng = live_model("structured", seed=42)
        cfg = small_cfg(cert_samples=7, seed=5)
        set_budgets(monkeypatch, 2, 4, model, cfg)
        self.check(model, mult, rng.uniform(size=(30, 6)), rng.integers(0, 10, 30),
                   "haze", cfg)

    @pytest.mark.parametrize("budget", ["default", "tight"])
    def test_zero_margin_samples_inside_a_block(self, monkeypatch, budget):
        # logits (s x0, -s x0): a tie, so a zero margin, exactly where x0 = 0
        w = np.zeros((2, 6))
        w[0, 0], w[1, 0] = 3.0, -3.0
        model = MaskableModel([LayerSpec(6, 2, "none")], [w], [np.zeros(2)], "unstructured")
        cfg = small_cfg(cert_samples=7, seed=6)
        if budget == "tight":
            set_budgets(monkeypatch, 2, 4, model, cfg)
        rng = np.random.default_rng(43)
        x = rng.uniform(-1, 1, (10, 6))
        x[[1, 3, 4, 9], 0] = 0.0
        result = self.check(model, None, x, rng.integers(0, 2, 10), "direction_shift", cfg)
        zero = [r.sample_id for r in result.rows if r.margin == 0.0]
        assert zero == [1, 3, 4, 9]
        assert all(math.isnan(result.rows[i].best_t) for i in zero)

    def test_all_zero_margins_give_nan_log_bounds(self):
        x = np.zeros((3, 4))
        result = pca(constant_model(bias=(0.0, 0.0)), x, np.zeros(3),
                     direction_spec(), small_cfg())
        assert all(math.isnan(v) for v in (result.log_eps_hat_min, result.log_eps_hat_median,
                                           result.log_eps_hat_max))


def masked_copies(model, rng, ratios=(0.3, 0.5, 0.7)):
    """Multipliers of differently pruned hard masks of one model."""
    return [hard_multipliers(model, binarize([rng.uniform(size=n) for n in model.mask_dims()],
                                             ratio))
            for ratio in ratios]


class TestMultiModelPass:
    """pca_models gives each model the rows of its own per-sample
    certification from one draw of each sample's transforms: bit for bit on
    the stacked path, within the stated tolerance on the closed form."""

    def check(self, model, mults, x, y, kind, cfg):
        return check_models(model, mults, x, y, stacked_spec(kind, model.in_dim), cfg)

    @pytest.mark.parametrize("where", ["m=1", "m=block-1", "m=block+1"])
    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    @pytest.mark.parametrize("kind", ["direction_shift", "haze"])
    @pytest.mark.parametrize("budget", ["default", "tight"])
    def test_rows_equal_per_sample_oracle(self, monkeypatch, budget, kind, mode, where):
        model, _, rng = live_model(mode, seed=50)
        mults = masked_copies(model, rng)
        if budget == "default":  # the default l and n: one forward per sample
            cfg = make_cfg(seed=3)
            block = certify.GRID_FLOATS // (3 * 3 * cfg.cert_repetitions * cfg.cert_samples)
        else:  # repetitions stacked 2 + 1, blocks of 4 samples of 3 models
            cfg = small_cfg(cert_samples=7, seed=3)
            block = set_budgets(monkeypatch, 2, 4, model, cfg, k=3)
        assert block > 2
        m = {"m=1": 1, "m=block-1": block - 1, "m=block+1": block + 1}[where]
        self.check(model, mults, rng.uniform(size=(m, 6)), rng.integers(0, 10, m), kind, cfg)

    @pytest.mark.parametrize("budget", ["default", "tight"])
    def test_zero_margin_rows(self, monkeypatch, budget):
        # masked to column q, model q has logits (s x_q, -s x_q): a zero margin
        # exactly where x_q = 0, so each model has its own zero-margin samples
        # inside the same blocks
        w = np.zeros((2, 6))
        w[0, :3], w[1, :3] = 3.0, -3.0
        model = MaskableModel([LayerSpec(6, 2, "none")], [w], [np.zeros(2)], "unstructured")
        mults = [np.zeros((2, 6)) for _ in range(3)]
        for q, mult in enumerate(mults):
            mult[:, q] = 1.0
        cfg = small_cfg(cert_samples=7, seed=6)
        if budget == "tight":
            set_budgets(monkeypatch, 2, 4, model, cfg, k=3)
        rng = np.random.default_rng(51)
        x = rng.uniform(-1, 1, (10, 6))
        zeros = ([1, 3], [3, 5, 9], [4])
        for q, ids in enumerate(zeros):
            x[ids, q] = 0.0
        results = self.check(model, mults, x, rng.integers(0, 2, 10), "direction_shift", cfg)
        for result, ids in zip(results, zeros):
            assert [r.sample_id for r in result.rows if r.margin == 0.0] == ids
            assert all(math.isnan(result.rows[i].best_t) for i in ids)

    def test_other_layer_specs_rejected(self):
        rng = np.random.default_rng(52)
        a = MaskableModel.initialized(mlp_specs(4, [5], 2), "unstructured", rng)
        b = MaskableModel.initialized(mlp_specs(4, [6], 2), "unstructured", rng)
        x, y = np.zeros((2, 4)), np.zeros(2)
        with pytest.raises(ValueError, match="layer specs"):
            pca_models([a, a, b], x, y, direction_spec(), small_cfg())
        with pytest.raises(ValueError, match="no models"):
            pca_models([], x, y, direction_spec(), small_cfg())

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_apply_per_sample_and_chunk(self, monkeypatch, k):
        calls = []
        real = certify.apply

        def spy(spec, x, delta, out=None, work=None):
            calls.append(delta.shape)
            return real(spec, x, delta, out, work)

        monkeypatch.setattr(certify, "apply", spy)
        model, mult, rng = live_model("unstructured", seed=53)
        cfg = small_cfg(cert_samples=7, seed=7)
        set_budgets(monkeypatch, 2, 4, model, cfg, k=k)
        x, y = rng.uniform(size=(9, 6)), rng.integers(0, 10, 9)
        # [0, 1] inputs: the closed-form first layer draws its deltas itself
        pca_models([model.folded(mult)] * k, x, y, stacked_spec("haze", 6), cfg)
        assert calls == []
        # an input outside [0, 1]: l = 3 repetitions in chunks of 2 + 1, for
        # all k models at once
        x[4, 2] = 1.5
        pca_models([model.folded(mult)] * k, x, y, stacked_spec("haze", 6), cfg)
        assert calls == [(2, 7, 1), (1, 7, 1)] * 9

    def test_grid_block_divided_by_model_count(self, monkeypatch):
        # every model's rows of a block share one grid search, and the block
        # shrinks with k so that the search's work stays within GRID_FLOATS
        rows = []
        real = certify.grid_min

        def spy(rep_z, d, grid, work=None):
            rows.append(len(d))
            return real(rep_z, d, grid, work)

        monkeypatch.setattr(certify, "grid_min", spy)
        model, mult, rng = live_model("unstructured", seed=54)
        cfg = small_cfg(cert_samples=7, seed=8)
        set_budgets(monkeypatch, 2, 4, model, cfg, k=3)
        pca_models([model.folded(mult)] * 3, rng.uniform(size=(9, 6)),
                   rng.integers(0, 10, 9), stacked_spec("haze", 6), cfg)
        assert rows == [12, 12, 3]


class TestClosedFormFirstLayer:
    """interp_corrupt on [0, 1] inputs: the first layer of every draw is
    a + delta g, within rounding of the stacked path."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("kind", ["haze", "gaussian_blur3"])
    def test_zero_delta_gives_clean_first_layer_bits(self, monkeypatch, kind, k):
        # a is the clean forward's own pre-activation, so a + 0 g is exact: at
        # delta = 0 every draw enters layer 1 with its sample's clean bits.
        # Z is still not exactly 0: layers 1.. run the clean rows one at a
        # time (a matrix-vector product) and the draws n at a time (a matrix
        # product), which round differently, on the stacked path too
        entries = []
        real_masked, real_forward = certify.masked_forward, certify.forward_probs

        def masked_spy(x, weights, biases, specs, work=None):
            hs, zs = real_masked(x, weights, biases, specs, work)
            entries.append(hs[1].copy())  # the clean stack's layer-1 input
            return hs, zs

        def forward_spy(x, weights, biases, specs, work=None):
            entries.append(x.copy())
            return real_forward(x, weights, biases, specs, work)

        monkeypatch.setattr(certify, "masked_forward", masked_spy)
        monkeypatch.setattr(certify, "forward_probs", forward_spy)
        model, _, rng = live_model("unstructured", seed=55)
        spec = TransformSpec(kind="interp_corrupt", corrupt=stacked_spec(kind, 6).corrupt,
                             delta_range=(0.0, 0.0))
        cfg = small_cfg(seed=9)
        results = pca_models([model.folded(m) for m in masked_copies(model, rng)[:k]],
                             rng.uniform(size=(7, 6)), rng.integers(0, 10, 7), spec, cfg)
        # one clean forward of the 7 samples, then one of each sample's l
        # repetitions of n draws
        (clean, *draws) = entries
        assert clean.shape == (k, 7, 1, 8) and len(draws) == 7
        for i, h in enumerate(draws):
            assert h.shape == (k, 3, cfg.cert_samples, 8)
            assert np.array_equal(h, np.broadcast_to(clean[:, i, None], h.shape))
        for result in results:
            assert result.first_layer == "closed_form"
            assert all(np.all(row.rep_z_max <= Z_TOL) for row in result.rows)

    @pytest.mark.parametrize("kind", ["haze", "gaussian_blur3"])
    def test_logits_first_layer(self, kind):
        # a one-layer model: the closed form gives the logits themselves
        rng = np.random.default_rng(57)
        model = MaskableModel([LayerSpec(6, 3, "none")], [rng.standard_normal((3, 6))],
                              [rng.standard_normal(3)], "unstructured")
        check_models(model, [None, None], rng.uniform(size=(5, 6)), rng.integers(0, 3, 5),
                     stacked_spec(kind, 6), small_cfg(seed=11))

    @pytest.mark.parametrize("kind", ["haze", "gaussian_blur3"])
    def test_idx_wide_shape_within_tolerance(self, kind):
        # 784-128-64-10 with three masks, the default l and n, labels of one
        # model's clean predictions so that some samples certify
        rng = np.random.default_rng(56)
        model = MaskableModel.initialized(mlp_specs(784, [128, 64], 10), "unstructured", rng)
        for b in model.biases[:-1]:
            b[:] = rng.uniform(0.0, 0.1, b.size)
        mults = masked_copies(model, rng)
        x = rng.uniform(size=(8, 784))
        y = model.folded(mults[1]).forward(x).argmax(axis=1)
        spec, cfg = stacked_spec(kind, 784), make_cfg(seed=10)
        results = pca_models([model.folded(m) for m in mults], x, y, spec, cfg)
        assert any(row.certified for result in results for row in result.rows)
        for result, mult in zip(results, mults):
            assert result.first_layer == "closed_form"
            assert_rows_close_to_oracle(result, per_sample_oracle(model, mult, x, y, spec, cfg),
                                        cfg)


class TestChernoffSoundness:
    # discrete Z distributions with equal-weight atoms make the sample-form
    # moment estimate exact, so Y(t) >= P(Z >= d) must hold at every t
    CASES = [
        (np.array([0.0, 0.0, 0.0, 0.5]), 0.4),
        (np.array([0.1, 0.2, 0.3, 0.4, 0.5]), 0.35),
        (np.array([0.0, 1.0]), 0.9),
        (np.array([0.25] * 3 + [0.75]), 0.5),
        (np.array([0.05, 0.05, 0.6, 0.6, 0.6]), 0.6),
    ]

    @pytest.mark.parametrize("atoms,d", CASES, ids=[str(i) for i in range(5)])
    def test_bound_dominates_tail(self, atoms, d):
        grid = t_grid(make_cfg())
        tail = np.mean(atoms >= d)
        logs = log_y_grid(atoms, d, grid)
        # compare in log space; exp(logs) can overflow where the bound is huge
        assert np.all(logs >= math.log(tail) - 1e-12)

    def test_empirical_tail_within_sampling_slack(self):
        # draw 1e5 variates from a known discrete distribution; the empirical
        # tail stays below the exact-moment bound up to 3-sigma binomial noise
        rng = np.random.default_rng(20)
        atoms = np.array([0.0, 0.1, 0.3, 0.45])
        weights = np.array([0.4, 0.3, 0.2, 0.1])
        d = 0.3
        n = 100_000
        draws = rng.choice(atoms, size=n, p=weights)
        empirical = float(np.mean(draws >= d))
        sigma = np.sqrt(empirical * (1 - empirical) / n)
        z_exact = np.repeat(atoms, (weights * 20).astype(int))  # exact pmf atoms
        grid = t_grid(make_cfg())
        bounds = np.exp(np.minimum(log_y_grid(z_exact, d, grid), 0.0))
        assert np.all(empirical <= bounds + 3 * sigma)


class TestPaley:
    def test_exact_value(self):
        cfg = make_cfg(cert_samples=100, cert_repetitions=10, cert_alpha=0.9, cert_cv=1.0)
        val = paley_confidence(cfg)
        assert val == 2.0 ** -10

    def test_large_n_limit(self):
        # far above the config's cap on cert_samples: the formula's limit
        cfg = ExperimentConfig(cert_samples=10 ** 12, cert_repetitions=1, cert_alpha=0.9)
        assert paley_confidence(cfg) < 1e-9

    def test_alpha_near_one_no_confidence(self):
        cfg = make_cfg(cert_alpha=0.999999999)
        assert paley_confidence(cfg) > 0.999

    def test_margin_needs_two_classes(self):
        with pytest.raises(ValueError, match="margin"):
            clean_margin(np.array([1.0]))

    def test_grid_shape(self):
        grid = t_grid(make_cfg())
        assert len(grid) == 500
        assert grid[0] == pytest.approx(1e-4) and grid[-1] == pytest.approx(1e4)
