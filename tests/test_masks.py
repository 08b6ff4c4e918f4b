import math
from fractions import Fraction

import numpy as np
import pytest

from maskcert import autodiff as ad
from maskcert.masks import (binarize, effective_ratio, hard_multipliers,
                            init_percentile_scaled, keep_counts, layer_views, sample_noisy,
                            unit_magnitudes)
from maskcert.model import LayerSpec, MaskableModel, masked_backward, masked_forward, mlp_specs
from maskcert.objectives import consistency
from util import noisy_mask_values


def single_layer_model(weights, mode="unstructured"):
    w = np.asarray(weights, dtype=float)
    return MaskableModel([LayerSpec(w.shape[1], w.shape[0], "none")],
                         [w], [np.zeros(w.shape[0])], mode)


def keep_count(frac, n):
    return math.ceil(Fraction(str(frac)) * n)


class TestPercentileInit:
    def test_four_element_oracle(self):
        # |w| = [1,2,3,4], tau=25: nearest-rank keep count is ceil(1) = 1,
        # so Q is the largest magnitude and exactly one entry starts at 1.0
        model = single_layer_model([[1.0, -2.0], [3.0, -4.0]])
        c = init_percentile_scaled(model, 25.0)[0]
        mags = np.array([1.0, 2.0, 3.0, 4.0])
        kappa = keep_count(Fraction("25") / 100, 4)
        q = np.sort(mags)[4 - kappa]
        assert q == 4.0
        assert np.array_equal(c, mags / q)
        assert np.count_nonzero(c == 1.0) == kappa == 1

    def test_all_equal_gives_all_ones(self):
        model = single_layer_model(np.full((2, 3), 0.7))
        c = init_percentile_scaled(model, 30.0)[0]
        assert np.array_equal(c, np.ones(6))

    @pytest.mark.parametrize("tau", [10.0, 20.0, 30.0, 40.0])
    def test_exact_ceiling_count_at_one(self, tau):
        rng = np.random.default_rng(int(tau))
        model = MaskableModel.initialized(mlp_specs(9, [11], 4), "unstructured", rng)
        soft = init_percentile_scaled(model, tau)
        for c, n in zip(soft, model.mask_dims()):
            expected = math.ceil(Fraction(str(tau)) / 100 * n)
            assert np.count_nonzero(c == 1.0) == expected
            assert np.all((c >= 0) & (c <= 1))

    def test_zero_threshold_rejected(self):
        model = single_layer_model(np.zeros((2, 2)))
        with pytest.raises(FloatingPointError, match="layer 0.*re-initialize"):
            init_percentile_scaled(model, 30.0)

    def test_tau_range_validated(self):
        model = single_layer_model([[1.0, 2.0]])
        for tau in (0.0, 100.0, -5.0):
            with pytest.raises(ValueError, match="tau"):
                init_percentile_scaled(model, tau)

    def test_structured_uses_row_norms(self):
        w = np.array([[3.0, 4.0], [0.0, 1.0], [6.0, 8.0]])  # row norms 5, 1, 10
        model = MaskableModel([LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "none")],
                              [w, np.ones((2, 3))], [np.zeros(3), np.zeros(2)],
                              "structured")
        mags = unit_magnitudes(model)
        assert np.allclose(mags[0], [5.0, 1.0, 10.0])
        assert mags[1].size == 0  # classifier exempt


class TestSampleNoisy:
    def test_mu_zero_identity(self):
        c_val = np.array([0.1, 0.5, 0.9])
        out, _ = sample_noisy(c_val, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, [c_val])

    def test_clipping_saturation(self):
        # noise of up to 0.5 on entries near both ends saturates some draws;
        # the gradient passes exactly where the same draws stay in [0, 1]
        c = np.array([0.9, 0.1, 0.95, 0.05, 0.5, 0.7])
        out, passed = sample_noisy(c, 0.5, np.random.default_rng(11), draws=3)
        shifted = c + np.random.default_rng(11).uniform(-0.5, 0.5, size=(3, c.size))
        outside = (shifted < 0.0) | (shifted > 1.0)
        assert outside.any() and not outside.all()
        assert np.array_equal(passed, ~outside)
        assert np.array_equal(out, np.clip(shifted, 0.0, 1.0))
        assert np.all(out[outside] == np.where(shifted[outside] > 1.0, 1.0, 0.0))

    def test_closed_interval_passes_at_the_edges(self):
        # mu = 0 adds no noise, and C's exact 0.0 and 1.0 entries pass
        c = np.array([0.0, 1.0, 0.0, 0.5, 1.0])
        out, passed = sample_noisy(c, 0.0, np.random.default_rng(12), draws=2)
        assert np.array_equal(out, [c, c])
        assert passed.all() and passed.shape == (2, c.size)

    def test_gradient_through_pass_region(self):
        rng = np.random.default_rng(1)
        # noise <= 0.2 keeps both interior
        _, passed = sample_noisy(np.array([0.5, 0.5]), 0.2, rng)
        assert np.array_equal(passed, np.ones((1, 2), dtype=bool))

    def test_fresh_noise_per_call(self):
        c = np.full(64, 0.5)
        rng = np.random.default_rng(2)
        a, _ = sample_noisy(c, 0.4, rng)
        b, _ = sample_noisy(c, 0.4, rng)
        assert not np.array_equal(a, b)

    def test_draws_taken_draw_by_draw_over_layers(self):
        # the one-call slab over a flat mask of an empty exempt layer and
        # two others takes the bits of the per-draw, per-layer draws: copy k
        # of layer i uses the k-th noise array drawn for that layer, drawing
        # every layer once per draw
        dims = [0, 3, 4]
        c = np.linspace(0.1, 0.9, sum(dims))
        out = np.empty((3, c.size))
        v, _ = sample_noisy(c, 0.3, np.random.default_rng(5), draws=3, out=out)
        assert v is out
        rng = np.random.default_rng(5)
        cs = layer_views(c, dims)
        xis = [[rng.uniform(-0.3, 0.3, size=c_i.shape) for c_i in cs] for _ in range(3)]
        for i, v_i in enumerate(layer_views(v, dims)):
            assert np.array_equal(v_i, [np.clip(cs[i] + xis[k][i], 0, 1) for k in range(3)])

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError, match="mu"):
            sample_noisy(np.ones(2), -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [5248, 109184])  # default and idx-wide mask units
    @pytest.mark.parametrize("mu", [0.5, 0.1, 0.0])
    def test_draw_in_place_equals_uniform(self, size, mu):
        # lo + (hi - lo)·u from rng.random(out=) has the bits of
        # rng.uniform(lo, hi), which the stage-2 noise used to draw
        for step in range(3):
            want = np.random.default_rng([1009, 5, step]).uniform(-mu, mu, size=(3, size))
            stack = np.empty((4, size))
            u = np.random.default_rng([1009, 5, step]).random(out=stack[:3])
            u *= mu - (-mu)
            u += -mu
            assert np.array_equal(stack[:3], want)
            c = np.random.default_rng(step).uniform(size=size)
            v, _ = sample_noisy(c, mu, np.random.default_rng([1009, 5, step]), draws=3)
            assert np.array_equal(v, np.clip(c + want, 0.0, 1.0))

    def test_passed_read_before_the_clip_in_place(self):
        # drawing into `out` clips there; `passed` still marks the draws
        # that left [0, 1] before the clip
        c = np.array([0.05, 0.5, 0.95, 0.5])
        want, want_passed = sample_noisy(c, 0.3, np.random.default_rng(3), draws=2)
        out = np.empty((2, 4))
        v, passed = sample_noisy(c, 0.3, np.random.default_rng(3), draws=2, out=out)
        assert v is out and np.array_equal(v, want)
        assert np.array_equal(passed, want_passed) and not passed.all()

    def test_empirical_mean_matches_analytic(self):
        # E[clip(c + U(-mu, mu), 0, 1)] via the piecewise integral
        def analytic_mean(c, mu):
            a, b = c - mu, c + mu
            lo, hi = max(a, 0.0), min(b, 1.0)
            mass_hi = max(0.0, b - 1.0) / (2 * mu)
            interior = (hi * hi - lo * lo) / (4 * mu) if hi > lo else 0.0
            return mass_hi + interior

        rng = np.random.default_rng(3)
        n = 100_000
        for c, mu in [(0.5, 0.5), (0.9, 0.5), (0.05, 0.3), (0.7, 0.2)]:
            draws = np.clip(c + rng.uniform(-mu, mu, n), 0.0, 1.0)
            se = draws.std(ddof=1) / np.sqrt(n)
            assert abs(draws.mean() - analytic_mean(c, mu)) < 3 * se + 1e-12

    def test_value_helper_matches_formula(self):
        rng1 = np.random.default_rng(4)
        rng2 = np.random.default_rng(4)
        c = [np.array([0.2, 0.8])]
        vals = noisy_mask_values(c, 0.5, rng1)[0]
        expected = np.clip(c[0] + rng2.uniform(-0.5, 0.5, 2), 0, 1)
        assert np.array_equal(vals, expected)


class TestBinarize:
    def test_top2_by_value(self):
        hm = binarize([np.array([0.2, 0.8, 0.5, 0.9])], 0.5)
        assert np.array_equal(hm[0], [0, 1, 0, 1])

    def test_pr_zero_keeps_all(self):
        hm = binarize([np.array([0.1, 0.0, 0.9])], 0.0)
        assert np.array_equal(hm[0], np.ones(3))

    def test_tie_keeps_lower_index(self):
        hm = binarize([np.array([0.5, 0.5, 0.1, 0.9])], 0.5)
        assert np.array_equal(hm[0], [1, 0, 0, 1])

    def test_exact_keep_counts(self):
        rng = np.random.default_rng(5)
        for pr in (0.0, 0.3, 0.5, 0.7, 0.9):
            for n in (3, 10, 64, 101):
                c = rng.uniform(size=n)
                hm = binarize([c], pr)
                assert int(hm[0].sum()) == keep_count(1 - Fraction(str(pr)), n)

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(6)
        c = rng.uniform(size=37)
        hm = binarize([c], 0.4)
        again = binarize([hm[0]], 0.4)
        assert np.array_equal(hm[0], again[0])

    def test_all_equal_values_keep_first_indices(self):
        hm = binarize([np.full(6, 0.4)], 0.5)
        assert np.array_equal(hm[0], [1, 1, 1, 0, 0, 0])

    def test_pr_range(self):
        with pytest.raises(ValueError, match="pruning ratio"):
            binarize([np.ones(4)], 1.0)

    def test_nan_entry_rejected(self):
        with pytest.raises(FloatingPointError, match="NaN"):
            binarize([np.array([0.3, np.nan, 0.9])], 0.5)

    def test_written_into_out(self):
        rng = np.random.default_rng(8)
        dims = [7, 0, 30]
        c = rng.uniform(size=sum(dims))
        out = np.full(c.size, np.nan)
        hm = binarize(layer_views(c, dims), 0.3, out=layer_views(out, dims))
        assert all(np.shares_memory(h, out) for h in hm if h.size)
        assert np.array_equal(out, np.concatenate(binarize(layer_views(c, dims), 0.3)))

    def test_keep_counts_exact(self):
        for pr in (0.0, 0.3, 0.5, 0.7, 0.9):
            assert keep_counts((3, 0, 10, 101), pr) == tuple(
                keep_count(1 - Fraction(str(pr)), n) for n in (3, 0, 10, 101))


def argsort_binarize(soft_mask, pr):
    """Reference top-k projection by stable argsort: per layer the kept
    indicator and the threshold (value of the last kept unit)."""
    keep_frac = 1 - Fraction(str(pr))
    layers, thresholds = [], []
    for c in soft_mask:
        if c.size == 0:
            layers.append(np.empty(0))
            thresholds.append(None)
            continue
        kappa = keep_count(keep_frac, c.size)
        order = np.argsort(-c, kind="stable")
        mask = np.zeros(c.size)
        mask[order[:kappa]] = 1.0
        layers.append(mask)
        thresholds.append(float(c[order[kappa - 1]]))
    return layers, thresholds


def selection_cases():
    """(label, soft mask, pruning ratio) cases stressing the tie rule."""
    rng = np.random.default_rng(31)
    ratios = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
    for n in (1, 2, 3, 7, 10, 64, 101):
        for v in (0.0, 0.4, 1.0):
            for pr in ratios:
                yield f"all_equal n={n} v={v} pr={pr}", [np.full(n, v)], pr
    for i in range(200):
        n = int(rng.integers(1, 300))
        pr = float(rng.choice(ratios))
        levels = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=int(rng.integers(1, 4)))
        yield f"ties {i}", [rng.choice(levels, size=n)], pr
        yield f"saturated {i}", [np.clip(rng.normal(0.5, 1.0, n), 0.0, 1.0)], pr
        yield f"uniform {i}", [rng.uniform(size=n)], pr
    signed_zeros = np.where(rng.uniform(size=50) < 0.5, -0.0, 0.0)
    yield "signed zeros", [np.concatenate([signed_zeros, rng.uniform(size=10)])], 0.5
    for n in (10, 20, 30):
        yield f"ceil n={n}", [rng.uniform(size=n)], 0.7
    for mode in ("unstructured", "structured"):
        for in_dim, hidden, k in ((16, [64, 64], 2), (784, [128, 64], 10)):
            model = MaskableModel.initialized(mlp_specs(in_dim, hidden, k), mode, rng)
            soft = init_percentile_scaled(model, 30.0)
            for pr in (0.5, 0.7):
                yield f"{mode} {in_dim}-{hidden}-{k} pr={pr}", soft, pr


class TestSelectionMatchesArgsort:
    def test_layers_thresholds_and_keep_counts(self):
        count = 0
        for label, soft, pr in selection_cases():
            want_layers, want_thresholds = argsort_binarize(soft, pr)
            got = binarize(soft, pr)
            for c, mask, want, threshold in zip(soft, got, want_layers,
                                                want_thresholds):
                assert mask.dtype == np.float64 and np.array_equal(mask, want), label
                if c.size == 0:
                    continue
                kept = c[mask == 1.0]
                assert kept.size == keep_count(1 - Fraction(str(pr)), c.size), label
                # the threshold is the smallest kept value; nothing dropped exceeds it
                assert kept.min() == threshold, label
                assert np.all(c[mask == 0.0] <= threshold), label
            count += 1
        assert count > 750


class TestEffectiveRatio:
    def test_all_ones_zero(self):
        model = single_layer_model(np.ones((2, 3)))
        assert effective_ratio([np.ones(6)], model) == 0.0

    def test_all_zeros_one(self):
        model = single_layer_model(np.ones((2, 3)))
        assert effective_ratio([np.zeros(6)], model) == 1.0

    def test_structured_single_layer_half(self):
        # one of two rows zeroed in a 2x3 layer: 3 of 6 weights -> 0.5
        model = single_layer_model(np.ones((2, 3)), mode="structured")
        assert effective_ratio([np.array([1.0, 0.0])], model) == 0.5

    def test_matches_binarize_within_ceiling_slack(self):
        rng = np.random.default_rng(7)
        archs = [(6, [8], 3), (16, [64, 64], 2), (10, [5, 7, 3], 4)]
        for in_dim, hidden, k in archs:
            model = MaskableModel.initialized(mlp_specs(in_dim, hidden, k),
                                              "unstructured", rng)
            soft = [rng.uniform(size=n) for n in model.mask_dims()]
            for pr in (0.0, 0.3, 0.5, 0.7, 0.9):
                hm = binarize(soft, pr)
                ratio = effective_ratio(hm, model)
                slack = 1.0 / min(n for n in model.mask_dims() if n > 0)
                assert pr - slack <= ratio <= pr + slack
                # unstructured: surviving weights = sum of per-layer keep counts
                kept = sum(int(m.sum()) for m in hm)
                assert kept == round((1 - ratio) * model.weight_count())

    def test_hard_multipliers_shapes(self):
        rng = np.random.default_rng(8)
        model = MaskableModel.initialized(mlp_specs(4, [5], 3), "structured", rng)
        hm = binarize(init_percentile_scaled(model, 30.0), 0.5)
        mult = hard_multipliers(model, hm)
        assert mult[0].shape == (5, 1)  # broadcasts against the (5, 4) weight
        assert mult[1] is None  # exempt classifier stays dense
        assert hard_multipliers(model, None) is None


class TestSteThroughLoss:
    def test_grad_equals_hard_argument_grad(self):
        # 2-unit layer: the stage-2 hard copy runs the straight-through mask
        # hard + (C - c0) at c0 = C, which is the hard mask bit for bit, and
        # the gradient on C through it is the gradient on the hard mask
        rng = np.random.default_rng(9)
        w = rng.standard_normal((2, 1))
        c_val = np.array([0.7, 0.2]).reshape(2, 1)
        hard = binarize([c_val.ravel()], 0.5)[0].reshape(2, 1)
        x = rng.standard_normal((3, 1))
        target = np.tile([0.8, 0.2], (3, 1))

        def mask_grad(mask):
            """d consistency(target, softmax(x (mask * w)^T)) / d mask."""
            effective = [mask * w]
            specs = (LayerSpec(1, 2, "none"),)
            hs, zs = masked_forward(x, effective, [np.zeros(2)], specs)
            p, softmax_vjp = ad.primitive("softmax", [hs[-1]])
            g_p = consistency(target, p, 1.0)[2]
            g_w = masked_backward(hs, zs, effective, specs, softmax_vjp(g_p)[0])[0][0]
            return g_w * w

        m = hard + (c_val - c_val)
        assert np.array_equal(m, hard)
        assert np.array_equal(mask_grad(m), mask_grad(hard))
