import math

import numpy as np
import pytest

from maskcert import autodiff as ad
from maskcert.masks import binarize, hard_multipliers, init_percentile_scaled
from maskcert.model import MaskableModel, masked_forward, mlp_specs
from maskcert.objectives import (composite_step_loss, consistency, ratio_penalty,
                                 stability)
from util import (TracedPeak, composite_fd, make_cfg, noisy_mask_values,
                  triangle_bound_check)

CFG = make_cfg()


def term(fn, *arrays, **attrs):
    """The value of one loss term on rows given as arrays or nested lists."""
    return float(fn(*[np.atleast_2d(np.asarray(a, dtype=float)) for a in arrays],
                    **attrs, g=1.0)[0])


def ratio(p, p_t):
    return term(ratio_penalty, p, p_t, eta=CFG.safety_threshold, eps=CFG.margin_epsilon)


def softplus_ratio(z, d):
    """softplus(Z / (d + eps) - eta) for one sample."""
    s = z / (d + CFG.margin_epsilon) - CFG.safety_threshold
    return max(s, 0.0) + math.log1p(math.exp(-abs(s)))


def toy_model(seed=0, in_dim=5, hidden=(6,), classes=3, mode="unstructured"):
    rng = np.random.default_rng(seed)
    return MaskableModel.initialized(mlp_specs(in_dim, list(hidden), classes), mode, rng)


class TestMargin:
    def test_examples(self):
        # the margin is half the gap between the top-2 entries; Z = 0.1 here
        for p, d in (([0.7, 0.2, 0.1], 0.25), ([1 / 3, 1 / 3, 1 / 3], 0.0),
                     ([1.0, 0.0, 0.0], 0.5)):
            p = np.array(p)
            val = ratio(p, p - [0.1, 0.0, 0.0])
            assert abs(val - softplus_ratio(0.1, d)) <= 1e-9 * val


class TestDiscrepancy:
    def test_examples(self):
        # Z is the row-wise sup-norm distance; margins 0.5, 0.15 and 0.3
        for p, p_t, z, d in (([1.0, 0.0], [0.0, 1.0], 1.0, 0.5),
                             ([0.6, 0.3, 0.1], [0.5, 0.45, 0.05], 0.15, 0.15),
                             ([0.2, 0.8], [0.2, 0.8], 0.0, 0.3)):
            val = ratio(np.array(p), np.array(p_t))
            assert abs(val - softplus_ratio(z, d)) <= 1e-9 * val

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="ratio_penalty"):
            term(ratio_penalty, np.ones((1, 2)), np.ones((1, 3)), eta=1.0, eps=1e-6)


class TestStability:
    def test_identical_draws_zero(self):
        assert term(stability, [[0.3, 0.7]], [[0.3, 0.7]]) == 0.0

    def test_opposite_one_hots(self):
        assert term(stability, [[1.0, 0.0]], [[0.0, 1.0]]) == 2.0

    def test_batch_mean(self):
        # (2 + 0) / 2
        assert term(stability, [[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [0.5, 0.5]]) == 1.0


class TestRatioLoss:
    def test_closed_forms(self):
        p = np.array([1.0, 0.0])  # margin 0.5
        assert abs(ratio(p, p) - math.log1p(math.exp(-1.0))) < 1e-9
        val2 = ratio(p, p - [0.5 + CFG.margin_epsilon, 0.0])
        assert abs(val2 - math.log(2.0)) < 1e-12

    def test_monotone_in_z_and_d(self):
        p = np.array([0.7, 0.3])  # margin 0.2
        vals_z = [ratio(p, p - [z, 0.0]) for z in np.linspace(0, 1, 21)]
        assert all(b > a for a, b in zip(vals_z, vals_z[1:]))
        vals_d = [ratio([0.5 + d, 0.5 - d], [d, 0.5 - d])  # Z = 0.5
                  for d in np.linspace(0.01, 0.5, 21)]
        assert all(b < a for a, b in zip(vals_d, vals_d[1:]))


class TestConsistency:
    def test_identical_zero(self):
        assert abs(term(consistency, [[0.4, 0.6]], [[0.4, 0.6]])) < 1e-14

    def test_one_hot_vs_uniform(self):
        val = term(consistency, [[1.0, 0.0]], [[0.5, 0.5]])
        assert abs(val - math.log(2.0)) < 1e-6  # smoothing shifts by < 1e-6

    def test_gradient_reaches_both_arguments(self):
        _, g_a, g_b = consistency(np.array([[0.3, 0.7]]), np.array([[0.6, 0.4]]), 1.0)
        assert np.any(g_a != 0)
        assert np.any(g_b != 0)


class TestCompositeStep:
    def run_step(self, seed=0, mode="unstructured", mu=0.5, pr=0.5):
        rng = np.random.default_rng(seed)
        model = toy_model(seed=seed, mode=mode)
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        x = rng.standard_normal((6, 5))
        x_t = x + 0.2 * rng.standard_normal((6, 5))
        return composite_step_loss(model, soft, x, x_t,
                                   make_cfg(pruning_ratio=pr, noise_magnitude=mu),
                                   np.random.default_rng([seed, 1]), step=0)

    def test_report_reconstructs_composite(self):
        res = self.run_step()
        r = res.report
        recon = (CFG.lambda_stab * r.l_stab + CFG.lambda_ratio * r.l_ratio
                 + CFG.lambda_consis * r.l_consis + CFG.lambda_l1 * r.l1_normalized)
        assert abs(recon - r.composite) < 1e-10

    def test_weights_never_get_gradients(self):
        # the step leaves the frozen weights untouched and returns exactly one
        # mask-shaped gradient per layer
        model = toy_model(seed=2)
        before = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
        soft = init_percentile_scaled(model, 30.0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 5))
        res = composite_step_loss(model, np.concatenate(soft), x, x + 0.1, CFG,
                                  np.random.default_rng(3))
        after = model.weights + model.biases
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert res.grad.shape == (sum(c.size for c in soft),)

    def test_degenerate_collapse(self):
        # mu=0, x_t=x, pr=0 with an all-ones mask: only the ratio term remains
        rng = np.random.default_rng(3)
        model = toy_model(seed=3)
        soft = np.ones(sum(model.mask_dims()))
        x = rng.standard_normal((4, 5))
        res = composite_step_loss(model, soft, x, x,
                                  make_cfg(pruning_ratio=0.0, noise_magnitude=0.0),
                                  np.random.default_rng(4))
        assert res.report.l_stab == 0.0
        assert abs(res.report.l_consis) < 1e-13
        # Z = 0 so every sample contributes softplus(-eta)
        expected = math.log1p(math.exp(-1.0))
        assert abs(res.report.l_ratio - expected) < 1e-9

    def test_structured_mode_runs(self):
        res = self.run_step(seed=4, mode="structured")
        assert np.isfinite(res.report.composite)
        # one unit per hidden row; the classifier layer is exempt
        specs = toy_model(seed=4, mode="structured").specs
        assert res.grad.shape == (sum(s.out_dim for s in specs[:-1]),)

    def test_composite_non_negative(self):
        # every term is non-negative, so the weighted sum is too
        for seed in range(8):
            res = self.run_step(seed=seed)
            r = res.report
            assert min(r.l_stab, r.l_ratio, r.l_consis, r.l1_normalized) >= 0
            assert r.composite >= 0

    def test_empty_batch_rejected(self):
        model = toy_model(seed=5)
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        with pytest.raises(ValueError, match="empty"):
            composite_step_loss(model, soft, np.empty((0, 5)), np.empty((0, 5)), CFG,
                                np.random.default_rng(0))

    def test_step_arrays_live_in_the_mask_stack(self):
        # unstructured: the noise is drawn straight into the mask stack, and
        # each weight gradient is written into the stack too, so the work
        # dict keeps no ("dw", i) buffer
        class SpyRng:
            def __init__(self, seed):
                self.rng, self.outs = np.random.default_rng(seed), []

            def random(self, *args, out=None, **kwargs):
                self.outs.append(out)
                return self.rng.random(*args, out=out, **kwargs)

        model = toy_model(seed=7, hidden=(7, 4))
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        x = np.random.default_rng(7).standard_normal((6, 5))
        work, rng = {}, SpyRng(8)
        res = composite_step_loss(model, soft, x, x + 0.1, CFG, rng, work=work)
        assert len(rng.outs) == 1 and np.shares_memory(rng.outs[0], work["mask"])
        assert not [key for key in work if isinstance(key, tuple) and key[0] == "dw"]
        fresh = composite_step_loss(model, soft, x, x + 0.1, CFG, np.random.default_rng(8))
        assert res.report == fresh.report and np.array_equal(res.grad, fresh.grad)

    def test_a_step_allocates_less_than_one_stacked_layer(self):
        # after step 0, which makes the work dict's arrays, a step on a
        # 784x128 first layer allocates less than one (4, out, in) block of
        # that layer: each copy's masked weight and weight gradient is
        # multiplied in place in its own C-contiguous slice of the mask
        # stack, where the whole strided block multiplied in place by the
        # broadcast weight would be buffered in a copy
        rng = np.random.default_rng(10)
        model = MaskableModel.initialized(mlp_specs(784, [128], 10), "unstructured", rng)
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        x = rng.uniform(size=(16, 784))
        work = {}
        for step in range(2):  # the rise of step 1 is asserted
            with TracedPeak() as traced:
                composite_step_loss(model, soft, x, 0.9 * x, CFG,
                                    np.random.default_rng([10, step]), step=step, work=work)
        assert traced.rise < 4 * model.weights[0].nbytes

    def test_a_step_allocates_less_than_two_mask_vectors(self):
        # after step 0, a step on a 784-128-10 model allocates, beside the
        # work dict, its result's gradient (one mask vector: |C| and then
        # sign(C) are formed in it, and the squares of its norm in the dead
        # mask stack), the noise's `passed` booleans and binarize's partition
        # copy, and no second float mask vector
        rng = np.random.default_rng(10)
        model = MaskableModel.initialized(mlp_specs(784, [128], 10), "unstructured", rng)
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        x = rng.uniform(size=(16, 784))
        work = {}
        for step in range(2):  # the rise of step 1 is asserted
            with TracedPeak() as traced:
                composite_step_loss(model, soft, x, 0.9 * x, CFG,
                                    np.random.default_rng([10, step]), step=step, work=work)
        assert traced.rise < 2 * soft.nbytes

    def test_a_structured_step_allocates_less_than_a_quarter_stacked_layer(self):
        # after step 0, a structured step on a 784-128-10 model forms each
        # masked layer's (4, out, in) masked weight and weight gradient in
        # its ("dw", i) array of the work dict, one copy at a time, and
        # allocates no weight-sized temporary
        rng = np.random.default_rng(12)
        model = MaskableModel.initialized(mlp_specs(784, [128], 10), "structured", rng)
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        x = rng.uniform(size=(64, 784))
        x_t, work = 0.9 * x, {}
        for step in range(2):  # the rise of step 1 is asserted
            with TracedPeak() as traced:
                composite_step_loss(model, soft, x, x_t, CFG,
                                    np.random.default_rng([12, step]), step=step, work=work)
        assert traced.rise < model.weights[0].nbytes

    @pytest.mark.parametrize("mode, want", [("unstructured", []),
                                            ("structured", [("dw", 0), ("dw", 1)])])
    def test_weight_gradients_only_where_a_mask_needs_one(self, mode, want):
        # a structured step keeps one ("dw", i) per masked layer and none for
        # the exempt logits layer; an unstructured one writes every weight
        # gradient into the mask stack and keeps none
        model = toy_model(seed=9, in_dim=6, hidden=(8, 5), mode=mode)
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        x = np.random.default_rng(9).standard_normal((4, 6))
        work = {}
        composite_step_loss(model, soft, x, x + 0.1, CFG, np.random.default_rng(1), work=work)
        assert sorted(key for key in work if isinstance(key, tuple) and key[0] == "dw") == want

    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    def test_work_dict_reuse_equals_fresh_arrays(self, mode):
        # steps that share one work dict, with batch sizes that make it
        # reallocate, give the bits of steps without one, and a step's
        # gradients do not change when a later step reuses the arrays
        rng = np.random.default_rng(6)
        model = toy_model(seed=6, hidden=(7, 4), mode=mode)
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        work, kept = {}, []
        for step, batch in enumerate((6, 6, 3, 6)):
            x = rng.standard_normal((batch, 5))
            x_t = x + 0.2 * rng.standard_normal((batch, 5))
            fresh = composite_step_loss(model, soft, x, x_t, CFG,
                                        np.random.default_rng([6, step]), step=step)
            reused = composite_step_loss(model, soft, x, x_t, CFG,
                                         np.random.default_rng([6, step]), step=step, work=work)
            assert reused.report == fresh.report
            kept.append((fresh.grad.copy(), reused.grad))
        for want, got in kept:
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    def test_gradient_matches_finite_differences(self, mode):
        # kink-free seeded instances; the objective is differentiated as a
        # pure function of the soft mask with the draws, the hard mask and
        # the straight-through point held fixed
        checked = 0
        seed = 0
        while checked < 5 and seed < 40:
            seed += 1
            rng = np.random.default_rng(seed)
            model = toy_model(seed=seed, mode=mode)
            # a structured hard mask zeroes whole rows, whose pre-activation is
            # then the bias: keep it off the relu kink
            for b in model.biases:
                b += rng.uniform(0.1, 0.3, size=b.shape)
            soft = np.concatenate(init_percentile_scaled(model, 30.0))
            x = rng.standard_normal((6, 5))
            x_t = x + 0.2 * rng.standard_normal((6, 5))
            res = composite_step_loss(model, soft, x, x_t, CFG, np.random.default_rng([seed, 1]))
            worst = composite_fd(model, soft, x, x_t, CFG, [seed, 1], res)
            if worst is None:
                continue
            assert worst < 1e-4
            checked += 1
        assert checked == 5


class TestGraphForwardParity:
    def test_training_probs_match_numpy_forward_bitwise(self):
        # certification scores the folded model's forward; training
        # differentiates masked_forward on the same folded weights; both must
        # compute the identical function
        for mode in ("unstructured", "structured"):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                model = toy_model(seed=seed, mode=mode)
                x = rng.standard_normal((7, 5))
                hard = binarize(init_percentile_scaled(model, 30.0), 0.5)
                mult = hard_multipliers(model, hard)
                p_np = model.folded(mult).forward(x)
                logits = masked_forward(x, model.folded(mult).weights, model.biases,
                                        model.specs)[0][-1]
                assert np.array_equal(p_np, ad.primitive("softmax", [logits])[0])


class TestTriangleBound:
    def test_holds_and_tight_at_zero_noise(self):
        rng = np.random.default_rng(6)
        model = toy_model(seed=6)
        soft = init_percentile_scaled(model, 30.0)
        x = rng.standard_normal(5)
        x_t = x + 0.3 * rng.standard_normal(5)
        res = triangle_bound_check(model, soft, x, x_t, 0.5,
                                   np.random.default_rng(7), draws=16)
        assert res.z_c <= res.bound + 1e-9
        res0 = triangle_bound_check(model, soft, x, x_t, 0.0,
                                    np.random.default_rng(8), draws=4)
        assert res0.term_a == 0.0 and res0.term_c == 0.0
        assert abs(res0.z_c - res0.bound) < 1e-12

    def test_identity_input_zero(self):
        model = toy_model(seed=7)
        soft = init_percentile_scaled(model, 30.0)
        x = np.random.default_rng(9).standard_normal(5)
        res = triangle_bound_check(model, soft, x, x, 0.0,
                                   np.random.default_rng(10), draws=4)
        assert res.z_c == 0.0 and res.bound == 0.0

    def test_draws_validated(self):
        model = toy_model(seed=8)
        soft = init_percentile_scaled(model, 30.0)
        with pytest.raises(ValueError, match="draws"):
            triangle_bound_check(model, soft, np.zeros(5), np.zeros(5), 0.5,
                                 np.random.default_rng(0), draws=1)


class TestVarianceIdentitySmoke:
    def test_pairwise_distance_twice_centered(self):
        # light version of the variance identity; the acceptance suite runs
        # the full 1e4-pair check
        rng = np.random.default_rng(11)
        model = toy_model(seed=11, in_dim=4, hidden=(6,), classes=3)
        soft = init_percentile_scaled(model, 30.0)
        x = rng.standard_normal((1, 4))
        mu = 0.5

        def probs(r):
            vals = noisy_mask_values(soft, mu, r)
            return model.folded(hard_multipliers(model, vals)).forward(x)[0]

        r = np.random.default_rng(12)
        n = 3000
        pa = np.stack([probs(r) for _ in range(n)])
        pb = np.stack([probs(r) for _ in range(n)])
        pc = np.stack([probs(r) for _ in range(n)])
        lhs = ((pa - pb) ** 2).sum(axis=1).mean()
        pbar = pc.mean(axis=0)
        rhs = 2 * ((pa - pbar) ** 2).sum(axis=1).mean()
        assert abs(lhs - rhs) / rhs < 0.1
