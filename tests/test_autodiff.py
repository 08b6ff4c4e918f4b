import math

import numpy as np
import pytest

from maskcert import autodiff as ad
from maskcert.masks import sample_noisy
from maskcert.model import LayerSpec, masked_backward, masked_forward
from maskcert.objectives import consistency, l1_mean, ratio_penalty, stability
from util import CASE_LABELS, PRIMITIVE_CASES, TERM_CASES, rel_err, run_case_fd


def value(kind, *inputs, **attrs):
    return ad.primitive(kind, [np.asarray(x, dtype=float) for x in inputs], **attrs)[0]


def logits(x, ws, bs, specs):
    """The masked MLP's logits, masked_forward's last output."""
    return masked_forward(np.asarray(x, dtype=float), ws, bs, specs)[0][-1]


def ratio_value(p, q, eta=1.0, eps=1e-6):
    p, q = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (p, q))
    return float(ratio_penalty(p, q, eta, eps, 1.0)[0])


def ratio_grad_q(p, q):
    """Gradient of the ratio penalty (eta 1, eps 1e-6) on its second argument."""
    return ratio_penalty(p, q, 1.0, 1e-6, 1.0)[2]


def softplus(s):
    return max(s, 0.0) + math.log1p(math.exp(-abs(s)))


class TestForwardExamples:
    def test_relu(self):
        # a single bias-free relu layer
        out = logits([[-1.0, 0.0, 2.0]], [np.eye(3)], [np.zeros(3)], [LayerSpec(3, 3, "relu")])
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_softmax_symmetry(self):
        assert np.array_equal(value("softmax", [0.0, 0.0]), [0.5, 0.5])

    def test_softplus_scalar_oracle(self):
        # Z = 0, so the penalty is softplus(-eta)
        p = np.array([0.7, 0.3])
        assert abs(ratio_value(p, p) - math.log1p(math.exp(-1.0))) < 1e-15

    def test_softplus_no_overflow(self):
        # margin 0.5 plus eps 0.5 makes the ratio exactly Z
        p = np.array([1.0, 0.0])
        assert ratio_value(p, p - [801.0, 0.0], eta=1.0, eps=0.5) == 800.0
        assert ratio_value(p, p, eta=800.0, eps=0.5) == 0.0

    def test_softmax_rows_normalized(self):
        rng = np.random.default_rng(3)
        p = value("softmax", rng.standard_normal((50, 7)) * 30)
        assert np.all(p >= 0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_inf_norm_exact_max(self):
        # the ratio penalty reads Z as the exact row maximum of |p - p_t| and
        # the margin as half the exact top-2 gap
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = rng.standard_normal(9)
            q = rng.standard_normal(9)
            top = sorted(p)
            d = (top[-1] - top[-2]) / 2.0
            z = max(abs(a - b) for a, b in zip(p, q))
            assert rel_err(ratio_value(p, q), softplus(z / (d + 1e-6) - 1.0)) < 1e-14

    def test_kl_identical_is_zero(self):
        p = np.array([[0.2, 0.3, 0.5]])
        assert abs(float(consistency(p, p.copy(), 1.0)[0])) < 1e-15


class TestVjpExamples:
    def test_sum_gradient(self):
        # the L1 mean over 4 entries in two layers: each entry's gradient is
        # g * sign(c) / 4
        _, grad = l1_mean(np.array([1.0, -5.0, 2.0, -0.5]), (3, 1), 2.0)
        assert np.array_equal(grad, [0.5, -0.5, 0.5, -0.5])

    def test_l2_norm_sq_gradient(self):
        _, g_p, g_q = stability(np.array([[1.0, 2.0]]), np.zeros((1, 2)), 1.0)
        assert np.array_equal(g_p, [[2.0, 4.0]])
        assert np.array_equal(g_q, [[-2.0, -4.0]])

    def test_gradient_accumulates_over_paths(self):
        # p reaches (p - 0)^2 through the stability term and 3 |p| through
        # the L1 term; the caller adds the two paths
        p = np.array([[1.5]])
        g_stab = stability(p, np.zeros((1, 1)), 1.0)[1]
        g_l1 = l1_mean(p.ravel(), (1,), 3.0)[1]
        assert (g_stab + g_l1)[0, 0] == 6.0

    def test_frozen_input_gradient_unaffected(self):
        # the gradient on p is 2 (p - q) whatever q is: q enters as a value
        g_p = stability(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), 1.0)[1]
        assert np.array_equal(g_p, [[-4.0, -4.0]])

    def test_clip_gradient_mask_is_closed_interval_indicator(self):
        # mu = 0 draws no shift, so C + xi is C itself
        _, passed = sample_noisy(np.array([-0.5, 0.0, 0.5, 1.0, 1.5]), 0.0,
                                 np.random.default_rng(0))
        assert np.array_equal(passed, [[False, True, True, True, False]])

    def test_noisy_copies_get_their_own_gradient(self):
        # each draw's gradient passes where its own C + xi lies in [0, 1]
        c = np.full(4, 0.5)
        out, passed = sample_noisy(c, 0.8, np.random.default_rng(0), draws=2)
        shifted = c + np.random.default_rng(0).uniform(-0.8, 0.8, size=(2, 4))
        assert np.array_equal(out, np.clip(shifted, 0.0, 1.0))
        assert np.array_equal(passed, [[True, True, False, False], [False, False, True, True]])
        assert np.array_equal(passed, (shifted >= 0.0) & (shifted <= 1.0))

    def test_inf_norm_subgradient_single_index(self):
        # the sup-norm part reaches p_t at the first attaining index of
        # |p - p_t| alone, with the sign of p_t - p there
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.standard_normal((1, 8))
            q = rng.standard_normal((1, 8))
            g = ratio_grad_q(p, q)[0]
            assert np.count_nonzero(g) == 1
            idx = int(np.argmax(np.abs(p - q)))
            assert np.sign(g[idx]) == np.sign(q[0, idx] - p[0, idx])

    def test_inf_norm_tie_routes_to_first_index(self):
        p = np.array([[3.0, 0.0, 1.0]])
        # |p - p_t| ties at 0 and 1
        g = ratio_grad_q(p, p - [[-2.0, 2.0, 1.0]])
        assert g[0, 0] > 0 and g[0, 1] == 0.0 and g[0, 2] == 0.0


class TestMaskedMlp:
    def test_frozen_inputs_get_no_gradient(self):
        # only the named layers get a weight gradient, and biases only when asked
        rng = np.random.default_rng(7)
        ws, bs = [rng.standard_normal((2, 3))], [np.zeros(2)]
        specs = (LayerSpec(3, 2, "none"),)
        hs, zs = masked_forward(rng.standard_normal((2, 3)), ws, bs, specs)
        g_ws, g_bs = masked_backward(hs, zs, ws, specs, np.ones((2, 2)), layers=[0])
        assert g_bs is None and g_ws[0].shape == (2, 3)
        g_ws, g_bs = masked_backward(hs, zs, ws, specs, np.ones((2, 2)), layers=[], biases=True)
        assert g_ws == [None] and g_bs[0].shape == (2,)

    def test_stacked_copies_equal_separate_calls(self):
        # one stacked forward and backward keeps each copy's bits
        rng = np.random.default_rng(8)
        specs = (LayerSpec(5, 6, "relu"), LayerSpec(6, 3, "none"))
        x = rng.standard_normal((4, 7, 5))
        ws = [rng.standard_normal((4, 6, 5)), rng.standard_normal((4, 3, 6))]
        bs = [rng.standard_normal(6), rng.standard_normal(3)]
        g = rng.standard_normal((4, 7, 3))
        hs, zs = masked_forward(x, ws, bs, specs)
        grads, _ = masked_backward(hs, zs, ws, specs, g)
        for k in range(4):
            ws_k = [ws[0][k], ws[1][k]]
            hs_k, zs_k = masked_forward(x[k], ws_k, bs, specs)
            assert np.array_equal(hs[-1][k], hs_k[-1])
            grads_k, _ = masked_backward(hs_k, zs_k, ws_k, specs, g[k])
            assert all(np.array_equal(a[k], b) for a, b in zip(grads, grads_k))


class TestErrors:
    def test_shape_mismatch_names_kind(self):
        with pytest.raises(ValueError, match="stability"):
            stability(np.ones((2, 3)), np.ones((4, 5)), 1.0)

    def test_affine_shape_error(self):
        with pytest.raises(ValueError, match="masked_forward: input shape"):
            masked_forward(np.ones((2, 3)), [np.ones((4, 9))], [np.ones(4)],
                           (LayerSpec(9, 4, "none"),))

    def test_one_weight_and_bias_per_layer(self):
        # a missing layer is an error, not a shorter network
        with pytest.raises(ValueError, match="one weight and one bias per layer"):
            masked_forward(np.ones((2, 3)), [np.ones((4, 3))], [np.ones(4)],
                           (LayerSpec(3, 4), LayerSpec(4, 2, "none")))

    def test_non_finite_forward(self):
        # the backward checks the pre-activations before any gradient
        ws, bs = [np.full((1, 2), 1e200)], [np.zeros(1)]
        specs = (LayerSpec(2, 1, "none"),)
        with np.errstate(over="ignore"):
            hs, zs = masked_forward(np.full((1, 2), 1e200), ws, bs, specs)
        with pytest.raises(FloatingPointError, match="non-finite pre-activation in layer 0"):
            masked_backward(hs, zs, ws, specs, np.ones((1, 1)))

    def test_topk_needs_two_classes(self):
        with pytest.raises(ValueError, match="ratio_penalty"):
            ratio_penalty(np.ones((2, 1)), np.ones((2, 1)), 1.0, 1e-6, 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown primitive"):
            ad.primitive("frobnicate", [np.ones(2)])


def test_identical_inputs_identical_values():
    def build(seed):
        x = np.random.default_rng(seed).standard_normal((3, 4))
        return l1_mean(value("softmax", x).ravel(), (12,), 1.0)[0]
    assert np.array_equal(build(9), build(9))


def test_cases_cover_exactly_the_registered_kinds():
    assert set(PRIMITIVE_CASES) == set(ad._OPS) == {"softmax"}
    assert set(TERM_CASES) == {"masked_mlp", "stability", "ratio_penalty", "consistency",
                               "l1_mean", "noisy", "cross_entropy"}


@pytest.mark.parametrize("label", sorted(CASE_LABELS))
def test_finite_differences(label):
    """Every case's gradient, from a kind's VJP or a term's own return,
    matches central finite differences of its value within 1e-4 relative
    error on 20 seeded instances per shape class."""
    assert run_case_fd(label, instances_per_case=20) < 1e-4
