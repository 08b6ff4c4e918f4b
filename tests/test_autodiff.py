import math

import numpy as np
import pytest

from maskcert import autodiff as ad
from maskcert.model import LayerSpec
from util import CASE_LABELS, PRIMITIVE_CASES, rel_err, run_case_fd


def value(kind, *inputs, **attrs):
    return ad.primitive(kind, [np.asarray(x, dtype=float) for x in inputs], **attrs)[0]


def vjp(kind, inputs, g=1.0, **attrs):
    """Gradients of sum(g * kind(inputs)) on every input."""
    inputs = [np.asarray(x, dtype=float) for x in inputs]
    return ad.primitive(kind, inputs, **attrs)[1](g, [True] * len(inputs))


def one_layer(w, activation="relu"):
    """masked_mlp inputs and attributes for a single bias-free layer."""
    spec = LayerSpec(w.shape[1], w.shape[0], activation)
    return lambda x: ([x, w, np.zeros(w.shape[0])], {"specs": (spec,)})


def ratio_value(p, q, eta=1.0, eps=1e-6):
    return float(value("ratio_penalty", np.atleast_2d(p), np.atleast_2d(q), eta=eta, eps=eps))


def softplus(s):
    return max(s, 0.0) + math.log1p(math.exp(-abs(s)))


class TestForwardExamples:
    def test_relu(self):
        inputs, attrs = one_layer(np.eye(3))(np.array([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(value("masked_mlp", *inputs, **attrs), [[0.0, 0.0, 2.0]])

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
        assert abs(float(value("consistency", p, p.copy()))) < 1e-15


class TestVjpExamples:
    def test_sum_gradient(self):
        # the L1 mean over 4 entries: each input's gradient is g * sign(x) / 4
        grads = vjp("l1_mean", [np.array([1.0, -5.0, 2.0]), np.array([-0.5])], g=2.0)
        assert np.array_equal(grads[0], [0.5, -0.5, 0.5])
        assert np.array_equal(grads[1], [-0.5])

    def test_l2_norm_sq_gradient(self):
        grads = vjp("stability", [np.array([[1.0, 2.0]]), np.zeros((1, 2))])
        assert np.array_equal(grads[0], [[2.0, 4.0]])
        assert np.array_equal(grads[1], [[-2.0, -4.0]])

    def test_gradient_accumulates_over_paths(self):
        # p reaches (p - 0)^2 through the stability term and 3 |p| through
        # the L1 term; the caller adds the two paths
        p = np.array([[1.5]])
        _, stab_vjp = ad.primitive("stability", [p, np.zeros((1, 1))])
        _, l1_vjp = ad.primitive("l1_mean", [p])
        assert (stab_vjp(1.0, [True, False])[0] + l1_vjp(3.0, [True])[0])[0, 0] == 6.0

    def test_frozen_input_gradient_unaffected(self):
        # the gradient on p does not depend on whether q is differentiated
        _, stab_vjp = ad.primitive("stability", [np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])])
        assert np.array_equal(stab_vjp(1.0, [True, False])[0], [[-4.0, -4.0]])

    def test_clip_gradient_mask_is_closed_interval_indicator(self):
        grads = vjp("noisy", [[[-0.5, 0.0, 0.5, 1.0, 1.5]]], g=np.ones((1, 5)),
                    xi=[np.zeros(5)])
        assert np.array_equal(grads[0], [[0.0, 1.0, 1.0, 1.0, 0.0]])

    def test_noisy_copies_get_their_own_gradient(self):
        c = np.full((2, 3), 0.5)
        xi = [np.array([0.6, 0.0, -0.6]), np.array([0.0, 0.6, 0.0])]
        out, noisy_vjp = ad.primitive("noisy", [c], xi=xi)
        assert np.array_equal(out, [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5]])
        assert np.array_equal(noisy_vjp(np.ones((2, 3)), [True])[0], [[0, 1, 0], [1, 0, 1]])

    def test_inf_norm_subgradient_single_index(self):
        # the sup-norm part reaches p_t at the first attaining index of
        # |p - p_t| alone, with the sign of p_t - p there
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.standard_normal((1, 8))
            q = rng.standard_normal((1, 8))
            g = vjp("ratio_penalty", [p, q], eta=1.0, eps=1e-6)[1][0]
            assert np.count_nonzero(g) == 1
            idx = int(np.argmax(np.abs(p - q)))
            assert np.sign(g[idx]) == np.sign(q[0, idx] - p[0, idx])

    def test_inf_norm_tie_routes_to_first_index(self):
        p = np.array([[3.0, 0.0, 1.0]])
        # |p - p_t| ties at 0 and 1
        g = vjp("ratio_penalty", [p, p - [[-2.0, 2.0, 1.0]]], eta=1.0, eps=1e-6)[1]
        assert g[0, 0] > 0 and g[0, 1] == 0.0 and g[0, 2] == 0.0


class TestMaskedMlp:
    def test_frozen_inputs_get_no_gradient(self):
        rng = np.random.default_rng(7)
        inputs = [rng.standard_normal((2, 3)), rng.standard_normal((2, 3)), np.zeros(2)]
        _, mlp_vjp = ad.primitive("masked_mlp", inputs, specs=(LayerSpec(3, 2, "none"),))
        grads = mlp_vjp(np.ones((2, 2)), [False, True, False])
        assert grads[0] is None and grads[2] is None and grads[1].shape == (2, 3)

    def test_stacked_copies_equal_separate_calls(self):
        # one stacked forward and backward keeps each copy's bits
        rng = np.random.default_rng(8)
        specs = (LayerSpec(5, 6, "relu"), LayerSpec(6, 3, "none"))
        x = rng.standard_normal((4, 7, 5))
        ws = [rng.standard_normal((4, 6, 5)), rng.standard_normal((4, 3, 6))]
        bs = [rng.standard_normal(6), rng.standard_normal(3)]
        g = rng.standard_normal((4, 7, 3))
        needs = [True, True, True, False, False]
        out, stack_vjp = ad.primitive("masked_mlp", [x, *ws, *bs], specs=specs)
        grads = stack_vjp(g, needs)
        for k in range(4):
            out_k, vjp_k = ad.primitive("masked_mlp", [x[k], ws[0][k], ws[1][k], *bs],
                                        specs=specs)
            assert np.array_equal(out[k], out_k)
            assert all(np.array_equal(a[k], b) for a, b in zip(grads[:3], vjp_k(g[k], needs)))


class TestErrors:
    def test_shape_mismatch_names_kind(self):
        with pytest.raises(ValueError, match="stability"):
            value("stability", np.ones((2, 3)), np.ones((4, 5)))

    def test_affine_shape_error(self):
        with pytest.raises(ValueError, match="masked_mlp"):
            value("masked_mlp", np.ones((2, 3)), np.ones((4, 9)), np.ones(4),
                  specs=(LayerSpec(9, 4, "none"),))

    def test_non_finite_forward(self):
        with pytest.raises(FloatingPointError, match="masked_mlp"):
            value("masked_mlp", np.full((1, 2), 1e200), np.full((1, 2), 1e200), np.zeros(1),
                  specs=(LayerSpec(2, 1, "none"),))

    def test_topk_needs_two_classes(self):
        with pytest.raises(ValueError, match="ratio_penalty"):
            value("ratio_penalty", np.ones((2, 1)), np.ones((2, 1)), eta=1.0, eps=1e-6)

    def test_noise_shape_error(self):
        with pytest.raises(ValueError, match="noisy"):
            value("noisy", np.ones((2, 3)), xi=[np.zeros(3)])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown primitive"):
            ad.primitive("frobnicate", [np.ones(2)])


def test_identical_inputs_identical_values():
    def build(seed):
        x = np.random.default_rng(seed).standard_normal((3, 4))
        return value("l1_mean", value("softmax", x))
    assert np.array_equal(build(9), build(9))


def test_cases_cover_exactly_the_registered_kinds():
    assert set(PRIMITIVE_CASES) == set(ad._OPS)


@pytest.mark.parametrize("label", sorted(CASE_LABELS))
def test_finite_differences(label):
    """Every case's VJP matches central finite differences of the kind's
    value within 1e-4 relative error on 20 seeded instances per shape class."""
    assert run_case_fd(label, instances_per_case=20) < 1e-4
