import math

import numpy as np
import pytest

from maskcert import autodiff as ad
from maskcert.model import LayerSpec
from util import CASE_LABELS, PRIMITIVE_CASES, rel_err, run_case_fd


def leafed(*arrays, requires_grad=True):
    tape = ad.Tape()
    return tape, [tape.leaf(a, requires_grad=requires_grad) for a in arrays]


def one_layer(tape, w, activation="relu", mask=None):
    """masked_mlp over a single bias-free layer."""
    w_node = tape.const(w)
    b_node = tape.const(np.zeros(w.shape[0]))
    return lambda x: ad.masked_mlp(x, [w_node], [b_node], [LayerSpec(w.shape[1], w.shape[0], activation)],
                                   None if mask is None else [mask])


def ratio_value(p, q, eta=1.0, eps=1e-6):
    tape, (a, b) = leafed(np.atleast_2d(p), np.atleast_2d(q))
    return float(ad.ratio_penalty(a, b, eta, eps).value)


def softplus(s):
    return max(s, 0.0) + math.log1p(math.exp(-abs(s)))


class TestForwardExamples:
    def test_relu(self):
        tape, (x,) = leafed(np.array([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(one_layer(tape, np.eye(3))(x).value, [[0.0, 0.0, 2.0]])

    def test_softmax_symmetry(self):
        tape, (x,) = leafed(np.array([0.0, 0.0]))
        assert np.array_equal(ad.softmax(x).value, [0.5, 0.5])

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
        tape, (x,) = leafed(rng.standard_normal((50, 7)) * 30)
        p = ad.softmax(x).value
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
        tape, (a, b) = leafed(p, p.copy())
        assert abs(float(ad.consistency(a, b).value)) < 1e-15


class TestBackpropExamples:
    def test_sum_gradient(self):
        tape, (x,) = leafed(np.array([1.0, 5.0, -2.0]))
        grads = ad.backprop(ad.weighted_sum([x], [np.array([1.0, -2.0, 0.5])]))
        assert np.array_equal(grads[x.id], [1.0, -2.0, 0.5])

    def test_l2_norm_sq_gradient(self):
        tape, (p, q) = leafed(np.array([[1.0, 2.0]]), np.zeros((1, 2)))
        grads = ad.backprop(ad.stability(p, q))
        assert np.array_equal(grads[p.id], [[2.0, 4.0]])
        assert np.array_equal(grads[q.id], [[-2.0, -4.0]])

    def test_gradient_accumulates_over_paths(self):
        tape, (x,) = leafed(np.array([1.5]))
        grads = ad.backprop(ad.weighted_sum([x, ad.l1_mean([x])], [np.array([2.0]), 3.0]))
        assert grads[x.id][0] == 5.0

    def test_frozen_leaves_skipped(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([[1.0, 2.0]]), requires_grad=True)
        w = tape.leaf(np.array([[3.0, 4.0]]), requires_grad=False)
        grads = ad.backprop(ad.stability(x, w))
        assert w.id not in grads and w.grad is None
        assert np.array_equal(grads[x.id], [[-4.0, -4.0]])

    def test_clip_gradient_mask_is_closed_interval_indicator(self):
        tape, (c,) = leafed(np.array([-0.5, 0.0, 0.5, 1.0, 1.5]))
        grads = ad.backprop(ad.weighted_sum([ad.noisy(c, np.zeros(5))], [np.ones(5)]))
        assert np.array_equal(grads[c.id], [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_inf_norm_subgradient_single_index(self):
        # the sup-norm part reaches p_t at the first attaining index of
        # |p - p_t| alone, with the sign of p_t - p there
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.standard_normal((1, 8))
            q = rng.standard_normal((1, 8))
            tape, (a, b) = leafed(p, q)
            g = ad.backprop(ad.ratio_penalty(a, b, 1.0, 1e-6))[b.id][0]
            assert np.count_nonzero(g) == 1
            idx = int(np.argmax(np.abs(p - q)))
            assert np.sign(g[idx]) == np.sign(q[0, idx] - p[0, idx])

    def test_inf_norm_tie_routes_to_first_index(self):
        p = np.array([[3.0, 0.0, 1.0]])
        tape, (a, b) = leafed(p, p - [[-2.0, 2.0, 1.0]])  # |p - p_t| ties at 0 and 1
        g = ad.backprop(ad.ratio_penalty(a, b, 1.0, 1e-6))[b.id]
        assert g[0, 0] > 0 and g[0, 1] == 0.0 and g[0, 2] == 0.0


class TestMaskedMlp:
    def test_structured_mask_gradient_sums_its_row(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((3, 4))
        tape, (x, m) = leafed(rng.standard_normal((2, 4)), np.array([[0.5], [1.0], [0.25]]))
        dense_tape, (xd, md) = leafed(x.value, np.repeat(m.value, 4, axis=1))
        out = one_layer(tape, w, "none", m)(x)
        out_d = one_layer(dense_tape, w, "none", md)(xd)
        assert np.array_equal(out.value, out_d.value)
        weights = [rng.uniform(size=(2, 3))]
        g = ad.backprop(ad.weighted_sum([out], weights))[m.id]
        g_d = ad.backprop(ad.weighted_sum([out_d], weights))[md.id]
        assert g.shape == (3, 1)
        assert rel_err(g[:, 0], g_d.sum(axis=1)) < 1e-12

    def test_frozen_inputs_get_no_gradient(self):
        rng = np.random.default_rng(7)
        tape = ad.Tape()
        x = tape.const(rng.standard_normal((2, 3)))
        w = tape.leaf(rng.standard_normal((2, 3)), requires_grad=True)
        b = tape.const(np.zeros(2))
        out = ad.masked_mlp(x, [w], [b], [LayerSpec(3, 2, "none")])
        grads = ad.backprop(ad.weighted_sum([out], [np.ones((2, 2))]))
        assert set(grads) == {w.id}
        assert x.grad is None and b.grad is None


class TestSte:
    def test_forward_bitwise(self):
        tape = ad.Tape()
        c = tape.leaf(np.array([0.3, 0.7, 0.123456]), requires_grad=True)
        hard = np.array([1.0, 0.0, 1.0])
        node = ad.ste(c, hard)
        assert np.array_equal(node.value, hard)

    def test_identity_gradient(self):
        tape = ad.Tape()
        c = tape.leaf(np.array([0.2, 0.9]), requires_grad=True)
        grads = ad.backprop(ad.weighted_sum([ad.ste(c, np.array([0.0, 1.0]))], [np.ones(2)]))
        assert np.array_equal(grads[c.id], np.ones(2))

    def test_replay_shifts_linearly_from_recorded_point(self):
        tape = ad.Tape()
        c = tape.leaf(np.array([0.2, 0.9]), requires_grad=True)
        node = ad.ste(c, np.array([0.0, 1.0]))
        values = tape.replay({c: np.array([0.25, 0.8])})
        assert np.allclose(values[node.id], [0.05, 0.9], atol=1e-15)


class TestErrors:
    def test_shape_mismatch_names_kind(self):
        tape, (x, y) = leafed(np.ones((2, 3)), np.ones((4, 5)))
        with pytest.raises(ValueError, match="stability"):
            ad.stability(x, y)

    def test_affine_shape_error(self):
        tape, (x, w, b) = leafed(np.ones((2, 3)), np.ones((4, 9)), np.ones(4))
        with pytest.raises(ValueError, match="masked_mlp"):
            ad.masked_mlp(x, [w], [b], [LayerSpec(9, 4, "none")])

    def test_mask_shape_error(self):
        tape, (x, w, b, m) = leafed(np.ones((2, 3)), np.ones((4, 3)), np.ones(4), np.ones((1, 3)))
        with pytest.raises(ValueError, match="masked_mlp"):
            ad.masked_mlp(x, [w], [b], [LayerSpec(3, 4, "none")], [m])

    def test_non_finite_forward(self):
        tape, (x, w, b) = leafed(np.full((1, 2), 1e200), np.full((1, 2), 1e200), np.zeros(1))
        with pytest.raises(FloatingPointError, match="masked_mlp"):
            ad.masked_mlp(x, [w], [b], [LayerSpec(2, 1, "none")])

    def test_non_scalar_backprop_root(self):
        tape, (x,) = leafed(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            ad.backprop(ad.softmax(x))

    def test_topk_needs_two_classes(self):
        tape, (p, q) = leafed(np.ones((2, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="ratio_penalty"):
            ad.ratio_penalty(p, q, 1.0, 1e-6)

    def test_backprop_on_released_tape(self):
        tape, (x,) = leafed(np.ones((1, 2)))
        loss = ad.cross_entropy(x, np.array([0]))
        tape.release()
        with pytest.raises(ValueError, match="live tape"):
            ad.backprop(loss)

    def test_unknown_kind(self):
        tape, (x,) = leafed(np.ones(2))
        with pytest.raises(ValueError, match="unknown primitive"):
            ad.primitive("frobnicate", [x])


class TestReplay:
    def test_replay_reproduces_recorded_values_bitwise(self):
        rng = np.random.default_rng(21)
        tape, (x, w, b) = leafed(rng.standard_normal((4, 3)),
                                 rng.standard_normal((5, 3)),
                                 rng.standard_normal(5))
        p = ad.softmax(ad.masked_mlp(x, [w], [b], [LayerSpec(3, 5, "relu")]))
        ad.stability(p, ad.noisy(p, rng.uniform(-0.1, 0.1, size=(4, 5))))
        values = tape.replay({})
        for node in tape.nodes:
            assert np.array_equal(values[node.id], node.value)

    def test_identical_seed_identical_graph(self):
        def build(seed):
            rng = np.random.default_rng(seed)
            tape = ad.Tape()
            x = tape.leaf(rng.standard_normal((3, 4)), requires_grad=True)
            return ad.weighted_sum([ad.softmax(x)], [np.ones((3, 4))]).value
        assert np.array_equal(build(9), build(9))

    def test_replay_rejects_wrong_shape(self):
        tape, (x,) = leafed(np.ones(3))
        ad.softmax(x)
        with pytest.raises(ValueError, match="shape"):
            tape.replay({x: np.ones(4)})


def test_cases_cover_exactly_the_registered_kinds():
    assert set(PRIMITIVE_CASES) == set(ad._OPS)


@pytest.mark.parametrize("label", sorted(CASE_LABELS))
def test_finite_differences(label):
    """Every case matches central finite differences of the replayed tape
    within 1e-4 relative error on 20 seeded instances per shape class."""
    assert run_case_fd(label, instances_per_case=20) < 1e-4
