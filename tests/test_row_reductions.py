"""The class-axis reductions model._row_max and model._row_sum against
numpy's reduce, bit for bit, and every caller of theirs against the same
code run with numpy's reduce in their place.

On an axis of fewer than 8 entries the helpers run one column ufunc per
entry in the order numpy's reduce adds them, so a numpy release that sums a
short axis in another order fails here first. Bits are compared with the
sign of zero; a NaN result is compared as NaN alone, since IEEE 754 leaves
its sign unspecified and numpy's own kernels differ in it."""

import numpy as np
import pytest

from maskcert import autodiff, certify, model, objectives, pipeline
from maskcert.model import _row_max, _row_sum, softmax
from maskcert.objectives import consistency, ratio_penalty, stability
from maskcert.pipeline import cross_entropy

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def arrays(k, count=100, seed=0):
    """`count` float arrays with a last axis of k entries and 0 to 2
    leading axes: normals at scales 1e-5 to 1e4, rounded ones with ties,
    and ones with special entries (±0, ±inf, NaN) scattered in or alone."""
    rng = np.random.default_rng([seed, k])
    for i in range(count):
        lead = tuple(int(n) for n in rng.integers(1, 5, size=i % 3))
        a = rng.standard_normal(lead + (k,)) * 10.0 ** rng.uniform(-5, 4)
        kind = i % 4
        if kind == 1:  # ties
            a = np.round(a / np.abs(a).max() * 2)
        elif kind == 2:
            hit = rng.random(a.shape) < 0.4
            a[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
        elif kind == 3:  # signed zeros alone
            a = rng.choice(SPECIAL[:2], size=a.shape)
        yield a


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("helper, reduce", [(_row_max, np.max), (_row_sum, np.sum)],
                         ids=["max", "sum"])
def test_helper_has_numpys_bits(helper, reduce, k):
    with np.errstate(invalid="ignore"):
        for a in arrays(k):
            want = reduce(a, axis=-1)
            assert_same_bits(helper(a), want)
            out = np.full(a.shape[:-1], 7.0)
            assert helper(a, out=out) is out
            assert_same_bits(out, want)
            # a strided view in and a strided out, as certification passes;
            # numpy's own max may sign a zero otherwise on a strided long axis
            view = np.repeat(a, 2, axis=-1)[..., ::2]
            wide = np.full(a.shape[:-1] + (2,), 7.0)
            helper(view, out=wide[..., 0])
            assert_same_bits(wide[..., 0], reduce(view, axis=-1))


def test_short_sum_starts_from_plus_zero():
    # numpy adds a short axis to +0.0, so an all-(-0.0) row sums to +0.0
    a = np.full((3, 2), -0.0)
    assert not np.signbit(a.sum(axis=-1)).any()
    assert not np.signbit(_row_sum(a)).any()
    assert np.signbit(_row_max(a)).all()


@pytest.fixture
def numpy_reduce(monkeypatch):
    """Run every caller of the helpers with numpy's reduce in their place."""
    def use():
        for mod in (model, autodiff, objectives, pipeline, certify):
            if hasattr(mod, "_row_max"):
                monkeypatch.setattr(mod, "_row_max", lambda a, out=None: a.max(axis=-1, out=out))
            if hasattr(mod, "_row_sum"):
                monkeypatch.setattr(mod, "_row_sum", lambda a, out=None: a.sum(axis=-1, out=out))
    return use


def both(numpy_reduce, f):
    """f() with the helpers, then with numpy's reduce."""
    got = f()
    numpy_reduce()
    return got, f()


def probs(rng, shape):
    return softmax(rng.standard_normal(shape) * 4)


@pytest.mark.parametrize("k", [2, 10])
def test_softmax_and_its_vjp(numpy_reduce, k):
    rng = np.random.default_rng(k)
    h, g = rng.standard_normal((2, 4, 33, k)) * 20
    h[0, 0, 0] = 0.0  # a tied row

    def run():
        p, vjp = autodiff.primitive("softmax", [h])
        in_place = h.copy()
        return p, vjp(g)[0], softmax(in_place, out=in_place)
    for got, want in zip(*both(numpy_reduce, run)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("k", [2, 10])
def test_cross_entropy(numpy_reduce, k):
    rng = np.random.default_rng(k + 1)
    logits = rng.standard_normal((3, 40, k)) * 8
    labels = rng.integers(0, k, size=40)
    for got, want in zip(*both(numpy_reduce, lambda: cross_entropy(logits, labels))):
        assert_same_bits(got, want)


@pytest.mark.parametrize("k", [2, 10])
@pytest.mark.parametrize("term", ["stability", "consistency", "ratio_penalty"])
def test_stage2_terms(numpy_reduce, term, k):
    rng = np.random.default_rng(k + 2)
    p, q = probs(rng, (40, k)), probs(rng, (40, k))
    q[0] = p[0]  # a row with no discrepancy
    call = {"stability": lambda: stability(p, q, 0.7),
            "consistency": lambda: consistency(p, q, 0.7),
            "ratio_penalty": lambda: ratio_penalty(p, q, 0.5, 1e-3, 0.7)}[term]
    for got, want in zip(*both(numpy_reduce, call)):
        assert_same_bits(got, want)
