import numpy as np
import pytest

from maskcert.transforms import (CorruptionTag, TransformSpec, apply,
                                 augment_dataset, corrupt_input, sample_set)


def e(i, n=4):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def shift_spec(n=4):
    return TransformSpec(kind="direction_shift", direction=e(0, n))


def haze_spec(a=0.6):
    return TransformSpec(kind="interp_corrupt", corrupt=CorruptionTag("haze", a))


class TestSpecValidation:
    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            TransformSpec(kind="direction_shift", direction=np.array([1.0, 1.0]))

    def test_delta_range_subset(self):
        with pytest.raises(ValueError, match="delta_range"):
            TransformSpec(kind="direction_shift", direction=np.array([1.0, 0.0]),
                          delta_range=(-0.1, 1.0))

    def test_haze_severity_range(self):
        with pytest.raises(ValueError, match="severity"):
            CorruptionTag("haze", 1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            TransformSpec(kind="rotate")


class TestApply:
    def test_delta_zero_identity(self):
        x = np.array([0.3, 0.9, 0.0])
        for spec in (shift_spec(3), haze_spec()):
            assert np.array_equal(apply(spec, x, 0.0), x)

    def test_haze_endpoint(self):
        a = 0.6
        x = np.array([0.0, 0.5, 1.0])
        out = apply(haze_spec(a), x, 1.0)
        assert np.allclose(out, np.clip((1 - a) * x + a, 0, 1))

    def test_direction_shift_example(self):
        spec = TransformSpec(kind="direction_shift", direction=np.array([1.0, 0.0]))
        assert np.array_equal(apply(spec, np.zeros(2), 0.5), [0.5, 0.0])

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError, match="delta"):
            apply(shift_spec(), np.zeros(4), 1.5)

    def test_interp_stays_in_unit_box(self):
        rng = np.random.default_rng(0)
        for tag in (CorruptionTag("haze", 0.8), CorruptionTag("gaussian_blur3", 1.0)):
            spec = TransformSpec(kind="interp_corrupt", corrupt=tag)
            x = rng.uniform(size=12)
            for d in np.linspace(0, 1, 7):
                out = apply(spec, x, float(d))
                assert np.all((out >= 0) & (out <= 1))

    def test_blur_preserves_constant(self):
        tag = CorruptionTag("gaussian_blur3", 0.7)
        x = np.full(9, 0.4)
        assert np.allclose(corrupt_input(tag, x), x)

    def test_lipschitz_in_delta(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0, 1, 21)
        x = rng.uniform(size=6)
        spec_s = shift_spec(6)
        lip_s = np.abs(spec_s.direction).max()
        spec_h = haze_spec(0.6)
        lip_h = np.abs(corrupt_input(spec_h.corrupt, x) - x).max()
        for spec, lip in ((spec_s, lip_s), (spec_h, lip_h)):
            vals = [apply(spec, x, float(d)) for d in grid]
            for i in range(len(grid) - 1):
                diff = np.abs(vals[i + 1] - vals[i]).max()
                assert diff <= lip * (grid[i + 1] - grid[i]) + 1e-12


class TestSampleSet:
    def test_collapsed_range_returns_input(self):
        spec = TransformSpec(kind="direction_shift", direction=e(0),
                             delta_range=(0.0, 0.0))
        x = np.array([0.1, 0.2, 0.3, 0.4])
        out = sample_set(spec, x, 3, np.random.default_rng(0))
        assert np.array_equal(out, np.tile(x, (3, 1)))

    def test_rows_match_scalar_apply(self):
        spec = haze_spec()
        x = np.random.default_rng(2).uniform(size=5)
        rng = np.random.default_rng(3)
        out = sample_set(spec, x, 4, rng)
        deltas = np.random.default_rng(3).uniform(0, 1, 4)
        for row, d in zip(out, deltas):
            assert np.array_equal(row, apply(spec, x, float(d)))

    def test_uniform_mean_oracle(self):
        spec = shift_spec(2)
        rng = np.random.default_rng(4)
        n = 100_000
        out = sample_set(spec, np.zeros(2), n, rng)
        assert abs(out[:, 0].mean() - 0.5) < 0.01  # shift equals the drawn delta

    def test_same_seed_identical(self):
        spec = haze_spec()
        x = np.random.default_rng(5).uniform(size=6)
        a = sample_set(spec, x, 10, np.random.default_rng(6))
        b = sample_set(spec, x, 10, np.random.default_rng(6))
        assert np.array_equal(a, b)

    def test_n_validated(self):
        with pytest.raises(ValueError, match="n"):
            sample_set(shift_spec(), np.zeros(4), 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n"):
            sample_set(shift_spec(), np.zeros(4), (3, 0), np.random.default_rng(0))

    @pytest.mark.parametrize("spec", [
        TransformSpec(kind="direction_shift", direction=np.array([0.6, 0.0, 0.8, 0.0, 0.0])),
        TransformSpec(kind="interp_corrupt", corrupt=CorruptionTag("haze", 0.3)),
        TransformSpec(kind="interp_corrupt", corrupt=CorruptionTag("gaussian_blur3", 0.8),
                      delta_range=(0.2, 0.9)),
    ], ids=["direction_shift", "haze", "gaussian_blur3"])
    def test_stacked_equals_successive_calls(self, spec):
        x = np.random.default_rng(8).uniform(size=5)
        rng = np.random.default_rng(9)
        calls = np.stack([sample_set(spec, x, 7, rng) for _ in range(3)])
        assert np.array_equal(sample_set(spec, x, (3, 7), np.random.default_rng(9)), calls)
        # into buffers, continuing the stream where one call of 2 x 7 stopped
        out, work = np.empty((4, 7, 5)), np.empty((4, 7, 5))
        rng = np.random.default_rng(9)
        first = sample_set(spec, x, (2, 7), rng, out=out[:2], work=work[:2])
        assert first.base is out and np.array_equal(first, calls[:2])
        assert np.array_equal(sample_set(spec, x, (1, 7), rng, out=out[:1], work=work[:1]),
                              calls[2:])


class TestAugmentDataset:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.uniform(size=(10, 4))
        self.y = rng.integers(0, 2, size=10)

    def test_count_zero_noop(self):
        xa, ya, rows = augment_dataset(self.x, self.y, shift_spec(), 0)
        assert np.array_equal(xa, self.x)
        assert np.array_equal(ya, self.y)
        assert rows.shape == (0,) and rows.dtype == np.int64

    def test_full_count_delta_zero_duplicates(self):
        xa, ya, _ = augment_dataset(self.x, self.y, shift_spec(), len(self.x),
                                    delta_fixed=0.0, rng=np.random.default_rng(8))
        assert len(xa) == 2 * len(self.x)
        appended = xa[len(self.x):]
        assert np.array_equal(np.sort(appended, axis=0), np.sort(self.x, axis=0))

    def test_labels_preserved(self):
        rng = np.random.default_rng(9)
        xa, ya, rows = augment_dataset(self.x, self.y, shift_spec(), 7, rng=rng)
        assert len(rows) == 7
        for r, label in zip(rows, ya[len(self.x):]):
            assert np.array_equal(xa[r], self.x[r])
            assert self.y[r] == label

    def test_count_beyond_size_cycles(self):
        xa, ya, rows = augment_dataset(self.x, self.y, shift_spec(), 25,
                                       rng=np.random.default_rng(10))
        assert len(xa) == 35 and len(rows) == 25
        # first two full cycles pick every original exactly twice
        assert np.array_equal(np.bincount(rows[:20], minlength=10), np.full(10, 2))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            augment_dataset(np.empty((0, 4)), np.empty(0, dtype=int), shift_spec(), 1)

    def test_pairs_align_with_transform(self):
        rng = np.random.default_rng(11)
        xa, ya, rows = augment_dataset(self.x, self.y, haze_spec(), 5,
                                       delta_fixed=1.0, rng=rng)
        assert np.array_equal(xa[:len(self.x)], self.x)
        for j, r in enumerate(rows):
            assert np.array_equal(xa[len(self.x) + j], apply(haze_spec(), xa[r], 1.0))

    @pytest.mark.parametrize("spec", [shift_spec(), haze_spec(),
                                      TransformSpec(kind="interp_corrupt",
                                                    corrupt=CorruptionTag("gaussian_blur3", 0.8))],
                             ids=["shift", "haze", "blur"])
    @pytest.mark.parametrize("delta", [0.0, 0.35, 1.0])
    def test_tail_rows_equal_apply_of_gathered_rows(self, spec, delta):
        # the rows transformed in place in x_aug's tail have the bits of
        # apply on a gathered copy of the same rows
        xa, _, rows = augment_dataset(self.x, self.y, spec, 13, delta_fixed=delta,
                                      rng=np.random.default_rng(12))
        assert np.array_equal(xa[len(self.x):], apply(spec, self.x[rows], delta))


def out_of_place_corrupt(tag, x):
    """corrupt_input as one expression over an edge-padded copy."""
    s = tag.severity
    if tag.name == "haze":
        return (1.0 - s) * x + s
    padded = np.concatenate([x[..., :1], x, x[..., -1:]], axis=-1)
    return (s * padded[..., :-2] + padded[..., 1:-1] + s * padded[..., 2:]) / (1.0 + 2.0 * s)


class TestInPlaceBits:
    """The in-place transforms against their one-expression forms, bit for
    bit, so that a numpy change that breaks an equivalence names it."""

    @pytest.mark.parametrize("tag", [CorruptionTag("haze", 0.6), CorruptionTag("haze", 1.0),
                                     CorruptionTag("gaussian_blur3", 0.8),
                                     CorruptionTag("gaussian_blur3", 3.0)])
    @pytest.mark.parametrize("shape", [(7, 9), (9,), (5, 1), (2, 3, 4)])
    def test_corrupt_input(self, tag, shape):
        x = np.random.default_rng(13).uniform(size=shape)
        assert np.array_equal(corrupt_input(tag, x), out_of_place_corrupt(tag, x))

    @pytest.mark.parametrize("spec", [shift_spec(9), haze_spec(),
                                      TransformSpec(kind="interp_corrupt",
                                                    corrupt=CorruptionTag("gaussian_blur3", 0.8))],
                             ids=["shift", "haze", "blur"])
    @pytest.mark.parametrize("delta", [0.0, 0.35, 1.0])
    def test_apply_in_place(self, spec, delta):
        x = np.random.default_rng(14).uniform(size=(6, 9))
        if delta == 0.0:
            want = x.copy()
        elif spec.kind == "direction_shift":
            want = x + delta * spec.direction
        else:
            want = np.clip((1.0 - delta) * x + delta * out_of_place_corrupt(spec.corrupt, x),
                           0.0, 1.0)
        assert np.array_equal(apply(spec, x, delta), want)
        rows = x.copy()
        assert apply(spec, rows, delta, out=rows) is rows
        assert np.array_equal(rows, want)
