import numpy as np
import pytest

from maskcert.transforms import (AUGMENT_DELTA, CorruptionTag, TransformSpec, apply,
                                 augment_dataset, corrupt_input)


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


def draws(spec, rng, shape):
    """Deltas of `shape` from the transform's range, as certification draws
    them."""
    return rng.uniform(*spec.delta_range, size=shape)


class TestArrayDelta:
    """apply on an array of deltas: the transformed copies certification
    draws, one per delta."""

    def test_collapsed_range_returns_input(self):
        spec = TransformSpec(kind="direction_shift", direction=e(0),
                             delta_range=(0.0, 0.0))
        x = np.array([0.1, 0.2, 0.3, 0.4])
        out = apply(spec, x, draws(spec, np.random.default_rng(0), (3, 1)))
        assert np.array_equal(out, np.tile(x, (3, 1)))

    def test_rows_match_scalar_apply(self):
        spec = haze_spec()
        x = np.random.default_rng(2).uniform(size=5)
        out = apply(spec, x, draws(spec, np.random.default_rng(3), (4, 1)))
        deltas = np.random.default_rng(3).uniform(0, 1, 4)
        for row, d in zip(out, deltas):
            assert np.array_equal(row, apply(spec, x, float(d)))

    def test_uniform_mean_oracle(self):
        spec = shift_spec(2)
        n = 100_000
        out = apply(spec, np.zeros(2), draws(spec, np.random.default_rng(4), (n, 1)))
        assert abs(out[:, 0].mean() - 0.5) < 0.01  # shift equals the drawn delta

    def test_same_seed_identical(self):
        spec = haze_spec()
        x = np.random.default_rng(5).uniform(size=6)
        a = apply(spec, x, draws(spec, np.random.default_rng(6), (10, 1)))
        b = apply(spec, x, draws(spec, np.random.default_rng(6), (10, 1)))
        assert np.array_equal(a, b)

    def test_every_delta_range_checked(self):
        spec = TransformSpec(kind="direction_shift", direction=e(0), delta_range=(0.2, 0.9))
        for bad in ([[0.5], [0.95]], [[0.1], [0.5]], [[0.5], [np.nan]]):
            with pytest.raises(ValueError, match="delta"):
                apply(spec, np.zeros(4), np.array(bad))
        assert apply(spec, np.zeros(4), np.array([[0.2], [0.9]])).shape == (2, 4)

    @pytest.mark.parametrize("spec", [
        TransformSpec(kind="direction_shift", direction=np.array([0.6, 0.0, 0.8, 0.0, 0.0])),
        TransformSpec(kind="interp_corrupt", corrupt=CorruptionTag("haze", 0.3)),
        TransformSpec(kind="interp_corrupt", corrupt=CorruptionTag("gaussian_blur3", 0.8),
                      delta_range=(0.2, 0.9)),
    ], ids=["direction_shift", "haze", "gaussian_blur3"])
    def test_stacked_equals_scalar_calls(self, spec):
        # (l, n, 1) deltas give every copy the bits of the l·n scalar calls,
        # and of l successive calls on (n, 1) deltas from one stream
        x = np.random.default_rng(8).uniform(size=5)
        rng = np.random.default_rng(9)
        calls = np.stack([apply(spec, x, draws(spec, rng, (7, 1))) for _ in range(3)])
        deltas = draws(spec, np.random.default_rng(9), (3, 7, 1))
        assert np.array_equal(apply(spec, x, deltas), calls)
        scalar = [[apply(spec, x, float(d)) for d in row.ravel()] for row in deltas]
        assert np.array_equal(np.array(scalar), calls)
        # into buffers, the stream continuing where a draw of 2 x 7 stopped;
        # the delta term is formed in `work`
        out, work = np.empty((4, 7, 5)), np.empty((4, 7, 5))
        rng = np.random.default_rng(9)
        first = apply(spec, x, draws(spec, rng, (2, 7, 1)), out=out[:2], work=work[:2])
        assert first.base is out and np.array_equal(first, calls[:2])
        d = draws(spec, rng, (1, 7, 1))
        assert np.array_equal(apply(spec, x, d, out=out[:1], work=work[:1]), calls[2:])
        c = spec.direction if spec.kind == "direction_shift" else corrupt_input(spec.corrupt, x)
        assert np.array_equal(work[:1], d * c)


class TestAugmentDataset:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.uniform(size=(10, 4))
        self.y = rng.integers(0, 2, size=10)

    def test_count_zero_noop(self):
        aug = augment_dataset(self.x, self.y, shift_spec(), 0)
        assert aug.x is self.x and aug.y is self.y and len(aug) == len(self.x)
        assert aug.rows.shape == (0,) and aug.rows.dtype == np.int64
        xb, yb = aug.gather(np.arange(len(self.x)))
        assert np.array_equal(xb, self.x) and np.array_equal(yb, self.y)

    def test_full_count_transforms_every_row_once(self):
        aug = augment_dataset(self.x, self.y, shift_spec(), len(self.x),
                              rng=np.random.default_rng(8))
        assert len(aug) == 2 * len(self.x)
        assert np.array_equal(np.sort(aug.rows), np.arange(len(self.x)))
        appended, _ = aug.gather(np.arange(len(self.x), len(aug)))
        assert np.array_equal(appended, apply(shift_spec(), self.x[aug.rows], 1.0))

    def test_labels_preserved(self):
        rng = np.random.default_rng(9)
        aug = augment_dataset(self.x, self.y, shift_spec(), 7, rng=rng)
        assert len(aug.rows) == 7
        _, labels = aug.gather(np.arange(len(self.x), len(aug)))
        assert np.array_equal(labels, self.y[aug.rows])

    def test_count_beyond_size_cycles(self):
        aug = augment_dataset(self.x, self.y, shift_spec(), 25, rng=np.random.default_rng(10))
        assert len(aug) == 35 and len(aug.rows) == 25
        # first two full cycles pick every original exactly twice
        assert np.array_equal(np.bincount(aug.rows[:20], minlength=10), np.full(10, 2))

    @pytest.mark.parametrize("bad", [-1, "len"], ids=["negative", "past-the-tail"])
    @pytest.mark.parametrize("count", [0, 3], ids=["clean", "augmented"])
    def test_gather_rejects_an_index_outside_the_set(self, count, bad):
        # alone or among valid indices, rather than clipped to a row
        aug = augment_dataset(self.x, self.y, shift_spec(), count, np.random.default_rng(17))
        bad = len(aug) if bad == "len" else bad
        for idx in ([bad], [0, bad, 1]):
            with pytest.raises(IndexError, match=rf"outside \[0, {len(aug)}\): "):
                aug.gather(idx)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            augment_dataset(np.empty((0, 4)), np.empty(0, dtype=int), shift_spec(), 1)

    def test_pairs_align_with_transform(self):
        rng = np.random.default_rng(11)
        aug = augment_dataset(self.x, self.y, haze_spec(), 5, rng=rng)
        for j, r in enumerate(aug.rows):
            xb, _ = aug.gather([len(self.x) + j])
            assert np.array_equal(xb[0], apply(haze_spec(), self.x[r], 1.0))

    @pytest.mark.parametrize("spec", [shift_spec(), haze_spec(),
                                      TransformSpec(kind="interp_corrupt",
                                                    corrupt=CorruptionTag("gaussian_blur3", 0.8))],
                             ids=["shift", "haze", "blur"])
    def test_tail_rows_equal_apply_of_gathered_rows(self, spec):
        # the transformed rows a gather forms have the bits of apply at
        # AUGMENT_DELTA = 1 on a gathered copy of the same rows
        assert AUGMENT_DELTA == 1.0
        aug = augment_dataset(self.x, self.y, spec, 13, rng=np.random.default_rng(12))
        xb, _ = aug.gather(np.arange(len(self.x), len(aug)))
        assert np.array_equal(xb, apply(spec, self.x[aug.rows], 1.0))


def materialized(aug):
    """The augmented set as one array, and its labels, the way it was built
    before it was held as clean rows plus picks: the clean rows, then the
    picked rows gathered behind them and transformed in place in blocks of
    at most 2^15 entries."""
    x_aug = np.empty((len(aug), aug.x.shape[1]))
    x_aug[:len(aug.x)] = aug.x
    tail = np.take(aug.x, aug.rows, axis=0, out=x_aug[len(aug.x):])
    step = max(1, 2 ** 15 // aug.x.shape[1])
    for start in range(0, len(tail), step):
        block = tail[start:start + step]
        apply(aug.spec, block, AUGMENT_DELTA, out=block)
    return x_aug, np.concatenate([aug.y, aug.y[aug.rows]])


WIDE_SPECS = {
    "shift": TransformSpec(kind="direction_shift", direction=e(3, 784)),
    "haze": haze_spec(0.4),
    "blur": TransformSpec(kind="interp_corrupt", corrupt=CorruptionTag("gaussian_blur3", 0.8)),
}


class TestDataset:
    """Every row a Dataset reads out has the bits of the same row of
    the materialized set, for 784-wide rows, whose materialized tail is
    transformed 41 rows at a time."""

    N = 100
    COUNTS = {"L1": N // 4, "L2": N, "none": 0}  # config.augment_count's

    def build(self, spec_name, level):
        rng = np.random.default_rng(14)
        x = rng.uniform(size=(self.N, 784))
        y = rng.integers(0, 10, size=self.N)
        return augment_dataset(x, y, WIDE_SPECS[spec_name], self.COUNTS[level],
                               np.random.default_rng(15))

    @pytest.mark.parametrize("rows", ["mixed", "head", "tail"])
    @pytest.mark.parametrize("level", ["L1", "L2", "none"])
    @pytest.mark.parametrize("spec_name", sorted(WIDE_SPECS))
    def test_gather_equals_the_materialized_rows(self, spec_name, level, rows):
        # batches of 16 over a shuffled order, so head and tail positions
        # fall anywhere in a batch, repeats included
        aug = self.build(spec_name, level)
        x_aug, y_aug = materialized(aug)
        pool = {"mixed": np.arange(len(aug)), "head": np.arange(self.N),
                "tail": np.arange(self.N, len(aug))}[rows]
        rng = np.random.default_rng(16)
        order = np.concatenate([rng.permutation(pool), rng.choice(pool, size=min(7, pool.size))])
        if rows == "mixed" and level != "none":
            assert (order[:16] < self.N).any() and (order[:16] >= self.N).any()
        out = np.empty((16, 784))
        for start in range(0, len(order), 16):
            idx = order[start:start + 16]
            xb, yb = aug.gather(idx, out[:len(idx)])
            assert xb.base is out or xb is out
            assert np.array_equal(xb, x_aug[idx]) and np.array_equal(yb, y_aug[idx])


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
