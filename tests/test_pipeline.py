import dataclasses
import gc
import struct
import time
import weakref

import numpy as np
import pytest

from maskcert import autodiff as ad
from maskcert import certify, objectives, pipeline
from maskcert.config import ExperimentConfig, validate
from maskcert.datasets import Dataset, accuracy
from maskcert.errors import ConfigError
from maskcert.masks import binarize, effective_ratio, hard_multipliers, layer_views
from maskcert.model import MaskableModel, masked_backward, masked_forward, mlp_specs
from maskcert.pipeline import (Adam, MomentumSGD, cross_entropy, lmp_mask,
                               run_experiment, stage1_pretrain,
                               stage2_mask_search, stage3_finetune)
from maskcert.transforms import AUGMENT_DELTA, TransformSpec, apply
from util import PerLayerAdam, TracedPeak, make_cfg


def tiny_cfg(**kw):
    base = dict(synthetic_train_per_class=40, synthetic_test_per_class=40,
                stage1_epochs=6, stage2_epochs=4, stage3_epochs=6,
                cert_samples=15, cert_repetitions=2, cert_t_count=80,
                cert_eval_size=20, seed=11)
    base.update(kw)
    return validate(ExperimentConfig(**base))


def tiny_setup(cfg):
    train, test, spec = pipeline.build_data(cfg)
    model = pipeline.fresh_model(cfg, train.x.shape[1])
    return train, test, spec, model


def idx_cfg(tmp_path, train_count=100, test_count=20, side=28, **kw):
    """A validated config over seeded 10-class IDX files of side x side
    pixels, hazed."""
    rng = np.random.default_rng(41)
    paths = {}
    for split, count in (("train", train_count), ("test", test_count)):
        images = rng.integers(0, 256, size=(count, side, side), dtype=np.uint8)
        labels = (np.arange(count) % 10).astype(np.uint8)
        img, lab = tmp_path / f"{split}-images.idx", tmp_path / f"{split}-labels.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, count, side, side) + images.tobytes())
        lab.write_bytes(struct.pack(">II", 0x801, count) + labels.tobytes())
        paths[f"idx_{split}_images"], paths[f"idx_{split}_labels"] = str(img), str(lab)
    return make_cfg(dataset_kind="idx", idx_classes=10, transform_kind="interp_corrupt",
                    corruption="haze", hidden_dims=(8,), **paths, **kw)


def copied_pairs(train):
    """The stage-2 pairs as row-aligned copies: clean rows gathered from the
    training inputs and their transformed copies."""
    clean = train.x[train.rows]
    return clean, apply(train.spec, clean, AUGMENT_DELTA)


class TestBuildData:
    @pytest.mark.parametrize("level, count", [("L1", 25), ("L2", 100), ("none", 0)])
    def test_the_training_set_is_the_clean_rows_and_the_picks(self, tmp_path, level, count):
        methods = ("vanilla", "lmp") if level == "none" else ("vanilla", "lmp", "csam")
        cfg = idx_cfg(tmp_path, augment_level=level, methods=methods)
        train, _, spec, _ = tiny_setup(cfg)
        assert len(train.x) == 100 and train.rows.shape == (count,)
        assert len(train) == 100 + count
        assert train.spec is spec and AUGMENT_DELTA == 1.0

    @pytest.mark.parametrize("level", ["L1", "L2"])
    def test_tail_rows_are_the_copied_transformed_pairs(self, tmp_path, level):
        cfg = idx_cfg(tmp_path, augment_level=level)
        train, _, _, _ = tiny_setup(cfg)
        _, transformed = copied_pairs(train)
        n = len(train.x)
        x, y = train.gather(np.arange(n, len(train)))
        assert np.array_equal(x, transformed)
        assert np.array_equal(y, train.y[train.rows])

    def test_build_holds_the_training_inputs_once(self, tmp_path):
        # tracemalloc sees numpy's array data, so these bounds do not depend
        # on the allocator: after the build the clean training inputs, the
        # test inputs and the index arrays (labels and picks) are all that
        # is held, and the build's peak adds to them only the raw bytes of
        # the file being loaded (an eighth of its inputs) and a few kB of
        # Python's own (the row picks as a list). Nothing is transformed.
        cfg = idx_cfg(tmp_path)
        with TracedPeak() as traced:
            train, test, _ = pipeline.build_data(cfg)
        index = train.y.nbytes + train.rows.nbytes + test.y.nbytes
        assert train.rows.size == len(train.x)
        assert traced.held <= train.x.nbytes + test.x.nbytes + index + 2 ** 12
        assert traced.rise <= (train.x.nbytes + test.x.nbytes + index
                               + test.x.nbytes // 8 + 2 ** 14)


class TestStage1:
    @pytest.mark.parametrize("batch_size", [16, 48])
    @pytest.mark.parametrize("level", ["L1", "L2", "none"])
    def test_blocked_accuracy_is_the_accuracy_of_the_materialized_set(self, tmp_path,
                                                                      level, batch_size):
        # the per-epoch accuracy, forwarded block by block with the tail
        # transformed per block, has the bits of datasets.accuracy on the
        # whole set at once. Neither batch size divides the 100 clean rows,
        # so with picks one block holds both clean and transformed rows (at
        # 48 and L1 it is also the short last block)
        methods = ("vanilla", "lmp") if level == "none" else ("vanilla", "lmp", "csam")
        cfg = idx_cfg(tmp_path, augment_level=level, methods=methods, batch_size=batch_size)
        train, _, _, model = tiny_setup(cfg)
        history = stage1_pretrain(model, train, cfg)
        _, transformed = copied_pairs(train)
        whole = Dataset(np.concatenate([train.x, transformed]),
                        np.concatenate([train.y, train.y[train.rows]]))
        got = history[-1].accuracy
        assert got == accuracy(model, whole)
        assert 0.0 < got < 1.0

    def test_default_task_reaches_high_train_accuracy(self):
        # default synthetic task, default 50-epoch schedule
        cfg = validate(ExperimentConfig())
        train, _, _, model = tiny_setup(cfg)
        history = stage1_pretrain(model, train, cfg)
        assert history[-1].accuracy >= 0.99

    def test_default_task_loss_mostly_non_increasing(self):
        cfg = validate(ExperimentConfig())
        train, _, _, model = tiny_setup(cfg)
        history = stage1_pretrain(model, train, cfg)
        losses = [h.mean_loss for h in history]
        drops = sum(b <= a for a, b in zip(losses, losses[1:]))
        assert drops / (len(losses) - 1) >= 0.9

    def test_divergence_aborts(self):
        cfg = tiny_cfg()
        train, _, _, model = tiny_setup(cfg)
        with pytest.raises(FloatingPointError, match="diverged"):
            stage1_pretrain(model, train, dataclasses.replace(cfg, stage1_lr=1e9))


class TestStage2:
    def test_weights_frozen(self):
        cfg = tiny_cfg()
        train, _, _, model = tiny_setup(cfg)
        stage1_pretrain(model, train, cfg)
        before = [a.copy() for a in model.weights + model.biases]
        soft, reports = stage2_mask_search(model, train, cfg)
        for a, b in zip(before, model.weights + model.biases, strict=True):
            assert np.array_equal(a, b)
        assert len(reports) == cfg.stage2_epochs * int(np.ceil(len(train.rows) / cfg.batch_size))
        for c in soft:
            assert np.all((c >= 0) & (c <= 1))

    def test_l1_only_drives_mask_down(self):
        cfg = tiny_cfg(stage2_epochs=3)
        train, _, _, model = tiny_setup(cfg)
        stage1_pretrain(model, train, cfg)
        clean, transformed = copied_pairs(train)
        l1_only = make_cfg(lambda_stab=0.0, lambda_ratio=0.0, lambda_consis=0.0,
                           lambda_l1=1.0, noise_magnitude=0.0)
        from maskcert.masks import init_percentile_scaled
        from maskcert.objectives import composite_step_loss
        from maskcert.pipeline import Adam
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        opt, scratch = Adam(0.01), np.empty((2, soft.size))
        means = [np.mean(soft)]
        for step in range(12):
            res = composite_step_loss(model, soft, clean[:8], transformed[:8], l1_only,
                                      np.random.default_rng([1, step]))
            opt.step(soft, res.grad, scratch)
            np.clip(soft, 0, 1, out=soft)
            means.append(np.mean(soft))
        floor = 0.0
        for a, b in zip(means, means[1:]):
            assert b < a or np.isclose(a, floor)

    def test_no_prunable_units_rejected(self):
        from maskcert.model import LayerSpec
        model = MaskableModel([LayerSpec(3, 2, "none")], [np.ones((2, 3))],
                              [np.zeros(2)], "structured")
        with pytest.raises(ConfigError, match="prunable"):
            stage2_mask_search(model, Dataset(np.ones((8, 3)), np.zeros(8, dtype=np.int64),
                                              np.arange(4)), ExperimentConfig(seed=0))

    def test_empty_pairs_rejected(self):
        cfg = tiny_cfg()
        _, _, _, model = tiny_setup(cfg)
        with pytest.raises(ConfigError, match="paired"):
            stage2_mask_search(model, Dataset(np.ones((4, 16)), np.zeros(4, dtype=np.int64)),
                               cfg)

    @pytest.mark.parametrize("level", ["L1", "L2"])
    def test_batches_are_the_copied_pairs_rows(self, tmp_path, monkeypatch, level):
        # every batch gathered from the clean rows, and transformed from its
        # gathered copy, has the bits of the same batch taken from
        # row-aligned copies of the pairs
        cfg = idx_cfg(tmp_path, augment_level=level, stage2_epochs=2, batch_size=24)
        train, _, _, model = tiny_setup(cfg)
        rows = train.rows
        clean, transformed = copied_pairs(train)
        seen = []
        real = pipeline.composite_step_loss

        def spy(model, c, x, x_t, *args, **kwargs):
            seen.append((x.copy(), x_t.copy()))
            return real(model, c, x, x_t, *args, **kwargs)

        monkeypatch.setattr(pipeline, "composite_step_loss", spy)
        stage2_mask_search(model, train, cfg)
        shuffle = np.random.default_rng([cfg.seed, pipeline.STREAM_STAGE2_SHUFFLE])
        want = []
        for _ in range(cfg.stage2_epochs):
            order = shuffle.permutation(len(rows))
            want += [order[s:s + cfg.batch_size] for s in range(0, len(rows), cfg.batch_size)]
        assert len(seen) == len(want) > cfg.stage2_epochs
        for (x, x_t), idx in zip(seen, want):
            assert np.array_equal(x, clean[idx]) and np.array_equal(x_t, transformed[idx])

    def test_step_reports_reproducible(self):
        cfg = tiny_cfg(stage2_epochs=2)
        train, _, _, model = tiny_setup(cfg)
        stage1_pretrain(model, train, cfg)
        s1, r1 = stage2_mask_search(model, train, cfg)
        s2, r2 = stage2_mask_search(model, train, cfg)
        for a, b in zip(s1, s2):
            assert np.array_equal(a, b)
        assert [r.composite for r in r1] == [r.composite for r in r2]


class TestStepLifetime:
    def test_step_values_freed_without_cyclic_gc(self, monkeypatch):
        # each training step's values (logits, softmax and gradients) are
        # freed by reference counting; with the cyclic collector off, none
        # may outlive the stages
        refs = []
        primitive, forward, backward = ad.primitive, masked_forward, masked_backward

        def track(*arrays):
            refs.extend(weakref.ref(a) for a in arrays if a is not None and np.ndim(a))

        def tracked(kind, values, **attrs):
            value, vjp = primitive(kind, values, **attrs)
            track(value)
            return value, vjp

        def tracked_forward(*args, **kwargs):
            hs, zs = forward(*args, **kwargs)
            track(hs[-1])
            return hs, zs

        def tracked_backward(*args, **kwargs):
            gz = backward(*args, **kwargs)
            track(*gz)
            return gz

        monkeypatch.setattr(ad, "primitive", tracked)
        for module in (pipeline, objectives):
            monkeypatch.setattr(module, "masked_forward", tracked_forward)
            monkeypatch.setattr(module, "masked_backward", tracked_backward)
        cfg = tiny_cfg(stage1_epochs=1, stage2_epochs=1, stage3_epochs=1)
        train, _, _, model = tiny_setup(cfg)
        enabled = gc.isenabled()
        gc.disable()
        try:
            stage1_pretrain(model, train, cfg)
            soft, _ = stage2_mask_search(model, train, cfg)
            stage3_finetune([model], [binarize(soft, 0.5)], train, cfg)
            alive = sum(ref() is not None for ref in refs)
        finally:
            if enabled:
                gc.enable()
        assert len(refs) > 3 and alive == 0

    def test_stage2_holds_one_gradient_at_a_time(self, monkeypatch):
        # each step's mask-sized gradient dies before the next step forms
        # its own, so a step never runs beside the last one's gradient
        grads = []
        real = pipeline.composite_step_loss

        def step(*args, **kwargs):
            assert all(ref() is None for ref in grads)
            result = real(*args, **kwargs)
            grads.append(weakref.ref(result.grad))
            return result

        monkeypatch.setattr(pipeline, "composite_step_loss", step)
        cfg = tiny_cfg(stage2_epochs=2)
        train, _, _, model = tiny_setup(cfg)
        stage2_mask_search(model, train, cfg)
        assert len(grads) > cfg.stage2_epochs


def random_multipliers(models, rng):
    """Each model's multipliers of a random half-pruning hard mask."""
    return [hard_multipliers(m, binarize([rng.uniform(size=n) for n in m.mask_dims()], 0.5))
            for m in models]


class TestWorkArrays:
    """Each training loop keeps its arrays in one work dict, grown to the
    largest shape asked of it, so an epoch's short last batch and the
    per-epoch accuracy forward allocate nothing after the first epoch, with
    one model or a stack of them."""

    @staticmethod
    def peak_rise_after_first_epoch(monkeypatch, models, data, multipliers):
        """How far tracemalloc's peak rises, over 3 epochs in batches of 32,
        above the memory held at the start of the second epoch's first step
        (its forward), after the first epoch's steps and accuracy forward."""
        calls, traced = [], TracedPeak()
        real = pipeline.masked_forward

        def masked_forward(*args):
            calls.append(None)
            if len(calls) == -(-len(data) // 32) + 1:
                traced.reset()
            return real(*args)

        monkeypatch.setattr(pipeline, "masked_forward", masked_forward)
        with traced:
            history = pipeline._ce_epochs(models, data, 3, 0.01, 0.9, 32,
                                          np.random.default_rng(24), multipliers)
        assert len(history) == 3 and len(calls) > -(-len(data) // 32)
        assert all(len(epoch) == len(models) for epoch in history)
        return traced.rise

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("masked", [False, True], ids=["stage1", "stage3"])
    def test_ce_epochs_allocate_no_layer_array_after_the_first_epoch(self, monkeypatch,
                                                                     masked, k):
        # 90 rows in batches of 32 end every epoch on a batch of 26. After the
        # first epoch's accuracy forward, tracemalloc's peak may not rise by
        # an array of the hidden layer at the short batch, the smallest of the
        # step's and the accuracy forward's layer arrays; a step's other
        # arrays (its batch, the loss and the bias gradients) are each far
        # smaller, the folded weights are kept in the step's dict and the
        # optimizer's lr * v in the gradients the step lends it, and Python's
        # own allocations come to a fixed few tens of kB
        rng = np.random.default_rng(23)
        width = 1024
        models = [MaskableModel.initialized(mlp_specs(2, [width], 2), "unstructured", rng)
                  for _ in range(k)]
        data = Dataset(rng.standard_normal((90, 2)), rng.integers(0, 2, 90))
        multipliers = random_multipliers(models, rng) if masked else None
        rise = self.peak_rise_after_first_epoch(monkeypatch, models, data, multipliers)
        assert rise < 26 * width * 8

    @pytest.mark.parametrize("k", [1, 2])
    def test_masked_ce_epochs_fold_no_weight_array_after_the_first_epoch(self, monkeypatch,
                                                                         k):
        # a 512-256-2 model: its first weight (1 MB) outweighs the rest of a
        # step, the batch's layer arrays included. Every step and every
        # accuracy forward folds the masks into the weight stacks, into
        # arrays of the step's dict, and the optimizer forms lr * v in the
        # gradients the step lends it, so after the first epoch nothing
        # weight-sized is allocated
        rng = np.random.default_rng(25)
        models = [MaskableModel.initialized(mlp_specs(512, [256], 2), "unstructured", rng)
                  for _ in range(k)]
        data = Dataset(rng.standard_normal((90, 512)), rng.integers(0, 2, 90))
        rise = self.peak_rise_after_first_epoch(monkeypatch, models, data,
                                                random_multipliers(models, rng))
        assert rise < models[0].weights[0].nbytes // 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_models_are_views_of_the_stacks_and_no_multiplier_is_stacked(self, k):
        # each model's weights and biases become its slices of one
        # (k, out, in) and one (k, 1, out) stack per layer. A 2048-256-2
        # model's first weight (4 MB) outweighs the rest of a step, so the
        # peak holds k of them three times (the weight stack, the fold,
        # which then takes the weight gradient, and the velocities) and less
        # than half of one besides: a stack of the k multipliers would add
        # k more
        rng = np.random.default_rng(26)
        specs = mlp_specs(2048, [256], 2)
        models = [MaskableModel.initialized(specs, "unstructured", rng) for _ in range(k)]
        data = Dataset(rng.standard_normal((90, 2048)), rng.integers(0, 2, 90))
        multipliers = random_multipliers(models, rng)
        with TracedPeak() as traced:
            pipeline._ce_epochs(models, data, 2, 0.01, 0.9, 32, np.random.default_rng(27),
                                multipliers)
        for i, spec in enumerate(specs):
            w_stack, b_stack = models[0].weights[i].base, models[0].biases[i].base
            assert w_stack.shape == (k, spec.out_dim, spec.in_dim)
            assert b_stack.shape == (k, 1, spec.out_dim)
            for j, m in enumerate(models):
                assert m.weights[i].base is w_stack and m.biases[i].base is b_stack
                assert m.weights[i].ctypes.data == w_stack[j].ctypes.data
                assert m.biases[i].ctypes.data == b_stack[j, 0].ctypes.data
        assert traced.rise < (3 * k + 0.5) * models[0].weights[0].nbytes

    def test_stage2_keeps_every_work_array_across_a_short_batch(self, monkeypatch):
        # every array of the step's work dict is the one the first step made,
        # through each epoch's short last batch and the next epoch's first
        cfg = tiny_cfg(stage2_epochs=3, batch_size=32)
        train, _, _, model = tiny_setup(cfg)
        rows = train.rows
        assert len(rows) % cfg.batch_size
        held = []
        real = pipeline.composite_step_loss

        def step(*args, work=None, **kwargs):
            result = real(*args, work=work, **kwargs)
            held.append(dict(work))  # keeps the arrays alive, so identity is meaningful
            return result

        monkeypatch.setattr(pipeline, "composite_step_loss", step)
        stage2_mask_search(model, train, cfg)
        assert len(held) == cfg.stage2_epochs * -(-len(rows) // cfg.batch_size)
        first = held[0]
        for arrays in held[1:]:
            assert arrays.keys() == first.keys()
            assert all(arrays[key] is first[key] for key in first)


def test_every_registered_kind_is_used(monkeypatch):
    # a kind that nothing in a run-all dispatches is dead code
    kinds = set()
    primitive = ad.primitive

    def recorded(kind, values, **attrs):
        kinds.add(kind)
        return primitive(kind, values, **attrs)

    monkeypatch.setattr(ad, "primitive", recorded)
    run_experiment(tiny_cfg(stage1_epochs=1, stage2_epochs=1, stage3_epochs=1))
    assert kinds == set(ad._OPS) == {"softmax"}


@pytest.mark.parametrize("logits, labels", [
    (np.zeros((3, 2)), [0, 1]), (np.zeros((2, 3, 2)), [0, 1]), (np.zeros(3), [0, 0, 0]),
    (np.zeros((3, 2)), [0, 2, 1]), (np.zeros((3, 2)), [0, -1, 1])],
    ids=["label-count", "stacked-label-count", "1-d-logits", "label-too-large",
         "label-negative"])
def test_cross_entropy_checks_its_batch(logits, labels):
    with pytest.raises(ValueError, match="cross_entropy"):
        cross_entropy(logits, labels)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [64, 7], ids=["full-batch", "short-batch"])
def test_stacked_cross_entropy_equals_one_call_per_copy(k, batch):
    # each copy's loss and logit gradient have the bits of a 2-D call on
    # that copy alone
    rng = np.random.default_rng([28, k, batch])
    logits = 3.0 * rng.standard_normal((k, batch, 5))
    labels = rng.integers(0, 5, batch)
    losses, grad = cross_entropy(logits, labels)
    assert losses.shape == (k,) and grad.shape == logits.shape
    for j in range(k):
        loss_j, grad_j = cross_entropy(logits[j], labels)
        assert losses[j] == loss_j and np.array_equal(grad[j], grad_j)


class TestStackedTraining:
    """_ce_epochs trains k models of one architecture as one stack that
    shares each batch, and gives each model the bits of its run alone."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["dense", "unstructured", "structured"])
    def test_stack_equals_solo(self, mode, k):
        # k models with weights of their own, each under a mask of its own,
        # trained on 60 clean and 30 shifted rows in batches of 32, which end
        # every epoch on a short batch of 26: each model's weights, biases
        # and every epoch's stats have the bits of its k = 1 run
        rng = np.random.default_rng(30)
        specs = mlp_specs(6, [9, 7], 3)
        models = [MaskableModel.initialized(specs, "unstructured" if mode == "dense" else mode,
                                            rng) for _ in range(k)]
        spec = TransformSpec(kind="direction_shift", direction=np.eye(6)[2])
        data = Dataset(rng.standard_normal((60, 6)), rng.integers(0, 3, 60),
                       rng.integers(0, 60, 30), spec)
        multipliers = None if mode == "dense" else random_multipliers(models, rng)
        solos = [m.copy() for m in models]
        stacked = pipeline._ce_epochs(models, data, 3, 0.05, 0.9, 32,
                                      np.random.default_rng(31), multipliers)
        assert len(stacked) == 3 and all(len(epoch) == k for epoch in stacked)
        for j, solo in enumerate(solos):
            alone = pipeline._ce_epochs([solo], data, 3, 0.05, 0.9, 32,
                                        np.random.default_rng(31),
                                        None if multipliers is None else [multipliers[j]])
            assert [epoch[j] for epoch in stacked] == [stats for (stats,) in alone]
            for a, b in zip(models[j].weights + models[j].biases,
                            solo.weights + solo.biases, strict=True):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    def test_fold_keys_each_masked_layer(self, mode):
        # layer i's stack under ("fold", i), model j's slice with the bits of
        # its own MaskableModel.folded; an unmasked layer is its weight stack
        # itself, and a second fold reuses the arrays
        rng = np.random.default_rng(9)
        models = [MaskableModel.initialized(mlp_specs(5, [7, 6], 3), mode, rng)
                  for _ in range(2)]
        ws = [np.stack(layer) for layer in zip(*(m.weights for m in models))]
        multipliers = random_multipliers(models, rng)
        for mult in multipliers:
            mult[1] = None
        masked = [i for i, v in enumerate(multipliers[0]) if v is not None]  # structured: no 2
        work = {}
        folded = pipeline._fold(ws, multipliers, work)
        assert sorted(work) == [("fold", i) for i in masked]
        assert all(folded[i].base is work[("fold", i)] for i in masked) and folded[1] is ws[1]
        held = dict(work)
        again = pipeline._fold(ws, multipliers, work)
        assert all(work[key] is held[key] for key in held)
        for j, m in enumerate(models):
            want = m.folded(multipliers[j]).weights
            for got, expected in zip(folded, want, strict=True):
                assert np.array_equal(got[j], expected)
            for got, expected in zip(again, want, strict=True):
                assert np.array_equal(got[j], expected)
        assert pipeline._fold(ws, None, work) is ws


class TestStage3:
    def setup_cfg(self, **kw):
        cfg = tiny_cfg(**kw)
        train, test, _, model = tiny_setup(cfg)
        stage1_pretrain(model, train, cfg)
        return cfg, test, train, model

    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    def test_masked_weights_bit_identical(self, mode):
        # pruned weights (in structured mode every weight of a pruned row)
        # keep their pretrained bits; the rest, and structured mode's exempt
        # last layer, move
        cfg, _, train, model = self.setup_cfg(mask_mode=mode)
        hard = lmp_mask(model, 0.5)
        mult = hard_multipliers(model, hard)
        before = [w.copy() for w in model.weights]
        stage3_finetune([model], [hard], train, cfg)
        assert (mult[-1] is None) == (mode == "structured")
        for b, w, m in zip(before, model.weights, mult):
            dead = np.zeros(w.shape, bool) if m is None else np.broadcast_to(m == 0, w.shape)
            assert m is None or dead.any()
            assert np.array_equal(b[dead], w[dead])
            assert np.any(b[~dead] != w[~dead])  # live weights actually moved

    def test_pr_zero_equals_dense_training(self):
        cfg, _, train, model = self.setup_cfg()
        twin = model.copy()
        hard = lmp_mask(model, 0.0)
        stage3_finetune([model], [hard], train, cfg)
        rng = np.random.default_rng([cfg.seed, pipeline.STREAM_STAGE3])
        pipeline._ce_epochs([twin], train, cfg.stage3_epochs, cfg.stage3_lr,
                            cfg.momentum, cfg.batch_size, rng)
        for a, b in zip(model.weights, twin.weights):
            assert np.array_equal(a, b)

    def test_effective_ratio_matches_mask(self):
        cfg, _, train, model = self.setup_cfg()
        from maskcert.masks import init_percentile_scaled
        soft = init_percentile_scaled(model, 30.0)
        hard = binarize(soft, 0.5)
        realized = effective_ratio(hard, model)
        stage3_finetune([model], [hard], train, cfg)
        assert effective_ratio(hard, model) == realized

    def test_stage3_never_mutates_mask(self):
        cfg, _, train, model = self.setup_cfg()
        hard = lmp_mask(model, 0.5)
        frozen = [m.copy() for m in hard]
        stage3_finetune([model], [hard], train, cfg)
        for a, b in zip(frozen, hard):
            assert np.array_equal(a, b)


class TestLmp:
    def test_magnitude_example(self):
        from maskcert.model import LayerSpec
        w = np.array([[1.0, -2.0], [3.0, -4.0]])
        model = MaskableModel([LayerSpec(2, 2, "none")], [w], [np.zeros(2)],
                              "unstructured")
        hard = lmp_mask(model, 0.5)
        assert np.array_equal(hard[0], [0, 0, 1, 1])

    def test_pr_zero_noop(self):
        model = MaskableModel.initialized(mlp_specs(4, [5], 2), "unstructured",
                                          np.random.default_rng(0))
        hard = lmp_mask(model, 0.0)
        assert all(np.all(m == 1) for m in hard)

    def test_realized_ratio_within_slack(self):
        model = MaskableModel.initialized(mlp_specs(6, [9], 3), "unstructured",
                                          np.random.default_rng(1))
        for pr in (0.3, 0.5, 0.7):
            ratio = effective_ratio(lmp_mask(model, pr), model)
            slack = 1.0 / min(model.mask_dims())
            assert pr - slack <= ratio <= pr + slack


class TestOptimizers:
    def test_sgd_momentum_accumulates(self):
        opt = MomentumSGD(lr=0.1, momentum=0.5)
        p = [np.array([1.0])]
        opt.step(p, [np.array([1.0])])
        assert p[0][0] == pytest.approx(0.9)
        opt.step(p, [np.array([1.0])])  # velocity 1.5
        assert p[0][0] == pytest.approx(0.75)

    def test_sgd_velocity_is_its_own_array(self):
        # a caller that reuses its gradient arrays (as _ce_epochs does with
        # its work dict) must not find them aliased as the velocity, and the
        # in-place update has the bits of momentum * v + g
        rng = np.random.default_rng(22)
        opt = MomentumSGD(lr=0.1, momentum=0.9)
        p, g = [np.zeros((3, 4)), np.zeros(3)], [np.empty((3, 4)), np.empty(3)]
        want_p, want_v = [a.copy() for a in p], [None, None]
        for _ in range(20):
            for a in g:
                a[...] = rng.standard_normal(a.shape)  # overwritten in place
            opt.step(p, g)
            for i, a in enumerate(g):
                want_v[i] = a.copy() if want_v[i] is None else 0.9 * want_v[i] + a
                want_p[i] -= 0.1 * want_v[i]
                assert not np.shares_memory(opt.velocity[i], a)
                assert np.array_equal(opt.velocity[i], want_v[i])
                assert np.array_equal(p[i], want_p[i])

    @pytest.mark.parametrize("lend", ["gradients", "own"])
    def test_sgd_lent_scratch_keeps_the_bits(self, lend):
        # lr * v formed in lent scratch, the gradients themselves (as
        # _ce_epochs lends them) or arrays of the caller's, gives the
        # parameters and velocities of a step without scratch, bit for bit
        rng = np.random.default_rng(26)
        shapes = [(3, 4), (3,)]
        lent, plain = MomentumSGD(lr=0.1, momentum=0.9), MomentumSGD(lr=0.1, momentum=0.9)
        p_lent, p_plain = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
        g = [np.empty(s) for s in shapes]
        own = [np.empty(s) for s in shapes]
        for _ in range(20):
            for a in g:
                a[...] = rng.standard_normal(a.shape)
            plain.step(p_plain, [a.copy() for a in g])
            lent.step(p_lent, g, scratch=g if lend == "gradients" else own)
            for i in range(len(shapes)):
                v = lent.velocity[i]
                assert not np.shares_memory(v, g[i]) and not np.shares_memory(v, own[i])
                assert np.array_equal(v, plain.velocity[i])
                assert np.array_equal(p_lent[i], p_plain[i])

    def test_adam_first_step_is_lr_sized(self):
        opt = Adam(lr=0.01)
        p = np.array([1.0])
        opt.step(p, np.array([123.0]), np.empty((2, 1)))
        assert p[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_adam_step_allocates_no_mask_sized_array(self):
        # after the first step, which makes the moments, a step forms its
        # update in place in the scratch it is lent
        rng = np.random.default_rng(22)
        param, grad = rng.uniform(size=100_000), rng.standard_normal(100_000)
        opt, scratch = Adam(0.01), np.empty((2, grad.size))
        opt.step(param, grad, scratch)
        with TracedPeak() as traced:
            opt.step(param, grad, scratch)
        assert traced.rise < grad.nbytes

    def test_flat_adam_and_clamp_match_per_layer_oracle(self):
        # 50 steps on uneven layers with an empty exempt one: the flat update
        # and the one clamp give the per-layer form's bits, with scratch that
        # holds other values at every step, as stage 2's mask stack does
        dims = [7, 0, 130, 1, 33]
        rng = np.random.default_rng(21)
        flat = rng.uniform(size=sum(dims))
        layers = [c.copy() for c in layer_views(flat, dims)]
        opt, oracle = Adam(0.05), PerLayerAdam(0.05)
        scratch = np.full((2, flat.size), np.nan)
        for _ in range(50):
            grad = rng.standard_normal(flat.size) * rng.choice([1e-6, 1.0, 30.0], flat.size)
            opt.step(flat, grad, scratch)
            scratch[...] = rng.standard_normal(scratch.shape)
            np.clip(flat, 0.0, 1.0, out=flat)
            oracle.step(layers, layer_views(grad, dims))
            layers = [np.clip(c, 0.0, 1.0) for c in layers]
            assert np.array_equal(flat, np.concatenate(layers))


def assert_same_result(a, b):
    """Two runs' results of one method hold the same bits."""
    assert a.method == b.method
    assert a.clean_accuracy == b.clean_accuracy and a.ratio == b.ratio
    assert (a.hard is None) == (b.hard is None)
    for x, y in zip(a.hard or (), b.hard or (), strict=True):
        assert np.array_equal(x, y)
    for x, y in zip(a.model.weights + a.model.biases, b.model.weights + b.model.biases,
                    strict=True):
        assert np.array_equal(x, y)
    assert len(a.cert.rows) == len(b.cert.rows) > 0
    for x, y in zip(a.cert.rows, b.cert.rows):
        assert np.array_equal(x.rep_z_max, y.rep_z_max)
        # repr: exact for floats, and a nan best_t reads the same
        assert repr(dataclasses.replace(x, rep_z_max=None)) == \
               repr(dataclasses.replace(y, rep_z_max=None))


class TestRunExperiment:
    def test_vanilla_only_single_row_zero_ratio(self):
        out = run_experiment(tiny_cfg(methods=("vanilla",)))
        assert list(out.results) == ["vanilla"]
        row = out.results["vanilla"]
        assert row.method == "vanilla" and row.ratio == 0.0

    def test_deterministic(self):
        cfg = tiny_cfg(methods=("vanilla", "lmp"))
        o1 = run_experiment(cfg)
        o2 = run_experiment(cfg)
        for a, b in zip(o1.results.values(), o2.results.values()):
            assert (a.method, a.clean_accuracy, a.cert.fraction, a.ratio) == \
                   (b.method, b.clean_accuracy, b.cert.fraction, b.ratio)
        assert np.array_equal(o1.eval_indices, o2.eval_indices)

    def test_methods_share_pretrained_weights(self):
        cfg = tiny_cfg(methods=("vanilla", "lmp", "csam"))
        out = run_experiment(cfg)
        # vanilla deploys the shared model itself, which nothing writes
        assert out.results["vanilla"].model is out.pretrained
        # pruned methods keep masked weights at their pretrained values
        for name in ("lmp", "csam"):
            art = out.results[name]
            mult = hard_multipliers(art.model, art.hard)
            for pre, w, m in zip(out.pretrained.weights, art.model.weights, mult):
                assert np.array_equal(pre[m == 0], w[m == 0])

    def test_three_class_experiment(self):
        cfg = tiny_cfg(synthetic_classes=3, methods=("vanilla", "csam"))
        out = run_experiment(cfg)
        assert out.results["csam"].model.class_count == 3
        for r in out.results.values():
            assert 0.0 <= r.cert.fraction <= 1.0 and 0.0 <= r.clean_accuracy <= 1.0

    def test_structured_mode_end_to_end(self):
        cfg = tiny_cfg(mask_mode="structured", methods=("vanilla", "lmp", "csam"))
        out = run_experiment(cfg)
        rows = out.results
        # classifier layer is exempt, so the realized ratio undershoots pr by
        # exactly the final layer's dense weight share
        model = out.results["csam"].model
        hard = out.results["csam"].hard
        final_dense = model.specs[-1].out_dim * model.specs[-1].in_dim
        assert hard[-1].size == 0
        assert rows["csam"].ratio <= cfg.pruning_ratio
        assert rows["csam"].ratio > cfg.pruning_ratio * (
            1 - 2 * final_dense / model.weight_count())
        for r in out.results.values():
            assert 0.0 <= r.cert.fraction <= 1.0

    def test_one_apply_per_sample_for_all_methods(self, monkeypatch):
        # every method is certified in one pass, which transforms each
        # evaluation sample once (one repetition chunk at these sizes)
        calls = []
        real = certify.apply

        def spy(*args, **kwargs):
            calls.append(args[2].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(certify, "apply", spy)
        cfg = tiny_cfg(methods=("vanilla", "lmp", "csam"))
        out = run_experiment(cfg)
        assert calls == [(cfg.cert_repetitions, cfg.cert_samples, 1)] * cfg.cert_eval_size
        assert all(len(r.cert.rows) == cfg.cert_eval_size for r in out.results.values())
        assert out.wall_times["certify"] > 0

    def test_search_leaves_the_shared_pretrained_model_unchanged(self, monkeypatch):
        # csam searches on the shared pre-trained model itself, whose weights
        # and biases keep the bits they had when the search began
        seen = []
        real = pipeline.stage2_mask_search

        def spy(model, *args):
            seen.append((model, [a.copy() for a in model.weights + model.biases]))
            return real(model, *args)

        monkeypatch.setattr(pipeline, "stage2_mask_search", spy)
        out = run_experiment(tiny_cfg(methods=("vanilla", "lmp", "csam")))
        [(model, before)] = seen
        assert model is out.pretrained
        for a, b in zip(before, out.pretrained.weights + out.pretrained.biases, strict=True):
            assert np.array_equal(a, b)

    def test_method_order_changes_no_result(self, monkeypatch):
        # the search runs first, whatever the config's order, and each
        # method's results keep their bits; results keep the config's order,
        # and the stage-2 wall time counts the search
        searched = []
        real = pipeline.stage2_mask_search

        def slow(*args):
            t0 = time.perf_counter()
            time.sleep(0.2)
            result = real(*args)
            searched.append(time.perf_counter() - t0)
            return result

        monkeypatch.setattr(pipeline, "stage2_mask_search", slow)
        orders = [("csam", "lmp", "vanilla"), ("vanilla", "lmp", "csam")]
        outs = [run_experiment(tiny_cfg(methods=order)) for order in orders]
        for order, out, seconds in zip(orders, outs, searched, strict=True):
            assert tuple(out.results) == order
            assert list(out.wall_times) == ["stage1", "stage2", "stage3", "certify"]
            assert out.wall_times["stage2"] >= seconds > 0.2
        for method in orders[0]:
            a, b = (out.results[method] for out in outs)
            assert (a.hard is None) == (method == "vanilla")
            assert_same_result(a, b)

    @pytest.mark.parametrize("methods", [("csam", "vanilla", "lmp"), ("vanilla",)])
    def test_one_stage3_call_fine_tunes_every_masked_method(self, monkeypatch, methods):
        # one stage3_finetune call takes every masked method's model and
        # hard mask, in config order; vanilla's shared model is not among them
        calls = []
        real = pipeline.stage3_finetune

        def spy(models, hards, *args):
            calls.append((list(models), list(hards)))
            return real(models, hards, *args)

        monkeypatch.setattr(pipeline, "stage3_finetune", spy)
        out = run_experiment(tiny_cfg(methods=methods))
        masked = [out.results[m] for m in methods if m != "vanilla"]
        [(models, hards)] = calls
        assert [id(m) for m in models] == [id(r.model) for r in masked]
        assert all(h is r.hard for h, r in zip(hards, masked, strict=True))
        assert all(r.stage3_log is None for r in out.results.values() if r.hard is None)
        assert all(len(r.stage3_log) == 6 for r in masked)

    def test_certification_runs_without_the_training_set(self, monkeypatch):
        # the augmented training set dies with the last method's training,
        # before certification, and letting it go changes no result
        cfg = tiny_cfg(methods=("vanilla", "lmp", "csam"))
        want = run_experiment(cfg)
        refs = []
        build, certify_all = pipeline.build_data, pipeline.pca_models

        def built(*args):
            data = build(*args)
            refs.append(weakref.ref(data[0].x))
            return data

        def certified(*args):
            assert len(refs) == 1 and refs[0]() is None
            return certify_all(*args)

        monkeypatch.setattr(pipeline, "build_data", built)
        monkeypatch.setattr(pipeline, "pca_models", certified)
        got = run_experiment(cfg)
        assert np.array_equal(got.eval_indices, want.eval_indices)
        for a, b in zip(got.results.values(), want.results.values(), strict=True):
            assert_same_result(a, b)

    def test_eval_size_validated(self):
        cfg = tiny_cfg(cert_eval_size=10_000, methods=("vanilla",))
        with pytest.raises(ConfigError, match="cert_eval_size"):
            run_experiment(cfg)
