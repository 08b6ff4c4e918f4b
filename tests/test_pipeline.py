import dataclasses
import gc
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from maskcert import autodiff as ad
from maskcert import certify, objectives, pipeline
from maskcert.config import ExperimentConfig, validate
from maskcert.datasets import Dataset
from maskcert.errors import ConfigError
from maskcert.masks import binarize, effective_ratio, hard_multipliers, layer_views
from maskcert.model import MaskableModel, masked_backward, masked_forward, mlp_specs
from maskcert.pipeline import (Adam, MomentumSGD, cross_entropy, lmp_mask,
                               run_experiment, stage1_pretrain,
                               stage2_mask_search, stage3_finetune)
from maskcert.transforms import apply
from util import PerLayerAdam, make_cfg


def tiny_cfg(**kw):
    base = dict(synthetic_train_per_class=40, synthetic_test_per_class=40,
                stage1_epochs=6, stage2_epochs=4, stage3_epochs=6,
                cert_samples=15, cert_repetitions=2, cert_t_count=80,
                cert_eval_size=20, seed=11)
    base.update(kw)
    return validate(ExperimentConfig(**base))


def tiny_setup(cfg):
    train, test, spec, train_aug, rows = pipeline.build_data(cfg)
    model = pipeline.fresh_model(cfg, train.x.shape[1])
    return train, test, spec, train_aug, rows, model


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


def copied_pairs(train, spec, rows):
    """The stage-2 pairs as row-aligned copies: clean rows gathered from the
    training inputs and their transformed copies."""
    clean = train.x[rows]
    return clean, apply(spec, clean, 1.0)


class TestBuildData:
    def test_train_is_the_head_of_the_augmented_set(self):
        cfg = tiny_cfg()
        train, _, _, train_aug, rows, _ = tiny_setup(cfg)
        assert train.x.base is train_aug.x and train.y.base is train_aug.y
        assert np.array_equal(train_aug.x[:len(train)], train.x)
        assert len(train_aug) == len(train) + len(rows)

    @pytest.mark.parametrize("level", ["L1", "L2"])
    def test_tail_rows_are_the_copied_transformed_pairs(self, tmp_path, level):
        cfg = idx_cfg(tmp_path, augment_level=level)
        train, _, spec, train_aug, rows, _ = tiny_setup(cfg)
        clean, transformed = copied_pairs(train, spec, rows)
        assert np.array_equal(train_aug.x[rows], clean)
        assert np.array_equal(train_aug.x[len(train):], transformed)
        assert np.array_equal(train_aug.y[len(train):], train.y[rows])

    def test_build_holds_the_training_inputs_once(self, tmp_path):
        # tracemalloc sees numpy's array data, so these bounds do not depend
        # on the allocator: after the build the augmented set and the test
        # inputs are all that is held, and the build's peak is the training
        # inputs as loaded, the augmented set (twice their size) and the
        # one temporary of the transform
        cfg = idx_cfg(tmp_path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train, test, _, train_aug, rows = pipeline.build_data(cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - before <= 1.05 * (train_aug.x.nbytes + test.x.nbytes)
        assert peak - before <= 4.05 * train.x.nbytes + test.x.nbytes


class TestStage1:
    def test_default_task_reaches_high_train_accuracy(self):
        # default synthetic task, default 50-epoch schedule
        cfg = validate(ExperimentConfig())
        _, _, _, train_aug, _, model = tiny_setup(cfg)
        history = stage1_pretrain(model, train_aug, cfg)
        assert history[-1].accuracy >= 0.99

    def test_default_task_loss_mostly_non_increasing(self):
        cfg = validate(ExperimentConfig())
        _, _, _, train_aug, _, model = tiny_setup(cfg)
        history = stage1_pretrain(model, train_aug, cfg)
        losses = [h.mean_loss for h in history]
        drops = sum(b <= a for a, b in zip(losses, losses[1:]))
        assert drops / (len(losses) - 1) >= 0.9

    def test_divergence_aborts(self):
        cfg = tiny_cfg()
        _, _, _, train_aug, _, model = tiny_setup(cfg)
        with pytest.raises(FloatingPointError, match="diverged"):
            stage1_pretrain(model, train_aug, dataclasses.replace(cfg, stage1_lr=1e9))


class TestStage2:
    def test_weights_frozen(self):
        cfg = tiny_cfg()
        _, _, _, train_aug, rows, model = tiny_setup(cfg)
        stage1_pretrain(model, train_aug, cfg)
        before = [w.copy() for w in model.weights]
        soft, reports = stage2_mask_search(model, train_aug.x, rows, cfg)
        for a, b in zip(before, model.weights):
            assert np.array_equal(a, b)
        assert len(reports) == cfg.stage2_epochs * int(np.ceil(len(rows) / cfg.batch_size))
        for c in soft:
            assert np.all((c >= 0) & (c <= 1))

    def test_l1_only_drives_mask_down(self):
        cfg = tiny_cfg(stage2_epochs=3)
        _, _, _, train_aug, rows, model = tiny_setup(cfg)
        stage1_pretrain(model, train_aug, cfg)
        clean, transformed = train_aug.x[rows], train_aug.x[len(train_aug) - len(rows):]
        l1_only = make_cfg(lambda_stab=0.0, lambda_ratio=0.0, lambda_consis=0.0,
                           lambda_l1=1.0, noise_magnitude=0.0)
        from maskcert.masks import init_percentile_scaled
        from maskcert.objectives import composite_step_loss
        from maskcert.pipeline import Adam
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
        opt = Adam(0.01)
        means = [np.mean(soft)]
        for step in range(12):
            res = composite_step_loss(model, soft, clean[:8], transformed[:8], l1_only,
                                      np.random.default_rng([1, step]))
            opt.step(soft, res.grad)
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
            stage2_mask_search(model, np.ones((8, 3)), np.arange(4), ExperimentConfig(seed=0))

    def test_empty_pairs_rejected(self):
        cfg = tiny_cfg()
        _, _, _, _, _, model = tiny_setup(cfg)
        with pytest.raises(ConfigError, match="paired"):
            stage2_mask_search(model, np.ones((4, 16)), np.empty(0, dtype=np.int64), cfg)

    @pytest.mark.parametrize("level", ["L1", "L2"])
    def test_batches_are_the_copied_pairs_rows(self, tmp_path, monkeypatch, level):
        # every batch gathered from the augmented set has the bits of the
        # same batch taken from row-aligned copies of the pairs
        cfg = idx_cfg(tmp_path, augment_level=level, stage2_epochs=2, batch_size=24)
        train, _, spec, train_aug, rows, model = tiny_setup(cfg)
        clean, transformed = copied_pairs(train, spec, rows)
        seen = []
        real = pipeline.composite_step_loss

        def spy(model, c, x, x_t, *args, **kwargs):
            seen.append((x.copy(), x_t.copy()))
            return real(model, c, x, x_t, *args, **kwargs)

        monkeypatch.setattr(pipeline, "composite_step_loss", spy)
        stage2_mask_search(model, train_aug.x, rows, cfg)
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
        _, _, _, train_aug, rows, model = tiny_setup(cfg)
        stage1_pretrain(model, train_aug, cfg)
        s1, r1 = stage2_mask_search(model, train_aug.x, rows, cfg)
        s2, r2 = stage2_mask_search(model, train_aug.x, rows, cfg)
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
            g_ws, g_bs = backward(*args, **kwargs)
            track(*g_ws, *(g_bs or ()))
            return g_ws, g_bs

        monkeypatch.setattr(ad, "primitive", tracked)
        for module in (pipeline, objectives):
            monkeypatch.setattr(module, "masked_forward", tracked_forward)
            monkeypatch.setattr(module, "masked_backward", tracked_backward)
        cfg = tiny_cfg(stage1_epochs=1, stage2_epochs=1, stage3_epochs=1)
        _, _, _, train_aug, rows, model = tiny_setup(cfg)
        enabled = gc.isenabled()
        gc.disable()
        try:
            stage1_pretrain(model, train_aug, cfg)
            soft, _ = stage2_mask_search(model, train_aug.x, rows, cfg)
            stage3_finetune(model, binarize(soft, 0.5), train_aug, cfg)
            alive = sum(ref() is not None for ref in refs)
        finally:
            if enabled:
                gc.enable()
        assert len(refs) > 3 and alive == 0


class TestWorkArrays:
    """Each training loop keeps its arrays in one work dict, grown to the
    largest shape asked of it, so an epoch's short last batch and the
    per-epoch accuracy forward allocate nothing after the first epoch."""

    @pytest.mark.parametrize("masked", [False, True], ids=["stage1", "stage3"])
    def test_ce_epochs_allocate_no_layer_array_after_the_first_epoch(self, monkeypatch,
                                                                     masked):
        # 90 rows in batches of 32 end every epoch on a batch of 26. After the
        # first epoch's accuracy forward, tracemalloc's peak may not rise by
        # an array of the hidden layer at the short batch, the smallest of the
        # step's and the accuracy forward's layer arrays; a step's other
        # arrays (its batch, the loss and the optimizer's temporaries, the
        # folded weights) are each far smaller, and Python's own allocations
        # come to a fixed few tens of kB
        rng = np.random.default_rng(23)
        width = 1024
        model = MaskableModel.initialized(mlp_specs(2, [width], 2), "unstructured", rng)
        data = Dataset(rng.standard_normal((90, 2)), rng.integers(0, 2, 90))
        multipliers = None
        if masked:
            multipliers = hard_multipliers(model, binarize(
                [rng.uniform(size=n) for n in model.mask_dims()], 0.5))
        base = []
        real = pipeline.accuracy

        def accuracy(*args):
            value = real(*args)
            if not base:  # the end of the first epoch
                tracemalloc.reset_peak()
                base.append(tracemalloc.get_traced_memory()[0])
            return value

        monkeypatch.setattr(pipeline, "accuracy", accuracy)
        tracemalloc.start()
        try:
            history = pipeline._ce_epochs(model, data, 3, 0.01, 0.9, 32,
                                          np.random.default_rng(24), multipliers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(history) == 3
        assert peak - base[0] < 26 * width * 8

    def test_stage2_keeps_every_work_array_across_a_short_batch(self, monkeypatch):
        # every array of the step's work dict is the one the first step made,
        # through each epoch's short last batch and the next epoch's first
        cfg = tiny_cfg(stage2_epochs=3, batch_size=32)
        _, _, _, train_aug, rows, model = tiny_setup(cfg)
        assert len(rows) % cfg.batch_size
        held = []
        real = pipeline.composite_step_loss

        def step(*args, work=None, **kwargs):
            result = real(*args, work=work, **kwargs)
            held.append(dict(work))  # keeps the arrays alive, so identity is meaningful
            return result

        monkeypatch.setattr(pipeline, "composite_step_loss", step)
        stage2_mask_search(model, train_aug.x, rows, cfg)
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
    (np.zeros((3, 2)), [0, 1]), (np.zeros(3), [0, 0, 0]),
    (np.zeros((3, 2)), [0, 2, 1]), (np.zeros((3, 2)), [0, -1, 1])],
    ids=["label-count", "1-d-logits", "label-too-large", "label-negative"])
def test_cross_entropy_checks_its_batch(logits, labels):
    with pytest.raises(ValueError, match="cross_entropy"):
        cross_entropy(logits, labels)


class TestStage3:
    def setup_cfg(self, **kw):
        cfg = tiny_cfg(**kw)
        _, test, _, train_aug, _, model = tiny_setup(cfg)
        stage1_pretrain(model, train_aug, cfg)
        return cfg, test, train_aug, model

    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    def test_masked_weights_bit_identical(self, mode):
        # pruned weights (in structured mode every weight of a pruned row)
        # keep their pretrained bits; the rest, and structured mode's exempt
        # last layer, move
        cfg, _, train_aug, model = self.setup_cfg(mask_mode=mode)
        hard = lmp_mask(model, 0.5)
        mult = hard_multipliers(model, hard)
        before = [w.copy() for w in model.weights]
        stage3_finetune(model, hard, train_aug, cfg)
        assert (mult[-1] is None) == (mode == "structured")
        for b, w, m in zip(before, model.weights, mult):
            dead = np.zeros(w.shape, bool) if m is None else np.broadcast_to(m == 0, w.shape)
            assert m is None or dead.any()
            assert np.array_equal(b[dead], w[dead])
            assert np.any(b[~dead] != w[~dead])  # live weights actually moved

    def test_pr_zero_equals_dense_training(self):
        cfg, _, train_aug, model = self.setup_cfg()
        twin = model.copy()
        hard = lmp_mask(model, 0.0)
        stage3_finetune(model, hard, train_aug, cfg)
        rng = np.random.default_rng([cfg.seed, pipeline.STREAM_STAGE3])
        pipeline._ce_epochs(twin, train_aug, cfg.stage3_epochs, cfg.stage3_lr,
                            cfg.momentum, cfg.batch_size, rng)
        for a, b in zip(model.weights, twin.weights):
            assert np.array_equal(a, b)

    def test_effective_ratio_matches_mask(self):
        cfg, _, train_aug, model = self.setup_cfg()
        from maskcert.masks import init_percentile_scaled
        soft = init_percentile_scaled(model, 30.0)
        hard = binarize(soft, 0.5)
        realized = effective_ratio(hard, model)
        stage3_finetune(model, hard, train_aug, cfg)
        assert effective_ratio(hard, model) == realized

    def test_stage3_never_mutates_mask(self):
        cfg, _, train_aug, model = self.setup_cfg()
        hard = lmp_mask(model, 0.5)
        frozen = [m.copy() for m in hard]
        stage3_finetune(model, hard, train_aug, cfg)
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

    def test_adam_first_step_is_lr_sized(self):
        opt = Adam(lr=0.01)
        p = np.array([1.0])
        opt.step(p, np.array([123.0]))
        assert p[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_adam_step_allocates_no_mask_sized_array(self):
        # after the first step, which makes the moments and the scratch
        # vectors, a step forms its update in place
        rng = np.random.default_rng(22)
        param, grad = rng.uniform(size=100_000), rng.standard_normal(100_000)
        opt = Adam(0.01)
        opt.step(param, grad)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            opt.step(param, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < grad.nbytes

    def test_flat_adam_and_clamp_match_per_layer_oracle(self):
        # 50 steps on uneven layers with an empty exempt one: the flat update
        # and the one clamp give the per-layer form's bits
        dims = [7, 0, 130, 1, 33]
        rng = np.random.default_rng(21)
        flat = rng.uniform(size=sum(dims))
        layers = [c.copy() for c in layer_views(flat, dims)]
        opt, oracle = Adam(0.05), PerLayerAdam(0.05)
        for _ in range(50):
            grad = rng.standard_normal(flat.size) * rng.choice([1e-6, 1.0, 30.0], flat.size)
            opt.step(flat, grad)
            np.clip(flat, 0.0, 1.0, out=flat)
            oracle.step(layers, layer_views(grad, dims))
            layers = [np.clip(c, 0.0, 1.0) for c in layers]
            assert np.array_equal(flat, np.concatenate(layers))


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
        vanilla = out.results["vanilla"].model
        for a, b in zip(vanilla.weights, out.pretrained.weights):
            assert np.array_equal(a, b)
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
        assert out.certify_wall_time > 0

    def test_eval_size_validated(self):
        cfg = tiny_cfg(cert_eval_size=10_000, methods=("vanilla",))
        with pytest.raises(ConfigError, match="cert_eval_size"):
            run_experiment(cfg)
