import io
import json

import numpy as np
import pytest

from maskcert.errors import DatasetError
from maskcert.masks import hard_multipliers
from maskcert.model import (LayerSpec, MaskableModel, _buffer, forward_probs, load_checkpoint,
                            mask_shape, masked_forward, mlp_specs, save_checkpoint, softmax)
from util import fold


def two_layer(mask_mode="unstructured", seed=0):
    rng = np.random.default_rng(seed)
    return MaskableModel.initialized(mlp_specs(3, [4], 2), mask_mode, rng)


class TestConstruction:
    def test_dims_chain_enforced(self):
        specs = [LayerSpec(3, 4, "relu"), LayerSpec(5, 2, "none")]
        with pytest.raises(ValueError, match="chain"):
            MaskableModel.initialized(specs, "unstructured", np.random.default_rng(0))

    def test_final_layer_must_be_logits(self):
        with pytest.raises(ValueError, match="logits"):
            MaskableModel.initialized([LayerSpec(3, 2, "relu")], "unstructured",
                                      np.random.default_rng(0))

    def test_mask_dims(self):
        m = two_layer("unstructured")
        assert m.mask_dims() == [12, 8]
        m = two_layer("structured")
        assert m.mask_dims() == [4, 0]  # classifier layer exempt

    @pytest.mark.parametrize("short", ["weights", "biases"])
    def test_one_weight_and_bias_per_spec(self, short):
        # zip would drop the second layer; the model would then save as a
        # one-layer checkpoint that load_checkpoint rejects
        m = two_layer()
        weights, biases = m.weights, m.biases
        if short == "weights":
            weights = weights[:1]
        else:
            biases = biases[:1]
        with pytest.raises(ValueError, match="2 layer specs need as many weights and biases"):
            MaskableModel(m.specs, weights, biases)

    def test_init_bounds(self):
        m = two_layer()
        for spec, w in zip(m.specs, m.weights):
            bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
            assert np.all(np.abs(w) <= bound)


class TestForward:
    def test_all_ones_multiplier_identity(self):
        m = two_layer()
        x = np.random.default_rng(1).standard_normal((6, 3))
        mult = [np.ones_like(w) for w in m.weights]
        assert np.array_equal(m.forward(x), m.folded(mult).forward(x))

    def test_all_zeros_multiplier_uniform(self):
        m = two_layer()
        x = np.random.default_rng(2).standard_normal((5, 3))
        mult = [np.zeros_like(w) for w in m.weights]
        p = m.folded(mult).forward(x)  # zero weights, zero biases -> equal logits
        assert np.max(np.abs(p - 1.0 / m.class_count)) < 1e-15

    def test_structured_mask_equals_submodel(self):
        # zeroing hidden unit 0 must reproduce the dense forward of the
        # model with that unit physically deleted
        rng = np.random.default_rng(3)
        m = two_layer("structured", seed=3)
        x = rng.standard_normal((8, 3))
        masked = m.folded(hard_multipliers(m, [np.array([0.0, 1.0, 1.0, 1.0]),
                                               np.empty(0)])).forward(x)
        sub = MaskableModel([LayerSpec(3, 3, "relu"), LayerSpec(3, 2, "none")],
                            [m.weights[0][1:], m.weights[1][:, 1:]],
                            [m.biases[0][1:], m.biases[1]], "structured")
        assert np.max(np.abs(masked - sub.forward(x))) < 1e-12

    def test_masked_equals_physically_zeroed(self):
        rng = np.random.default_rng(4)
        m = two_layer(seed=4)
        x = rng.standard_normal((10, 3))
        mask = [(rng.uniform(size=w.shape) < 0.6).astype(float) for w in m.weights]
        pruned = MaskableModel(m.specs, [w * mk for w, mk in zip(m.weights, mask)],
                               m.biases, "unstructured")
        assert np.max(np.abs(m.folded(mask).forward(x) - pruned.forward(x))) < 1e-12

    def test_structured_output_ignores_next_layer_column(self):
        rng = np.random.default_rng(5)
        m = two_layer("structured", seed=5)
        x = rng.standard_normal((4, 3))
        mult = hard_multipliers(m, [np.array([0.0, 1.0, 1.0, 1.0]), np.empty(0)])
        base = m.folded(mult).forward(x)
        tampered = m.copy()
        tampered.weights[1][:, 0] = rng.standard_normal(2) * 100
        assert np.array_equal(base, tampered.folded(mult).forward(x))

    def test_input_width_checked(self):
        m = two_layer()
        with pytest.raises(ValueError, match="forward"):
            m.forward(np.ones((2, 7)))

    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    def test_folded_forward_equals_masked_forward(self, mode):
        rng = np.random.default_rng(6)
        m = MaskableModel.initialized(mlp_specs(5, [7, 6], 3), mode, rng)
        x = rng.standard_normal((9, 5))
        mult = hard_multipliers(m, [(rng.uniform(size=n) < 0.5).astype(float)
                                    for n in m.mask_dims()])
        hs, _ = masked_forward(x, fold(mult, m.weights), m.biases, m.specs)
        assert np.array_equal(m.folded(mult).forward(x), softmax(hs[-1]))
        assert m.folded(None) is m

    @pytest.mark.parametrize("classes", [2, 10])
    def test_stacked_forward_equals_per_block_calls(self, classes):
        # one GEMM per trailing 2-D block: each block keeps the bits of its own
        # call, also for the narrow logits layer, with or without buffers
        rng = np.random.default_rng(7)
        m = MaskableModel.initialized(mlp_specs(16, [64, 64], classes), "unstructured", rng)
        x = rng.standard_normal((4, 25, 16))
        calls = np.stack([m.forward(block) for block in x])
        assert np.array_equal(m.forward(x), calls)
        work = {}
        p = forward_probs(x, m.weights, m.biases, m.specs, work)
        assert np.shares_memory(p, work[("h", len(m.specs) - 1)]) and np.array_equal(p, calls)
        rows = np.stack([m.forward(row[None, :]) for row in x[0]])
        assert np.array_equal(m.forward(x[0][:, None, :]), rows)

    @pytest.mark.parametrize("case", ["plain", "stacked", "one-layer", "closed-tail"])
    def test_forward_probs_equals_softmax_of_masked_forward(self, case):
        # forward_probs applies each relu in place and keeps no
        # pre-activation, with the bits of the softmax of masked_forward's
        # logits: on plain weights, on k models stacked as certification
        # stacks them, on a one-layer model, and on the closed path's layers
        # 1.. of relu(a + delta g) shaped (k, reps, n, out0)
        rng = np.random.default_rng(11)
        hidden = [] if case == "one-layer" else [7, 6]
        models = [MaskableModel.initialized(mlp_specs(5, hidden, 3), "unstructured", rng)
                  for _ in range(3)]
        ws, bs, specs = models[0].weights, models[0].biases, models[0].specs
        x = rng.standard_normal((9, 5))
        if case in ("stacked", "closed-tail"):
            ws = [np.stack(w)[:, None] for w in zip(*(m.weights for m in models))]
            bs = [np.stack(b)[:, None, None] for b in zip(*(m.biases for m in models))]
            x = rng.standard_normal((4, 9, 5))
        if case == "closed-tail":
            x = np.maximum(rng.standard_normal((3, 4, 9, 7)), 0.0)
            ws, bs, specs = ws[1:], bs[1:], specs[1:]
        want = softmax(masked_forward(x, ws, bs, specs)[0][-1])
        work = {}
        assert np.array_equal(forward_probs(x, ws, bs, specs, work), want)
        assert sorted(work) == [("h", i) for i in range(len(specs))]
        assert np.array_equal(forward_probs(x, ws, bs, specs), want)

    def test_forward_rejects_vector_input(self):
        with pytest.raises(ValueError, match="forward"):
            two_layer().forward(np.ones(3))


class TestBuffer:
    def test_smaller_request_shares_storage_and_larger_grows_it(self):
        work = {}
        first = _buffer(work, "k", (4, 6))
        flat = work["k"]
        assert first.shape == (4, 6) and first.base is flat
        # a smaller request is a C-contiguous view of the head of that storage
        small = _buffer(work, "k", (3, 5))
        assert work["k"] is flat and small.flags.c_contiguous
        assert small.shape == (3, 5) and small.ctypes.data == flat.ctypes.data
        # a larger one grows it; the next request at the old size shares the
        # new storage
        large = _buffer(work, "k", (5, 6))
        grown = work["k"]
        assert grown is not flat and grown.size == 30 and large.base is grown
        assert _buffer(work, "k", (4, 6)).ctypes.data == grown.ctypes.data
        # keys hold separate arrays, and no dict gives a fresh one each time
        assert not np.shares_memory(_buffer(work, "j", (4, 6)), grown)
        fresh = _buffer(None, "k", (4, 6))
        assert fresh.shape == (4, 6) and not np.shares_memory(fresh, grown)
        assert not np.shares_memory(fresh, _buffer(None, "k", (4, 6)))

    def test_forward_keys_each_layer(self):
        # each layer's output under ("h", i), a relu layer's pre-activation
        # under ("z", i); the bits are those of a forward without a dict
        rng = np.random.default_rng(8)
        m = MaskableModel.initialized(mlp_specs(5, [7, 6], 3), "unstructured", rng)
        x = rng.standard_normal((9, 5))
        work = {}
        hs, zs = masked_forward(x, m.weights, m.biases, m.specs, work)
        assert sorted(work) == [("h", 0), ("h", 1), ("h", 2), ("z", 0), ("z", 1)]
        for i in range(3):
            assert hs[i + 1].base is work[("h", i)]
            assert zs[i].base is work[("z", i) if i < 2 else ("h", i)]
        want_hs, want_zs = masked_forward(x, m.weights, m.biases, m.specs)
        for got, want in zip(hs + zs, want_hs + want_zs):
            assert np.array_equal(got, want)


class TestHardMultipliers:
    def single_layer(self, mode, seed=6):
        rng = np.random.default_rng(seed)
        return MaskableModel.initialized([LayerSpec(3, 2, "none")], mode, rng)

    def test_mask_shapes(self):
        spec = LayerSpec(3, 2, "none")
        assert mask_shape(spec, "unstructured") == (2, 3)
        assert mask_shape(spec, "structured") == (2, 1)

    def test_unstructured_reshape_roundtrip(self):
        v = np.arange(6, dtype=float)
        (out,) = hard_multipliers(self.single_layer("unstructured"), [v])
        assert out.shape == (2, 3)
        assert np.array_equal(out.ravel(), v)

    def test_structured_mask_is_a_column(self):
        (out,) = hard_multipliers(self.single_layer("structured"), [np.array([1.0, 0.0])])
        assert out.shape == (2, 1)
        assert np.array_equal(out.ravel(), [1, 0])

    def test_structured_multiplier_row_scales(self):
        m = self.single_layer("structured")
        v = np.array([0.5, 2.0])
        (w,) = m.folded(hard_multipliers(m, [v])).weights
        assert np.array_equal(w, v[:, None] * m.weights[0])
        # the (out, 1) column gives the bits of a mask repeated to (out, in)
        assert np.array_equal(w, np.repeat(v[:, None], 3, axis=1) * m.weights[0])

    def test_wrong_length_names_the_layer(self):
        m = two_layer("structured")
        with pytest.raises(ValueError, match="hard mask layer 0"):
            hard_multipliers(m, [np.ones(5), np.empty(0)])
        with pytest.raises(ValueError, match="hard mask layer 1"):
            hard_multipliers(two_layer(), [np.ones(12), np.ones(4)])

    def test_one_entry_per_layer(self):
        with pytest.raises(ValueError, match="one entry per layer"):
            hard_multipliers(two_layer(), [np.ones(12)])


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        m = two_layer(seed=7)
        soft = [np.random.default_rng(8).uniform(size=n) for n in m.mask_dims()]
        hard = [(c > 0.5).astype(float) for c in soft]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, "mask_searched", soft_mask=soft, hard_mask=hard, seed=42)
        loaded, extras = load_checkpoint(path)
        for a, b in zip(m.weights, loaded.weights):
            assert np.array_equal(a, b)
        for a, b in zip(m.biases, loaded.biases):
            assert np.array_equal(a, b)
        for a, b in zip(soft, extras["soft_mask"]):
            assert np.array_equal(a, b)
        for a, b in zip(hard, extras["hard_mask"]):
            assert np.array_equal(a, b)
        assert extras["stage"] == "mask_searched"
        assert extras["seed"] == 42

    def test_corrupted_length_rejected(self, tmp_path):
        m = two_layer(seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, "pretrained")
        doc = json.loads(path.read_text())
        doc["layers"][0]["W"][0] = doc["layers"][0]["W"][0][:-1]  # drop one entry
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="does not match"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        m = two_layer(seed=10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, "pretrained")
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="version"):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text("not json at all{{{")
        with pytest.raises(DatasetError, match="JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text, match", [
        ("[1, 2]", "not a JSON object"),
        ('{"version": 1, "stage": "pretrained", "mask_mode": "unstructured", "layers": 5}',
         "layers must be a non-empty list"),
    ])
    def test_malformed_document_rejected(self, tmp_path, text, match):
        path = tmp_path / "model.ckpt"
        path.write_text(text)
        with pytest.raises(DatasetError, match=match) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("key, value, match", [
        ("in", 3.9, "bad layer 1 header"),
        ("out", "2", "bad layer 1 header"),
        ("in", True, "bad layer 1 header"),
        ("seed", {"x": [1]}, "seed"),
        ("seed", -1, "seed"),
        ("seed", 2 ** 64, "seed"),
        ("seed", 7.0, "seed"),
        ("seed", True, "seed"),
    ])
    def test_bad_header_rejected(self, tmp_path, key, value, match):
        # header fields are taken as written, never coerced: a layer's in and
        # out are JSON integers and the seed is null or a u64
        m = two_layer(seed=13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, "pretrained", seed=1)
        doc = json.loads(path.read_text())
        (doc if key == "seed" else doc["layers"][1])[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=match) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("field, entry, match", [
        ("W", "x", "layer 1 weight array"),
        ("W", None, "layer 1 weight array"),
        ("W", "1e999", "layer 1 weight array"),
        ("W", True, "layer 1 weight array"),
        ("b", [0.5], "layer 1 bias"),
        ("b", "x", "layer 1 bias"),
        ("b", None, "layer 1 bias"),
        ("soft_mask", "x", "soft_mask layer 1"),
        ("soft_mask", None, "soft_mask layer 1"),
        ("soft_mask", [0.5], "soft_mask layer 1"),
        ("soft_mask", "NaN", "soft_mask layer 1"),
        ("hard_mask", "x", "hard_mask layer 1"),
        ("hard_mask", None, "hard_mask layer 1"),
        ("hard_mask", [1], "hard_mask layer 1"),
        ("hard_mask", "Infinity", "hard_mask layer 1"),
    ])
    def test_bad_entry_rejected(self, tmp_path, field, entry, match):
        # one entry of layer 1 replaced: a string, null, a nested list, or a
        # non-finite number (1e999 parses as inf), in each array of the file
        m = two_layer(seed=12)
        path = tmp_path / "model.ckpt"
        stage = {"soft_mask": "mask_searched", "hard_mask": "finetuned"}.get(field, "pretrained")
        save_checkpoint(path, m, stage, **({field: [np.ones(n) for n in m.mask_dims()]}
                                           if field.endswith("mask") else {}))
        doc = json.loads(path.read_text())
        arr = doc[field][1] if field.endswith("mask") else doc["layers"][1][field]
        row = arr[0] if field == "W" else arr
        row[0] = "@" if entry in ("1e999", "NaN", "Infinity") else entry
        text = json.dumps(doc)
        if entry in ("1e999", "NaN", "Infinity"):
            text = text.replace('"@"', entry)
        path.write_text(text)
        with pytest.raises(DatasetError, match=match) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_stage_tag_contract(self, tmp_path):
        # stage 2 carries the soft mask, stage 3 the hard mask
        m = two_layer(seed=11)
        soft = [np.full(n, 0.5) for n in m.mask_dims()]
        p2 = tmp_path / "s2.ckpt"
        save_checkpoint(p2, m, "mask_searched", soft_mask=soft)
        _, e2 = load_checkpoint(p2)
        assert e2["soft_mask"] is not None and e2["hard_mask"] is None
        p3 = tmp_path / "s3.ckpt"
        hard = [np.ones(n) for n in m.mask_dims()]
        save_checkpoint(p3, m, "finetuned", hard_mask=hard)
        _, e3 = load_checkpoint(p3)
        assert e3["hard_mask"] is not None and e3["soft_mask"] is None


def json_dump_bytes(model, stage, soft_mask=None, hard_mask=None, seed=None):
    """Reference checkpoint bytes: the whole document through json.dump."""
    doc = {
        "version": 1,
        "stage": stage,
        "mask_mode": model.mask_mode,
        "seed": seed,
        "layers": [
            {"in": s.in_dim, "out": s.out_dim, "activation": s.activation,
             "W": w.tolist(), "b": b.tolist()}
            for s, w, b in zip(model.specs, model.weights, model.biases)
        ],
        "soft_mask": [c.tolist() for c in soft_mask] if soft_mask is not None else None,
        "hard_mask": [[int(v) for v in m] for m in hard_mask] if hard_mask is not None else None,
    }
    buf = io.StringIO()
    json.dump(doc, buf)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


class TestCheckpointBytes:
    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    @pytest.mark.parametrize("masks", ["soft", "hard", "none"])
    @pytest.mark.parametrize("seed", [None, 0, 1009, 2 ** 64 - 1])
    def test_equals_json_dump(self, tmp_path, mode, masks, seed):
        rng = np.random.default_rng(12)
        model = MaskableModel.initialized(mlp_specs(5, [6, 4], 3), mode, rng)
        # awkward floats: signed zero, subnormal, huge, many-digit reprs
        model.weights[0][0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
        model.biases[1][:] = rng.standard_normal(4) * 1e-7
        soft = [rng.uniform(size=n) for n in model.mask_dims()]
        hard = [(c > 0.5).astype(float) for c in soft]
        # structured mode exempts the classifier, so its mask entries are empty
        assert (model.mask_dims()[-1] == 0) == (mode == "structured")
        kw = {"soft": {"soft_mask": soft}, "hard": {"hard_mask": hard}, "none": {}}[masks]
        stage = {"soft": "mask_searched", "hard": "finetuned", "none": "pretrained"}[masks]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, stage, seed=seed, **kw)
        assert path.read_bytes() == json_dump_bytes(model, stage, seed=seed, **kw)

        loaded, extras = load_checkpoint(path)
        assert loaded.specs == model.specs and loaded.mask_mode == mode
        for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
            assert np.array_equal(a, b)
        assert extras["stage"] == stage and extras["seed"] == seed
        for name, want in (("soft_mask", kw.get("soft_mask")), ("hard_mask", kw.get("hard_mask"))):
            if want is None:
                assert extras[name] is None
            else:
                assert all(np.array_equal(a, b) for a, b in zip(want, extras[name]))
