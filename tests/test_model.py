import io
import json

import numpy as np
import pytest

from maskcert.errors import DatasetError
from maskcert.model import (LayerSpec, MaskableModel, broadcast_mask,
                            load_checkpoint, mlp_specs, save_checkpoint)


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
        assert np.array_equal(m.forward(x), m.forward(x, mult))

    def test_all_zeros_multiplier_uniform(self):
        m = two_layer()
        x = np.random.default_rng(2).standard_normal((5, 3))
        mult = [np.zeros_like(w) for w in m.weights]
        p = m.forward(x, mult)  # zero weights, zero biases -> equal logits
        assert np.max(np.abs(p - 1.0 / m.class_count)) < 1e-15

    def test_structured_mask_equals_submodel(self):
        # zeroing hidden unit 0 must reproduce the dense forward of the
        # model with that unit physically deleted
        rng = np.random.default_rng(3)
        m = two_layer("structured", seed=3)
        x = rng.standard_normal((8, 3))
        mult = [broadcast_mask(np.array([0.0, 1.0, 1.0, 1.0]), m.specs[0], "structured"),
                None]
        masked = m.forward(x, mult)
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
        assert np.max(np.abs(m.forward(x, mask) - pruned.forward(x))) < 1e-12

    def test_structured_output_ignores_next_layer_column(self):
        rng = np.random.default_rng(5)
        m = two_layer("structured", seed=5)
        x = rng.standard_normal((4, 3))
        mult = [broadcast_mask(np.array([0.0, 1.0, 1.0, 1.0]), m.specs[0], "structured"), None]
        base = m.forward(x, mult)
        tampered = m.copy()
        tampered.weights[1][:, 0] = rng.standard_normal(2) * 100
        assert np.array_equal(base, tampered.forward(x, mult))

    def test_input_width_checked(self):
        m = two_layer()
        with pytest.raises(ValueError, match="forward"):
            m.forward(np.ones((2, 7)))

    @pytest.mark.parametrize("mode", ["unstructured", "structured"])
    def test_folded_forward_equals_masked_forward(self, mode):
        rng = np.random.default_rng(6)
        m = MaskableModel.initialized(mlp_specs(5, [7, 6], 3), mode, rng)
        x = rng.standard_normal((9, 5))
        mult = [broadcast_mask((rng.uniform(size=n) < 0.5).astype(float), spec, mode)
                if n else None for n, spec in zip(m.mask_dims(), m.specs)]
        folded = m.folded(mult)
        assert np.array_equal(folded.forward(x), m.forward(x, mult))
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
        out = [np.empty((4, 25, s.out_dim)) for s in m.specs]
        p = m.forward(x, out=out)
        assert p is out[-1] and np.array_equal(p, calls)
        rows = np.stack([m.forward(row[None, :]) for row in x[0]])
        assert np.array_equal(m.forward(x[0][:, None, :]), rows)

    def test_forward_rejects_vector_input(self):
        with pytest.raises(ValueError, match="forward"):
            two_layer().forward(np.ones(3))

    def test_folded_checks_multiplier_shapes(self):
        m = two_layer()
        with pytest.raises(ValueError, match="folded: multiplier shape"):
            m.folded([np.ones((4, 1)), None])


class TestBroadcast:
    def test_unstructured_reshape_roundtrip(self):
        spec = LayerSpec(3, 2, "none")
        v = np.arange(6, dtype=float)
        out = broadcast_mask(v, spec, "unstructured")
        assert out.shape == (2, 3)
        assert np.array_equal(out.ravel(), v)

    def test_structured_row_replication(self):
        spec = LayerSpec(3, 2, "none")
        out = broadcast_mask(np.array([1.0, 0.0]), spec, "structured")
        assert np.array_equal(out, [[1, 1, 1], [0, 0, 0]])

    def test_structured_multiplier_row_scales(self):
        rng = np.random.default_rng(6)
        spec = LayerSpec(3, 2, "none")
        w = rng.standard_normal((2, 3))
        v = np.array([0.5, 2.0])
        assert np.array_equal(broadcast_mask(v, spec, "structured") * w, v[:, None] * w)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="broadcast"):
            broadcast_mask(np.ones(5), LayerSpec(3, 2, "none"), "structured")


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
    @pytest.mark.parametrize("seed", [None, 1009])
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
