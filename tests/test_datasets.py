import struct

import numpy as np
import pytest

from maskcert.datasets import (Dataset, _class_means, _semantic_direction, gen_synthetic,
                               load_idx, write_dataset_csv)
from maskcert.errors import DatasetError
from util import make_cfg


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape if images.ndim == 3 else (0, 2, 2)
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    payload = images.tobytes()
    if truncate_images:
        payload = payload[:-truncate_images]
    img_path.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) + payload)
    lab_path.write_bytes(struct.pack(">II", label_magic, len(labels)) + labels.tobytes())
    return img_path, lab_path


class TestSynthetic:
    def test_deterministic(self):
        cfg = make_cfg(seed=3)
        t1, e1, v1 = gen_synthetic(cfg)
        t2, e2, v2 = gen_synthetic(cfg)
        assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.y, t2.y)
        assert np.array_equal(e1.x, e2.x) and np.array_equal(v1, v2)

    def test_exact_class_balance(self):
        cfg = make_cfg(synthetic_train_per_class=17, synthetic_test_per_class=9, seed=4)
        train, test, _ = gen_synthetic(cfg)
        assert np.array_equal(np.bincount(train.y), [17, 17])
        assert np.array_equal(np.bincount(test.y), [9, 9])

    def test_direction_orthogonal_to_mean_gaps(self):
        for k in (2, 3, 5):
            cfg = make_cfg(synthetic_dim=8, synthetic_classes=k, seed=5)
            v = _semantic_direction(cfg)
            means = _class_means(cfg)
            diffs = means[None] - means[:, None]
            assert np.abs(diffs @ v).max() == 0.0
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_shift_invariance_of_separating_classifier(self):
        # K=2, means +-e1, v=e2: the sign-of-first-coordinate rule never
        # changes along the semantic direction
        train, _, v = gen_synthetic(make_cfg(seed=6))
        for delta in (0.25, 1.0):
            shifted = train.x + delta * v
            assert np.array_equal(np.sign(train.x[:, 0]), np.sign(shifted[:, 0]))

    def test_csv_roundtrip_values(self, tmp_path):
        cfg = make_cfg(synthetic_train_per_class=3, synthetic_test_per_class=2, seed=7)
        train, _, _ = gen_synthetic(cfg)
        path = tmp_path / "train.csv"
        write_dataset_csv(path, train)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[-1] == "label"
        parsed = np.array([[float(v) for v in line.split(",")[:-1]] for line in lines[1:]])
        assert np.array_equal(parsed, train.x)


class TestIdx:
    def test_roundtrip_and_scaling(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
        images[0, 0, 0] = 255
        labels = rng.integers(0, 10, size=5, dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, labels), expected_classes=10)
        assert ds.x.shape == (5, 12)
        assert ds.x[0, 0] == 1.0  # 255 scales to exactly 1.0
        assert np.array_equal(ds.y, labels)
        assert np.array_equal(ds.x, images.reshape(5, 12) / 255.0)

    def test_in_place_scaling_bits(self, tmp_path):
        # every byte value scales in place to the bits of astype(float64) / 255.0
        images = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        ds = load_idx(*write_idx_pair(tmp_path, images, np.zeros(4)))
        assert np.array_equal(ds.x, images.reshape(4, 64).astype(np.float64) / 255.0)

    def test_zero_item_pair_valid(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.empty((0, 2, 2), dtype=np.uint8),
                                  np.empty(0, dtype=np.uint8))
        ds = load_idx(img, lab)
        assert len(ds) == 0

    @pytest.mark.parametrize("rows, cols", [(0, 8), (8, 0)])
    def test_image_without_pixels_rejected(self, tmp_path, rows, cols):
        img, lab = write_idx_pair(tmp_path, np.empty((1, rows, cols), dtype=np.uint8),
                                  np.zeros(1, dtype=np.uint8))
        with pytest.raises(DatasetError, match=f"images.idx: images of {rows}x{cols}"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, np.zeros(2, dtype=np.uint8))
        with pytest.raises(DatasetError, match="mismatch"):
            load_idx(img, lab)

    def test_bad_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, np.zeros(1, dtype=np.uint8),
                                  image_magic=0x804)
        with pytest.raises(DatasetError, match="magic"):
            load_idx(img, lab)

    def test_truncated_payload(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, np.zeros(2, dtype=np.uint8),
                                  truncate_images=3)
        with pytest.raises(DatasetError, match="truncated"):
            load_idx(img, lab)

    def test_label_out_of_range(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, np.array([0, 7], dtype=np.uint8))
        with pytest.raises(DatasetError, match="out of range"):
            load_idx(img, lab, expected_classes=5)
