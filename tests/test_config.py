import dataclasses

import numpy as np
import pytest

from maskcert import config
from maskcert.config import (CERT_REPETITIONS_MAX, CERT_SAMPLES_MAX, CERT_T_COUNT_MAX,
                             ExperimentConfig, augment_count, parse_config, serialize,
                             transform_spec, validate)
from maskcert.errors import ConfigError


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        assert cfg == ExperimentConfig()
        # defaults carry the documented hyperparameters
        assert (cfg.lambda_stab, cfg.lambda_ratio, cfg.lambda_consis,
                cfg.lambda_l1) == (5.0, 1.0, 1.0, 1e-4)
        assert cfg.noise_magnitude == 0.5 and cfg.safety_threshold == 1.0
        assert cfg.init_percentile == 30.0 and cfg.pruning_ratio == 0.5
        assert (cfg.stage1_epochs, cfg.stage2_epochs, cfg.stage3_epochs) == (50, 100, 50)
        assert (cfg.stage1_lr, cfg.stage2_lr, cfg.stage3_lr) == (0.01, 1e-4, 0.001)
        assert (cfg.cert_samples, cfg.cert_repetitions) == (100, 10)
        assert (cfg.cert_alpha, cfg.cert_error_bound) == (0.9, 1e-3)
        assert cfg.cert_t_count == 500 and cfg.cert_eval_size == 100

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = parse_config(write(tmp_path, """
# a comment
seed = 7   # trailing comment

batch_size = 16
"""))
        assert cfg.seed == 7 and cfg.batch_size == 16

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = write(tmp_path, "seed = 1\nnot_a_key = 2\n")
        with pytest.raises(ConfigError, match=r"2: unknown key 'not_a_key'"):
            parse_config(path)

    @pytest.mark.parametrize("line", [
        "pruning_ratio = 1.5", "stage1_epochs = 0", "stage2_lr = 0", "cert_alpha = 1.0",
        "cert_error_bound = 0", "safety_threshold = 1.5", "lambda_stab = -1",
        # K > 2 classes need K + 1 dimensions (datasets.gen_synthetic)
        "synthetic_classes = 5\nsynthetic_dim = 4"])
    def test_range_error_names_key(self, tmp_path, line):
        # the error names the key set last
        path = write(tmp_path, line + "\n")
        with pytest.raises(ConfigError, match=line.splitlines()[-1].split(" = ")[0]):
            parse_config(path)

    @pytest.mark.parametrize("key,cap", [("cert_samples", CERT_SAMPLES_MAX),
                                         ("cert_repetitions", CERT_REPETITIONS_MAX),
                                         ("cert_t_count", CERT_T_COUNT_MAX)])
    def test_certification_size_caps(self, tmp_path, key, cap):
        assert getattr(parse_config(write(tmp_path, f"{key} = {cap}\n")), key) == cap
        with pytest.raises(ConfigError, match=f"{key}.*{cap}"):
            parse_config(write(tmp_path, f"{key} = {cap + 1}\n"))

    def test_type_error_names_key(self, tmp_path):
        path = write(tmp_path, "batch_size = lots\n")
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_lists(self, tmp_path):
        cfg = parse_config(write(tmp_path, "hidden_dims = 32, 16\nmethods = vanilla,csam\n"))
        assert cfg.hidden_dims == (32, 16)
        assert cfg.methods == ("vanilla", "csam")

    @pytest.mark.parametrize("line", [
        "hidden_dims = 64,,32", "hidden_dims = 64,32,", "hidden_dims = ,64",
        "methods = vanilla,,lmp", "methods = vanilla,lmp,"])
    def test_empty_list_entry_names_key_and_line(self, tmp_path, line):
        # an empty entry is an error, not a shorter list (a different
        # architecture or method set)
        key = line.split(" ", 1)[0]
        path = write(tmp_path, "seed = 1\n" + line + "\n")
        with pytest.raises(ConfigError, match=rf"cfg:2: key '{key}': .*empty entries"):
            parse_config(path)

    def test_roundtrip(self, tmp_path):
        original = parse_config(write(tmp_path, "seed = 13\nstage2_lr = 3e-5\n"))
        echoed = write(tmp_path, serialize(original), name="echo.cfg")
        assert parse_config(echoed) == original

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")


class TestCrossField:
    def test_idx_requires_paths(self, tmp_path):
        path = write(tmp_path, "dataset_kind = idx\ntransform_kind = interp_corrupt\n")
        with pytest.raises(ConfigError, match="idx_train_images"):
            parse_config(path)

    def test_idx_paths_must_exist(self, tmp_path):
        text = ("dataset_kind = idx\ntransform_kind = interp_corrupt\n"
                "idx_train_images = missing.idx\nidx_train_labels = missing.idx\n"
                "idx_test_images = missing.idx\nidx_test_labels = missing.idx\n")
        with pytest.raises(ConfigError, match="no such file"):
            parse_config(write(tmp_path, text))

    def test_direction_shift_needs_synthetic(self, tmp_path):
        for name in ("ti", "tl", "ei", "el"):
            (tmp_path / f"{name}.idx").write_bytes(b"")
        text = (f"dataset_kind = idx\n"
                f"idx_train_images = {tmp_path}/ti.idx\nidx_train_labels = {tmp_path}/tl.idx\n"
                f"idx_test_images = {tmp_path}/ei.idx\nidx_test_labels = {tmp_path}/el.idx\n")
        with pytest.raises(ConfigError, match="direction_shift"):
            parse_config(write(tmp_path, text))

    def test_csam_needs_augmentation(self, tmp_path):
        with pytest.raises(ConfigError, match="augment_level"):
            parse_config(write(tmp_path, "augment_level = none\n"))

    def test_t_grid_order(self):
        with pytest.raises(ConfigError, match="cert_t_lo"):
            validate(dataclasses.replace(ExperimentConfig(), cert_t_lo=10.0,
                                         cert_t_hi=1.0))

    def test_non_finite_float_rejected_in_code(self):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="cert_t_hi"):
                validate(dataclasses.replace(ExperimentConfig(), cert_t_hi=value))

    def test_corruption_severity_follows_corruption(self):
        for name, severity in (("haze", 1.5), ("gaussian_blur3", 0.0)):
            with pytest.raises(ConfigError, match="corruption_severity"):
                validate(dataclasses.replace(ExperimentConfig(), corruption=name,
                                             corruption_severity=severity))
        validate(dataclasses.replace(ExperimentConfig(), corruption="gaussian_blur3",
                                     corruption_severity=5.0))

    def test_synthetic_dim_lower_bound(self):
        # two classes need 2 dimensions, K > 2 classes K + 1
        for classes, dim in ((2, 2), (3, 4), (5, 6)):
            cfg = dataclasses.replace(ExperimentConfig(), synthetic_classes=classes,
                                      synthetic_dim=dim)
            validate(cfg)
            with pytest.raises(ConfigError, match="synthetic_dim"):
                validate(dataclasses.replace(cfg, synthetic_dim=dim - 1))

    @pytest.mark.parametrize("key", ["idx_train_images", "idx_train_labels",
                                     "idx_test_images", "idx_test_labels"])
    @pytest.mark.parametrize("path", ["/data/hash#dir/x.idx", "/data/x.idx\n", "/da\rta/x",
                                      " /data/x.idx", "/data/x.idx\t"])
    def test_idx_path_the_format_cannot_hold_rejected(self, key, path):
        # the parser cuts a line at "#" and strips it, so such a path would
        # not survive serialize and parse_config
        with pytest.raises(ConfigError, match=key):
            validate(dataclasses.replace(ExperimentConfig(), **{key: path}))

    def test_idx_path_with_inner_space_round_trips(self, tmp_path):
        cfg = validate(dataclasses.replace(ExperimentConfig(), idx_test_labels="/my data/x.idx"))
        assert parse_config(write(tmp_path, serialize(cfg))) == cfg

    @pytest.mark.parametrize("key, value", [
        ("seed", True), ("hidden_dims", [8]), ("hidden_dims", (8, False)),
        ("cert_samples", 10.0), ("stage1_epochs", 2.5), ("stage1_lr", np.float64(0.02)),
        ("batch_size", np.int64(32)), ("methods", ["csam"]), ("methods", ("csam", 1)),
        ("corruption", 5)])
    def test_type_serialize_cannot_write_back_rejected(self, key, value):
        # each would echo as text that does not parse, or parses to another value
        with pytest.raises(ConfigError, match=f"key '{key}' must be"):
            validate(dataclasses.replace(ExperimentConfig(), **{key: value}))

    def test_int_for_a_float_key_round_trips(self, tmp_path):
        cfg = validate(dataclasses.replace(ExperimentConfig(), stage1_lr=1,
                                           hidden_dims=(8, 4), methods=("lmp",)))
        assert parse_config(write(tmp_path, serialize(cfg))) == cfg

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("seed = -3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(path)


class TestViews:
    def test_transform_spec_direction_required(self):
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError, match="direction"):
            transform_spec(cfg)

    def test_blur_corruption_through_config(self):
        cfg = ExperimentConfig(transform_kind="interp_corrupt",
                               corruption="gaussian_blur3", corruption_severity=0.8)
        spec = transform_spec(cfg)
        assert spec.corrupt.name == "gaussian_blur3"
        assert spec.corrupt.severity == 0.8

    def test_augment_count_levels(self):
        assert augment_count(ExperimentConfig(augment_level="L1", methods=("vanilla",)), 100) == 25
        assert augment_count(ExperimentConfig(), 100) == 100
        none_cfg = ExperimentConfig(augment_level="none", methods=("vanilla", "lmp"))
        assert augment_count(none_cfg, 100) == 0


def test_rng_stream_namespaces_are_distinct_but_one_pair():
    # every namespace is its own stream under the root seed, except the
    # documented collision of model init with the synthetic test split
    streams = {k: v for k, v in vars(config).items() if k.startswith("STREAM_")}
    shared = [(a, b) for a in streams for b in streams if a < b and streams[a] == streams[b]]
    assert shared == [("STREAM_INIT", "STREAM_SYNTHETIC_TEST")]
