import csv
import json
import struct
import time
import weakref

import numpy as np
import pytest

from maskcert import certify, cli, pipeline
from maskcert.certify import t_grid
from maskcert.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from maskcert.config import CERT_REPETITIONS_MAX, CERT_SAMPLES_MAX, CERT_T_COUNT_MAX
from maskcert.errors import ConfigError, DatasetError
from maskcert.model import MaskableModel, mlp_specs, save_checkpoint
from util import make_cfg

TINY = """
synthetic_train_per_class = 30
synthetic_test_per_class = 30
stage1_epochs = 5
stage2_epochs = 3
stage3_epochs = 5
cert_samples = 10
cert_repetitions = 2
cert_t_count = 60
cert_eval_size = 15
seed = 21
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


def run(cmd, cfg, out, *extra):
    return main([cmd, "--config", str(cfg), "--out", str(out), *extra])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestStageChain:
    def test_full_chain(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert run("gen-data", tiny_config, out) == EXIT_OK
        assert (out / "train.csv").exists() and (out / "test.csv").exists()
        assert run("pretrain", tiny_config, out) == EXIT_OK
        assert (out / "pretrained.ckpt").exists()
        assert run("search", tiny_config, out) == EXIT_OK
        rows = read_csv(out / "stage2_log.csv")
        assert rows[0] == ["step", "L_stab", "L_ratio", "L_consis", "L_1",
                           "composite", "grad_norm"]
        assert run("finetune", tiny_config, out) == EXIT_OK
        assert run("certify", tiny_config, out) == EXIT_OK
        rows = read_csv(out / "cert_report.csv")
        assert rows[0] == ["sample_id", "label", "predicted", "d", "eps_hat",
                           "best_t", "certified"]
        assert len(rows) == 16  # header + eval_size
        summary = (out / "cert_report_summary.txt").read_text()
        assert "pca = " in summary and "paley_confidence = " in summary
        kv = dict(line.split(" = ", 1) for line in summary.splitlines())
        grid = t_grid(make_cfg(cert_t_count=60))
        best_t = [float(r[5]) for r in rows[1:]]
        assert kv["best_t_at_t_lo"] == str(best_t.count(grid[0]))
        assert kv["best_t_at_t_hi"] == str(best_t.count(grid[-1]))
        assert kv["eps_hat_zero"] == str(sum(float(r[4]) == 0.0 for r in rows[1:]))
        # eps_hat = min(1, exp(log bound)) is monotone, so the extreme log
        # bounds give the extreme eps_hat of the nonzero-margin samples
        live = [float(r[4]) for r in rows[1:] if float(r[3]) > 0.0]
        log_min, log_max = float(kv["log_eps_hat_min"]), float(kv["log_eps_hat_max"])
        assert log_min <= float(kv["log_eps_hat_median"]) <= log_max
        assert min(live) == min(1.0, float(np.exp(log_min)))
        assert max(live) == min(1.0, float(np.exp(log_max)))
        status = (out / "status.txt").read_text()
        assert "status = ok" in status
        assert (out / "config.echo.txt").exists()

    def test_missing_prerequisite_names_file(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "empty"
        assert run("search", tiny_config, out) == EXIT_IO
        err = capsys.readouterr().err
        assert "pretrained.ckpt" in err

    def test_certify_vanilla_checkpoint_ratio_zero(self, tiny_config, tmp_path):
        out = tmp_path / "van"
        assert run("pretrain", tiny_config, out) == EXIT_OK
        assert run("certify", tiny_config, out, "--stage-checkpoint",
                   str(out / "pretrained.ckpt")) == EXIT_OK
        summary = (out / "cert_report_summary.txt").read_text()
        assert "pruning_ratio = 0.0\n" in summary


class TestRunAll:
    @pytest.fixture(scope="class")
    def run_all_out(self, tmp_path_factory):
        cfg = tmp_path_factory.mktemp("cfg") / "exp.cfg"
        cfg.write_text(TINY, encoding="utf-8")
        out = tmp_path_factory.mktemp("all")
        assert run("run-all", cfg, out) == EXIT_OK
        return out

    def test_run_all_emits_summary(self, run_all_out):
        out = run_all_out
        rows = read_csv(out / "summary.csv")
        assert rows[0] == ["method", "acc", "pca", "ratio"]
        assert [r[0] for r in rows[1:]] == ["vanilla", "lmp", "csam"]
        assert (out / "pretrained.ckpt").exists()
        assert (out / "mask_searched.ckpt").exists()
        assert (out / "finetuned_csam.ckpt").exists()
        assert (out / "finetuned_lmp.ckpt").exists()

    def test_run_all_row_per_method(self, run_all_out):
        rows = read_csv(run_all_out / "summary.csv")
        assert len(rows) == 4  # header + 3 methods

    def test_summary_ratio_matches_cert_summary(self, run_all_out):
        for method, _, pca, ratio in read_csv(run_all_out / "summary.csv")[1:]:
            text = (run_all_out / f"cert_report_{method}_summary.txt").read_text()
            kv = dict(line.split(" = ", 1) for line in text.splitlines())
            assert (kv["pruning_ratio"], kv["pca"]) == (ratio, pca)

    @pytest.mark.parametrize("method, ckpt", [("vanilla", "pretrained.ckpt"),
                                              ("lmp", "finetuned_lmp.ckpt"),
                                              ("csam", "finetuned_csam.ckpt")])
    def test_certify_checkpoint_equals_run_all_report(self, run_all_out, tmp_path,
                                                      method, ckpt):
        # run-all certifies every method in one pass, certify one model alone
        out = tmp_path / method
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY, encoding="utf-8")
        assert run("certify", cfg, out, "--stage-checkpoint", str(run_all_out / ckpt)) == EXIT_OK
        for suffix in (".csv", "_summary.txt"):
            assert (out / f"cert_report{suffix}").read_bytes() == \
                   (run_all_out / f"cert_report_{method}{suffix}").read_bytes()

    def test_status_times_each_stage(self, run_all_out):
        # one key per stage, since one stage-3 stack fine-tunes every masked
        # method at once
        text = (run_all_out / "status.txt").read_text()
        keys = [line.split(" = ", 1)[0] for line in text.splitlines()]
        assert [k for k in keys if k.startswith("wall_time_") and k != "wall_time_s"] == \
               ["wall_time_stage1", "wall_time_stage2", "wall_time_stage3", "wall_time_certify"]

    def test_status_stage2_time_counts_the_search(self, tiny_config, tmp_path, monkeypatch):
        # a slowed mask search shows in wall_time_stage2
        real = pipeline.stage2_mask_search

        def slow(*args):
            time.sleep(0.3)
            return real(*args)

        monkeypatch.setattr(pipeline, "stage2_mask_search", slow)
        out = tmp_path / "run"
        assert run("run-all", tiny_config, out) == EXIT_OK
        text = (out / "status.txt").read_text()
        status = dict(line.split(" = ", 1) for line in text.splitlines())
        assert float(status["wall_time_stage2"]) >= 0.3

    def test_status_names_the_stacked_first_layer(self, run_all_out):
        # direction_shift always certifies through the stacked forward
        assert "cert_first_layer = stacked\n" in (run_all_out / "status.txt").read_text()

    def test_vanilla_ratio_zero_in_summary(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(TINY + "methods = vanilla\n", encoding="utf-8")
        out = tmp_path / "v"
        assert run("run-all", cfg, out) == EXIT_OK
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 2
        assert float(rows[1][3]) == 0.0

    def test_compare_is_usage_error(self, tiny_config, tmp_path, capsys):
        # run-all writes everything the former compare command wrote
        assert run("compare", tiny_config, tmp_path / "cmp") == EXIT_CONFIG
        assert "compare" in capsys.readouterr().err


class TestIdxRoute:
    @staticmethod
    def write_pair(tmp_path, rng, stem, count, side=4):
        # two classes separated by overall brightness, side x side images
        labels = (rng.uniform(size=count) < 0.5).astype(np.uint8)
        base = np.where(labels[:, None, None] == 0, 60, 180)
        pix = np.clip(base + rng.integers(-40, 40, size=(count, side, side)), 0, 255)
        images = pix.astype(np.uint8)
        ip = tmp_path / f"{stem}-images.idx"
        lp = tmp_path / f"{stem}-labels.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, count, side, side) + images.tobytes())
        lp.write_bytes(struct.pack(">II", 0x801, count) + labels.tobytes())
        return ip, lp

    def write_config(self, tmp_path, test_side=4):
        rng = np.random.default_rng(33)
        ti, tl = self.write_pair(tmp_path, rng, "train", 60)
        ei, el = self.write_pair(tmp_path, rng, "test", 40, side=test_side)
        cfg = tmp_path / "idx.cfg"
        cfg.write_text(f"""
dataset_kind = idx
idx_train_images = {ti}
idx_train_labels = {tl}
idx_test_images = {ei}
idx_test_labels = {el}
idx_classes = 2
transform_kind = interp_corrupt
corruption = haze
corruption_severity = 0.4
hidden_dims = 8
stage1_epochs = 6
stage2_epochs = 3
stage3_epochs = 6
cert_samples = 10
cert_repetitions = 2
cert_t_count = 60
cert_eval_size = 12
seed = 5
""", encoding="utf-8")
        return cfg

    def test_run_all_on_idx_data_with_corruption(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "idx_run"
        assert run("run-all", cfg, out) == EXIT_OK
        rows = read_csv(out / "summary.csv")
        assert [r[0] for r in rows[1:]] == ["vanilla", "lmp", "csam"]
        for r in rows[1:]:
            assert 0.0 <= float(r[2]) <= 1.0

    def test_certify_checkpoint_equals_run_all_report(self, tmp_path):
        # haze on [0, 1] pixels takes the closed-form first layer, and one
        # model alone (certify) gets the bytes of its row of three (run-all)
        cfg = self.write_config(tmp_path)
        assert run("run-all", cfg, tmp_path / "all") == EXIT_OK
        assert run("certify", cfg, tmp_path / "one", "--stage-checkpoint",
                   str(tmp_path / "all" / "finetuned_csam.ckpt")) == EXIT_OK
        for suffix in (".csv", "_summary.txt"):
            assert (tmp_path / "one" / f"cert_report{suffix}").read_bytes() == \
                   (tmp_path / "all" / f"cert_report_csam{suffix}").read_bytes()
        for out in ("all", "one"):
            status = (tmp_path / out / "status.txt").read_text()
            assert "cert_first_layer = closed_form\n" in status

    def test_train_and_test_image_sizes_differ(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, test_side=2)
        assert run("run-all", cfg, tmp_path / "o") == EXIT_IO
        err = capsys.readouterr().err
        assert "train-images.idx has 16 pixels per image" in err
        assert "test-images.idx has 4" in err

    @pytest.mark.parametrize("stem", ["train", "test"])
    def test_empty_pair_exits_2_naming_the_file(self, tmp_path, capsys, stem):
        cfg = self.write_config(tmp_path)
        path, _ = self.write_pair(tmp_path, np.random.default_rng(34), stem, 0)
        assert run("run-all", cfg, tmp_path / "o") == EXIT_IO
        assert f"{path} holds no images" in capsys.readouterr().err

    @pytest.mark.parametrize("stem, header, what", [
        ("train-images", struct.pack(">IIII", 0x803, 2 ** 32 - 1, 65535, 65535), "pixel"),
        ("train-images", struct.pack(">IIII", 0x803, 2 ** 32 - 1, 28, 28), "pixel"),
        ("train-labels", struct.pack(">II", 0x801, 2 ** 32 - 1), "label"),
    ], ids=["images-65535x65535", "images-28x28", "labels"])
    def test_header_declaring_more_than_the_file_exits_2(self, tmp_path, capsys,
                                                         stem, header, what):
        # a count of 2^32 - 1 claims more data than the file holds; the file
        # size is checked first, so nothing is allocated for the claim
        cfg = self.write_config(tmp_path)
        path = tmp_path / f"{stem}.idx"
        path.write_bytes(header + bytes(16))
        assert run("run-all", cfg, tmp_path / "o") == EXIT_IO
        assert f"{path}: truncated {what} payload" in capsys.readouterr().err


class TestCheckpointArchitecture:
    @pytest.fixture
    def pretrained(self, tiny_config, tmp_path):
        out = tmp_path / "pre"
        assert run("pretrain", tiny_config, out) == EXIT_OK
        return out / "pretrained.ckpt"

    @pytest.mark.parametrize("command", ["search", "finetune", "certify"])
    @pytest.mark.parametrize("line, config_side, ckpt_side", [
        ("hidden_dims = 8", "16->8 relu", "16->64 relu"),
        ("mask_mode = structured", "mask_mode structured", "mask_mode unstructured"),
    ])
    def test_mismatch_is_config_error(self, tmp_path, capsys, pretrained, command,
                                      line, config_side, ckpt_side):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(TINY + line + "\n", encoding="utf-8")
        assert run(command, cfg, tmp_path / "o", "--stage-checkpoint",
                   str(pretrained)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert config_side in err and ckpt_side in err and "pretrained.ckpt" in err

    @pytest.mark.parametrize("command", ["search", "certify"])
    def test_other_seed_accepted(self, tiny_config, tmp_path, pretrained, command):
        assert run(command, tiny_config, tmp_path / "o", "--seed", "7",
                   "--stage-checkpoint", str(pretrained)) == EXIT_OK


class TestCheckpointStage:
    @pytest.fixture
    def chain(self, tiny_config, tmp_path):
        out = tmp_path / "chain"
        for command in ("pretrain", "search", "finetune"):
            assert run(command, tiny_config, out) == EXIT_OK
        return out

    @pytest.mark.parametrize("command, stage, accepted", [
        ("search", "mask_searched", "pretrained"),
        ("search", "finetuned", "pretrained"),
        ("certify", "mask_searched", "pretrained or finetuned"),
    ])
    def test_wrong_stage_is_io_error(self, tiny_config, tmp_path, capsys, chain,
                                     command, stage, accepted):
        ckpt = chain / f"{stage}.ckpt"
        assert run(command, tiny_config, tmp_path / "o", "--stage-checkpoint",
                   str(ckpt)) == EXIT_IO
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"stage {stage}" in err and accepted in err

    @pytest.mark.parametrize("command, stage", [
        ("search", "pretrained"), ("certify", "pretrained"), ("certify", "finetuned")])
    def test_accepted_stage(self, tiny_config, tmp_path, chain, command, stage):
        assert run(command, tiny_config, tmp_path / "o", "--stage-checkpoint",
                   str(chain / f"{stage}.ckpt")) == EXIT_OK

    def test_certify_runs_without_the_training_set(self, tiny_config, tmp_path, chain,
                                                   monkeypatch):
        # certify reads only the training inputs' width, so they are dead
        # once certification starts, and letting them go moves no byte
        ckpt = ("--stage-checkpoint", str(chain / "finetuned.ckpt"))
        assert run("certify", tiny_config, tmp_path / "want", *ckpt) == EXIT_OK
        refs, alive = [], []
        build, certify_all = pipeline.build_data, certify.pca_models

        def built(*args):
            data = build(*args)
            refs.append(weakref.ref(data[0].x))
            return data

        def certified(*args):
            alive.append([ref() is not None for ref in refs])
            return certify_all(*args)

        monkeypatch.setattr(pipeline, "build_data", built)
        monkeypatch.setattr(certify, "pca_models", certified)
        assert run("certify", tiny_config, tmp_path / "got", *ckpt) == EXIT_OK
        assert alive == [[False]]
        for name in ("cert_report.csv", "cert_report_summary.txt"):
            assert (tmp_path / "got" / name).read_bytes() == \
                   (tmp_path / "want" / name).read_bytes()

    def test_architecture_checked_first(self, tmp_path, chain):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(TINY + "hidden_dims = 8\n", encoding="utf-8")
        assert run("certify", cfg, tmp_path / "o", "--stage-checkpoint",
                   str(chain / "mask_searched.ckpt")) == EXIT_CONFIG


class TestErrorsAndProvenance:
    @pytest.mark.parametrize("command", ["gen-data", "pretrain", "run-all"])
    def test_stage_checkpoint_is_usage_error_where_unread(self, tiny_config, tmp_path,
                                                          capsys, command):
        # only search, finetune and certify read an input checkpoint
        assert run(command, tiny_config, tmp_path / "o", "--stage-checkpoint",
                   str(tmp_path / "nonexistent" / "x.ckpt")) == EXIT_CONFIG
        assert "--stage-checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("family,code,label", [
        (ConfigError, EXIT_CONFIG, "config error"),
        (DatasetError, EXIT_IO, "i/o error"),
        (OSError, EXIT_IO, "i/o error"),
        (FloatingPointError, EXIT_NUMERIC, "numeric failure"),
        (RuntimeError, EXIT_INTERNAL, "internal error")])
    def test_exception_family_sets_exit_code_and_label(self, tiny_config, tmp_path,
                                                       monkeypatch, capsys, family, code,
                                                       label):
        def fail(cfg, args, out):
            raise family("boom")
        monkeypatch.setitem(cli._COMMANDS, "gen-data", fail)
        assert run("gen-data", tiny_config, tmp_path / "o") == code
        assert capsys.readouterr().err == f"maskcert: {label}: boom\n"
        status = (tmp_path / "o" / "status.txt").read_text(encoding="utf-8")
        assert "status = error\n" in status and f"exit_code = {code}\n" in status
        assert "message = boom\n" in status

    def test_usage_error_writes_no_status(self, tiny_config, tmp_path, monkeypatch, capsys):
        # arguments that do not parse name no output directory, so neither the
        # default ./out of another run nor the --out given is written to
        monkeypatch.chdir(tmp_path)
        status = tmp_path / "out" / "status.txt"
        status.parent.mkdir()
        status.write_text("command = run-all\nstatus = ok\n", encoding="utf-8")
        assert main(["run-all", "--config", str(tiny_config), "--out", "other",
                     "--bogus"]) == EXIT_CONFIG
        assert "--bogus" in capsys.readouterr().err
        assert status.read_text(encoding="utf-8") == "command = run-all\nstatus = ok\n"
        assert not (tmp_path / "other").exists()

    @pytest.mark.parametrize("text,named", [
        (b"pruning_ratio = 1.5\n", "pruning_ratio"),
        (b"synthetic_classes = 5\nsynthetic_dim = 4\n", "synthetic_dim"),
        (b"seed = 1\xff\n", "bad.cfg")], ids=["range", "synthetic_dim", "not UTF-8"])
    def test_bad_config_exit_code(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(text)
        assert run("gen-data", cfg, tmp_path / "o") == EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["cert_t_hi = inf", "lambda_stab = nan"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY + line + "\n", encoding="utf-8")
        assert run("run-all", cfg, tmp_path / "o") == EXIT_CONFIG
        assert line.split(" = ")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("key,cap", [("cert_samples", CERT_SAMPLES_MAX),
                                         ("cert_repetitions", CERT_REPETITIONS_MAX),
                                         ("cert_t_count", CERT_T_COUNT_MAX)])
    def test_certification_size_above_cap_rejected(self, tiny_config, tmp_path, capsys,
                                                   key, cap):
        # rejected while parsing, before any checkpoint is read or work is done
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"{key} = {cap + 1}\n", encoding="utf-8")
        assert run("certify", cfg, tmp_path / "o") == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_haze_severity_above_one_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY + "transform_kind = interp_corrupt\ncorruption = haze\n"
                       "corruption_severity = 5\n", encoding="utf-8")
        assert run("run-all", cfg, tmp_path / "o") == EXIT_CONFIG
        assert "corruption_severity" in capsys.readouterr().err

    def test_certify_rejects_fractional_hard_mask(self, tiny_config, tmp_path, capsys):
        model = MaskableModel.initialized(mlp_specs(16, [64, 64], 2), "unstructured",
                                          np.random.default_rng(0))
        ckpt = tmp_path / "half.ckpt"
        save_checkpoint(ckpt, model, "finetuned",
                        hard_mask=[np.ones(n) for n in model.mask_dims()])
        doc = json.loads(ckpt.read_text())
        doc["hard_mask"] = [[0.5] * len(m) for m in doc["hard_mask"]]
        ckpt.write_text(json.dumps(doc))
        assert run("certify", tiny_config, tmp_path / "o", "--stage-checkpoint",
                   str(ckpt)) == EXIT_IO
        assert "hard_mask" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["array document", "string in hard_mask",
                                        "1e999 in W", "not UTF-8"])
    def test_certify_malformed_checkpoint_is_io_error(self, tiny_config, tmp_path,
                                                      capsys, defect):
        model = MaskableModel.initialized(mlp_specs(16, [64, 64], 2), "unstructured",
                                          np.random.default_rng(0))
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, model, "finetuned",
                        hard_mask=[np.ones(n) for n in model.mask_dims()])
        doc = json.loads(ckpt.read_text())
        if defect == "array document":
            text = json.dumps([doc])
        elif defect == "string in hard_mask":
            doc["hard_mask"][0][0] = "1"
            text = json.dumps(doc)
        elif defect == "1e999 in W":
            doc["layers"][0]["W"][0][0] = "@"
            text = json.dumps(doc).replace('"@"', "1e999")
        else:
            text = "\xff" + json.dumps(doc)
        # json.dumps writes ASCII, so latin-1 keeps its bytes and makes \xff
        # the one byte that is not UTF-8
        ckpt.write_bytes(text.encode("latin-1"))
        assert run("certify", tiny_config, tmp_path / "o", "--stage-checkpoint",
                   str(ckpt)) == EXIT_IO
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_certify_rejects_version_that_only_equals_1(self, tiny_config, tmp_path,
                                                        capsys, version):
        # true and 1.0 compare equal to 1 in Python; only the integer 1 loads
        model = MaskableModel.initialized(mlp_specs(16, [64, 64], 2), "unstructured",
                                          np.random.default_rng(0))
        ckpt = tmp_path / "version.ckpt"
        save_checkpoint(ckpt, model, "pretrained")
        doc = json.loads(ckpt.read_text())
        doc["version"] = version
        ckpt.write_text(json.dumps(doc))
        assert run("certify", tiny_config, tmp_path / "o", "--stage-checkpoint",
                   str(ckpt)) == EXIT_IO
        assert "version" in capsys.readouterr().err

    def test_search_on_zero_layer_is_numeric_error(self, tiny_config, tmp_path, capsys):
        # an all-zero layer has a zero percentile threshold, the soft mask's divisor
        model = MaskableModel.initialized(mlp_specs(16, [64, 64], 2), "unstructured",
                                          np.random.default_rng(0))
        model.weights[1][:] = 0.0
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(ckpt, model, "pretrained")
        assert run("search", tiny_config, tmp_path / "o", "--stage-checkpoint",
                   str(ckpt)) == EXIT_NUMERIC
        assert "layer 1" in capsys.readouterr().err

    def test_run_all_with_no_pairs_names_augment_level(self, tmp_path, capsys):
        # L1 pairs a quarter of the training set, which rounds to none of 2
        cfg = tmp_path / "l1.cfg"
        cfg.write_text(TINY.replace("synthetic_train_per_class = 30",
                                    "synthetic_train_per_class = 1") + "augment_level = L1\n",
                       encoding="utf-8")
        assert run("run-all", cfg, tmp_path / "o") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "augment_level = L1" in err and "none of the 2 training samples" in err

    def test_search_without_augmentation_names_augment_level(self, tmp_path, capsys):
        # augment_level = none is accepted when csam is not among the methods,
        # but search still needs the pairs
        cfg = tmp_path / "none.cfg"
        cfg.write_text(TINY + "augment_level = none\nmethods = vanilla\n", encoding="utf-8")
        assert run("pretrain", cfg, tmp_path / "o") == EXIT_OK
        assert run("search", cfg, tmp_path / "o") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "augment_level = none" in err and "none of the 60 training samples" in err

    def test_unknown_command_is_config_error(self, tiny_config, tmp_path):
        assert main(["frobnicate", "--config", str(tiny_config)]) == EXIT_CONFIG

    def test_negative_seed_override_rejected(self, tiny_config, tmp_path):
        assert run("gen-data", tiny_config, tmp_path / "neg", "--seed", "-1") == EXIT_CONFIG

    def test_seed_override_recorded_in_echo(self, tiny_config, tmp_path):
        out = tmp_path / "seeded"
        assert run("gen-data", tiny_config, out, "--seed", "999") == EXIT_OK
        assert "seed = 999" in (out / "config.echo.txt").read_text()

    def test_rerun_byte_identical_csv_bodies(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run("run-all", tiny_config, out1) == EXIT_OK
        assert run("run-all", tiny_config, out2) == EXIT_OK
        for name in ("summary.csv", "stage1_log.csv", "stage2_log.csv",
                     "cert_report_csam.csv", "cert_report_lmp.csv",
                     "cert_report_vanilla.csv", "stage3_log_csam.csv"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{name} differs between reruns"
        # checkpoints too
        assert (out1 / "finetuned_csam.ckpt").read_bytes() == \
               (out2 / "finetuned_csam.ckpt").read_bytes()
        # timestamps are confined to the status file
        assert "finished_utc" in (out1 / "status.txt").read_text()


class TestDocumentedExits:
    """Documented exits that no other test reaches, each driven through main
    and checked by its exit code and its stderr label."""

    @staticmethod
    def failed(capsys, label, *fragments):
        err = capsys.readouterr().err
        assert err.startswith(f"maskcert: {label}: ")
        assert all(fragment in err for fragment in fragments), err

    def test_gen_data_on_idx_is_config_error(self, tmp_path, capsys):
        cfg = TestIdxRoute().write_config(tmp_path)
        assert run("gen-data", cfg, tmp_path / "o") == EXIT_CONFIG
        self.failed(capsys, "config error", "gen-data only generates synthetic datasets")

    def test_finetune_on_pretrained_checkpoint_is_io_error(self, tiny_config, tmp_path,
                                                           capsys):
        # a pretrained checkpoint carries no soft mask to binarize
        out = tmp_path / "pre"
        assert run("pretrain", tiny_config, out) == EXIT_OK
        assert run("finetune", tiny_config, tmp_path / "o", "--stage-checkpoint",
                   str(out / "pretrained.ckpt")) == EXIT_IO
        self.failed(capsys, "i/o error", "finetune needs a mask-search checkpoint")

    def test_config_line_without_equals_names_path_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY + "stage1_epochs 5\n", encoding="utf-8")
        assert run("gen-data", cfg, tmp_path / "o") == EXIT_CONFIG
        line = len(TINY.splitlines()) + 1
        self.failed(capsys, "config error", f"{cfg}:{line}: expected 'key = value'")

    def test_float_key_that_is_no_number_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY + "stage1_lr = fast\n", encoding="utf-8")
        assert run("gen-data", cfg, tmp_path / "o") == EXIT_CONFIG
        self.failed(capsys, "config error", "'stage1_lr'", "expected a number, got 'fast'")

    @pytest.mark.parametrize("stem, defect, message", [
        ("train-images", "trailing", "trailing bytes after pixel payload"),
        ("train-labels", "magic", "bad label magic 0x00000802"),
        ("train-labels", "trailing", "trailing bytes after label payload"),
    ], ids=["images-trailing", "labels-magic", "labels-trailing"])
    def test_malformed_idx_file_is_io_error(self, tmp_path, capsys, stem, defect, message):
        cfg = TestIdxRoute().write_config(tmp_path)
        path = tmp_path / f"{stem}.idx"
        data = path.read_bytes()
        path.write_bytes(data + b"\0" if defect == "trailing" else
                         struct.pack(">I", 0x802) + data[4:])
        assert run("pretrain", cfg, tmp_path / "o") == EXIT_IO
        self.failed(capsys, "i/o error", f"{path}: {message}")

    @pytest.mark.parametrize("defect, message", [
        ("stage", "unknown stage tag 'pruned'"),
        ("mask_mode", "unknown mask_mode 'channel'"),
        ("hard_mask", "hard_mask must have one entry per layer"),
    ])
    def test_malformed_checkpoint_header_is_io_error(self, tiny_config, tmp_path, capsys,
                                                     defect, message):
        model = MaskableModel.initialized(mlp_specs(16, [64, 64], 2), "unstructured",
                                          np.random.default_rng(0))
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, model, "finetuned",
                        hard_mask=[np.ones(n) for n in model.mask_dims()])
        doc = json.loads(ckpt.read_text())
        if defect == "hard_mask":
            doc["hard_mask"].pop()
        else:
            doc[defect] = {"stage": "pruned", "mask_mode": "channel"}[defect]
        ckpt.write_text(json.dumps(doc))
        assert run("certify", tiny_config, tmp_path / "o", "--stage-checkpoint",
                   str(ckpt)) == EXIT_IO
        self.failed(capsys, "i/o error", f"checkpoint {ckpt}: {message}")

    def test_stage1_logit_overflow_is_numeric_failure(self, tmp_path, capsys):
        # one step at this rate leaves weights whose logits overflow, which
        # the loss check catches before the backward runs
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(TINY + "stage1_lr = 1e300\n", encoding="utf-8")
        assert run("pretrain", cfg, tmp_path / "o") == EXIT_NUMERIC
        self.failed(capsys, "numeric failure", "training diverged at epoch 0: non-finite loss")
