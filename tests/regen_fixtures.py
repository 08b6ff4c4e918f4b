"""Record the regression fixtures in tests/fixtures/.

    PYTHONPATH=src python tests/regen_fixtures.py default_experiment trajectory stage2_step \
        small_run_outputs small_idx_outputs

Each named fixture is recomputed from the current code and overwritten. The
tests never write fixtures: a missing file fails them. Re-record one only
for a deliberate change of results, and say so in the change description.
The step and output-bytes fixtures are computed in a child process with one
BLAS thread (see one_thread_record).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from maskcert.cli import EXIT_OK, main as cli_main
from maskcert.config import ExperimentConfig, parse_config, validate
from maskcert.masks import (binarize, hard_multipliers, init_percentile_scaled, layer_views,
                            unit_magnitudes)
from maskcert.model import MaskableModel, mlp_specs
from maskcert.objectives import composite_step_loss
from maskcert.pipeline import _ce_epochs, run_experiment
from maskcert.transforms import Dataset
from test_datasets import write_idx_pair
from util import make_cfg

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "configs" / "default.cfg"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
DEFAULT_FIXTURE = FIXTURES / "default_experiment.json"
TRAJECTORY_FIXTURE = FIXTURES / "trajectory.json"
STEP_FIXTURE = FIXTURES / "stage2_step.json"
OUTPUTS_FIXTURE = FIXTURES / "small_run_outputs.json"
IDX_OUTPUTS_FIXTURE = FIXTURES / "small_idx_outputs.json"
REGEN_HINT = "PYTHONPATH=src python tests/regen_fixtures.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The small run that criterion 9 repeats and the trajectory fixture pins.
SMALL_RUN = {
    "synthetic_train_per_class": 40,
    "synthetic_test_per_class": 40,
    "stage1_epochs": 6,
    "stage2_epochs": 4,
    "stage3_epochs": 6,
    "cert_samples": 15,
    "cert_repetitions": 3,
    "cert_t_count": 100,
    "cert_eval_size": 20,
    "seed": 77,
}


def small_run_config_text() -> str:
    return "".join(f"{key} = {value}\n" for key, value in SMALL_RUN.items())


# The small IDX run the IDX output-bytes fixture pins: 6x6 images of 3
# classes told apart by brightness, 50 to train on and 30 to test, with a
# corruption and augment level per variant. Batches of 16 mix clean and
# transformed rows and end each epoch on a short batch, and the mask search
# steps far enough that csam's mask is not lmp's.
SMALL_IDX_RUN = {
    "dataset_kind": "idx",
    "idx_train_images": "train/images.idx",
    "idx_train_labels": "train/labels.idx",
    "idx_test_images": "test/images.idx",
    "idx_test_labels": "test/labels.idx",
    "idx_classes": 3,
    "transform_kind": "interp_corrupt",
    "hidden_dims": 8,
    "batch_size": 16,
    "stage1_epochs": 4,
    "stage2_epochs": 3,
    "stage2_lr": 0.05,
    "stage3_epochs": 3,
    "cert_samples": 10,
    "cert_repetitions": 2,
    "cert_t_count": 60,
    "cert_eval_size": 12,
    "seed": 5,
}
SMALL_IDX_VARIANTS = {
    "haze-L2": {"corruption": "haze", "corruption_severity": 0.4, "augment_level": "L2"},
    "blur-L1": {"corruption": "gaussian_blur3", "corruption_severity": 0.8,
                "augment_level": "L1"},
}


def default_experiment_record(output, cfg: ExperimentConfig) -> dict:
    """The `repr` of every method's accuracy, pca and ratio on the default run."""
    return {"config_seed": cfg.seed,
            "results": {method: {"acc": repr(r.clean_accuracy), "pca": repr(r.cert.fraction),
                                 "ratio": repr(r.ratio)} for method, r in output.results.items()}}


def trajectory_record() -> dict:
    """Stage-1 epoch losses, the stage-2 report at steps 0, 1 and the last
    step, the final soft-mask L1 sum and the csam per-sample eps_hat of the
    small run."""
    output = run_experiment(validate(ExperimentConfig(**SMALL_RUN)))
    csam = output.results["csam"]
    reports = output.stage2_log
    return {
        "stage1_mean_loss": [h.mean_loss for h in output.stage1_log],
        "stage2": {str(r.step): {"l_stab": r.l_stab, "l_ratio": r.l_ratio,
                                 "l_consis": r.l_consis, "l1_normalized": r.l1_normalized,
                                 "composite": r.composite, "grad_norm": r.grad_norm}
                   for r in (reports[0], reports[1], reports[-1])},
        "soft_mask_l1": float(sum(np.abs(c).sum() for c in output.soft)),
        "csam_eps_hat": [row.eps_hat for row in csam.cert.rows],
    }


# (input dim, hidden dims, classes) of the models the step fixture covers
STEP_SIZES = ((16, [64, 64], 2), (5, [6], 3), (784, [128, 64], 10))
STEP_VARIANTS = 7  # per size and mask mode
# per variant: batch size, pruning ratio, noise magnitude
STEP_BATCH = (1, 7, 64, 33, 64, 2, 16)
STEP_PR = (0.5, 0.0, 0.9, 0.7, 0.5, 0.3, 0.95)
STEP_MU = (0.5, 0.0, 0.1, 0.5, 0.25, 1.0, 0.05)
REPORT_FLOATS = ("l_stab", "l_ratio", "l_consis", "l1_normalized", "composite", "grad_norm")


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _inputs(rng, in_dim, rows):
    """Image-like inputs in [0, 1) for the 784-wide model, normal otherwise."""
    if in_dim == 784:
        return rng.uniform(size=(rows, in_dim))
    return rng.standard_normal((rows, in_dim))


def _step_case(in_dim, hidden, classes, mode, k):
    rng = np.random.default_rng([31, in_dim, len(hidden), k, mode == "structured"])
    model = MaskableModel.initialized(mlp_specs(in_dim, hidden, classes), mode, rng)
    if k % 2 == 0:
        soft = np.concatenate(init_percentile_scaled(model, 30.0))
    else:
        soft = np.concatenate([rng.uniform(size=n) for n in model.mask_dims()])
    x = _inputs(rng, in_dim, STEP_BATCH[k])
    x_t = x + 0.3 * rng.standard_normal(x.shape)
    weights = ({} if k != 5 else
               dict(lambda_stab=1.0, lambda_ratio=2.0, lambda_consis=0.5, lambda_l1=1e-3,
                    safety_threshold=0.5))
    cfg = make_cfg(pruning_ratio=STEP_PR[k], noise_magnitude=STEP_MU[k], **weights)
    res = composite_step_loss(model, soft, x, x_t, cfg, np.random.default_rng([32, k]),
                              step=k)
    grads = layer_views(res.grad, model.mask_dims())
    return {"grads": [_sha256([g]) for g in grads],
            "grad_shapes": [list(g.shape) for g in grads],
            "report": {"step": res.report.step,
                       **{f: repr(getattr(res.report, f)) for f in REPORT_FLOATS}}}


def _ce_case(in_dim, hidden, classes, variant):
    """Two epochs of _ce_epochs: dense (variants 0, 1) or under an
    unstructured (2) or structured (3) hard mask."""
    mode = "structured" if variant == 3 else "unstructured"
    rng = np.random.default_rng([33, in_dim, len(hidden), variant])
    model = MaskableModel.initialized(mlp_specs(in_dim, hidden, classes), mode, rng)
    data = Dataset(_inputs(rng, in_dim, 40), rng.integers(0, classes, size=40))
    multipliers = (None if variant < 2 else
                   hard_multipliers(model, binarize(unit_magnitudes(model), 0.6)))
    lr, momentum, batch = ((0.05, 0.9, 16), (0.01, 0.5, 7))[variant % 2]
    history = _ce_epochs([model], data, 2, lr, momentum, batch,
                         np.random.default_rng([34, variant]),
                         None if multipliers is None else [multipliers])
    return {"weights": _sha256(model.weights), "biases": _sha256(model.biases),
            "history": [[repr(h.mean_loss), repr(h.accuracy)] for (h,) in history]}


def stage2_step_record() -> dict:
    """Gradient hashes and report floats of seeded composite_step_loss
    instances (three sizes, both mask modes), and weight hashes after seeded
    masked and unmasked _ce_epochs runs."""
    steps, ce = {}, {}
    for in_dim, hidden, classes in STEP_SIZES:
        size = "-".join(map(str, [in_dim, *hidden, classes]))
        for mode in ("unstructured", "structured"):
            for k in range(STEP_VARIANTS):
                steps[f"{size}/{mode}/{k}"] = _step_case(in_dim, hidden, classes, mode, k)
        for variant in range(4):
            ce[f"{size}/{variant}"] = _ce_case(in_dim, hidden, classes, variant)
    return {"composite_step_loss": steps, "ce_epochs": ce}


def small_run_outputs_record() -> dict:
    """sha256 of every file `run-all` writes on the small run, status.txt
    (timestamps and wall times) aside, in both mask modes."""
    record = {}
    for mode in ("unstructured", "structured"):
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, out = Path(tmp) / "exp.cfg", Path(tmp) / "out"
            cfg_path.write_text(small_run_config_text() + f"mask_mode = {mode}\n",
                                encoding="utf-8")
            code = cli_main(["run-all", "--config", str(cfg_path), "--out", str(out)])
            if code != EXIT_OK:
                raise RuntimeError(f"run-all ({mode}) exited {code}")
            record[mode] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(out.iterdir()) if p.name != "status.txt"}
    return record


def _write_small_idx_files(root: Path) -> None:
    """The small IDX run's image/label pairs under root/train and root/test."""
    rng = np.random.default_rng(53)
    for split, count in (("train", 50), ("test", 30)):
        labels = np.arange(count) % 3
        pix = (40 + 85 * labels[:, None, None]
               + rng.integers(-40, 41, size=(count, 6, 6)))
        (root / split).mkdir()
        write_idx_pair(root / split, np.clip(pix, 0, 255), labels)


def small_idx_outputs_record() -> dict:
    """sha256 of every file `run-all` writes on the small IDX run, status.txt
    aside, per variant. The run reads its IDX files by paths relative to its
    own directory, which the config echo and the reports quote."""
    record, cwd = {}, os.getcwd()
    for name, variant in SMALL_IDX_VARIANTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                _write_small_idx_files(Path(tmp))
                Path("exp.cfg").write_text(
                    "".join(f"{key} = {value}\n"
                            for key, value in {**SMALL_IDX_RUN, **variant}.items()),
                    encoding="utf-8")
                code = cli_main(["run-all", "--config", "exp.cfg", "--out", "out"])
                if code != EXIT_OK:
                    raise RuntimeError(f"run-all ({name}) exited {code}")
                record[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                for p in sorted(Path("out").iterdir())
                                if p.name != "status.txt"}
            finally:
                os.chdir(cwd)
    return record


def one_thread_record(name: str) -> dict:
    """The record function `name` of this module computed in a child process
    with every BLAS thread count set to 1, as perfbench runs maskcert. A
    multithreaded GEMM may split the products of the 784-wide model
    differently and so move their bits; the thread count is fixed when BLAS
    loads, so only a fresh process can set it."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(here),
                                          os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import json, regen_fixtures; print(json.dumps(regen_fixtures.{name}()))"],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{name} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fixtures", nargs="+", choices=("default_experiment", "trajectory",
                                                       "stage2_step", "small_run_outputs",
                                                       "small_idx_outputs"))
    for name in parser.parse_args().fixtures:
        if name == "default_experiment":
            cfg = parse_config(DEFAULT_CONFIG)
            _write(DEFAULT_FIXTURE, default_experiment_record(run_experiment(cfg), cfg))
        elif name == "trajectory":
            _write(TRAJECTORY_FIXTURE, trajectory_record())
        elif name == "stage2_step":
            _write(STEP_FIXTURE, one_thread_record("stage2_step_record"))
        elif name == "small_run_outputs":
            _write(OUTPUTS_FIXTURE, one_thread_record("small_run_outputs_record"))
        else:
            _write(IDX_OUTPUTS_FIXTURE, one_thread_record("small_idx_outputs_record"))


if __name__ == "__main__":
    main()
