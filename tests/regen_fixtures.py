"""Record the regression fixtures in tests/fixtures/.

    PYTHONPATH=src python tests/regen_fixtures.py default_experiment trajectory

Each named fixture is recomputed from the current code and overwritten. The
tests never write fixtures: a missing file fails them. Re-record one only
for a deliberate change of results, and say so in the change description.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from maskcert.config import ExperimentConfig, parse_config, validate
from maskcert.pipeline import run_experiment

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "configs" / "default.cfg"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
DEFAULT_FIXTURE = FIXTURES / "default_experiment.json"
TRAJECTORY_FIXTURE = FIXTURES / "trajectory.json"
REGEN_HINT = "PYTHONPATH=src python tests/regen_fixtures.py"

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


def default_experiment_record(output, cfg: ExperimentConfig) -> dict:
    """The `repr` of every method's accuracy, pca and ratio on the default run."""
    return {"config_seed": cfg.seed,
            "results": {r.method: {"acc": repr(r.clean_accuracy), "pca": repr(r.pca),
                                   "ratio": repr(r.ratio)} for r in output.results}}


def trajectory_record() -> dict:
    """Stage-1 epoch losses, the stage-2 report at steps 0, 1 and the last
    step, the final soft-mask L1 sum and the csam per-sample eps_hat of the
    small run."""
    output = run_experiment(validate(ExperimentConfig(**SMALL_RUN)))
    csam = output.artifacts["csam"]
    reports = csam.stage_logs["stage2"]
    return {
        "stage1_mean_loss": [h.mean_loss for h in output.stage1_log],
        "stage2": {str(r.step): {"l_stab": r.l_stab, "l_ratio": r.l_ratio,
                                 "l_consis": r.l_consis, "l1_normalized": r.l1_normalized,
                                 "composite": r.composite, "grad_norm": r.grad_norm}
                   for r in (reports[0], reports[1], reports[-1])},
        "soft_mask_l1": float(sum(np.abs(c).sum() for c in csam.soft)),
        "csam_eps_hat": [row.eps_hat for row in csam.cert.rows],
    }


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fixtures", nargs="+", choices=("default_experiment", "trajectory"))
    for name in parser.parse_args().fixtures:
        if name == "default_experiment":
            cfg = parse_config(DEFAULT_CONFIG)
            _write(DEFAULT_FIXTURE, default_experiment_record(run_experiment(cfg), cfg))
        else:
            _write(TRAJECTORY_FIXTURE, trajectory_record())


if __name__ == "__main__":
    main()
