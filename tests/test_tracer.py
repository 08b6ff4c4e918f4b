"""The benchmark's tracer binds maskcert's public names and reads
`autodiff.primitive` by name, so a rename in src/ would otherwise break only
the traced benchmark run. This runs perfbench/tracer.py as it stands on the
small run and checks that the stage-2 step and the certification grid search
were traced. run-all certifies through `certify.pca_models`, so only the
certify command reaches the tracer's `certify.pca` hook, and it gets a traced
run of its own."""

import csv
import json
import os
import subprocess
import sys

import pytest

from maskcert.cli import main
from regen_fixtures import ROOT, SMALL_RUN, small_run_config_text

TRACER = ROOT / "perfbench" / "tracer.py"


def traced(tmp_path, *argv):
    """Run the tracer on one maskcert command; returns its metrics."""
    report = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--report", str(report), "--spans",
         str(tmp_path / "spans.tsv"), "--", *argv],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text(encoding="utf-8"))["metrics"]


def small_config(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(small_run_config_text(), encoding="utf-8")
    return cfg


def test_tracer_runs_run_all(tmp_path):
    metrics = traced(tmp_path, "run-all", "--config", str(small_config(tmp_path)),
                     "--out", str(tmp_path / "out"))
    assert metrics["pipeline.stage2_steps"] > 0
    assert metrics["objectives.composite_step_ms"] > 0
    assert metrics["certify.log_y_grid_ms"] > 0
    # the per-epoch accuracy and the stage-2 softmax still pass through the
    # traced names, so these benchmark metrics cannot silently read 0
    assert metrics["autodiff.primitive_ms.softmax"] > 0
    assert metrics["datasets.accuracy_ms"] > 0
    assert metrics["model.forward_ms"] > 0
    # the step's backward is a span of its own inside the step, so its time
    # is not folded into objectives.self_ms
    with open(tmp_path / "spans.tsv", encoding="utf-8") as fh:
        spans = {row["id"]: row for row in csv.DictReader(fh, delimiter="\t")}
    parents = [spans[row["parent"]]["name"] for row in spans.values()
               if row["name"] == "model.masked_backward"]
    assert "objectives.composite_step_loss" in parents
    # the tracer counts len() of each stage's result as its epochs: one entry
    # per epoch, however many models the stage trains as one stack
    for stage, fn in ((1, "pretrain"), (3, "finetune")):
        total_ms = sum(int(row["end_ns"]) - int(row["start_ns"]) for row in spans.values()
                       if row["name"] == f"pipeline.stage{stage}_{fn}") / 1e6
        assert total_ms / metrics[f"pipeline.stage{stage}_epoch_ms"] == \
               pytest.approx(SMALL_RUN[f"stage{stage}_epochs"])


def test_tracer_runs_certify(tmp_path):
    cfg = small_config(tmp_path)
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "ckpt")]) == 0
    metrics = traced(tmp_path, "certify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--stage-checkpoint", str(tmp_path / "ckpt" / "pretrained.ckpt"))
    assert metrics["certify.log_y_grid_ms"] > 0
