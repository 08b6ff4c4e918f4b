"""The benchmark's tracer binds maskcert's public names and reads
`autodiff.primitive` by name, so a rename in src/ would otherwise break only
the traced benchmark run. This runs perfbench/tracer.py as it stands on the
small run and checks that the stage-2 step and the certification grid search
were traced."""

import json
import os
import subprocess
import sys

from regen_fixtures import ROOT, small_run_config_text

TRACER = ROOT / "perfbench" / "tracer.py"


def test_tracer_runs_run_all(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(small_run_config_text(), encoding="utf-8")
    report = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--report", str(report), "--spans",
         str(tmp_path / "spans.tsv"), "--", "run-all", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(report.read_text(encoding="utf-8"))["metrics"]
    assert metrics["pipeline.stage2_steps"] > 0
    assert metrics["objectives.composite_step_ms"] > 0
    assert metrics["certify.log_y_grid_ms"] > 0
