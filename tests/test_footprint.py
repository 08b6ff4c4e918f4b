"""maskcert's only runtime dependency is numpy, and of numpy it keeps off
`numpy.ma`, whose import costs several milliseconds and about a megabyte of
peak RSS per run (certify._pca_result takes its median by hand for this).
The small synthetic and IDX runs are made in a child interpreter with one
BLAS thread, since this process has already imported pytest and the test
helpers."""

import json
import os
import re
import subprocess
import sys

from regen_fixtures import (ROOT, SMALL_IDX_RUN, SMALL_IDX_VARIANTS, THREAD_VARS,
                            _write_small_idx_files, small_run_config_text)

CHILD = """
import json, sys
before = set(sys.modules)
from maskcert import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - before)}))
"""


def _allowed(name: str) -> bool:
    top = name.split(".")[0]
    if top == "numpy":
        return name != "numpy.ma" and not name.startswith("numpy.ma.")
    # numpy.random's Cython extensions register these
    return (top in sys.stdlib_module_names or top == "maskcert"
            or name == "cython_runtime" or re.fullmatch(r"_cython_\d+(_\d+)*", name))


def _child_run_all(tmp_path, cfg_text: str) -> list:
    """The modules a `run-all` on cfg_text, run from tmp_path, adds to a
    fresh interpreter's sys.modules."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", CHILD, "run-all", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert "maskcert.pipeline" in result["added"] and "numpy" in result["added"]
    return result["added"]


def test_run_all_imports_only_stdlib_numpy_and_maskcert(tmp_path):
    added = _child_run_all(tmp_path, small_run_config_text())
    assert [name for name in added if not _allowed(name)] == []


def test_idx_run_all_imports_only_stdlib_numpy_and_maskcert(tmp_path):
    # load_idx and the interpolation path (haze, closed-form first layer) too
    _write_small_idx_files(tmp_path)
    settings = {**SMALL_IDX_RUN, **SMALL_IDX_VARIANTS["haze-L2"]}
    added = _child_run_all(tmp_path, "".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert "maskcert.datasets" in added
    assert [name for name in added if not _allowed(name)] == []
