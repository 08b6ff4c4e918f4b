"""maskcert's only runtime dependency is numpy, and of numpy it keeps off
`numpy.ma`, whose import costs several milliseconds and about a megabyte of
peak RSS per run (certify._pca_result takes its median by hand for this).
The small run is made in a child interpreter with one BLAS thread, since
this process has already imported pytest and the test helpers."""

import json
import os
import re
import subprocess
import sys

from regen_fixtures import ROOT, THREAD_VARS, small_run_config_text

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


def test_run_all_imports_only_stdlib_numpy_and_maskcert(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(small_run_config_text(), encoding="utf-8")
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", CHILD, "run-all", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert "maskcert.pipeline" in result["added"] and "numpy" in result["added"]
    assert [name for name in result["added"] if not _allowed(name)] == []
