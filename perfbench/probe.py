"""Set-up probe: a fresh interpreter gets ready for work, then reports.

It does what every maskcert command does before its first training step or
certified sample: import maskcert, parse the config, load the checkpoint
(when given) and build the data. It writes the time.monotonic() reading at
that point, which the parent compares with its own reading at spawn, and the
environment this child saw.

    PYTHONPATH=src python3 perfbench/probe.py --config C --seed 1 --report R.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--checkpoint")
    parser.add_argument("--report", type=Path, required=True)
    args = parser.parse_args()

    from maskcert import config, model, pipeline

    cfg = config.validate(dataclasses.replace(config.parse_config(args.config), seed=args.seed))
    if args.checkpoint:
        model.load_checkpoint(args.checkpoint)
    pipeline.build_data(cfg)
    ready = time.monotonic()

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
    }
    args.report.write_text(json.dumps({"ready": ready, "env": env}), encoding="utf-8")


if __name__ == "__main__":
    main()
