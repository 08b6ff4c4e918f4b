"""maskcert benchmark: runs one workload's maskcert command from outside.

    python3 perfbench/run.py --workload default --seed 1 --seconds 30 --trace 0

Every maskcert run is a fresh child process with BLAS and OpenMP pinned to
one thread, started only after the previous one ended (a closed loop with one
client). With --trace 0 the workload's command runs again and again for
--seconds and the end-to-end metrics are printed; with --trace 1 the same loop
runs, then one more run of the reference seed goes through perfbench/tracer.py,
and the per-layer metrics are printed. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A full record of
the run, environment included, goes to .perfbench_results/.

Run i of the loop uses, in order, the reference seed and then each seed drawn
from --seed twice. Every run is checked: it must exit 0, the reference seed
must reproduce tests/fixtures/default_experiment.json (default) or
perfbench/reference.json (the others), and the second run of a seed must
write byte-identical outputs to the first. A run that fails a check counts as
failed. See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import idxgen

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src" / "maskcert"
BASE_CONFIG = ROOT / "configs" / "default.cfg"
FIXTURE = ROOT / "tests" / "fixtures" / "default_experiment.json"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

REF_SEED = 1009  # the seed of configs/default.cfg and of the fixture
PROBES_PER_RUN = 4  # setup_s samples taken before each run of the loop
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # maskcert subcommand that is timed
    overrides: dict              # config keys replaced in configs/default.cfg
    idx_per_class: tuple = ()    # (train, test) images per class for idx data
    checkpoint: bool = False     # certify a csam checkpoint trained in set-up


WORKLOADS = {w.name: w for w in (
    Workload("default", "run-all", {}),
    Workload("certify-heavy", "certify",
             {"synthetic_test_per_class": "500", "cert_eval_size": "1000"},
             checkpoint=True),
    Workload("idx-wide", "run-all",
             {"dataset_kind": "idx", "idx_classes": "10",
              "transform_kind": "interp_corrupt", "corruption": "haze",
              "hidden_dims": "128,64", "stage1_epochs": "5", "stage2_epochs": "5",
              "stage3_epochs": "3", "cert_eval_size": "50"},
             idx_per_class=(100, 20)),
)}


class CheckFailed(Exception):
    """A maskcert run exited non-zero or wrote wrong outputs."""


# ---------------------------------------------------------------------------
# inputs


def derived_seed(workload_seed: int, k: int) -> int:
    """k-th maskcert seed drawn from the benchmark's --seed (k >= 1)."""
    digest = hashlib.sha256(f"perfbench:{workload_seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def iteration_seed(workload_seed: int, i: int) -> int:
    return REF_SEED if i == 0 else derived_seed(workload_seed, (i + 1) // 2)


def write_config(wl: Workload, work: Path, seed: int) -> Path:
    """configs/default.cfg with the workload's overrides; idx workloads get
    IDX files generated from `seed`."""
    overrides = dict(wl.overrides)
    if wl.idx_per_class:
        overrides.update(idxgen.generate(seed, work / f"idx-{seed}", *wl.idx_per_class))
    lines = []
    for line in BASE_CONFIG.read_text(encoding="utf-8").splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        lines.append(f"{key} = {overrides.pop(key)}" if key in overrides else line)
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    path = work / f"config-{seed}.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# ---------------------------------------------------------------------------
# child processes


@dataclasses.dataclass
class ChildRun:
    exit_code: int
    spawned: float   # time.monotonic() just before the spawn
    wall_s: float
    user_s: float
    sys_s: float
    maxrss_mb: float
    minflt: int


def spawn(argv: list[str], log: Path) -> ChildRun:
    """Run one child to completion; wall time runs from spawn to exit."""
    with open(log, "wb") as fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, spawned, wall, ru.ru_utime, ru.ru_stime,
                    ru.ru_maxrss / 1024.0, ru.ru_minflt)


def maskcert_argv(wl: Workload, cfg: Path, out: Path, seed: int, ckpt: Path | None) -> list[str]:
    argv = [wl.command, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
    return argv + (["--stage-checkpoint", str(ckpt)] if ckpt else [])


def train_checkpoint(work: Path, cfg: Path) -> Path:
    """The csam fine-tuned checkpoint that certify-heavy certifies (untimed)."""
    out = work / "checkpoint"
    for command in ("pretrain", "search", "finetune"):
        run = spawn([sys.executable, "-m", "maskcert.cli", command, "--config", str(cfg),
                     "--out", str(out), "--seed", str(REF_SEED)], work / f"{command}.log")
        if run.exit_code != 0:
            raise CheckFailed(f"set-up `maskcert {command}` exited {run.exit_code}; "
                              f"see {work / f'{command}.log'}")
    return out / "finetuned.ckpt"


# ---------------------------------------------------------------------------
# output checks


def digest(out: Path) -> dict[str, str]:
    """sha256 of every output file except status.txt, which holds wall times."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file() and p.name != "status.txt"}


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_kv(path: Path) -> dict:
    pairs = (line.split(" = ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return dict(pairs)


def _cert_summary(report: Path) -> dict:
    rows = _read_csv(report)
    mean = lambda key: format(math.fsum(float(r[key]) for r in rows) / len(rows), ".6g")
    return {"certified": sum(r["certified"] == "1" for r in rows),
            "mean_margin": mean("d"), "mean_eps_hat": mean("eps_hat")}


def summarize(wl: Workload, out: Path) -> dict:
    """Per-method results plus certification means, as exact strings."""
    if wl.command == "certify":
        kv, status = _read_kv(out / "cert_report_summary.txt"), _read_kv(out / "status.txt")
        return {"certify": {"acc": status["clean_accuracy"], "pca": kv["pca"],
                            "ratio": kv["pruning_ratio"],
                            **_cert_summary(out / "cert_report.csv")}}
    return {r["method"]: {"acc": r["acc"], "pca": r["pca"], "ratio": r["ratio"],
                          **_cert_summary(out / f"cert_report_{r['method']}.csv")}
            for r in _read_csv(out / "summary.csv")}


def check_reference(wl: Workload, out: Path) -> None:
    summary = summarize(wl, out)
    if wl.name == "default":
        if not FIXTURE.is_file():
            raise CheckFailed(f"fixture {FIXTURE.relative_to(ROOT)} is missing")
        fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
        got = {m: {k: v[k] for k in ("acc", "pca", "ratio")} for m, v in summary.items()}
        if fixture["config_seed"] != REF_SEED or got != fixture["results"]:
            raise CheckFailed(f"summary {got} does not match the fixture {fixture['results']}")
        return
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(wl.name)
    if reference is None:
        raise CheckFailed(f"no reference summary for {wl.name} in {REFERENCE.name}")
    if summary != reference:
        raise CheckFailed(f"summary {summary} does not match the reference {reference}")


# ---------------------------------------------------------------------------
# one benchmark run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(probe_env: dict) -> dict:
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": source.hexdigest(),
            "host_python": platform.python_version(), "machine": platform.machine(),
            **probe_env}


class Run:
    """One invocation: set-up, the closed loop, and the optional traced run."""

    def __init__(self, wl: Workload, seed: int, seconds: int, trace: bool):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.work = WORK / f"{wl.name}-{os.getpid()}"
        self.configs: dict[int, Path] = {}
        self.ckpt: Path | None = None
        self.iterations: list[dict] = []
        self.traced_run: dict | None = None
        self.digests: dict[int, dict] = {}
        self.setup_samples: list[float] = []

    def config(self, seed: int) -> Path:
        if seed not in self.configs:
            self.configs[seed] = write_config(self.wl, self.work, seed)
        return self.configs[seed]

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if self.wl.checkpoint:
            self.ckpt = train_checkpoint(self.work, self.config(REF_SEED))
        self.env = environment(self.probe())

    def probe(self) -> dict:
        """One setup_s sample: spawn to the end of pipeline.build_data in a
        fresh interpreter. Returns the environment the child saw."""
        seed = iteration_seed(self.seed, 1)
        report, log = self.work / "probe.json", self.work / "probe.log"
        argv = [sys.executable, str(HERE / "probe.py"), "--config", str(self.config(seed)),
                "--seed", str(seed), "--report", str(report)]
        run = spawn(argv + (["--checkpoint", str(self.ckpt)] if self.ckpt else []), log)
        if run.exit_code != 0:
            raise CheckFailed(f"set-up probe exited {run.exit_code}; see {log}")
        doc = json.loads(report.read_text(encoding="utf-8"))
        self.setup_samples.append(doc["ready"] - run.spawned)
        return doc["env"]

    def check(self, seed: int, out: Path) -> None:
        """Reference seed: compare with the recorded summary. Other seeds: the
        second run must write the same bytes as the first."""
        found = digest(out)
        if seed == REF_SEED:
            check_reference(self.wl, out)
        if seed in self.digests and self.digests[seed] != found:
            changed = sorted(k for k in found.keys() | self.digests[seed].keys()
                             if found.get(k) != self.digests[seed].get(k))
            raise CheckFailed(f"seed {seed}: outputs differ from the earlier run: {changed}")
        self.digests.setdefault(seed, found)

    def child(self, name: str, seed: int, prefix: list[str]) -> dict:
        """Run the workload's command for `seed` behind `prefix`, check its
        outputs, and return the run's record."""
        out, log = self.work / f"out-{name}", self.work / f"{name}.log"
        run = spawn([*prefix, *maskcert_argv(self.wl, self.config(seed), out, seed, self.ckpt)],
                    log)
        record = {"seed": seed, **dataclasses.asdict(run), "ok": True, "error": ""}
        try:
            if run.exit_code != 0:
                raise CheckFailed(f"exited {run.exit_code}; see {log}")
            self.check(seed, out)
        except (CheckFailed, OSError, LookupError, TypeError, ValueError) as exc:
            record.update(ok=False, error=str(exc))
        shutil.rmtree(out, ignore_errors=True)
        return record

    def loop(self) -> None:
        started = time.monotonic()
        while not self.iterations or time.monotonic() - started < self.seconds:
            for _ in range(PROBES_PER_RUN):
                self.probe()
            i = len(self.iterations)
            self.iterations.append(self.child(f"run-{i}", iteration_seed(self.seed, i),
                                              [sys.executable, "-m", "maskcert.cli"]))

    def traced(self) -> dict:
        """One traced in-process run of the reference seed."""
        report = self.work / "trace-report.json"
        self.traced_run = self.child("traced", REF_SEED, [
            sys.executable, str(HERE / "tracer.py"), "--report", str(report),
            "--spans", str(self.work / "trace-spans.tsv"), "--"])
        if not self.traced_run["ok"]:
            return {}
        doc = json.loads(report.read_text(encoding="utf-8"))
        untraced = statistics.median(it["wall_s"] for it in self.iterations)
        return {**doc["metrics"],
                "trace.overhead_share": (doc["main_end"] - self.traced_run["spawned"]) / untraced}

    def end_to_end(self) -> dict[str, list[float]]:
        return {"wall_s": [it["wall_s"] for it in self.iterations],
                "setup_s": self.setup_samples,
                "peak_rss_mb": [it["maxrss_mb"] for it in self.iterations]}

    def attempted(self) -> list[dict]:
        return self.iterations + ([self.traced_run] if self.traced_run else [])


def emit(metric_specs: list[dict], values: dict, samples: dict) -> dict:
    """Print one line per metric and return the JSON metrics object."""
    out = {}
    for spec in metric_specs:
        name, unit = spec["name"], spec["unit"]
        value = values.get(name, 0.0)
        line = f"{name}: {value!r} {unit}"
        if name in samples:
            q1, med, q3 = quartiles(samples[name])
            line += (f" (median of n={len(samples[name])}; q1 {q1:.6g}, q3 {q3:.6g}; "
                     f"too few samples for a tail percentile)")
        print(line)
        out[name] = {"value": value, "unit": unit}
    return out


def record_reference(run: Run) -> int:
    """Print the reference-seed summary that reference.json holds."""
    out = run.work / "out-reference"
    child = spawn([sys.executable, "-m", "maskcert.cli",
                   *maskcert_argv(run.wl, run.config(REF_SEED), out, REF_SEED, run.ckpt)],
                  run.work / "reference.log")
    if child.exit_code != 0:
        raise CheckFailed(f"maskcert exited {child.exit_code}; see {run.work / 'reference.log'}")
    print(json.dumps({run.wl.name: summarize(run.wl, out)}, indent=2))
    shutil.rmtree(run.work, ignore_errors=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="print the reference-seed summary instead of benchmarking")
    args = parser.parse_args()

    missing = [p for p in (SRC / "__init__.py", SRC / "cli.py", BASE_CONFIG,
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"perfbench: not a maskcert checkout, missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload]
    run = Run(wl, args.seed, args.seconds, bool(args.trace))
    try:
        run.setup()
        if args.record_reference:
            return record_reference(run)
        run.loop()
        layer_values = run.traced() if run.trace else {}
    except CheckFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1

    samples = run.end_to_end()
    medians = {name: statistics.median(vals) for name, vals in samples.items()}
    attempted = run.attempted()
    failed = sum(not it["ok"] for it in attempted)
    for it in attempted:
        if not it["ok"]:
            print(f"FAILED seed {it['seed']}: {it['error']}")
    print(f"workload {wl.name}: {len(attempted)} runs, failed_share "
          f"{failed / len(attempted)!r} (failed runs / runs attempted)")
    if run.trace:
        metrics = emit(spec["per_layer"], layer_values, {})
    else:
        metrics = emit(spec["end_to_end"], medians, samples)

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": run.env, "config": wl.overrides,
              "setup_s": run.setup_samples, "iterations": run.iterations,
              "traced_run": run.traced_run, "end_to_end": medians,
              "per_layer": layer_values, "failed": failed, "attempted": len(attempted)}
    (RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    if not failed:  # keep the logs of failed runs
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
