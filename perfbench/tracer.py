"""Run one maskcert command in this process with every layer boundary traced.

The public functions of each maskcert module are wrapped at every module
attribute that binds them, which is the name each caller looks up: pipeline
reaches `pca` and `composite_step_loss` through names it imported, certify
reaches `z_samples` through its own module globals, and the autodiff op
functions (add, mul, ...) reach `primitive` through a module global. Two
methods that carry per-step work are wrapped on their class. Everything is
restored afterwards.

Spans (name, parent, start, end) are kept in flat arrays while the command
runs. A span then adds no object for the cyclic garbage collector to track,
so tracing barely changes when the stage-2 tapes get collected. At the end
the spans are written out and reduced to the per-layer metrics.

    PYTHONPATH=src python3 perfbench/tracer.py --report R.json --spans S.tsv \
        -- run-all --config configs/default.cfg --out out
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import resource
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "config", "pipeline", "objectives", "autodiff", "masks",
          "model", "certify", "transforms", "datasets")

# The autodiff op functions (add, mul, ...) are one-line calls to `primitive`;
# its span carries the op kind, so wrapping them as well would only double the
# cost.
AUTODIFF_TRACED = ("primitive", "backprop")

METHODS = (("model", "MaskableModel", "forward"),
           ("pipeline", "Adam", "step"))

PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * PAGE


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# Highest RSS seen at the end of a stage-2 step, reset when stage 2 starts.
# ru_maxrss is the peak of the whole process, so it only shows the stage-2
# peak when stage 2 raised it; otherwise these samples stand in for it.
_step_rss = [0]


def _sample_step_rss(state, args, result) -> None:
    _step_rss[0] = max(_step_rss[0], _rss_bytes())


def _stage2_enter(args) -> tuple[int, int]:
    _step_rss[0] = 0
    return _rss_bytes(), _maxrss_bytes()


def _stage2_exit(state, args, result) -> dict:
    rss_in, maxrss_in = state
    maxrss_out = _maxrss_bytes()
    peak = maxrss_out if maxrss_out > maxrss_in else max(_step_rss[0], _rss_bytes())
    return {"rss_growth": peak - rss_in, "steps": len(result[1])}


# name -> (before(args) -> state, after(state, args, result) -> {count: value} or None)
HOOKS = {
    "certify.pca": (lambda args: _minflt(),
                    lambda s, args, r: {"minflt": _minflt() - s, "samples": len(r.rows)}),
    "pipeline.stage2_mask_search": (_stage2_enter, _stage2_exit),
    "objectives.composite_step_loss": (None, _sample_step_rss),
    "pipeline.stage1_pretrain": (None, lambda s, args, r: {"epochs": len(r)}),
    "pipeline.stage3_finetune": (None, lambda s, args, r: {"epochs": len(r)}),
    "autodiff.backprop": (None, lambda s, args, r: {"nodes": len(args[0].tape.nodes)}),
    "certify.log_y_grid": (None, lambda s, args, r: {"evals": r.size}),
    "certify.log_y": (None, lambda s, args, r: {"evals": 1}),
    "masks.init_percentile_scaled": (None, lambda s, args, r: {"units": sum(c.size for c in r)}),
}


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[int, dict] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns
        nid = self._name_id(name)
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after:
                counts = after(state, args, result)
                if counts:
                    self.counts[idx] = counts
            return result

        return traced

    def wrap_primitive(self, fn):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns
        kind_ids: dict[str, int] = {}

        @functools.wraps(fn)
        def traced(kind, *args, **kwargs):
            nid = kind_ids.get(kind)
            if nid is None:
                nid = kind_ids[kind] = self._name_id("autodiff.primitive." + kind)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(kind, *args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> dict:
        """Wrap every traced function at each module attribute bound to it;
        returns the maskcert modules by layer name."""
        mods = {name: importlib.import_module(f"maskcert.{name}") for name in LAYERS}
        targets = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if layer == "autodiff" and attr not in AUTODIFF_TRACED:
                    continue
                targets[obj] = (self.wrap_primitive(obj) if obj is mods["autodiff"].primitive
                                else self.wrap(obj, f"{layer}.{attr}"))
        bindings = [importlib.import_module("maskcert"), *mods.values()]
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, targets[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(fn, f"{layer}.{cls_name}.{meth}"))
        return mods

    def restore(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\n")


def reduce(tr: Tracer) -> dict:
    """Per-layer metrics from the recorded spans.

    `<layer>.<fn>_ms` metrics are mean inclusive milliseconds per call; the
    stage metrics are per step or per epoch. `autodiff.backprop_ms` and
    `autodiff.primitive_ms.<kind>` count only calls inside a stage-2 step
    (`composite_step_loss`), as `autodiff.nodes_per_step` does, so the
    stage-1 and stage-3 cross-entropy tapes do not dilute them; those show in
    the stage epoch metrics. `<layer>.self_ms` is the layer's total self time,
    where a span's self time is its duration minus the part its child spans
    cover.
    """
    n = len(tr.start)
    names = [tr.names[i] for i in tr.name]
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        if tr.parent[i] >= 0:
            child[tr.parent[i]] += dur[i]
    calls, total, self_by_layer = {}, {}, dict.fromkeys(LAYERS, 0)
    step_calls, step_total = {}, {}
    # whether each span runs inside a certify_sample / composite_step_loss span
    in_sample, in_step = [False] * n, [False] * n
    for i in range(n):
        name = names[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur[i]
        self_by_layer[name.split(".", 1)[0]] += dur[i] - child[i]
        p = tr.parent[i]
        in_sample[i] = name == "certify.certify_sample" or (p >= 0 and in_sample[p])
        in_step[i] = name == "objectives.composite_step_loss" or (p >= 0 and in_step[p])
        if in_step[i]:
            step_calls[name] = step_calls.get(name, 0) + 1
            step_total[name] = step_total.get(name, 0) + dur[i]

    def summed(name, key):
        return sum(c[key] for i, c in tr.counts.items() if names[i] == name)

    def mean_ms(name, calls=calls, total=total):
        return total.get(name, 0) / calls[name] / 1e6 if calls.get(name) else 0.0

    def step_mean_ms(name):
        return mean_ms(name, step_calls, step_total)

    def per(value, count):
        return value / count if count else 0.0

    steps = summed("pipeline.stage2_mask_search", "steps")
    samples = calls.get("certify.certify_sample", 0)
    step_backprops = [i for i, c in tr.counts.items()
                      if names[i] == "autodiff.backprop" and in_step[i]]
    m = {
        "pipeline.stage2_steps": steps,
        "pipeline.stage2_step_ms": per(total.get("pipeline.stage2_mask_search", 0) / 1e6, steps),
        "pipeline.stage1_epoch_ms": per(total.get("pipeline.stage1_pretrain", 0) / 1e6,
                                        summed("pipeline.stage1_pretrain", "epochs")),
        "pipeline.stage3_epoch_ms": per(total.get("pipeline.stage3_finetune", 0) / 1e6,
                                        summed("pipeline.stage3_finetune", "epochs")),
        "pipeline.adam_step_ms": mean_ms("pipeline.Adam.step"),
        "pipeline.build_data_ms": mean_ms("pipeline.build_data"),
        "pipeline.stage2_rss_growth_mb": summed("pipeline.stage2_mask_search", "rss_growth") / 2**20,
        "objectives.composite_step_ms": mean_ms("objectives.composite_step_loss"),
        "objectives.build_probs_ms": mean_ms("objectives.build_probs"),
        "autodiff.backprop_ms": step_mean_ms("autodiff.backprop"),
        "autodiff.nodes_per_step": per(sum(tr.counts[i]["nodes"] for i in step_backprops),
                                       len(step_backprops)),
        "masks.binarize_ms": mean_ms("masks.binarize"),
        "masks.sample_noisy_ms": mean_ms("masks.sample_noisy"),
        "masks.units": summed("masks.init_percentile_scaled", "units"),
        "datasets.accuracy_ms": mean_ms("datasets.accuracy"),
        "datasets.load_idx_ms": mean_ms("datasets.load_idx"),
        "datasets.gen_synthetic_ms": mean_ms("datasets.gen_synthetic"),
        "transforms.augment_dataset_ms": mean_ms("transforms.augment_dataset"),
        "certify.samples": samples,
        "certify.sample_ms": mean_ms("certify.certify_sample"),
        "certify.bound_estimate_ms": mean_ms("certify.bound_estimate"),
        "certify.z_samples_ms": mean_ms("certify.z_samples"),
        "certify.log_y_grid_ms": mean_ms("certify.log_y_grid"),
        "certify.grid_evals_per_sample": per(
            summed("certify.log_y_grid", "evals") + summed("certify.log_y", "evals"), samples),
        "certify.forward_calls_per_sample": per(
            sum(1 for i in range(n) if in_sample[i] and names[i] == "model.MaskableModel.forward"),
            samples),
        "certify.minor_faults_per_sample": per(summed("certify.pca", "minflt"),
                                               summed("certify.pca", "samples")),
        "model.forward_ms": mean_ms("model.MaskableModel.forward"),
        "model.save_checkpoint_ms": mean_ms("model.save_checkpoint"),
        "model.load_checkpoint_ms": mean_ms("model.load_checkpoint"),
        "config.parse_config_ms": mean_ms("config.parse_config"),
        "cli.io_ms": sum(dur[i] - child[i] for i in range(n) if names[i] == "cli.main") / 1e6,
    }
    for layer, ns in self_by_layer.items():
        m[f"{layer}.self_ms"] = ns / 1e6
    for name in step_calls:
        if name.startswith("autodiff.primitive."):
            m["autodiff.primitive_ms." + name.rsplit(".", 1)[1]] = step_mean_ms(name)
    m["trace.spans"] = n
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    mods = tracer.install()
    try:
        code = mods["cli"].main(argv)
        main_end = time.monotonic()
    finally:
        tracer.restore()
    out = Path(argv[argv.index("--out") + 1])
    metrics = reduce(tracer)
    metrics["cli.bytes_written"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    tracer.write(args.spans)
    args.report.write_text(json.dumps({"main_end": main_end, "metrics": metrics}),
                           encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
