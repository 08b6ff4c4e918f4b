"""Command-line surface tying the modules into reproducible experiments.

Commands mirror the pipeline stages (gen-data, pretrain, search, finetune,
certify) plus run-all, which runs all of them for every configured method.
Every command first deletes each fixed name it can write under the output
directory (_OUTPUTS), then echoes its effective config there and finishes by
writing a machine-readable status file; timestamps and wall times are
confined to it, so report CSV bodies are byte-identical across reruns.

Exit codes: 0 success, 1 configuration, 2 I/O, 3 numeric failure,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import pipeline
from .certify import PcaResult, pca
from .config import METHODS, ExperimentConfig, parse_config, serialize, validate
from .datasets import accuracy, gen_synthetic, write_dataset_csv
from .errors import ConfigError, DatasetError
from .masks import binarize, effective_ratio, hard_multipliers
from .model import load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

# exception family -> exit code and stderr label; the first family that
# matches wins, so anything else is an internal invariant breach
_FAILURES = ((ConfigError, EXIT_CONFIG, "config error"),
             ((DatasetError, OSError), EXIT_IO, "i/o error"),
             ((FloatingPointError, ZeroDivisionError, OverflowError), EXIT_NUMERIC,
              "numeric failure"),
             (Exception, EXIT_INTERNAL, "internal error"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through the config category
        raise ConfigError(message)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip form, numpy or not
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_kv(path: Path, items: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in items.items():
            fh.write(f"{key} = {_fmt(value)}\n")


def _echo_config(out: Path, cfg: ExperimentConfig) -> None:
    (out / "config.echo.txt").write_text(serialize(cfg), encoding="utf-8")


def _write_stage2_log(path: Path, reports) -> None:
    _write_csv(path, ["step", "L_stab", "L_ratio", "L_consis", "L_1",
                      "composite", "grad_norm"],
               ((r.step, r.l_stab, r.l_ratio, r.l_consis, r.l1_normalized,
                 r.composite, r.grad_norm) for r in reports))


def _write_epoch_log(path: Path, history) -> None:
    _write_csv(path, ["epoch", "mean_loss", "accuracy"],
               ((h.epoch, h.mean_loss, h.accuracy) for h in history))


def _write_cert_report(out: Path, stem: str, cfg: ExperimentConfig,
                       result: PcaResult, ratio: float) -> None:
    _write_csv(out / f"{stem}.csv",
               ["sample_id", "label", "predicted", "d", "eps_hat", "best_t", "certified"],
               ((r.sample_id, r.label, r.predicted, r.margin, r.eps_hat,
                 r.best_t, r.certified) for r in result.rows))
    summary = {"pca": result.fraction,
               "paley_confidence": result.paley,
               "pruning_ratio": ratio,
               "best_t_at_t_lo": result.best_t_at_t_lo,
               "best_t_at_t_hi": result.best_t_at_t_hi,
               "eps_hat_zero": result.eps_hat_zero,
               "log_eps_hat_min": result.log_eps_hat_min,
               "log_eps_hat_median": result.log_eps_hat_median,
               "log_eps_hat_max": result.log_eps_hat_max}
    for line in serialize(cfg).splitlines():
        key, value = line.split(" = ", 1)
        summary[f"config.{key}"] = value
    _write_kv(out / f"{stem}_summary.txt", summary)


def _write_experiment(out: Path, cfg: ExperimentConfig, output) -> None:
    """run-all's checkpoints, stage logs, per-method reports and summary.csv."""
    save_checkpoint(out / "pretrained.ckpt", output.pretrained, "pretrained",
                    seed=cfg.seed)
    _write_epoch_log(out / "stage1_log.csv", output.stage1_log)
    if output.soft is not None:
        save_checkpoint(out / "mask_searched.ckpt", output.pretrained,
                        "mask_searched", soft_mask=output.soft, seed=cfg.seed)
        _write_stage2_log(out / "stage2_log.csv", output.stage2_log)
    for method, r in output.results.items():
        if r.hard is not None:
            save_checkpoint(out / f"finetuned_{method}.ckpt", r.model,
                            "finetuned", hard_mask=r.hard, seed=cfg.seed)
            _write_epoch_log(out / f"stage3_log_{method}.csv", r.stage3_log)
        _write_cert_report(out, f"cert_report_{method}", cfg, r.cert, r.ratio)
    _write_csv(out / "summary.csv", ["method", "acc", "pca", "ratio"],
               ((r.method, r.clean_accuracy, r.cert.fraction, r.ratio)
                for r in output.results.values()))


def _load_ckpt_arg(args, default_name: str, cfg: ExperimentConfig, in_dim: int,
                   stages=None):
    """Load the command's input checkpoint and check that it holds the model
    the config describes for `in_dim` input features (the seed may differ),
    then, when `stages` is given, that its stage tag is one of them."""
    path = args.stage_checkpoint or (Path(args.out) / default_name)
    path = Path(path)
    if not path.exists():
        raise DatasetError(
            f"missing prerequisite checkpoint {path}; run the earlier stage "
            f"or pass --stage-checkpoint")
    model, extras = load_checkpoint(path)
    specs = pipeline.layer_specs(cfg, in_dim)
    if model.specs != specs or model.mask_mode != cfg.mask_mode:
        raise ConfigError(
            f"checkpoint {path} holds layers {_describe(model.specs, model.mask_mode)}, "
            f"but the config describes {_describe(specs, cfg.mask_mode)}")
    if stages is not None and extras["stage"] not in stages:
        raise DatasetError(
            f"{args.command} needs a {' or '.join(stages)} checkpoint, but {path} "
            f"has stage {extras['stage']}")
    return model, extras


def _describe(specs, mask_mode: str) -> str:
    layers = ", ".join(f"{s.in_dim}->{s.out_dim} {s.activation}" for s in specs)
    return f"{layers} with mask_mode {mask_mode}"


# ---------------------------------------------------------------------------
# commands


def _cmd_gen_data(cfg: ExperimentConfig, args, out: Path) -> dict:
    if cfg.dataset_kind != "synthetic":
        raise ConfigError("gen-data only generates synthetic datasets; "
                          "idx datasets are provided as files")
    train, test, _ = gen_synthetic(cfg)
    write_dataset_csv(out / "train.csv", train)
    write_dataset_csv(out / "test.csv", test)
    return {"train_size": len(train), "test_size": len(test)}


def _cmd_pretrain(cfg: ExperimentConfig, args, out: Path) -> dict:
    train, _, _ = pipeline.build_data(cfg)
    model = pipeline.fresh_model(cfg, train.x.shape[1])
    history = pipeline.stage1_pretrain(model, train, cfg)
    save_checkpoint(out / "pretrained.ckpt", model, "pretrained", seed=cfg.seed)
    _write_epoch_log(out / "stage1_log.csv", history)
    return {"final_loss": history[-1].mean_loss, "train_accuracy": history[-1].accuracy}


def _cmd_search(cfg: ExperimentConfig, args, out: Path) -> dict:
    train, _, _ = pipeline.build_data(cfg)
    model, _ = _load_ckpt_arg(args, "pretrained.ckpt", cfg, train.x.shape[1],
                              ("pretrained",))
    soft, reports = pipeline.stage2_mask_search(model, train, cfg)
    save_checkpoint(out / "mask_searched.ckpt", model, "mask_searched",
                    soft_mask=soft, seed=cfg.seed)
    _write_stage2_log(out / "stage2_log.csv", reports)
    return {"steps": len(reports), "final_composite": reports[-1].composite}


def _cmd_finetune(cfg: ExperimentConfig, args, out: Path) -> dict:
    train, _, _ = pipeline.build_data(cfg)
    model, extras = _load_ckpt_arg(args, "mask_searched.ckpt", cfg, train.x.shape[1])
    if extras["soft_mask"] is None:
        raise DatasetError("finetune needs a mask-search checkpoint carrying a soft mask")
    hard = binarize(extras["soft_mask"], cfg.pruning_ratio)
    history = [stats for (stats,) in pipeline.stage3_finetune([model], [hard], train, cfg)]
    save_checkpoint(out / "finetuned.ckpt", model, "finetuned",
                    hard_mask=hard, seed=cfg.seed)
    _write_epoch_log(out / "stage3_log.csv", history)
    return {"final_loss": history[-1].mean_loss,
            "realized_ratio": effective_ratio(hard, model)}


def _cmd_certify(cfg: ExperimentConfig, args, out: Path) -> dict:
    train, test, spec = pipeline.build_data(cfg)
    model, extras = _load_ckpt_arg(args, "finetuned.ckpt", cfg, train.x.shape[1],
                                   ("pretrained", "finetuned"))
    hard = extras["hard_mask"]
    idx = pipeline.eval_subset(cfg, test)
    deployed = model.folded(hard_multipliers(model, hard))
    # only the training inputs' width was read, so they go before
    # certification; freed before the checkpoint loads, they raised the
    # command's peak RSS in most runs instead
    del train
    result = pca(deployed, *test.gather(idx), spec, cfg)
    ratio = effective_ratio(hard, model)
    _write_cert_report(out, "cert_report", cfg, result, ratio)
    return {"pca": result.fraction, "pruning_ratio": ratio,
            "clean_accuracy": accuracy(deployed, test),
            "cert_first_layer": result.first_layer}


def _cmd_run_all(cfg: ExperimentConfig, args, out: Path) -> dict:
    output = pipeline.run_experiment(cfg)
    _write_experiment(out, cfg, output)
    first = next(iter(output.results.values()))
    return {**{f"wall_time_{stage}": s for stage, s in output.wall_times.items()},
            "cert_first_layer": first.cert.first_layer}


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "pretrain": _cmd_pretrain,
    "search": _cmd_search,
    "finetune": _cmd_finetune,
    "certify": _cmd_certify,
    "run-all": _cmd_run_all,
}

# every name each command can write under --out besides config.echo.txt and
# status.txt, every method's for run-all (_clear_outputs)
_OUTPUTS = {
    "gen-data": ("train.csv", "test.csv"),
    "pretrain": ("pretrained.ckpt", "stage1_log.csv"),
    "search": ("mask_searched.ckpt", "stage2_log.csv"),
    "finetune": ("finetuned.ckpt", "stage3_log.csv"),
    "certify": ("cert_report.csv", "cert_report_summary.txt"),
    "run-all": ("pretrained.ckpt", "stage1_log.csv", "mask_searched.ckpt", "stage2_log.csv",
                "summary.csv", *(name for m in METHODS for name in (
                    f"finetuned_{m}.ckpt", f"stage3_log_{m}.csv", f"cert_report_{m}.csv",
                    f"cert_report_{m}_summary.txt"))),
}


def _clear_outputs(out: Path, args) -> None:
    """Delete the names `args.command` can write under `out` (_OUTPUTS,
    config.echo.txt and status.txt), so no result of an earlier run
    outlives this one under a name the command owns, but never a file it
    reads: its config (an echo reads back as one) or its checkpoint."""
    read = {Path(p).resolve() for p in (args.config, getattr(args, "stage_checkpoint", None))
            if p is not None}
    for name in ("config.echo.txt", "status.txt", *_OUTPUTS[args.command]):
        path = out / name
        if path.resolve() not in read:
            path.unlink(missing_ok=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maskcert",
                     description="Robust pruning-mask search and certification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config root seed")
        if name in ("search", "finetune", "certify"):
            p.add_argument("--stage-checkpoint", default=None,
                           help="input checkpoint (default: the previous stage's in --out)")
    return parser


def _write_status(out: Path | None, command: str, code: int, started: float,
                  extra: dict | None = None, message: str = "") -> None:
    """Write status.txt under `out`; nothing when the arguments did not parse
    (out is None), so a usage error never touches another run's directory."""
    if out is None:
        return
    items = {
        "command": command,
        "status": "ok" if code == EXIT_OK else "error",
        "exit_code": code,
        "wall_time_s": time.perf_counter() - started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
    }
    if message:
        items["message"] = message
    items.update(extra or {})
    try:
        _write_kv(out / "status.txt", items)
    except OSError:
        pass


def main(argv=None) -> int:
    started = time.perf_counter()
    out = None
    command = "?"
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _clear_outputs(out, args)
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = validate(dataclasses.replace(cfg, seed=args.seed),
                           where="--seed override")
        _echo_config(out, cfg)
        extra = _COMMANDS[command](cfg, args, out)
        _write_status(out, command, EXIT_OK, started, extra)
        return EXIT_OK
    except Exception as exc:  # noqa: BLE001 - category 4 is the contract
        code, label = next((code, label) for family, code, label in _FAILURES
                           if isinstance(exc, family))
        print(f"maskcert: {label}: {exc}", file=sys.stderr)
        _write_status(out, command, code, started, message=str(exc))
        return code


if __name__ == "__main__":
    raise SystemExit(main())
