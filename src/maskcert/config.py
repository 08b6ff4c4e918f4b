"""Flat key = value experiment configuration.

One typed document drives everything: dataset construction, transformation
space, model shape, the three training stages, certification, and the method
list. Unknown keys, type errors, and range violations are rejected with the
offending key and line number. An empty file yields the full defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Any

from .errors import ConfigError
from .model import mlp_specs
from .transforms import CorruptionTag, TransformSpec

METHODS = ("vanilla", "lmp", "csam")
AUGMENT_LEVELS = ("none", "L1", "L2")

# Upper bounds on the certification sizes. Each evaluation sample runs
# cert_repetitions forwards of cert_samples transformed inputs and holds a
# (cert_repetitions, cert_samples) discrepancy table; the temperature grid
# holds cert_t_count points, of which the search evaluates O(log) many.
CERT_SAMPLES_MAX = 10_000
CERT_REPETITIONS_MAX = 100
CERT_T_COUNT_MAX = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_kind: str = "synthetic"
    synthetic_dim: int = 16
    synthetic_classes: int = 2
    synthetic_train_per_class: int = 200
    synthetic_test_per_class: int = 100
    synthetic_separation: float = 1.0
    synthetic_noise: float = 0.35
    synthetic_semantic_noise: float = 1.0
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    idx_classes: int = 10
    transform_kind: str = "direction_shift"
    corruption: str = "haze"
    corruption_severity: float = 0.6
    hidden_dims: tuple = (64, 64)
    mask_mode: str = "unstructured"
    pruning_ratio: float = 0.5
    init_percentile: float = 30.0
    noise_magnitude: float = 0.5
    safety_threshold: float = 1.0
    margin_epsilon: float = 1e-6
    lambda_stab: float = 5.0
    lambda_ratio: float = 1.0
    lambda_consis: float = 1.0
    lambda_l1: float = 1e-4
    stage1_epochs: int = 50
    stage1_lr: float = 0.01
    stage2_epochs: int = 100
    stage2_lr: float = 1e-4
    stage3_epochs: int = 50
    stage3_lr: float = 0.001
    batch_size: int = 64
    momentum: float = 0.9
    augment_level: str = "L2"
    methods: tuple = ("vanilla", "lmp", "csam")
    cert_samples: int = 100
    cert_repetitions: int = 10
    cert_alpha: float = 0.9
    cert_error_bound: float = 1e-3
    cert_t_count: int = 500
    cert_t_lo: float = 1e-4
    cert_t_hi: float = 1e4
    cert_eval_size: int = 100
    cert_cv: float = 1.0
    seed: int = 1009


def _parse_int(raw):
    try:
        return int(raw, 0) if isinstance(raw, str) else int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw):
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _parse_tuple(raw, parse, what):
    """A comma-separated list, each entry stripped and parsed; an empty entry
    (as in "64,,32" or a trailing comma) is an error, not a shorter list."""
    parts = [p.strip() for p in str(raw).split(",")]
    if not all(parts):
        raise ValueError(f"expected a comma-separated list of {what} without empty "
                         f"entries, got {raw!r}")
    return tuple(parse(p) for p in parts)


# dataclass field annotations are strings under `from __future__ import annotations`
_PARSERS = {"int": _parse_int, "float": _parse_float, "str": lambda raw: str(raw).strip()}

# key -> (predicate, human-readable constraint)
_RANGES = {
    "dataset_kind": (lambda v: v in ("synthetic", "idx"), "one of synthetic, idx"),
    "synthetic_dim": (lambda v: v >= 2, ">= 2"),
    "synthetic_classes": (lambda v: v >= 2, ">= 2"),
    "synthetic_train_per_class": (lambda v: v >= 1, ">= 1"),
    "synthetic_test_per_class": (lambda v: v >= 1, ">= 1"),
    "synthetic_separation": (lambda v: v > 0, "> 0"),
    "synthetic_noise": (lambda v: v > 0, "> 0"),
    "synthetic_semantic_noise": (lambda v: v > 0, "> 0"),
    # a path the file format holds: parse_config cuts a line at "#" and strips it
    **dict.fromkeys(("idx_train_images", "idx_train_labels", "idx_test_images",
                     "idx_test_labels"),
                    (lambda v: not {"#", "\n", "\r"} & set(v) and v == v.strip(),
                     "a path without '#', line breaks or leading or trailing whitespace")),
    "idx_classes": (lambda v: v >= 2, ">= 2"),
    "transform_kind": (lambda v: v in ("direction_shift", "interp_corrupt"),
                       "one of direction_shift, interp_corrupt"),
    "corruption": (lambda v: v in ("haze", "gaussian_blur3"),
                   "one of haze, gaussian_blur3"),
    "hidden_dims": (lambda v: len(v) >= 1 and all(d >= 1 for d in v),
                    "positive layer widths"),
    "mask_mode": (lambda v: v in ("unstructured", "structured"),
                  "one of unstructured, structured"),
    "pruning_ratio": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "init_percentile": (lambda v: 0.0 < v < 100.0, "in (0, 100)"),
    "noise_magnitude": (lambda v: v >= 0.0, ">= 0"),
    "safety_threshold": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "margin_epsilon": (lambda v: v > 0.0, "> 0"),
    "lambda_stab": (lambda v: v >= 0.0, ">= 0"),
    "lambda_ratio": (lambda v: v >= 0.0, ">= 0"),
    "lambda_consis": (lambda v: v >= 0.0, ">= 0"),
    "lambda_l1": (lambda v: v >= 0.0, ">= 0"),
    "stage1_epochs": (lambda v: v >= 1, ">= 1"),
    "stage2_epochs": (lambda v: v >= 1, ">= 1"),
    "stage3_epochs": (lambda v: v >= 1, ">= 1"),
    "stage1_lr": (lambda v: v > 0, "> 0"),
    "stage2_lr": (lambda v: v > 0, "> 0"),
    "stage3_lr": (lambda v: v > 0, "> 0"),
    "batch_size": (lambda v: v >= 1, ">= 1"),
    "momentum": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "augment_level": (lambda v: v in AUGMENT_LEVELS, "one of none, L1, L2"),
    "methods": (lambda v: len(v) >= 1 and len(set(v)) == len(v)
                and all(m in METHODS for m in v),
                "distinct names from vanilla, lmp, csam"),
    "cert_samples": (lambda v: 1 <= v <= CERT_SAMPLES_MAX, f"in [1, {CERT_SAMPLES_MAX}]"),
    "cert_repetitions": (lambda v: 1 <= v <= CERT_REPETITIONS_MAX,
                         f"in [1, {CERT_REPETITIONS_MAX}]"),
    "cert_alpha": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "cert_error_bound": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "cert_t_count": (lambda v: 2 <= v <= CERT_T_COUNT_MAX, f"in [2, {CERT_T_COUNT_MAX}]"),
    "cert_t_lo": (lambda v: v > 0, "> 0"),
    "cert_t_hi": (lambda v: v > 0, "> 0"),
    "cert_eval_size": (lambda v: v >= 1, ">= 1"),
    "cert_cv": (lambda v: v > 0, "> 0"),
    "seed": (lambda v: 0 <= v < 2 ** 64, "a u64"),
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _check(key: str, value, where: str) -> None:
    if _FIELD_TYPES[key] == "float" and not math.isfinite(value):
        raise ConfigError(f"{where}: key {key!r} must be a finite number, got {value!r}")
    if key in _RANGES:
        ok, constraint = _RANGES[key]
        if not ok(value):
            raise ConfigError(f"{where}: key {key!r} must be {constraint}, got {value!r}")


def _convert(key: str, raw: str, where: str):
    try:
        if key == "hidden_dims":
            value = _parse_tuple(raw, _parse_int, "integers")
        elif key == "methods":
            value = _parse_tuple(raw, str, "names")
        else:
            value = _PARSERS[_FIELD_TYPES[key]](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: key {key!r}: {exc}") from None
    _check(key, value, where)
    return value


def validate(cfg: ExperimentConfig, where: str = "config") -> ExperimentConfig:
    """Cross-field checks; per-key ranges are re-applied for configs built in
    code rather than parsed."""
    for key in _FIELD_TYPES:
        _check(key, getattr(cfg, key), where)
    try:
        CorruptionTag(cfg.corruption, cfg.corruption_severity)
    except ValueError as exc:
        raise ConfigError(f"{where}: key 'corruption_severity': {exc}") from None
    if cfg.cert_t_lo >= cfg.cert_t_hi:
        raise ConfigError(f"{where}: cert_t_lo must be < cert_t_hi")
    # room for the class means and an orthogonal semantic direction
    # (datasets.gen_synthetic)
    min_dim = 2 if cfg.synthetic_classes == 2 else cfg.synthetic_classes + 1
    if cfg.synthetic_dim < min_dim:
        raise ConfigError(
            f"{where}: key 'synthetic_dim' must be >= {min_dim} for "
            f"{cfg.synthetic_classes} classes, got {cfg.synthetic_dim}")
    if cfg.dataset_kind == "idx":
        for key in ("idx_train_images", "idx_train_labels",
                    "idx_test_images", "idx_test_labels"):
            path = getattr(cfg, key)
            if not path:
                raise ConfigError(f"{where}: key {key!r} is required when dataset_kind = idx")
            if not os.path.exists(path):
                raise ConfigError(f"{where}: key {key!r}: no such file {path!r}")
        if cfg.transform_kind == "direction_shift":
            raise ConfigError(
                f"{where}: direction_shift transforms need a synthetic dataset "
                f"(the shift direction comes from its construction)")
    if "csam" in cfg.methods and cfg.augment_level == "none":
        raise ConfigError(
            f"{where}: the csam method needs paired transformed samples; "
            f"set augment_level to L1 or L2")
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Parse and fully validate a key = value file; defaults fill the rest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    values: dict[str, Any] = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        where = f"{path}:{lineno}"
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        values[key] = _convert(key, raw, where)
    return validate(ExperimentConfig(**values), where=str(path))


def serialize(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize(cfg)) reproduces a
    validated cfg exactly (validate keeps the idx paths to text the format
    holds)."""
    out = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        out.append(f"{f.name} = {rendered}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# views onto the domain objects


def transform_spec(cfg: ExperimentConfig, direction=None) -> TransformSpec:
    if cfg.transform_kind == "direction_shift":
        if direction is None:
            raise ConfigError("direction_shift transforms need the dataset's direction vector")
        return TransformSpec(kind="direction_shift", direction=direction)
    return TransformSpec(kind="interp_corrupt",
                         corrupt=CorruptionTag(cfg.corruption, cfg.corruption_severity))


def model_layer_specs(cfg: ExperimentConfig, in_dim: int, classes: int):
    return mlp_specs(in_dim, list(cfg.hidden_dims), classes)


def augment_count(cfg: ExperimentConfig, train_size: int) -> int:
    if cfg.augment_level == "none":
        return 0
    return train_size // 4 if cfg.augment_level == "L1" else train_size
