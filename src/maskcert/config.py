"""Flat key = value experiment configuration.

One typed document drives everything: dataset construction, transformation
space, model shape, the three training stages, certification, and the method
list. Unknown keys, type errors, and range violations are rejected with the
offending key and line number. An empty file yields the full defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import Any

from .errors import ConfigError
from .model import MASK_MODES
from .transforms import CORRUPTIONS, KINDS, CorruptionTag, TransformSpec

METHODS = ("vanilla", "lmp", "csam")
AUGMENT_LEVELS = ("none", "L1", "L2")

# Upper bounds on the certification sizes. Each evaluation sample runs
# cert_repetitions forwards of cert_samples transformed inputs and holds a
# (cert_repetitions, cert_samples) discrepancy table; the temperature grid
# holds cert_t_count points, of which the search evaluates O(log) many.
CERT_SAMPLES_MAX = 10_000
CERT_REPETITIONS_MAX = 100
CERT_T_COUNT_MAX = 1_000_000

# rng stream namespaces: each draw comes from default_rng([seed, namespace,
# ...]). STREAM_INIT shares [seed, 1] with the synthetic test split; moving
# either changes every recorded output, so it waits for a re-recording.
STREAM_SYNTHETIC_TRAIN = 0
STREAM_SYNTHETIC_TEST = 1
STREAM_INIT = 1
STREAM_AUGMENT = 2
STREAM_STAGE1 = 3
STREAM_STAGE2_SHUFFLE = 4
STREAM_STAGE2_NOISE = 5  # one stream per step, [seed, namespace, step]
STREAM_STAGE3 = 6
STREAM_EVAL = 8
STREAM_CERT_SAMPLE = 77  # one stream per evaluation sample, [seed, namespace, i]


def _key(default, check):
    """A config field: its default and its range check, a (predicate,
    human-readable constraint) pair that parse_config and validate apply."""
    return field(default=default, metadata={"check": check})


def _above(x):
    return (lambda v: v > x, f"> {x}")


def _at_least(x):
    return (lambda v: v >= x, f">= {x}")


def _within(lo, hi, ends="[]"):
    """lo <= v <= hi, an end strict where `ends` has "(" or ")" for it."""
    return (lambda v: (lo <= v if ends[0] == "[" else lo < v)
            and (v <= hi if ends[1] == "]" else v < hi),
            f"in {ends[0]}{lo}, {hi}{ends[1]}")


def _one_of(values):
    return (lambda v: v in values, "one of " + ", ".join(values))


# a path the file format holds: parse_config cuts a line at "#" and strips it
_PATH = (lambda v: not {"#", "\n", "\r"} & set(v) and v == v.strip(),
         "a path without '#', line breaks or leading or trailing whitespace")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_kind: str = _key("synthetic", _one_of(("synthetic", "idx")))
    synthetic_dim: int = _key(16, _at_least(2))
    synthetic_classes: int = _key(2, _at_least(2))
    synthetic_train_per_class: int = _key(200, _at_least(1))
    synthetic_test_per_class: int = _key(100, _at_least(1))
    synthetic_separation: float = _key(1.0, _above(0))
    synthetic_noise: float = _key(0.35, _above(0))
    synthetic_semantic_noise: float = _key(1.0, _above(0))
    idx_train_images: str = _key("", _PATH)
    idx_train_labels: str = _key("", _PATH)
    idx_test_images: str = _key("", _PATH)
    idx_test_labels: str = _key("", _PATH)
    idx_classes: int = _key(10, _at_least(2))
    transform_kind: str = _key("direction_shift", _one_of(KINDS))
    corruption: str = _key("haze", _one_of(CORRUPTIONS))
    corruption_severity: float = 0.6  # checked against its corruption in validate
    hidden_dims: tuple = _key((64, 64), (lambda v: len(v) >= 1 and all(d >= 1 for d in v),
                                         "positive layer widths"))
    mask_mode: str = _key("unstructured", _one_of(MASK_MODES))
    pruning_ratio: float = _key(0.5, _within(0, 1, "[)"))
    init_percentile: float = _key(30.0, _within(0, 100, "()"))
    noise_magnitude: float = _key(0.5, _at_least(0))
    safety_threshold: float = _key(1.0, _within(0, 1, "(]"))
    margin_epsilon: float = _key(1e-6, _above(0))
    lambda_stab: float = _key(5.0, _at_least(0))
    lambda_ratio: float = _key(1.0, _at_least(0))
    lambda_consis: float = _key(1.0, _at_least(0))
    lambda_l1: float = _key(1e-4, _at_least(0))
    stage1_epochs: int = _key(50, _at_least(1))
    stage1_lr: float = _key(0.01, _above(0))
    stage2_epochs: int = _key(100, _at_least(1))
    stage2_lr: float = _key(1e-4, _above(0))
    stage3_epochs: int = _key(50, _at_least(1))
    stage3_lr: float = _key(0.001, _above(0))
    batch_size: int = _key(64, _at_least(1))
    momentum: float = _key(0.9, _within(0, 1, "[)"))
    augment_level: str = _key("L2", _one_of(AUGMENT_LEVELS))
    methods: tuple = _key(("vanilla", "lmp", "csam"),
                          (lambda v: len(v) >= 1 and len(set(v)) == len(v)
                           and all(m in METHODS for m in v),
                           "distinct names from " + ", ".join(METHODS)))
    cert_samples: int = _key(100, _within(1, CERT_SAMPLES_MAX))
    cert_repetitions: int = _key(10, _within(1, CERT_REPETITIONS_MAX))
    cert_alpha: float = _key(0.9, _within(0, 1, "()"))
    cert_error_bound: float = _key(1e-3, _within(0, 1, "()"))
    cert_t_count: int = _key(500, _within(2, CERT_T_COUNT_MAX))
    cert_t_lo: float = _key(1e-4, _above(0))
    cert_t_hi: float = _key(1e4, _above(0))
    cert_eval_size: int = _key(100, _at_least(1))
    cert_cv: float = _key(1.0, _above(0))
    seed: int = _key(1009, (lambda v: 0 <= v < 2 ** 64, "a u64"))


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


def _parse_str(raw):
    return str(raw).strip()


def _parse_tuple(raw, parse, what):
    """A comma-separated list, each entry stripped and parsed; an empty entry
    (as in "64,,32" or a trailing comma) is an error, not a shorter list."""
    parts = [p.strip() for p in str(raw).split(",")]
    if not all(parts):
        raise ValueError(f"expected a comma-separated list of {what} without empty "
                         f"entries, got {raw!r}")
    return tuple(parse(p) for p in parts)


# the type of a field's default, or (entry type,) for a tuple -> the parser
# of the field's text, and the name of the values it takes (_has_type)
_KINDS = {int: (_parse_int, "a built-in int"),
          float: (_parse_float, "a built-in int or float"),
          str: (_parse_str, "a str"),
          (int,): (lambda raw: _parse_tuple(raw, _parse_int, "integers"),
                   "a tuple of built-in ints"),
          (str,): (lambda raw: _parse_tuple(raw, _parse_str, "names"), "a tuple of str")}

_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _kind(f):
    d = f.default
    return _KINDS[(type(d[0]),) if isinstance(d, tuple) else type(d)]


def _has_type(value, default) -> bool:
    """Whether value has the built-in type of `default`, one whose text
    serialize writes and parse_config reads back to the same value: not bool
    (an int subclass) and not numpy scalars. An int passes for a float, and
    a tuple's entries must each pass for its first."""
    if isinstance(default, tuple):
        return type(value) is tuple and all(_has_type(v, default[0]) for v in value)
    return type(value) is type(default) or (type(default) is float and type(value) is int)


def _check(f, value, where: str) -> None:
    if type(f.default) is float and not math.isfinite(value):
        raise ConfigError(f"{where}: key {f.name!r} must be a finite number, got {value!r}")
    if "check" in f.metadata:
        ok, constraint = f.metadata["check"]
        if not ok(value):
            raise ConfigError(f"{where}: key {f.name!r} must be {constraint}, got {value!r}")


def _convert(f, raw: str, where: str):
    try:
        value = _kind(f)[0](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: key {f.name!r}: {exc}") from None
    _check(f, value, where)
    return value


def validate(cfg: ExperimentConfig, where: str = "config") -> ExperimentConfig:
    """Cross-field checks; per-key ranges are re-applied for configs built in
    code rather than parsed, after a check that each value has a type the
    config file can hold."""
    for f in _FIELDS.values():
        value = getattr(cfg, f.name)
        if not _has_type(value, f.default):
            raise ConfigError(f"{where}: key {f.name!r} must be {_kind(f)[1]}, "
                              f"got {value!r} of type {type(value).__name__}")
        _check(f, value, where)
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
        if key not in _FIELDS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r} (first set on line {seen[key]})")
        seen[key] = lineno
        values[key] = _convert(_FIELDS[key], raw, where)
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


def augment_count(cfg: ExperimentConfig, train_size: int) -> int:
    if cfg.augment_level == "none":
        return 0
    return train_size // 4 if cfg.augment_level == "L1" else train_size
