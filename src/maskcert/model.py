"""Dense feed-forward classifiers with per-layer mask slots and checkpoints.

A model is a stack of affine layers with relu activations, ending in a
logits layer. Masks multiply the weight matrices elementwise after being
broadcast to weight shape: in unstructured mode a mask entry covers one
weight, in structured mode one mask entry scales an entire output row.
Biases are never masked. In structured mode the final classifier layer is
exempt (pruning its outputs would delete classes), so its prunable-unit
count is zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError

MASK_MODES = ("unstructured", "structured")
ACTIVATIONS = ("relu", "none")
CHECKPOINT_VERSION = 1
STAGE_TAGS = ("pretrained", "mask_searched", "finetuned")


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"layer dims must be positive, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def mlp_specs(in_dim: int, hidden: list[int], classes: int) -> list[LayerSpec]:
    """Layer specs for an MLP with relu hidden layers and a logits head."""
    dims = [in_dim, *hidden, classes]
    specs = []
    for i in range(len(dims) - 1):
        act = "relu" if i < len(dims) - 2 else "none"
        specs.append(LayerSpec(dims[i], dims[i + 1], act))
    return specs


class MaskableModel:
    """Stack of dense layers whose weights accept broadcast mask multipliers."""

    def __init__(self, specs: list[LayerSpec], weights, biases, mask_mode="unstructured"):
        if not specs:
            raise ValueError("model needs at least one layer")
        if specs[-1].activation != "none":
            raise ValueError("final layer must produce logits (activation 'none')")
        for a, b in zip(specs, specs[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")
        if mask_mode not in MASK_MODES:
            raise ValueError(f"unknown mask_mode {mask_mode!r}")
        self.specs = list(specs)
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.mask_mode = mask_mode
        for spec, w, b in zip(specs, self.weights, self.biases):
            if w.shape != (spec.out_dim, spec.in_dim) or b.shape != (spec.out_dim,):
                raise ValueError(
                    f"weight shapes {w.shape}/{b.shape} do not match spec "
                    f"{spec.out_dim}x{spec.in_dim}")

    @classmethod
    def initialized(cls, specs, mask_mode, rng: np.random.Generator):
        """Uniform init in +-sqrt(6/(in+out)) per layer; biases zero."""
        weights, biases = [], []
        for spec in specs:
            bound = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
            weights.append(rng.uniform(-bound, bound, size=(spec.out_dim, spec.in_dim)))
            biases.append(np.zeros(spec.out_dim))
        return cls(specs, weights, biases, mask_mode)

    @property
    def class_count(self) -> int:
        return self.specs[-1].out_dim

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    def weight_count(self) -> int:
        return int(np.sum([s.out_dim * s.in_dim for s in self.specs]))

    def mask_dims(self) -> list[int]:
        """Prunable-unit count per layer for the model's mask mode."""
        dims = []
        last = len(self.specs) - 1
        for i, spec in enumerate(self.specs):
            if self.mask_mode == "unstructured":
                dims.append(spec.out_dim * spec.in_dim)
            else:
                dims.append(spec.out_dim if i != last else 0)
        return dims

    def copy(self) -> "MaskableModel":
        return MaskableModel(self.specs, [w.copy() for w in self.weights],
                             [b.copy() for b in self.biases], self.mask_mode)

    def forward(self, x: np.ndarray, multipliers=None, out=None) -> np.ndarray:
        """Softmax class probabilities, shape (..., batch, K).

        `multipliers` is an optional per-layer list of arrays already
        broadcast to each weight's shape (None entries mean dense). Inputs may
        be stacked, (..., batch, in_dim); each trailing (batch, in_dim) block
        gives the bits it would give alone. `out` is as for masked_forward,
        and the probabilities are then written into its last array. Never
        mutates the model, so concurrent evaluations are safe.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-1] != self.in_dim:
            raise ValueError(f"forward: expected input (batch, {self.in_dim}), got {x.shape}")
        multipliers = self._checked_multipliers(multipliers, "forward")
        hs, _, _ = masked_forward(x, self.weights, self.biases, self.specs, multipliers, out)
        p = softmax(hs[-1], out=None if out is None else hs[-1])
        if not np.isfinite(p).all():
            raise FloatingPointError("forward: non-finite output probabilities")
        return p

    def folded(self, multipliers) -> "MaskableModel":
        """Dense model whose weights are the masked weights m * w (w where the
        entry, or `multipliers` itself, is None). Its forward(x) equals
        forward(x, multipliers) bit for bit, since masked_forward forms the
        same product, but pays for the product once instead of per call.
        Unmasked weights and the biases are shared, not copied."""
        multipliers = self._checked_multipliers(multipliers, "folded")
        if multipliers is None:
            return self
        return MaskableModel(self.specs,
                             [w if m is None else m * w
                              for m, w in zip(multipliers, self.weights)],
                             self.biases, self.mask_mode)

    def _checked_multipliers(self, multipliers, where: str):
        """Multipliers as float64 arrays, one entry per layer, each None or of
        its weight's shape."""
        if multipliers is None:
            return None
        if len(multipliers) != len(self.specs):
            raise ValueError(f"{where}: one multiplier entry per layer required")
        multipliers = [None if m is None else np.asarray(m, dtype=np.float64)
                       for m in multipliers]
        for i, (m, w) in enumerate(zip(multipliers, self.weights)):
            if m is not None and m.shape != w.shape:
                raise ValueError(
                    f"{where}: multiplier shape {m.shape} != weight shape {w.shape} "
                    f"in layer {i}")
        return multipliers


def masked_forward(x, weights, biases, specs, multipliers=None, out=None):
    """Run the layer stack with each weight multiplied by its multiplier
    (None entries, or multipliers=None, leave a layer dense).

    Returns (hs, zs, ws): hs[0] is x and hs[i + 1] the output of layer i
    after its activation, so hs[-1] holds the logits; zs[i] is layer i's
    pre-activation and ws[i] the weight it applied. The masked-MLP VJP in
    autodiff reuses all three.

    x may be stacked, (..., batch, in), and so may the weights and the
    multipliers, (..., out, in), one per stacked copy: matmul runs one GEMM
    per trailing 2-D block, so every block gets the bits of its own call,
    which one GEMM over the flattened rows does not promise. With `out`, one array
    per layer shaped like that layer's output, layer i is computed into
    out[i] by the same ufuncs and its activation applied there in place, so
    nothing is allocated; zs then holds the activated outputs.
    """
    hs, zs, ws = [x], [], []
    for i, spec in enumerate(specs):
        w = weights[i]
        if multipliers is not None and multipliers[i] is not None:
            w = multipliers[i] * w
        z = np.matmul(hs[-1], w.mT, out=None if out is None else out[i])
        z += biases[i]
        h = z
        if spec.activation == "relu":
            h = np.maximum(z, 0.0, out=None if out is None else z)
        hs.append(h)
        zs.append(z)
        ws.append(w)
    return hs, zs, ws


def softmax(h: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis, shifted by the max for stability; written
    into `out` (which may be h itself) when given."""
    e = np.subtract(h, h.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def broadcast_mask(vector: np.ndarray, spec: LayerSpec, mode: str) -> np.ndarray:
    """Map a per-layer mask vector to a multiplier of the weight's shape."""
    v = np.asarray(vector, dtype=np.float64)
    if mode == "unstructured":
        if v.shape != (spec.out_dim * spec.in_dim,):
            raise ValueError(
                f"broadcast: expected length {spec.out_dim * spec.in_dim}, got {v.shape}")
        return v.reshape(spec.out_dim, spec.in_dim)
    if mode == "structured":
        if v.shape != (spec.out_dim,):
            raise ValueError(f"broadcast: expected length {spec.out_dim}, got {v.shape}")
        return np.repeat(v[:, None], spec.in_dim, axis=1)
    raise ValueError(f"unknown mask mode {mode!r}")


# ---------------------------------------------------------------------------
# checkpoints: single UTF-8 JSON document with explicit shape validation


def save_checkpoint(path, model: MaskableModel, stage: str, *, soft_mask=None,
                    hard_mask=None, seed=None) -> None:
    """Write the model and optional masks as one JSON document plus a newline.

    The document is {"version", "stage", "mask_mode", "seed", "layers" (each
    {"in", "out", "activation", "W", "b"}), "soft_mask", "hard_mask"}, hard
    mask entries as integers, in exactly the bytes json.dump would write. The
    scalar skeleton is formatted here and each array is encoded on its own by
    json.dumps (the C encoder; json.dump always runs the pure-Python one), so
    no text of the whole document is ever held in memory.
    """
    if stage not in STAGE_TAGS:
        raise ValueError(f"unknown stage tag {stage!r}")
    dumps = json.dumps
    layers = (f'{{"in": {s.in_dim}, "out": {s.out_dim}, "activation": {dumps(s.activation)}, '
              f'"W": {dumps(w.tolist())}, "b": {dumps(b.tolist())}}}'
              for s, w, b in zip(model.specs, model.weights, model.biases))
    soft = None if soft_mask is None else (dumps(c.tolist()) for c in soft_mask)
    hard = None if hard_mask is None else (
        dumps(np.asarray(m).astype(np.int64).tolist()) for m in hard_mask)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"version": {CHECKPOINT_VERSION}, "stage": {dumps(stage)}, '
                 f'"mask_mode": {dumps(model.mask_mode)}, "seed": {dumps(seed)}, "layers": ')
        _write_json_array(fh, layers)
        fh.write(', "soft_mask": ')
        _write_json_array(fh, soft)
        fh.write(', "hard_mask": ')
        _write_json_array(fh, hard)
        fh.write("}\n")


def _write_json_array(fh, items) -> None:
    """Write already-encoded JSON texts as one JSON array (null for None),
    one item at a time."""
    if items is None:
        fh.write("null")
        return
    fh.write("[")
    for i, text in enumerate(items):
        if i:
            fh.write(", ")
        fh.write(text)
    fh.write("]")


def load_checkpoint(path):
    """Load a checkpoint; returns (model, extras dict).

    extras carries stage, seed, soft_mask and hard_mask (as float arrays,
    None when absent). All array lengths are validated before any model is
    constructed, so a corrupt file never yields a partial model.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"checkpoint {path}: not valid JSON ({exc})") from None

    if not isinstance(doc, dict) or doc.get("version") != CHECKPOINT_VERSION:
        raise DatasetError(
            f"checkpoint {path}: unrecognized version {doc.get('version')!r}")
    stage = doc.get("stage")
    if stage not in STAGE_TAGS:
        raise DatasetError(f"checkpoint {path}: unknown stage tag {stage!r}")
    mode = doc.get("mask_mode")
    if mode not in MASK_MODES:
        raise DatasetError(f"checkpoint {path}: unknown mask_mode {mode!r}")

    specs, weights, biases = [], [], []
    for i, layer in enumerate(doc.get("layers") or []):
        try:
            spec = LayerSpec(int(layer["in"]), int(layer["out"]), layer["activation"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"checkpoint {path}: bad layer {i} header ({exc})") from None
        w, b = layer.get("W"), layer.get("b")
        if (not isinstance(w, list) or len(w) != spec.out_dim
                or any(not isinstance(r, list) or len(r) != spec.in_dim for r in w)):
            raise DatasetError(
                f"checkpoint {path}: layer {i} weight array does not match "
                f"declared {spec.out_dim}x{spec.in_dim}")
        if not isinstance(b, list) or len(b) != spec.out_dim:
            raise DatasetError(
                f"checkpoint {path}: layer {i} bias length != {spec.out_dim}")
        specs.append(spec)
        weights.append(np.asarray(w, dtype=np.float64))
        biases.append(np.asarray(b, dtype=np.float64))
    if not specs:
        raise DatasetError(f"checkpoint {path}: no layers")

    try:
        model = MaskableModel(specs, weights, biases, mode)
    except ValueError as exc:
        raise DatasetError(f"checkpoint {path}: {exc}") from None

    dims = model.mask_dims()

    def _validate_mask(name):
        raw = doc.get(name)
        if raw is None:
            return None
        if not isinstance(raw, list) or len(raw) != len(specs):
            raise DatasetError(f"checkpoint {path}: {name} must have one entry per layer")
        out = []
        for i, (vec, n) in enumerate(zip(raw, dims)):
            if not isinstance(vec, list) or len(vec) != n:
                raise DatasetError(
                    f"checkpoint {path}: {name} layer {i} length {len(vec) if isinstance(vec, list) else '?'} != {n}")
            arr = np.asarray(vec, dtype=np.float64)
            if name == "hard_mask" and not np.all((arr == 0.0) | (arr == 1.0)):
                raise DatasetError(
                    f"checkpoint {path}: hard_mask layer {i} has entries other than 0 and 1")
            out.append(arr)
        return out

    extras = {
        "stage": stage,
        "seed": doc.get("seed"),
        "soft_mask": _validate_mask("soft_mask"),
        "hard_mask": _validate_mask("hard_mask"),
    }
    return model, extras
