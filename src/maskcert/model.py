"""Dense feed-forward classifiers with per-layer mask slots and checkpoints.

A model is a stack of affine layers with relu activations, ending in a
logits layer. A mask is folded into the weights (MaskableModel.folded),
multiplying each weight matrix elementwise in the shape mask_shape gives it:
in unstructured mode a mask entry covers one weight, in structured mode one
mask entry scales an entire output row. Biases are never masked. In
structured mode the final classifier layer is exempt (pruning its outputs
would delete classes), so its prunable-unit count is zero. Every forward
runs through masked_forward, and the training steps differentiate it with
masked_backward; a loop keeps their arrays in one `work` dict (_buffer), the
one way the package keeps a loop's arrays.
"""

from __future__ import annotations

import itertools
import json
import math
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


def mask_shape(spec: LayerSpec, mode: str) -> tuple[int, int]:
    """Shape of a layer's mask so that it broadcasts against the (out, in)
    weight: (out, in) unstructured, (out, 1) structured."""
    if mode == "unstructured":
        return (spec.out_dim, spec.in_dim)
    return (spec.out_dim, 1)


def mlp_specs(in_dim: int, hidden: list[int], classes: int) -> list[LayerSpec]:
    """Layer specs for an MLP with relu hidden layers and a logits head."""
    dims = [in_dim, *hidden, classes]
    specs = []
    for i in range(len(dims) - 1):
        act = "relu" if i < len(dims) - 2 else "none"
        specs.append(LayerSpec(dims[i], dims[i + 1], act))
    return specs


class MaskableModel:
    """Stack of dense layers; a mask is applied by folding it into the
    weights (folded)."""

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
        dims = [math.prod(mask_shape(s, self.mask_mode)) for s in self.specs]
        if self.mask_mode == "structured":
            dims[-1] = 0
        return dims

    def copy(self) -> "MaskableModel":
        return MaskableModel(self.specs, [w.copy() for w in self.weights],
                             [b.copy() for b in self.biases], self.mask_mode)

    def forward(self, x: np.ndarray, work: dict | None = None) -> np.ndarray:
        """Softmax class probabilities, shape (..., batch, K).

        Inputs may be stacked, (..., batch, in_dim); each trailing
        (batch, in_dim) block gives the bits it would give alone. `work` is
        as for forward_probs. Never mutates the model, so evaluations that
        share no work dict may run concurrently.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-1] != self.in_dim:
            raise ValueError(f"forward: expected input (batch, {self.in_dim}), got {x.shape}")
        return forward_probs(x, self.weights, self.biases, self.specs, work)

    def folded(self, multipliers) -> "MaskableModel":
        """The deployed model: dense, with weights m * w for each layer's
        multiplier m (see masks.hard_multipliers), and w where the entry, or
        `multipliers` itself, is None; every hard mask is applied this way,
        stage 3 included. Unmasked weights and the biases are shared."""
        if multipliers is None:
            return self
        return MaskableModel(self.specs,
                             [w if m is None else m * w
                              for m, w in zip(multipliers, self.weights)],
                             self.biases, self.mask_mode)


def _buffer(work, key, shape) -> np.ndarray:
    """A float64 array of `shape` kept under `key` in the dict `work`, or a
    fresh one when work is None. A key holds one flat array and a request
    gets a C-contiguous view of its head, reallocated only when a larger
    size is asked for, so shapes that shrink and grow back (a short last
    batch) allocate nothing. Private, so perfbench's tracer, which wraps
    every public function, adds no span to its many calls per step."""
    if work is None:
        return np.empty(shape)
    size = math.prod(shape)
    flat = work.get(key)
    if flat is None or flat.size < size:
        flat = work[key] = np.empty(size)
    return flat[:size].reshape(shape)


def masked_forward(x, weights, biases, specs, work=None):
    """Run the layer stack on weights with any mask already folded in
    (MaskableModel.folded). Returns (hs, zs): hs[0] is x and hs[i + 1] the
    output of layer i after its activation, so hs[-1] holds the logits;
    zs[i] is layer i's pre-activation. masked_backward and certification's
    closed-form first layer reuse both.

    x may be stacked, (..., batch, in), and so may the weights, one per
    stacked copy: matmul runs one GEMM per trailing 2-D block, so every
    block gets the bits of its own call, which one GEMM over the flattened
    rows does not promise. The stack axes are those of x and the first
    weight broadcast together; a later weight is stacked the same way or
    not at all. Layer i's output is formed under ("h", i) of `work`
    (_buffer) and a relu layer's pre-activation under ("z", i), by the same
    ufuncs with or without a dict.
    """
    if len(weights) != len(specs) or len(biases) != len(specs):
        raise ValueError("masked_forward: one weight and one bias per layer required")
    hs, zs = [x], []
    if not specs:  # what certification's closed form leaves of a one-layer model
        return hs, zs
    if x.ndim < 2 or x.shape[-1] != weights[0].shape[-1]:
        raise ValueError(f"masked_forward: input shape {x.shape} does not match "
                         f"weight {weights[0].shape}")
    lead = np.broadcast_shapes(x.shape[:-2], weights[0].shape[:-2]) + x.shape[-2:-1]
    for i, (spec, w, b) in enumerate(zip(specs, weights, biases)):
        shape = lead + w.shape[-2:-1]
        relu = spec.activation == "relu"
        z = np.matmul(hs[-1], w.mT, out=_buffer(work, ("z" if relu else "h", i), shape))
        z += b
        hs.append(np.maximum(z, 0.0, out=_buffer(work, ("h", i), shape)) if relu else z)
        zs.append(z)
    return hs, zs


def masked_backward(hs, zs, weights, specs, g, work=None, layers=None, out=None,
                    biases=False):
    """Gradients of sum(g * logits) through one masked_forward call that
    returned (hs, zs) on the folded `weights`, layer by layer in reverse; the
    caller masks the weight gradients. The input's gradient is never formed.

    Returns (gw, gb). gw[i] is layer i's weight gradient for each i in
    `layers` (every layer when None), else None. It carries g's stack axes
    and goes into out[i] when `out` holds i, else into ("dw", i) of `work`;
    layer i's input gradient is taken first, so out[i] may be that layer's
    weight. gb[i] is layer i's bias gradient, g summed over its leading
    axes, when `biases` is true; else gb is None. The gradients between
    layers go into ("dz", i) and ("dx", i) of `work`.

    First raises FloatingPointError if a pre-activation is not finite, so a
    diverged step never reaches an update.
    """
    for i, z in enumerate(zs):
        if not np.isfinite(z).all():
            raise FloatingPointError(f"masked_backward: non-finite pre-activation in layer {i}")
    gw = [None] * len(specs)
    gb = [None] * len(specs) if biases else None
    for i in reversed(range(len(specs))):
        w = weights[i]
        if specs[i].activation == "relu":
            g = np.multiply(g, zs[i] > 0, out=_buffer(work, ("dz", i), g.shape))
        if biases:
            gb[i] = g.sum(axis=tuple(range(g.ndim - 1)))
        g_in = None
        if i > 0:
            g_in = np.matmul(g, w, out=_buffer(work, ("dx", i), g.shape[:-1] + w.shape[-1:]))
        if layers is None or i in layers:
            target = out.get(i) if out else None
            if target is None:
                target = _buffer(work, ("dw", i), g.shape[:-2] + w.shape[-2:])
            gw[i] = np.matmul(g.mT, hs[i], out=target)
        g = g_in
    return gw, gb


def forward_probs(x, weights, biases, specs, work=None) -> np.ndarray:
    """Softmax class probabilities of the layer stack, checked finite.

    x, weights and biases may be stacked as for masked_forward: weights of
    shape (k, 1, out, in) and biases (k, 1, 1, out) run k models on one
    (a, b, in) stack and give (k, a, b, K), each model's block with the bits
    of its own forward. With `work` the layers run in its arrays as for
    masked_forward and the probabilities are written over the logits, so
    the result is valid until the next call on that dict.
    """
    hs, _ = masked_forward(x, weights, biases, specs, work)
    p = softmax(hs[-1], out=None if work is None else hs[-1])
    if not np.isfinite(p).all():
        raise FloatingPointError("forward: non-finite output probabilities")
    return p


def softmax(h: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis, shifted by the max for stability; written
    into `out` (which may be h itself) when given."""
    e = np.subtract(h, h.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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


def _finite_array(raw, shape, where: str) -> np.ndarray:
    """`raw` as a float64 array, if it is JSON lists nested to exactly `shape`
    (one or two axes) holding finite numbers only; else DatasetError naming
    `where`. numpy reads null and strings as objects, but true and false
    among numbers as 1 and 0, so those are looked for in the lists."""
    try:
        arr = np.array(raw)
        ok = arr.shape == shape and arr.dtype.kind in "iuf"
    except ValueError:  # ragged nesting
        ok = False
    if ok:
        entries = raw if arr.ndim == 1 else itertools.chain.from_iterable(raw)
        ok = not any(type(v) is bool for v in entries) and np.isfinite(arr).all()
    if not ok:
        raise DatasetError(f"{where} does not match its declared shape "
                           f"{'x'.join(map(str, shape))} of finite numbers")
    return arr.astype(np.float64, copy=False)


def load_checkpoint(path):
    """Load a checkpoint; returns (model, extras dict).

    extras carries stage, seed, soft_mask and hard_mask (as float arrays,
    None when absent). Every array is checked for its declared shape and for
    finite numbers before any model is constructed, so a corrupt file never
    yields a partial model; each defect raises DatasetError naming the file
    and the layer.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"checkpoint {path}: not valid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"checkpoint {path}: not UTF-8 text ({exc})") from None

    if not isinstance(doc, dict):
        raise DatasetError(f"checkpoint {path}: not a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # true and 1.0 equal 1
        raise DatasetError(f"checkpoint {path}: unrecognized version {version!r}")
    stage = doc.get("stage")
    if stage not in STAGE_TAGS:
        raise DatasetError(f"checkpoint {path}: unknown stage tag {stage!r}")
    mode = doc.get("mask_mode")
    if mode not in MASK_MODES:
        raise DatasetError(f"checkpoint {path}: unknown mask_mode {mode!r}")
    layers = doc.get("layers")
    if not isinstance(layers, list) or not layers:
        raise DatasetError(f"checkpoint {path}: layers must be a non-empty list")

    specs, weights, biases = [], [], []
    for i, layer in enumerate(layers):
        try:
            dims = (layer["in"], layer["out"])
            if any(type(d) is not int for d in dims):  # bool is an int subclass
                raise ValueError(f"in and out must be integers, got {dims}")
            spec = LayerSpec(*dims, layer["activation"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(f"checkpoint {path}: bad layer {i} header ({exc})") from None
        specs.append(spec)
        weights.append(_finite_array(layer.get("W"), (spec.out_dim, spec.in_dim),
                                     f"checkpoint {path}: layer {i} weight array"))
        biases.append(_finite_array(layer.get("b"), (spec.out_dim,),
                                    f"checkpoint {path}: layer {i} bias"))

    try:
        model = MaskableModel(specs, weights, biases, mode)
    except ValueError as exc:
        raise DatasetError(f"checkpoint {path}: {exc}") from None

    def _validate_mask(name):
        raw = doc.get(name)
        if raw is None:
            return None
        if not isinstance(raw, list) or len(raw) != len(specs):
            raise DatasetError(f"checkpoint {path}: {name} must have one entry per layer")
        out = []
        for i, (vec, n) in enumerate(zip(raw, model.mask_dims())):
            arr = _finite_array(vec, (n,), f"checkpoint {path}: {name} layer {i}")
            if name == "hard_mask" and not np.all((arr == 0.0) | (arr == 1.0)):
                raise DatasetError(
                    f"checkpoint {path}: hard_mask layer {i} has entries other than 0 and 1")
            out.append(arr)
        return out

    seed = doc.get("seed")
    if seed is not None and not (type(seed) is int and 0 <= seed < 2 ** 64):
        raise DatasetError(f"checkpoint {path}: seed must be null or a u64, got {seed!r}")
    extras = {
        "stage": stage,
        "seed": seed,
        "soft_mask": _validate_mask("soft_mask"),
        "hard_mask": _validate_mask("hard_mask"),
    }
    return model, extras
