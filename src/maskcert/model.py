"""Dense feed-forward classifiers with per-layer mask slots and checkpoints.

A model is a stack of affine layers with relu activations, ending in a
logits layer. A mask is folded into the weights (MaskableModel.folded),
multiplying each weight matrix elementwise in the shape mask_shape gives it:
in unstructured mode a mask entry covers one weight, in structured mode one
mask entry scales an entire output row. Biases are never masked. In
structured mode the final classifier layer is exempt (pruning its outputs
would delete classes), so its prunable-unit count is zero. Every forward
runs through masked_forward. The training steps differentiate it with
masked_backward, the chain rule down to each layer's pre-activation, and
form the parameter gradients they need themselves. A loop keeps their
arrays in one `work` dict (_buffer), the one way the package keeps a loop's
arrays.
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
        if len(self.weights) != len(specs) or len(self.biases) != len(specs):
            raise ValueError(f"{len(specs)} layer specs need as many weights and biases, "
                             f"got {len(self.weights)} and {len(self.biases)}")
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities, shape (..., batch, K), in fresh
        arrays. Inputs may be stacked, (..., batch, in_dim); each trailing
        (batch, in_dim) block gives the bits it would give alone."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-1] != self.in_dim:
            raise ValueError(f"forward: expected input (batch, {self.in_dim}), got {x.shape}")
        return forward_probs(x, self.weights, self.biases, self.specs)

    def folded(self, multipliers) -> "MaskableModel":
        """The deployed model: dense, with weights m * w for each layer's
        multiplier m (see masks.hard_multipliers), and w where the entry, or
        `multipliers` itself, is None; every hard mask is applied this way
        (stage 3's weight stacks by pipeline._fold). Unmasked weights and
        the biases are shared."""
        if multipliers is None:
            return self
        return MaskableModel(self.specs, [w if m is None else m * w
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
    zs[i] is layer i's pre-activation. It is the forward of the training
    steps, whose backward reads zs, and of certification's clean stack,
    whose closed-form first layer reads zs[0]; a forward whose caller reads
    only the output is forward_probs, which keeps no pre-activation.

    x may be stacked, (..., batch, in), and so may the weights, one per
    stacked copy: matmul runs one GEMM per trailing 2-D block, so every
    block gets the bits of its own call, which one GEMM over the flattened
    rows does not promise. The stack axes are those of x and the first
    weight broadcast together; a later weight is stacked the same way or
    not at all. Layer i's output is formed under ("h", i) of `work`
    (_buffer) and a relu layer's pre-activation under ("z", i), by the same
    ufuncs with or without a dict.
    """
    hs, zs = [x], []
    lead = _stack_lead(x, weights, biases, specs)
    for i, (spec, w, b) in enumerate(zip(specs, weights, biases)):
        shape = lead + w.shape[-2:-1]
        relu = spec.activation == "relu"
        z = np.matmul(hs[-1], w.mT, out=_buffer(work, ("z" if relu else "h", i), shape))
        z += b
        hs.append(np.maximum(z, 0.0, out=_buffer(work, ("h", i), shape)) if relu else z)
        zs.append(z)
    return hs, zs


def _stack_lead(x, weights, biases, specs):
    """The leading shape, stack axes and batch, of every layer's output on
    input x, after checking the arguments (see masked_forward)."""
    if len(weights) != len(specs) or len(biases) != len(specs):
        raise ValueError("masked_forward: one weight and one bias per layer required")
    if not specs:  # what certification's closed form leaves of a one-layer model
        return None
    if x.ndim < 2 or x.shape[-1] != weights[0].shape[-1]:
        raise ValueError(f"masked_forward: input shape {x.shape} does not match "
                         f"weight {weights[0].shape}")
    return np.broadcast_shapes(x.shape[:-2], weights[0].shape[:-2]) + x.shape[-2:-1]


def masked_backward(zs, weights, specs, g, work=None):
    """The chain rule for sum(g * logits) back through a masked_forward call
    that returned zs on the folded `weights`: returns gz, the gradient on
    each layer's pre-activation, with g's stack axes. gz[-1] is g itself and
    a relu layer's is formed under ("dz", i) of `work`; layer i's input
    gradient goes into ("dx", i), and the network input's is never formed.
    The caller forms the parameter gradients it needs: layer i's weight
    gradient is gz[i].mT @ hs[i], its bias gradient gz[i] summed over the
    leading axes.

    First raises FloatingPointError if a pre-activation is not finite, so a
    diverged step never reaches an update.
    """
    for i, z in enumerate(zs):
        if not np.isfinite(z).all():
            raise FloatingPointError(f"masked_backward: non-finite pre-activation in layer {i}")
    gz = [None] * len(specs)
    for i in reversed(range(len(specs))):
        if specs[i].activation == "relu":
            g = np.multiply(g, zs[i] > 0, out=_buffer(work, ("dz", i), g.shape))
        gz[i] = g
        if i > 0:
            w = weights[i]
            g = np.matmul(g, w, out=_buffer(work, ("dx", i), g.shape[:-1] + w.shape[-1:]))
    return gz


def forward_probs(x, weights, biases, specs, work=None) -> np.ndarray:
    """Softmax class probabilities of the layer stack, checked finite.

    x, weights and biases may be stacked as for masked_forward: weights of
    shape (k, 1, out, in) and biases (k, 1, 1, out) run k models on one
    (a, b, in) stack and give (k, a, b, K), each model's block with the bits
    of its own forward. The layers run by masked_forward's ufuncs, but each
    applies its relu in place and keeps no pre-activation: with `work` layer
    i runs in ("h", i) alone, and the probabilities are written over the
    logits, so the result is valid until the next call on that dict.
    """
    h, lead = x, _stack_lead(x, weights, biases, specs)
    for i, (spec, w, b) in enumerate(zip(specs, weights, biases)):
        h = np.matmul(h, w.mT, out=_buffer(work, ("h", i), lead + w.shape[-2:-1]))
        h += b
        if spec.activation == "relu":
            np.maximum(h, 0.0, out=h)
    p = softmax(h, out=None if work is None else h)
    if not np.isfinite(p).all():
        raise FloatingPointError("forward: non-finite output probabilities")
    return p


def softmax(h: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis, shifted by the max for stability; written
    into `out` (which may be h itself) when given."""
    e = np.subtract(h, _row_max(h)[..., None], out=out)
    np.exp(e, out=e)
    e /= _row_sum(e)[..., None]
    return e


# numpy reduces an axis of this many entries or more in 8-way pairwise
# blocks; below it, its sum adds one entry at a time
_PAIRWISE_BLOCK = 8


def _row_max(a: np.ndarray, out=None) -> np.ndarray:
    """a.max(axis=-1) of a float array, with numpy's bits, written into
    `out` if given. A short class axis takes one np.maximum per entry: on
    500 rows of 2 entries numpy's reduce takes about 22 us for the max and
    9 us for the sum, the column ufuncs about 3 us (numpy 2.4); a max is
    exact in any order. A NaN result may differ from numpy's in its sign
    bit, which IEEE 754 leaves unspecified. Private, like _buffer, so
    perfbench's tracer adds no span to its many calls."""
    if 0 < a.shape[-1] < _PAIRWISE_BLOCK:
        return _fold_columns(np.maximum, a, a[..., 0], out)
    return a.max(axis=-1, out=out)


def _row_sum(a: np.ndarray, out=None) -> np.ndarray:
    """a.sum(axis=-1) of a float array, with numpy's bits, written into `out`
    if given: on a short axis one np.add per entry, in numpy's order. numpy
    starts that sum from +0.0, so it starts here from column 0 plus 0.0,
    which turns a -0.0 there into +0.0 (an all-(-0.0) row sums to +0.0). A
    NaN result may differ in its sign bit, as for _row_max."""
    if 0 < a.shape[-1] < _PAIRWISE_BLOCK:
        return _fold_columns(np.add, a, 0.0, out)
    return a.sum(axis=-1, out=out)


def _fold_columns(op, a, first, out):
    """op(...op(op(a[..., 0], first), a[..., 1])..., a[..., -1]) in `out`,
    or in a fresh array of a's dtype without it."""
    if out is None:
        out = np.empty(a.shape[:-1], a.dtype)
    op(a[..., 0], first, out=out)
    for j in range(1, a.shape[-1]):
        op(out, a[..., j], out=out)
    return out


# ---------------------------------------------------------------------------
# checkpoints: single UTF-8 JSON document with explicit shape validation


def save_checkpoint(path, model: MaskableModel, stage: str, *, soft_mask=None,
                    hard_mask=None, seed=None) -> None:
    """Write the model and optional masks as one JSON document plus a newline.

    The document is {"version", "stage", "mask_mode", "seed", "layers" (each
    {"in", "out", "activation", "W", "b"}), "soft_mask", "hard_mask"}, hard
    mask entries as integers, in exactly the bytes json.dump would write. The
    scalar skeleton is formatted here, and the arrays are encoded by
    json.dumps (the C encoder; json.dump always runs the pure-Python one) one
    weight row or one _JSON_CHUNK entries of a vector at a time, so neither
    the text nor the list of any whole array is ever held in memory.
    """
    if stage not in STAGE_TAGS:
        raise ValueError(f"unknown stage tag {stage!r}")
    dumps = json.dumps
    layers = (itertools.chain(
        (f'{{"in": {s.in_dim}, "out": {s.out_dim}, "activation": {dumps(s.activation)}, '
         f'"W": ',), _json_array(w), (', "b": ',), _json_array(b), ("}",))
        for s, w, b in zip(model.specs, model.weights, model.biases))
    soft = None if soft_mask is None else map(_json_array, soft_mask)
    hard = None if hard_mask is None else (
        _json_array(np.asarray(m), np.int64) for m in hard_mask)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(itertools.chain(
            (f'{{"version": {CHECKPOINT_VERSION}, "stage": {dumps(stage)}, '
             f'"mask_mode": {dumps(model.mask_mode)}, "seed": {dumps(seed)}, "layers": ',),
            _json_list(layers), (', "soft_mask": ',), _json_list(soft),
            (', "hard_mask": ',), _json_list(hard), ("}\n",)))


_JSON_CHUNK = 1024  # vector entries that one json.dumps call encodes


def _json_array(a: np.ndarray, dtype=None):
    """The text of json.dumps(a.astype(dtype).tolist()) for a 1-D or 2-D
    array, in pieces: a 2-D array one row at a time, a vector _JSON_CHUNK
    entries at a time, each cast to dtype (if given) on its own."""
    if a.ndim == 2:
        return _json_list(_json_array(row, dtype) for row in a)
    return _json_list((json.dumps(np.asarray(a[i:i + _JSON_CHUNK], dtype).tolist())[1:-1],)
                      for i in range(0, len(a), _JSON_CHUNK))


def _json_list(items):
    """The text of one JSON array, in pieces, of items that are each an
    iterable of text pieces; null for None."""
    if items is None:
        yield "null"
        return
    yield "["
    for i, item in enumerate(items):
        if i:
            yield ", "
        yield from item
    yield "]"


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
