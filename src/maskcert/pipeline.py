"""End-to-end training pipeline and baselines.

Stage 1 pre-trains the dense model with cross-entropy on the augmented set.
Stage 2 freezes the weights and searches a soft pruning mask with the
composite objective, clamping the mask into [0, 1] after every update.
Stage 3 binarizes the mask and fine-tunes the model with the fixed hard mask
folded into its weights; pruned weights receive exactly zero update because
their gradient is multiplied by the mask. Every stage reads the augmented
set as transforms.AugmentedSet holds it, clean rows plus picked row
indices: a transformed row is formed when a batch or an accuracy block
gathers it, and the stage-2 pairs are the picks.

Baselines share everything they can with the main method: identical
pre-trained weights, augmented data, schedules, and certification streams
within one experiment, so comparisons isolate the mask choice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .certify import PcaResult, pca_models
from .config import ExperimentConfig, augment_count, model_layer_specs, transform_spec
from .datasets import Dataset, accuracy, gen_synthetic, load_idx
from .errors import ConfigError, DatasetError
from .masks import (binarize, effective_ratio, hard_multipliers, init_percentile_scaled,
                    layer_views, unit_magnitudes)
from .model import MaskableModel, _buffer, masked_backward, masked_forward
from .objectives import StepReport, _batch_slots, composite_step_loss
from .transforms import AugmentedSet, apply, augment_dataset

# rng stream namespaces under the experiment root seed. STREAM_INIT shares
# [seed, 1] with the synthetic test split (datasets.gen_synthetic), so model
# init and the test features start from one generator state; moving either
# changes every recorded output, so it waits for a change that re-records them.
STREAM_INIT = 1
STREAM_AUGMENT = 2
STREAM_STAGE1 = 3
STREAM_STAGE2_SHUFFLE = 4
STREAM_STAGE2_NOISE = 5
STREAM_STAGE3 = 6
STREAM_EVAL = 8


class MomentumSGD:
    def __init__(self, lr: float, momentum: float):
        self.lr = lr
        self.momentum = momentum
        self.velocity: dict[int, np.ndarray] = {}

    def step(self, params: list[np.ndarray], grads: list[np.ndarray], scratch=None):
        """Update params in place. The velocities are the optimizer's own
        arrays (the first step copies each gradient), so a caller may reuse
        its gradient arrays across steps. lr * v is formed in scratch[i],
        shaped like params[i], whose contents the step overwrites once the
        velocity holds the gradient: a caller may lend the gradients
        themselves (stage 1 and 3 do), and then a step allocates nothing
        after the first. Without scratch it is formed in a fresh array."""
        for i, (p, g) in enumerate(zip(params, grads)):
            v = self.velocity.get(i)
            if v is None:
                v = self.velocity[i] = g.copy()
            else:  # momentum * v + g, in place
                v *= self.momentum
                v += g
            p -= np.multiply(v, self.lr, out=None if scratch is None else scratch[i])


class Adam:
    """Per-coordinate first/second-moment update with bias correction, on
    one flat parameter vector."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.m = self.v = None  # flat moments, shaped at the first step
        self.t = 0

    def step(self, param: np.ndarray, grad: np.ndarray, scratch: np.ndarray):
        """Update param in place by its gradient grad, of the same shape.
        The update is formed in the two rows of `scratch`, a
        (2, *grad.shape) array whose contents the step overwrites (stage 2
        lends the head of its mask stack, dead between steps), by the
        operations, in the order, of lr (m / c1) / (sqrt(v / c2) + eps)
        after m += (1 - b1) g and v += ((1 - b2) g) g. Only the first step
        allocates: the moments."""
        if self.m is None:
            self.m, self.v = np.zeros((2, *grad.shape))
        m, v, (s, u) = self.m, self.v, scratch
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        m *= b1
        m += np.multiply(grad, 1 - b1, out=s)
        v *= b2
        v += np.multiply(np.multiply(grad, 1 - b2, out=s), grad, out=s)
        np.divide(m, 1 - b1 ** self.t, out=u)
        u *= self.lr
        np.sqrt(np.divide(v, 1 - b2 ** self.t, out=s), out=s)
        s += self.EPS
        param -= np.divide(u, s, out=u)


def cross_entropy(logits: np.ndarray, labels) -> tuple:
    """Batch mean negative log likelihood of 2-D logits (fused log-softmax),
    and its gradient on the logits."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise ValueError(f"cross_entropy: logits of shape {logits.shape} and labels of "
                         f"shape {labels.shape} are not one batch")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= logits.shape[1]:
        raise ValueError("cross_entropy: label out of range")
    rows = np.arange(logits.shape[0])
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    nll = -(z - np.log(total))[rows, labels]
    grad = e / total
    grad[rows, labels] -= 1.0  # minus the one-hot labels
    grad *= 1.0 / nll.size
    return nll.mean(), grad


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    accuracy: float


def _ce_epochs(model: MaskableModel, data: AugmentedSet, epochs: int, lr: float,
               momentum: float, batch_size: int, rng: np.random.Generator,
               multipliers=None) -> list[EpochStats]:
    """Mini-batch cross-entropy training of the model folded under fixed
    multipliers (hard_multipliers), if any, with each masked layer's weight
    gradient multiplied by its multiplier. Each step gathers its batch
    (AugmentedSet.gather) and folds the weights into its work dict
    (MaskableModel.folded), then runs masked_forward, cross_entropy,
    masked_backward and the weight and bias gradients in one errstate
    block. The gradients are dead once the velocities hold them, so the
    step lends them to MomentumSGD as its scratch. The per-epoch accuracy
    forwards the set in blocks of batch_size rows in the same dict
    (_accuracy). Updates model weights in place."""
    opt = MomentumSGD(lr, momentum)
    history = []
    n = len(data)
    work = {}  # the step's arrays and the accuracy's, kept across epochs
    for epoch in range(epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = data.gather(idx, _buffer(work, "x", (len(idx), data.x.shape[1])))
            try:
                with np.errstate(all="ignore"):  # finiteness is checked instead
                    ws = model.folded(multipliers, work).weights
                    hs, zs = masked_forward(xb, ws, model.biases, model.specs, work)
                    loss, g_logits = cross_entropy(hs[-1], yb)
                    if not np.isfinite(loss):
                        raise FloatingPointError("non-finite loss")
                    gz = masked_backward(zs, ws, model.specs, g_logits, work)
                    g_ws = [np.matmul(g.mT, h, out=_buffer(work, ("dw", i), w.shape))
                            for i, (g, h, w) in enumerate(zip(gz, hs, ws))]
                    g_bs = [g.sum(axis=0) for g in gz]
            except FloatingPointError as exc:
                raise FloatingPointError(f"training diverged at epoch {epoch}: {exc}") from None
            for g, m in zip(g_ws, multipliers or ()):
                if m is not None:
                    g *= m
            grads = g_ws + g_bs
            opt.step(model.weights + model.biases, grads, scratch=grads)
            loss_sum += float(loss) * len(idx)
        history.append(EpochStats(epoch, loss_sum / n, _accuracy(
            model.folded(multipliers, work), data, batch_size, work)))
    return history


def _accuracy(model: MaskableModel, data: AugmentedSet, size: int, work: dict) -> float:
    """Share of every row of data classified correctly, forwarded in blocks
    of `size` rows (AugmentedSet.blocks) in `work`, the transformed rows
    formed under its "x". It is datasets.accuracy's share: the argmax hits
    over the row count."""
    hits = 0
    for xb, yb in data.blocks(size, _buffer(work, "x", (size, data.x.shape[1]))):
        hits += int(np.count_nonzero(np.argmax(model.forward(xb, work), axis=1) == yb))
    return hits / len(data)


def stage1_pretrain(model: MaskableModel, train: AugmentedSet,
                    cfg: ExperimentConfig) -> list[EpochStats]:
    rng = np.random.default_rng([cfg.seed, STREAM_STAGE1])
    return _ce_epochs(model, train, cfg.stage1_epochs, cfg.stage1_lr,
                      cfg.momentum, cfg.batch_size, rng)


def stage2_mask_search(model: MaskableModel, train: AugmentedSet, cfg: ExperimentConfig):
    """Search the soft mask over the paired batches; weights stay frozen.

    Pair j is clean row train.x[train.rows[j]] and its transform. Each batch
    gathers its clean rows straight into the clean slot of the step's
    stacked input (objectives._batch_slots) and transforms that slot into
    the transformed one, and each step's result is dropped before the next
    step, so one mask-sized gradient is live at a time. Returns (soft_mask,
    step reports). The mask is clamped back into [0, 1] after every update.
    Each step's noise draws come from a stream derived from (seed, noise
    namespace, step), so any step is reproducible in isolation.
    """
    rows = train.rows
    if len(rows) == 0:
        raise ConfigError(f"mask search needs a non-empty paired set, but augment_level = "
                          f"{cfg.augment_level} pairs none of the {len(train.x)} training "
                          f"samples (L1 pairs a quarter of them, L2 all)")
    if sum(model.mask_dims()) == 0:
        raise ConfigError("model has no prunable units under this mask mode")
    c = np.concatenate(init_percentile_scaled(model, cfg.init_percentile))
    opt = Adam(cfg.stage2_lr)
    shuffle_rng = np.random.default_rng([cfg.seed, STREAM_STAGE2_SHUFFLE])
    reports: list[StepReport] = []
    work: dict = {}  # the step's arrays, kept across steps
    step = 0
    for _ in range(cfg.stage2_epochs):
        order = shuffle_rng.permutation(len(rows))
        for start in range(0, len(rows), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            noise_rng = np.random.default_rng([cfg.seed, STREAM_STAGE2_NOISE, step])
            # gathered straight into the step's stacked input (mode="clip":
            # the rows are in range)
            x, x_t = _batch_slots(work, (len(idx), train.x.shape[1]))
            np.take(train.x, rows[idx], axis=0, out=x, mode="clip")
            apply(train.spec, x, train.delta, out=x_t)
            result = composite_step_loss(model, c, x, x_t, cfg, noise_rng, step=step, work=work)
            # the mask stack is dead until the next step: Adam's scratch
            opt.step(c, result.grad, _buffer(work, "mask", (2, c.size)))
            np.clip(c, 0.0, 1.0, out=c)
            reports.append(result.report)
            del result  # its gradient dies before the next step forms one
            step += 1
    return layer_views(c, model.mask_dims()), reports


def stage3_finetune(model: MaskableModel, hard: list, train: AugmentedSet,
                    cfg: ExperimentConfig) -> list[EpochStats]:
    """Fine-tune weights under the fixed binary mask (in place)."""
    multipliers = hard_multipliers(model, hard)
    rng = np.random.default_rng([cfg.seed, STREAM_STAGE3])
    return _ce_epochs(model, train, cfg.stage3_epochs, cfg.stage3_lr,
                      cfg.momentum, cfg.batch_size, rng, multipliers=multipliers)


def lmp_mask(model: MaskableModel, pr: float) -> list:
    """Least-magnitude pruning: per-layer top-(1-pr) units by weight
    magnitude, with the same keep counts and tie rules as binarize."""
    return binarize(unit_magnitudes(model), pr)


@dataclass
class MethodResult:
    method: str
    model: MaskableModel
    hard: list | None
    soft: list | None
    cert: PcaResult | None  # set once every method is trained (pca_models)
    stage_logs: dict
    clean_accuracy: float
    ratio: float
    # seconds of this method's training and clean accuracy; the shared
    # certification of all methods is ExperimentOutput.certify_wall_time
    wall_time: float


@dataclass
class ExperimentOutput:
    results: dict[str, MethodResult]  # by method, in the config's order
    pretrained: MaskableModel
    stage1_log: list[EpochStats]
    eval_indices: np.ndarray
    certify_wall_time: float  # seconds of the one certification pass


def build_data(cfg: ExperimentConfig):
    """(train, test, spec), all derived deterministically from the config:
    the augmented training set (transforms.augment_dataset), whose rows are
    also the stage-2 pairs, the test set and the transformation space."""
    if cfg.dataset_kind == "synthetic":
        train, test, direction = gen_synthetic(cfg)
        spec = transform_spec(cfg, direction)
    else:
        train = load_idx(cfg.idx_train_images, cfg.idx_train_labels, cfg.idx_classes)
        test = load_idx(cfg.idx_test_images, cfg.idx_test_labels, cfg.idx_classes)
        for data, path in ((train, cfg.idx_train_images), (test, cfg.idx_test_images)):
            if len(data) == 0:
                raise DatasetError(f"{path} holds no images")
        if train.x.shape[1] != test.x.shape[1]:
            raise DatasetError(f"{cfg.idx_train_images} has {train.x.shape[1]} pixels per "
                               f"image but {cfg.idx_test_images} has {test.x.shape[1]}")
        spec = transform_spec(cfg)
    rng = np.random.default_rng([cfg.seed, STREAM_AUGMENT])
    count = augment_count(cfg, len(train))
    return augment_dataset(train.x, train.y, spec, count, 1.0, rng), test, spec


def class_count(cfg: ExperimentConfig) -> int:
    return cfg.synthetic_classes if cfg.dataset_kind == "synthetic" else cfg.idx_classes


def fresh_model(cfg: ExperimentConfig, in_dim: int) -> MaskableModel:
    specs = model_layer_specs(cfg, in_dim, class_count(cfg))
    rng = np.random.default_rng([cfg.seed, STREAM_INIT])
    return MaskableModel.initialized(specs, cfg.mask_mode, rng)


def eval_subset(cfg: ExperimentConfig, test: Dataset) -> np.ndarray:
    m = cfg.cert_eval_size
    if m > len(test):
        raise ConfigError(
            f"cert_eval_size {m} exceeds the test set size {len(test)}")
    rng = np.random.default_rng([cfg.seed, STREAM_EVAL])
    return np.sort(rng.choice(len(test), size=m, replace=False))


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutput:
    """Train every configured method from one shared pre-trained model, then
    certify them all in one pass on one shared evaluation subset; results
    keeps the config's order. Nothing writes the shared model: vanilla
    deploys it as it is, lmp and csam fine-tune copies of it, and csam's
    mask is searched first, on it, so no other method's model, fold or mask
    is live at the search's memory peak; csam's wall_time still counts the
    search. Each large array dies with its last reader: a method's clean
    accuracy runs on a fold of its own, the augmented training set goes
    once the last method is trained, and only then are the deployed models
    folded and the evaluation inputs gathered for certification."""
    train, test, spec = build_data(cfg)

    base = fresh_model(cfg, train.x.shape[1])
    stage1_log = stage1_pretrain(base, train, cfg)
    idx = eval_subset(cfg, test)  # checked here, gathered at certification

    if "csam" in cfg.methods:
        t0 = time.perf_counter()
        search = (*stage2_mask_search(base, train, cfg), time.perf_counter() - t0)

    results = {}
    for method in cfg.methods:
        t0 = time.perf_counter()
        logs = {}
        soft = None
        model = base if method == "vanilla" else base.copy()
        if method == "vanilla":
            hard = None
        elif method == "lmp":
            hard = lmp_mask(model, cfg.pruning_ratio)
            logs["stage3"] = stage3_finetune(model, hard, train, cfg)
        elif method == "csam":
            soft, logs["stage2"], search_s = search
            t0 -= search_s  # the search counts toward csam's wall time
            hard = binarize(soft, cfg.pruning_ratio)
            logs["stage3"] = stage3_finetune(model, hard, train, cfg)
        else:
            raise ConfigError(f"unknown method {method!r}")

        results[method] = MethodResult(
            method=method, model=model, hard=hard, soft=soft, cert=None, stage_logs=logs,
            clean_accuracy=accuracy(model.folded(hard_multipliers(model, hard)), test),
            ratio=effective_ratio(hard, model), wall_time=time.perf_counter() - t0)
    del train

    t0 = time.perf_counter()
    deployed = [r.model.folded(hard_multipliers(r.model, r.hard)) for r in results.values()]
    certs = pca_models(deployed, test.x[idx], test.y[idx], spec, cfg)
    for r, cert in zip(results.values(), certs):
        r.cert = cert
    return ExperimentOutput(results=results, pretrained=base, stage1_log=stage1_log,
                            eval_indices=idx, certify_wall_time=time.perf_counter() - t0)
