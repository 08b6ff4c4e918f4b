"""End-to-end training pipeline and baselines.

Stage 1 pre-trains the dense model with cross-entropy on the augmented set.
Stage 2 freezes the weights and searches a soft pruning mask with the
composite objective, clamping the mask into [0, 1] after every update.
Stage 3 binarizes the mask and fine-tunes the model with the fixed hard mask
folded into its weights; pruned weights receive exactly zero update because
their gradient is multiplied by the mask. It trains every masked method's
model as one stack that shares each batch (_ce_epochs), each model with the
bits of its training alone. Every stage reads the augmented
set as a transforms.Dataset holds it, clean rows plus picked row indices:
a transformed row is formed when a batch gathers it, and the stage-2 pairs
are the picks.

Baselines share everything they can with the main method: identical
pre-trained weights, augmented data, schedules, and certification streams
within one experiment, so comparisons isolate the mask choice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .certify import PcaResult, pca_models
from .config import (STREAM_AUGMENT, STREAM_EVAL, STREAM_INIT, STREAM_STAGE1,
                     STREAM_STAGE2_NOISE, STREAM_STAGE2_SHUFFLE, STREAM_STAGE3,
                     ExperimentConfig, augment_count, transform_spec)
from .datasets import Dataset, accuracy, gen_synthetic, load_idx
from .errors import ConfigError, DatasetError
from .masks import (binarize, effective_ratio, hard_multipliers, init_percentile_scaled,
                    layer_views, unit_magnitudes)
from .model import (MaskableModel, _buffer, _row_max, _row_sum, forward_probs, masked_backward,
                    masked_forward, mlp_specs)
from .objectives import StepReport, _batch_slots, composite_step_loss
from .transforms import augment_dataset


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
    """Batch mean negative log likelihood of logits (fused log-softmax), and
    its gradient on the logits. Stacked logits (..., batch, classes) give
    every copy's loss, each the mean of its own 1-D row, so it has the bits
    of a call on that copy alone; 2-D logits give a 0-d loss."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim < 2 or labels.shape != logits.shape[-2:-1]:
        raise ValueError(f"cross_entropy: logits of shape {logits.shape} and labels of "
                         f"shape {labels.shape} are not one batch")
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= logits.shape[-1]:
        raise ValueError("cross_entropy: label out of range")
    rows = np.arange(len(labels))
    z = logits - _row_max(logits)[..., None]
    e = np.exp(z)
    total = _row_sum(e)[..., None]
    nll = -(z - np.log(total))[..., rows, labels]
    grad = e / total
    grad[..., rows, labels] -= 1.0  # minus the one-hot labels
    grad *= 1.0 / len(labels)
    losses = [r.mean() for r in nll.reshape(-1, len(labels))]
    return np.array(losses).reshape(logits.shape[:-2]), grad


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    accuracy: float


def _ce_epochs(models: list[MaskableModel], data: Dataset, epochs: int, lr: float,
               momentum: float, batch_size: int, rng: np.random.Generator,
               multipliers=None) -> list[list[EpochStats]]:
    """Mini-batch cross-entropy training of k models of one architecture as
    one stack that shares each batch, model j folded under its fixed
    multipliers[j] (hard_multipliers), if any, and each masked layer's
    weight gradient multiplied by its own. Each layer's weights become one
    (k, out, in) stack and its biases one (k, 1, out) stack, of which each
    model keeps views, not a copy; stacked matmul runs one GEMM per model,
    so each model gets the bits of its training alone. Each step gathers
    its batch (Dataset.gather), folds the weights (_fold) and runs
    masked_forward, one stacked cross_entropy and masked_backward in one
    errstate block, all in one work dict; it lends its gradients to
    MomentumSGD as scratch. The per-epoch accuracy gathers the rows in order
    into the same array, batch_size at a time, for one stacked forward_probs
    each. Returns, per epoch, every model's EpochStats."""
    specs, k = models[0].specs, len(models)
    ws = [np.stack([m.weights[i] for m in models]) for i in range(len(specs))]
    bs = [np.stack([m.biases[i][None] for m in models]) for i in range(len(specs))]
    for j, m in enumerate(models):
        for i, (w, b) in enumerate(zip(ws, bs)):
            m.weights[i], m.biases[i] = w[j], b[j, 0]
    opt = MomentumSGD(lr, momentum)
    history = []
    n = len(data)
    work = {}  # the step's arrays and the accuracy's, kept across epochs
    for epoch in range(epochs):
        order = rng.permutation(n)
        loss_sums = np.zeros(k)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = data.gather(idx, _buffer(work, "x", (len(idx), data.x.shape[1])))
            try:
                with np.errstate(all="ignore"):  # finiteness is checked instead
                    folded = _fold(ws, multipliers, work)
                    hs, zs = masked_forward(xb, folded, bs, specs, work)
                    losses, g_logits = cross_entropy(hs[-1], yb)
                    if not np.isfinite(losses).all():
                        raise FloatingPointError("non-finite loss")
                    loss_sums += losses * len(idx)
                    gz = masked_backward(zs, folded, specs, g_logits, work)
                    # a masked layer's fold is dead once the backward returns,
                    # so its weight gradient is formed there
                    g_ws = [np.matmul(g.mT, h, out=f if f is not w else
                                      _buffer(work, ("dw", i), w.shape))
                            for i, (g, h, w, f) in enumerate(zip(gz, hs, ws, folded))]
                    g_bs = [g.sum(axis=-2, keepdims=True) for g in gz]
            except FloatingPointError as exc:
                raise FloatingPointError(f"training diverged at epoch {epoch}: {exc}") from None
            for g_model, mult in zip(zip(*g_ws), multipliers or ()):  # each model's slice
                for g, m in zip(g_model, mult):
                    if m is not None:
                        g *= m
            grads = g_ws + g_bs
            opt.step(ws + bs, grads, scratch=grads)
        folded = _fold(ws, multipliers, work)
        hits = np.zeros(k, dtype=np.int64)
        for start in range(0, n, batch_size):
            idx = np.arange(start, min(start + batch_size, n))
            xb, yb = data.gather(idx, _buffer(work, "x", (len(idx), data.x.shape[1])))
            probs = forward_probs(xb, folded, bs, specs, work)
            hits += np.count_nonzero(np.argmax(probs, axis=-1) == yb, axis=-1)
        history.append([EpochStats(epoch, float(loss_sum) / n, int(hit) / n)
                        for loss_sum, hit in zip(loss_sums, hits)])
    return history


def _fold(weights: list, multipliers, work: dict) -> list:
    """The weight stacks with model j's multipliers[j] folded into slice j:
    under ("fold", i) of `work` for a masked layer i, the stack itself for
    an unmasked one. One architecture and one mask mode give every model
    the same masked layers, so the first model's multipliers say which."""
    if multipliers is None:
        return weights
    folded = list(weights)
    for i, w in enumerate(weights):
        if multipliers[0][i] is not None:
            folded[i] = _buffer(work, ("fold", i), w.shape)
            for fold, w_j, mult in zip(folded[i], w, multipliers):
                np.multiply(mult[i], w_j, out=fold)
    return folded


def stage1_pretrain(model: MaskableModel, train: Dataset,
                    cfg: ExperimentConfig) -> list[EpochStats]:
    rng = np.random.default_rng([cfg.seed, STREAM_STAGE1])
    return [stats for (stats,) in _ce_epochs([model], train, cfg.stage1_epochs,
                                             cfg.stage1_lr, cfg.momentum, cfg.batch_size, rng)]


def stage2_mask_search(model: MaskableModel, train: Dataset, cfg: ExperimentConfig):
    """Search the soft mask over the paired batches; weights stay frozen.

    Pair j is clean row train.rows[j] of the set and transformed row
    len(train.x) + j. Each batch gathers both halves (Dataset.gather)
    straight into the clean and transformed slots of the step's stacked
    input (objectives._batch_slots), and each step's result is dropped
    before the next step, so one mask-sized gradient is live at a time.
    Returns (soft_mask, step reports). The mask is clamped back into [0, 1]
    after every update. Each step's noise draws come from a stream derived
    from (seed, noise namespace, step), so any step is reproducible in
    isolation.
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
            x, x_t = _batch_slots(work, (len(idx), train.x.shape[1]))
            train.gather(rows[idx], out=x)
            train.gather(len(train.x) + idx, out=x_t)
            result = composite_step_loss(model, c, x, x_t, cfg, noise_rng, step=step, work=work)
            # the mask stack is dead until the next step: Adam's scratch
            opt.step(c, result.grad, _buffer(work, "mask", (2, c.size)))
            np.clip(c, 0.0, 1.0, out=c)
            reports.append(result.report)
            del result  # its gradient dies before the next step forms one
            step += 1
    return layer_views(c, model.mask_dims()), reports


def stage3_finetune(models: list[MaskableModel], hards: list, train: Dataset,
                    cfg: ExperimentConfig) -> list[list[EpochStats]]:
    """Fine-tune each model's weights in place under its fixed binary mask,
    all as one stack (_ce_epochs). Returns, per epoch, every model's
    EpochStats in the order of models; no epochs for no models."""
    if not models:
        return []
    rng = np.random.default_rng([cfg.seed, STREAM_STAGE3])
    return _ce_epochs(models, train, cfg.stage3_epochs, cfg.stage3_lr, cfg.momentum,
                      cfg.batch_size, rng,
                      [hard_multipliers(m, hard) for m, hard in zip(models, hards)])


def lmp_mask(model: MaskableModel, pr: float) -> list:
    """Least-magnitude pruning: per-layer top-(1-pr) units by weight
    magnitude, with the same keep counts and tie rules as binarize."""
    return binarize(unit_magnitudes(model), pr)


# each method's hard mask from the pre-trained model and csam's soft mask at
# pruning ratio pr: none for vanilla, which deploys the pre-trained model
HARD_MASKS = {"vanilla": lambda base, soft, pr: None,
              "lmp": lambda base, soft, pr: lmp_mask(base, pr),
              "csam": lambda base, soft, pr: binarize(soft, pr)}


@dataclass
class MethodResult:
    method: str
    model: MaskableModel
    hard: list | None
    cert: PcaResult  # from pca_models, on the fold that gave clean_accuracy
    stage3_log: list[EpochStats] | None  # None for an unmasked method
    clean_accuracy: float
    ratio: float


@dataclass
class ExperimentOutput:
    results: dict[str, MethodResult]  # by method, in the config's order
    pretrained: MaskableModel
    stage1_log: list[EpochStats]
    soft: list | None  # csam's searched soft mask, None without csam
    stage2_log: list[StepReport] | None
    eval_indices: np.ndarray
    wall_times: dict[str, float]  # seconds of stage1, stage2, stage3, certify


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
    return augment_dataset(train.x, train.y, spec, count, rng), test, spec


def layer_specs(cfg: ExperimentConfig, in_dim: int) -> list:
    """The layer specs of the MLP that cfg describes on in_dim features."""
    classes = cfg.synthetic_classes if cfg.dataset_kind == "synthetic" else cfg.idx_classes
    return mlp_specs(in_dim, list(cfg.hidden_dims), classes)


def fresh_model(cfg: ExperimentConfig, in_dim: int) -> MaskableModel:
    rng = np.random.default_rng([cfg.seed, STREAM_INIT])
    return MaskableModel.initialized(layer_specs(cfg, in_dim), cfg.mask_mode, rng)


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
    keeps the config's order. csam's mask is searched first, on the shared
    model, so no other method's model or mask is live at the search's peak.
    Nothing writes that model: vanilla deploys it, and each masked method
    fine-tunes a copy under its mask (HARD_MASKS), all in one stage-3
    stack. Each method is folded once (MaskableModel.folded), and that fold
    gives both its clean accuracy and its certification; the training set
    dies once stage 3 is done. wall_times holds each stage's seconds, stage
    1's with the data build and stage 3's with the clean accuracies."""
    marks = [time.perf_counter()]
    train, test, spec = build_data(cfg)
    base = fresh_model(cfg, train.x.shape[1])
    stage1_log = stage1_pretrain(base, train, cfg)
    idx = eval_subset(cfg, test)  # checked here, gathered at certification
    marks.append(time.perf_counter())

    soft, stage2_log = (stage2_mask_search(base, train, cfg) if "csam" in cfg.methods
                        else (None, None))
    marks.append(time.perf_counter())

    hards = {m: HARD_MASKS[m](base, soft, cfg.pruning_ratio) for m in cfg.methods}
    masked = [m for m in cfg.methods if hards[m] is not None]
    models = {m: base if hards[m] is None else base.copy() for m in cfg.methods}
    stage3 = stage3_finetune([models[m] for m in masked], [hards[m] for m in masked],
                             train, cfg)
    del train
    stage3_logs = {m: [epoch[j] for epoch in stage3] for j, m in enumerate(masked)}
    deployed = [models[m].folded(hard_multipliers(models[m], hards[m])) for m in cfg.methods]
    accs = [accuracy(d, test) for d in deployed]
    marks.append(time.perf_counter())

    certs = pca_models(deployed, *test.gather(idx), spec, cfg)
    marks.append(time.perf_counter())
    results = {m: MethodResult(
        method=m, model=models[m], hard=hards[m], cert=cert, stage3_log=stage3_logs.get(m),
        clean_accuracy=acc, ratio=effective_ratio(hards[m], models[m]))
        for m, acc, cert in zip(cfg.methods, accs, certs)}
    return ExperimentOutput(
        results=results, pretrained=base, stage1_log=stage1_log, soft=soft,
        stage2_log=stage2_log, eval_indices=idx,
        wall_times={stage: b - a for stage, a, b in
                    zip(("stage1", "stage2", "stage3", "certify"), marks, marks[1:])})
