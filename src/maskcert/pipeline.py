"""End-to-end training pipeline and baselines.

Stage 1 pre-trains the dense model with cross-entropy on the augmented set.
Stage 2 freezes the weights and searches a soft pruning mask with the
composite objective, clamping the mask into [0, 1] after every update.
Stage 3 binarizes the mask and fine-tunes the model with the fixed hard mask
folded into its weights; pruned weights receive exactly zero update because
their gradient is multiplied by the mask.

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
from .objectives import StepReport, composite_step_loss
from .transforms import augment_dataset

# rng stream namespaces under the experiment root seed
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

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        """Update params in place. The velocities are the optimizer's own
        arrays (the first step copies each gradient), so a caller may reuse
        its gradient arrays across steps."""
        for i, (p, g) in enumerate(zip(params, grads)):
            v = self.velocity.get(i)
            if v is None:
                v = self.velocity[i] = g.copy()
            else:  # momentum * v + g, in place
                v *= self.momentum
                v += g
            p -= self.lr * v


class Adam:
    """Per-coordinate first/second-moment update with bias correction, on
    one flat parameter vector."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.m = self.v = None  # flat moments, shaped at the first step
        self.t = 0

    def step(self, param: np.ndarray, grad: np.ndarray):
        """Update param in place by its gradient grad, of the same shape.
        The update is formed in two scratch vectors made with the moments,
        by the operations, in the order, of lr (m / c1) / (sqrt(v / c2) +
        eps) after m += (1 - b1) g and v += ((1 - b2) g) g."""
        if self.m is None:
            self.m, self.v, self._s, self._u = np.zeros((4, *grad.shape))
        m, v, s, u = self.m, self.v, self._s, self._u
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


def _ce_epochs(model: MaskableModel, data: Dataset, epochs: int, lr: float,
               momentum: float, batch_size: int, rng: np.random.Generator,
               multipliers=None) -> list[EpochStats]:
    """Mini-batch cross-entropy training of the model folded under fixed
    multipliers (hard_multipliers), if any, with each masked layer's weight
    gradient multiplied by its multiplier. Each step is masked_forward,
    cross_entropy and masked_backward (weights and biases) in one errstate
    block. Updates model weights in place."""
    opt = MomentumSGD(lr, momentum)
    history = []
    n = len(data)
    # the step's arrays and the accuracy forward's, each kept across epochs
    work, eval_work = {}, {}
    for epoch in range(epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            # mode="clip" gathers straight into `out` (idx is in range)
            xb = np.take(data.x, idx, axis=0, out=_buffer(work, "x", (len(idx), data.x.shape[1])),
                         mode="clip")
            yb = data.y[idx]
            try:
                with np.errstate(all="ignore"):  # finiteness is checked instead
                    ws = model.folded(multipliers).weights
                    hs, zs = masked_forward(xb, ws, model.biases, model.specs, work)
                    loss, g_logits = cross_entropy(hs[-1], yb)
                    if not np.isfinite(loss):
                        raise FloatingPointError("non-finite loss")
                    g_ws, g_bs = masked_backward(hs, zs, ws, model.specs, g_logits, work,
                                                 biases=True)
            except FloatingPointError as exc:
                raise FloatingPointError(f"training diverged at epoch {epoch}: {exc}") from None
            for g, m in zip(g_ws, multipliers or ()):
                if m is not None:
                    g *= m
            opt.step(model.weights + model.biases, g_ws + g_bs)
            loss_sum += float(loss) * len(idx)
        history.append(EpochStats(epoch, loss_sum / n,
                                  accuracy(model.folded(multipliers), data, eval_work)))
    return history


def stage1_pretrain(model: MaskableModel, train_aug: Dataset,
                    cfg: ExperimentConfig) -> list[EpochStats]:
    rng = np.random.default_rng([cfg.seed, STREAM_STAGE1])
    return _ce_epochs(model, train_aug, cfg.stage1_epochs, cfg.stage1_lr,
                      cfg.momentum, cfg.batch_size, rng)


def stage2_mask_search(model: MaskableModel, x_aug: np.ndarray, rows: np.ndarray,
                       cfg: ExperimentConfig):
    """Search the soft mask over the paired batches; weights stay frozen.

    The pairs are row indices into the augmented inputs x_aug, as
    augment_dataset lays them out: pair j is clean row x_aug[rows[j]] and
    transformed row x_aug[len(x_aug) - len(rows) + j]. Each batch gathers
    its rows from x_aug. Returns (soft_mask, step reports). The mask is
    clamped back into [0, 1] after every update. Each step's noise draws come
    from a stream derived from (seed, noise namespace, step), so any step is
    reproducible in isolation.
    """
    rows = np.asarray(rows, dtype=np.int64)
    first = len(x_aug) - len(rows)  # the first transformed row
    if len(rows) == 0:
        raise ConfigError("mask search needs a non-empty paired set; "
                          "augment the dataset first")
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
            result = composite_step_loss(model, c, x_aug[rows[idx]], x_aug[first + idx], cfg,
                                         noise_rng, step=step, work=work)
            opt.step(c, result.grad)
            np.clip(c, 0.0, 1.0, out=c)
            reports.append(result.report)
            step += 1
    return layer_views(c, model.mask_dims()), reports


def stage3_finetune(model: MaskableModel, hard: list, train_aug: Dataset,
                    cfg: ExperimentConfig) -> list[EpochStats]:
    """Fine-tune weights under the fixed binary mask (in place)."""
    multipliers = hard_multipliers(model, hard)
    rng = np.random.default_rng([cfg.seed, STREAM_STAGE3])
    return _ce_epochs(model, train_aug, cfg.stage3_epochs, cfg.stage3_lr,
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
    """(train, test, spec, train_aug, rows), all derived deterministically
    from the config: the datasets, the transformation space, the augmented
    training set and the stage-2 pairs as row indices into it (see
    augment_dataset and stage2_mask_search).

    The training inputs are held once: train is a view of the head of
    train_aug, whose tail holds the transformed rows."""
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
    x_aug, y_aug, rows = augment_dataset(train.x, train.y, spec, count, 1.0, rng)
    n = len(train)
    return Dataset(x_aug[:n], y_aug[:n]), test, spec, Dataset(x_aug, y_aug), rows


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
    """Train every configured method from one shared pre-trained model, in
    config order, then certify them all in one pass on one shared evaluation
    subset."""
    train, test, spec, train_aug, rows = build_data(cfg)

    base = fresh_model(cfg, train.x.shape[1])
    stage1_log = stage1_pretrain(base, train_aug, cfg)

    idx = eval_subset(cfg, test)
    x_eval, y_eval = test.x[idx], test.y[idx]

    results, deployed = {}, []
    for method in cfg.methods:
        t0 = time.perf_counter()
        logs = {}
        soft = None
        model = base.copy()
        if method == "vanilla":
            hard = None
        elif method == "lmp":
            hard = lmp_mask(model, cfg.pruning_ratio)
            logs["stage3"] = stage3_finetune(model, hard, train_aug, cfg)
        elif method == "csam":
            soft, logs["stage2"] = stage2_mask_search(model, train_aug.x, rows, cfg)
            hard = binarize(soft, cfg.pruning_ratio)
            logs["stage3"] = stage3_finetune(model, hard, train_aug, cfg)
        else:
            raise ConfigError(f"unknown method {method!r}")

        deployed.append(model.folded(hard_multipliers(model, hard)))
        results[method] = MethodResult(
            method=method, model=model, hard=hard, soft=soft, cert=None, stage_logs=logs,
            clean_accuracy=accuracy(deployed[-1], test), ratio=effective_ratio(hard, model),
            wall_time=time.perf_counter() - t0)

    t0 = time.perf_counter()
    for r, cert in zip(results.values(), pca_models(deployed, x_eval, y_eval, spec, cfg)):
        r.cert = cert
    return ExperimentOutput(results=results, pretrained=base, stage1_log=stage1_log,
                            eval_indices=idx, certify_wall_time=time.perf_counter() - t0)
