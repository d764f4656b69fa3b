"""Mini-batch cross-entropy training.

Training is deterministic given the config seed: shuffling, dropout and
initialization all derive from it, and batches are visited in shuffled
order. Each mini-batch runs as one batched forward and one batched
backward pass, whose gradients are the mean over the batch rows.
Gradients are global-norm clipped (exploding recurrent gradients are the
known failure mode). The returned model is the best-validation
checkpoint, scored by top-3 accuracy after each epoch.

A run allocates its step bookkeeping once: one flat gradient that every
backward fills, its named block views, and one buffer of its squares,
which the clipping norm reads. So that this reuse does not fault the
heap back in every batch, ``train`` first fixes glibc's heap thresholds
(``_fix_heap_thresholds``). The gradient checks live in ``gradcheck``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import PreparedDataset
from .metrics import check_inputs, predict_all, topk_accuracy, true_class_ranks
from .model import FusionModel, backward, clone, forward
from .numcore import Rng

LOSS_FLOOR = 1e-12  # smallest probability the cross-entropy takes the log of

# mallopt parameters (glibc's malloc.h), and the mmap threshold training
# fixes: glibc's 64-bit maximum, above the largest block a step of the
# default CLI config allocates (the encoder's 13 MiB gate buffer at
# T=100, B=32, H=64). The trim threshold is twice it, the relation
# glibc's dynamic thresholds keep.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024


class TrainingAbort(RuntimeError):
    """Non-finite loss or gradient norm; message names the batch, and the first
    non-finite gradient block if there is one."""


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    dropout_rate: float = 0.0
    early_stop_patience: int = 5
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        # learning_rate 0 is allowed (a no-op run the CLI warns about).
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(
                f"learning_rate must be a finite number >= 0, got {self.learning_rate}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        # A negative norm would flip every clipped gradient, 0 would zero
        # every update, and NaN would never clip.
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be a number > 0, got {self.clip_norm}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_top3: float
    wall_time_s: float


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1

    def deterministic_fields(self):
        """Everything except wall time, for same-seed identity checks."""
        return (
            [(e.epoch, e.train_loss, e.val_top3) for e in self.epochs],
            self.best_epoch,
        )


def batch_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of (B, C) probs, and its logit gradient.

    The gradient w.r.t. the logits is the mean of the rows'
    ``probs - onehot(label)``.
    """
    labels = np.asarray(labels)
    n, classes = probs.shape
    if labels.shape != (n,) or np.any((labels < 0) | (labels >= classes)):
        raise ValueError(f"labels {labels} out of range for {classes} classes")
    rows = np.arange(n)
    loss = float(np.sum(-np.log(np.maximum(probs[rows, labels], LOSS_FLOOR)))) / n
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits *= 1.0 / n  # not /= n, whose last bit differs from the pinned checkpoints'
    return loss, dlogits


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, theta: np.ndarray, grad: np.ndarray):
        theta -= self.lr * grad


class _Adam:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float, size: int):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = np.empty((2, size))  # each step's temporaries
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray):
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        update, denom = self._scratch
        self.m *= self.BETA1
        self.m += np.multiply(grad, 1.0 - self.BETA1, out=update)
        self.v *= self.BETA2
        np.multiply(grad, 1.0 - self.BETA2, out=update)
        self.v += np.multiply(update, grad, out=update)
        np.divide(self.m, bc1, out=update)  # lr * (m / bc1) / (sqrt(v / bc2) + eps)
        update *= self.lr
        np.divide(self.v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.EPS
        update /= denom
        theta -= update


def _make_optimizer(cfg: TrainConfig, size: int):
    if cfg.optimizer == "sgd":
        return _Sgd(cfg.learning_rate)
    return _Adam(cfg.learning_rate, size)


def clip_grads_(grads: dict[str, np.ndarray], max_norm: float,
                squares: dict[str, np.ndarray]) -> float:
    """Scale ``grads`` in place to a global norm of at most ``max_norm``; return
    the norm before clipping, summed block by block in the dict's order.

    ``squares`` holds each block's ``g * g``, as views named and ordered
    like ``grads`` of one buffer filled by one ``np.multiply``. Each
    block's sum is ``np.sum``'s pairwise one of its squares, without its
    wrapper: a C-contiguous block is summed in place, and a non-contiguous
    one (an LSTM gate-column view) through a contiguous copy, so that each
    sum keeps its bits. A non-finite norm leaves ``grads`` as they are.
    """
    terms = (s if s.flags.c_contiguous else s.copy() for s in squares.values())
    norm = math.sqrt(sum(float(np.add.reduce(t, axis=None)) for t in terms))
    if max_norm < norm < math.inf:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def _validation_topk_accuracy(model: FusionModel, data: PreparedDataset, k: int) -> float:
    return topk_accuracy(true_class_ranks(predict_all(model, data), data.labels), k)


def _batch_gradients(model: FusionModel, data: PreparedDataset, rows: np.ndarray,
                     dropout_rate: float, drop_rng: Rng, out: np.ndarray):
    """Mean loss and flat gradient of one mini-batch: one forward, one backward
    that fills ``out``, which is returned.

    The forward cache dies when this returns, so the next batch's
    forward never holds two of them at once.
    """
    num, cat, seq = data.inputs(model, rows)
    probs, cache = forward(model, num, cat, seq, dropout_rate=dropout_rate, drop_rng=drop_rng)
    loss, dlogits = batch_loss(probs, data.labels[rows])
    return loss, backward(model, cache, dlogits, out=out)


@functools.cache
def _fix_heap_thresholds() -> None:
    """Fix this process's glibc mmap and trim thresholds, once; a no-op where
    the C library has no ``mallopt``.

    Left dynamic, glibc trims the heap top whenever the blocks above it
    are freed, and a step that reuses its buffers frees its temporaries
    at the top each batch, to fault them in again on the next. Only
    training sets them: a process that imports the package keeps glibc's
    defaults until it trains.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)


# A non-finite loss or gradient norm aborts by name, and validation refuses
# non-finite probabilities, so numpy need not warn of them first.
@np.errstate(over="ignore", invalid="ignore")
def train(model: FusionModel, train_set: PreparedDataset, val_set: PreparedDataset,
          cfg: TrainConfig) -> tuple[FusionModel, TrainReport]:
    """Train a working copy of ``model``; return (best checkpoint, report)."""
    for data, split in ((train_set, "train"), (val_set, "validation")):
        if len(data) == 0:
            raise ValueError(f"{split} split is empty")
        check_inputs(model, data, split)

    _fix_heap_thresholds()
    work = clone(model)
    optimizer = _make_optimizer(cfg, work.theta.size)
    grad = np.empty_like(work.theta)
    squares = np.empty_like(grad)
    grad_blocks, square_blocks = work.grad_blocks(grad), work.grad_blocks(squares)
    shuffle_rng = Rng(cfg.seed).child(0)
    drop_rng = Rng(cfg.seed).child(1)
    val_k = min(3, work.config.num_classes)

    report = TrainReport()
    best_theta = work.theta.copy()
    best_acc = -1.0
    best_loss = math.inf
    since_best = 0
    n = len(train_set)

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for batch_idx, start in enumerate(range(0, n, cfg.batch_size)):
            rows = order[start : start + cfg.batch_size]
            loss = _batch_gradients(work, train_set, rows, cfg.dropout_rate, drop_rng, grad)[0]
            if not math.isfinite(loss):
                raise TrainingAbort(f"non-finite loss in epoch {epoch} batch {batch_idx}")
            loss_sum += loss * len(rows)
            np.multiply(grad, grad, out=squares)
            if not math.isfinite(clip_grads_(grad_blocks, cfg.clip_norm, squares=square_blocks)):
                what = next((f"non-finite gradient in block {name}"
                             for name, g in work.param_blocks(grad) if not np.all(np.isfinite(g))),
                            "gradient norm overflows")
                raise TrainingAbort(f"{what} (epoch {epoch} batch {batch_idx})")
            optimizer.step(work.theta, grad)

        val_acc = _validation_topk_accuracy(work, val_set, val_k)
        epoch_loss = loss_sum / n
        report.epochs.append(EpochStats(
            epoch=epoch,
            train_loss=epoch_loss,
            val_top3=val_acc,
            wall_time_s=time.perf_counter() - started,
        ))
        # The kept checkpoint maximizes validation accuracy; exact ties go
        # to the epoch with the lower train loss (saturated validation
        # would otherwise pin the checkpoint at epoch 0). Patience counts
        # consecutive epochs without a strict validation improvement.
        improved_val = val_acc > best_acc
        if improved_val or (val_acc == best_acc and epoch_loss < best_loss):
            best_acc = val_acc
            best_loss = epoch_loss
            best_theta[...] = work.theta
            report.best_epoch = epoch
        if improved_val:
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.early_stop_patience:
                break

    return FusionModel(work.config, work.variant, best_theta), report


def write_report(report: TrainReport, path) -> None:
    """Plain tabular text, one epoch per line, written next to checkpoints."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# epoch\ttrain_loss\tval_top3\twall_time_s\n")
        for e in report.epochs:
            fh.write(f"{e.epoch}\t{e.train_loss:.10f}\t{e.val_top3:.10f}\t{e.wall_time_s:.3f}\n")
        fh.write(f"# best_epoch\t{report.best_epoch}\n")
