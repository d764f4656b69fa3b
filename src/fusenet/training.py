"""Mini-batch cross-entropy training and the gradient-checking harness.

Training is deterministic given the config seed: shuffling, dropout and
initialization all derive from it, and batches are visited in shuffled
order. Each mini-batch runs as one batched forward and one batched
backward pass, whose gradients are the mean over the batch rows.
Gradients are global-norm clipped (exploding recurrent gradients are the
known failure mode). The returned model is the best-validation
checkpoint, scored by top-3 accuracy after each epoch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import PreparedDataset
from .embeddings import EmbeddedSequence
from .metrics import predict_all, topk_accuracy
from .model import (FusionModel, ModelConfig, backward, build_variant, clone,
                    forward)
from .numcore import Rng

GRAD_EPS = 1e-8  # denominator floor in relative-error comparisons


class TrainingAbort(RuntimeError):
    """Non-finite loss or gradient; message names the batch and block."""


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    dropout_rate: float = 0.0
    early_stop_patience: int = 5
    clip_norm: float = 5.0
    seed: int = 0
    class_weights: list[float] | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        # learning_rate 0 is allowed (a no-op run the CLI warns about).
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")


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


def cross_entropy(probs: np.ndarray, label: int, floor: float = 1e-12) -> float:
    if not 0 <= label < probs.shape[0]:
        raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
    return -math.log(max(float(probs[label]), floor))


def batch_loss(probs: np.ndarray, labels: np.ndarray, weights: np.ndarray | None = None,
               floor: float = 1e-12) -> tuple[float, np.ndarray]:
    """Mean class-weighted cross-entropy of (B, C) probs, and its logit gradient.

    Each row contributes ``weights[label] * cross_entropy`` (weight 1 when
    ``weights`` is None); the gradient w.r.t. the logits is the same
    mean of the rows' ``weights[label] * (probs - onehot(label))``.
    """
    labels = np.asarray(labels)
    n, classes = probs.shape
    if labels.shape != (n,) or np.any((labels < 0) | (labels >= classes)):
        raise ValueError(f"labels {labels} out of range for {classes} classes")
    rows = np.arange(n)
    w = np.ones(n) if weights is None else weights[labels]
    loss = float(np.sum(w * -np.log(np.maximum(probs[rows, labels], floor)))) / n
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits *= (w / n)[:, None]
    return loss, dlogits


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, blocks, grads):
        for name, arr in blocks:
            arr -= self.lr * grads[name]


class _Adam:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, blocks, grads):
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for name, arr in blocks:
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(arr))
            v = self.v.setdefault(name, np.zeros_like(arr))
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            arr -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return _Sgd(cfg.learning_rate)
    return _Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def clip_grads_(grads: dict[str, np.ndarray], max_norm: float) -> float:
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def _check_dims(model: FusionModel, data: PreparedDataset, split: str) -> None:
    cfg = model.config
    if len(data) == 0:
        raise ValueError(f"{split} split is empty")
    if model.uses_tabular:
        if data.num.shape[1] != cfg.num_feature_dim:
            raise ValueError(
                f"{split}: numerical width {data.num.shape[1]} vs model {cfg.num_feature_dim}"
            )
        if data.cat.shape[1] != cfg.cat_feature_dim:
            raise ValueError(
                f"{split}: categorical width {data.cat.shape[1]} vs model {cfg.cat_feature_dim}"
            )
    if model.uses_text:
        if data.seqs is None:
            raise ValueError(f"{split}: missing embedded sequences")
        expected = (len(data), cfg.max_seq_len, cfg.embed_dim)
        if data.seqs.vectors.shape != expected or data.seqs.mask.shape != expected[:2]:
            raise ValueError(
                f"{split}: sequences {data.seqs.vectors.shape} with mask "
                f"{data.seqs.mask.shape} vs {expected}"
            )


def _validation_topk_accuracy(model: FusionModel, data: PreparedDataset, k: int) -> float:
    return topk_accuracy(predict_all(model, data, k), data.labels)


def _batch_gradients(model: FusionModel, data: PreparedDataset, rows: np.ndarray,
                     weights: np.ndarray | None, dropout_rate: float, drop_rng: Rng):
    """Mean loss and gradients of one mini-batch: one forward, one backward.

    The forward cache dies when this returns, so the next batch's
    forward never holds two of them at once.
    """
    num, cat, seq = data.inputs(model, rows)
    pred, cache = forward(model, num, cat, seq, dropout_rate=dropout_rate, drop_rng=drop_rng,
                          example_id=[data.ids[i] for i in rows])
    loss, dlogits = batch_loss(pred.probs, data.labels[rows], weights)
    return loss, backward(model, cache, dlogits)


def train(model: FusionModel, train_set: PreparedDataset, val_set: PreparedDataset,
          cfg: TrainConfig) -> tuple[FusionModel, TrainReport]:
    """Train a working copy of ``model``; return (best checkpoint, report)."""
    _check_dims(model, train_set, "train")
    _check_dims(model, val_set, "validation")
    weights = None
    if cfg.class_weights is not None:
        weights = np.asarray(cfg.class_weights, dtype=np.float64)
        if weights.shape != (model.config.num_classes,):
            raise ValueError(
                f"class_weights length {weights.shape} vs {model.config.num_classes} classes"
            )

    work = clone(model)
    blocks = work.param_blocks()
    optimizer = _make_optimizer(cfg)
    shuffle_rng = Rng(cfg.seed).child(0)
    drop_rng = Rng(cfg.seed).child(1)
    val_k = min(3, work.config.num_classes)

    report = TrainReport()
    best_params: dict[str, np.ndarray] | None = None
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
            loss, grads = _batch_gradients(work, train_set, rows, weights, cfg.dropout_rate,
                                           drop_rng)
            if not math.isfinite(loss):
                raise TrainingAbort(f"non-finite loss in epoch {epoch} batch {batch_idx}")
            loss_sum += loss * len(rows)
            for name, _ in blocks:
                if not np.all(np.isfinite(grads[name])):
                    raise TrainingAbort(
                        f"non-finite gradient in block {name} (epoch {epoch} batch {batch_idx})"
                    )
            clip_grads_(grads, cfg.clip_norm)
            optimizer.step(blocks, grads)

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
            best_params = work.copy_param_blocks()
            report.best_epoch = epoch
        if improved_val:
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.early_stop_patience:
                break

    best = build_variant(work.config, work.variant)
    best.set_param_blocks(best_params)
    return best, report


def write_report(report: TrainReport, path) -> None:
    """Plain tabular text, one epoch per line, written next to checkpoints."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# epoch\ttrain_loss\tval_top3\twall_time_s\n")
        for e in report.epochs:
            fh.write(f"{e.epoch}\t{e.train_loss:.10f}\t{e.val_top3:.10f}\t{e.wall_time_s:.3f}\n")
        fh.write(f"# best_epoch\t{report.best_epoch}\n")


# ---------------------------------------------------------------------------
# Gradient checking


def numeric_gradient(loss_fn, arr: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn w.r.t. every entry of arr.

    ``arr`` is perturbed in place and restored; loss_fn must re-read it.
    It may be a view (an LSTM gate block is a column slice of its fused
    matrix), so entries are addressed by index, never through a reshape.
    """
    grad = np.zeros(arr.shape)
    for idx in np.ndindex(arr.shape):
        original = arr[idx]
        arr[idx] = original + step
        up = loss_fn()
        arr[idx] = original - step
        down = loss_fn()
        arr[idx] = original
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), GRAD_EPS)
    return float(np.max(np.abs(analytic - numeric) / denom))


@dataclass
class GradCheckResult:
    variant: str
    max_rel_err: float
    per_block: dict[str, float]


def small_check_config(seed: int) -> ModelConfig:
    # Deliberately tiny (dims <= 8, T <= 5): finite differences cost two
    # forwards per parameter entry. Branches use tanh so the loss surface
    # has no relu kinks, which central differences cannot straddle; the
    # relu derivative is covered by the dense-layer check at a
    # kink-distance-verified input.
    return ModelConfig(
        num_feature_dim=6, cat_feature_dim=5, embed_dim=4,
        lstm_hidden=4, mlp_hidden=6, num_classes=5, max_seq_len=5, seed=seed,
        mlp_activation="tanh",
    )


def grad_check(variant: str = "fusion", seed: int = 0, step: float = 1e-5) -> GradCheckResult:
    """Analytic vs numeric gradients of the full loss for a small model."""
    config = small_check_config(seed)
    model = build_variant(config, variant)
    rng = Rng(seed).child(99)
    num_x = rng.normal(config.num_feature_dim)
    cat_x = (rng.random(config.cat_feature_dim) < 0.5).astype(np.float64)
    vectors = rng.normal((config.max_seq_len, config.embed_dim))
    mask = np.array([True, True, True, True, False])
    vectors[~mask] = 0.0
    seq = EmbeddedSequence(vectors=vectors, mask=mask, oov_count=0)
    label = int(rng.integers(0, config.num_classes))

    num_in = num_x if model.uses_tabular else None
    cat_in = cat_x if model.uses_tabular else None
    seq_in = seq if model.uses_text else None

    def loss() -> float:
        pred, _ = forward(model, num_in, cat_in, seq_in)
        return cross_entropy(pred.probs, label)

    pred, cache = forward(model, num_in, cat_in, seq_in)
    dlogits = pred.probs.copy()
    dlogits[label] -= 1.0
    analytic = backward(model, cache, dlogits)

    per_block: dict[str, float] = {}
    for name, arr in model.param_blocks():
        numeric = numeric_gradient(loss, arr, step)
        per_block[name] = max_relative_error(analytic[name], numeric)
    return GradCheckResult(
        variant=variant,
        max_rel_err=max(per_block.values()),
        per_block=per_block,
    )


def layer_grad_checks(seed: int, step: float = 1e-5) -> dict[str, float]:
    """Finite-difference checks of each layer type in isolation.

    The scalar loss is a random linear functional of the layer output, so
    every backward path is exercised. Returns max relative error per
    check.
    """
    from .layers import BiLstmEncoder, DenseLayer, FeedforwardAttention, LstmCell
    from .numcore import softmax

    results: dict[str, float] = {}
    rng = Rng(seed).child(7)

    def check(name, loss_fn, pairs):
        worst = 0.0
        for analytic, arr in pairs:
            numeric = numeric_gradient(loss_fn, arr, step)
            worst = max(worst, max_relative_error(analytic, numeric))
        results[name] = worst

    # Dense, smooth activations (+ input gradient).
    for act in ("identity", "sigmoid", "tanh"):
        layer = DenseLayer.init(rng.child(0), 6, 4, act)
        x = rng.normal(6)
        r = rng.normal(4)

        def dense_loss():
            y, _ = layer.forward(x)
            return float(y @ r)

        _, cache = layer.forward(x)
        dx, grads = layer.backward(cache, r)
        check(f"dense.{act}", dense_loss,
              [(grads["W"], layer.W), (grads["b"], layer.b), (dx, x)])

    # Dense relu at an input verified to sit away from the kink: a
    # perturbation of one weight moves each pre-activation by at most
    # step * max|x|, so any |z| above that bound cannot flip sign.
    layer = DenseLayer.init(rng.child(1), 6, 4, "relu")
    x = rng.normal(6)
    _, cache = layer.forward(x)
    margin = step * (1.0 + float(np.max(np.abs(x))) + float(np.max(np.abs(layer.W))))
    if float(np.min(np.abs(cache["z"]))) > 10.0 * margin:
        r = rng.normal(4)

        def relu_loss():
            y, _ = layer.forward(x)
            return float(y @ r)

        dx, grads = layer.backward(cache, r)
        check("dense.relu", relu_loss,
              [(grads["W"], layer.W), (grads["b"], layer.b), (dx, x)])

    # One LSTM step; loss reads both h and c.
    cell = LstmCell.init(rng.child(2), 3, 4)
    h_prev = rng.normal(4)
    c_prev = rng.normal(4)
    x_t = rng.normal(3)
    r_h = rng.normal(4)
    r_c = rng.normal(4)

    def lstm_loss():
        h, c, _ = cell.step(h_prev, c_prev, x_t)
        return float(h @ r_h + c @ r_c)

    _, _, cache = cell.step(h_prev, c_prev, x_t)
    dh_prev, dc_prev, dx, dW, db = cell.step_backward(cache, r_h, r_c)
    grads = cell.gate_blocks(dW, db)
    pairs = [(grads[n], cell.params()[n]) for n in grads]
    pairs += [(dh_prev, h_prev), (dc_prev, c_prev), (dx, x_t)]
    check("lstm_step", lstm_loss, pairs)

    # BiLSTM over T=3, including gradients through the inputs.
    enc = BiLstmEncoder.init(rng.child(3), 3, 4)
    X = rng.normal((3, 3))
    R = rng.normal((3, 8))

    def bilstm_loss():
        H, _ = enc.forward(X)
        return float(np.sum(H * R))

    _, cache = enc.forward(X)
    dX, grads = enc.backward(cache, R)
    pairs = [(grads[n], enc.params()[n]) for n in grads]
    pairs.append((dX, X))
    check("bilstm.T3", bilstm_loss, pairs)

    # Attention with one masked position.
    attn = FeedforwardAttention.init(rng.child(4), 8)
    H = rng.normal((4, 8))
    mask = np.array([True, True, True, False])
    r = rng.normal(8)

    def attn_loss():
        a, _, _ = attn.forward(H, mask)
        return float(a @ r)

    _, _, cache = attn.forward(H, mask)
    dH, grads = attn.backward(cache, r)
    check("attention", attn_loss,
          [(grads["w"], attn.w), (grads["b"], attn.b), (dH, H)])

    # Classifier head through softmax + cross-entropy.
    head = DenseLayer.init(rng.child(5), 6, 5, "identity")
    x = rng.normal(6)
    label = int(rng.integers(0, 5))

    def head_loss():
        logits, _ = head.forward(x)
        return cross_entropy(softmax(logits), label)

    logits, cache = head.forward(x)
    dlogits = softmax(logits)
    dlogits[label] -= 1.0
    dx, grads = head.backward(cache, dlogits)
    check("classifier_head", head_loss,
          [(grads["W"], head.W), (grads["b"], head.b), (dx, x)])

    return results
