import hashlib
import math
import re

import numpy as np
import pytest

from fusenet import model as model_module
from fusenet import training
from fusenet.dataset import PreparedDataset
from fusenet.embeddings import EmbeddedSequence
from fusenet.model import ModelConfig, build_variant, clone, forward, save, topk_indices
from fusenet.numcore import Rng
from fusenet.training import (TrainConfig, TrainingAbort, _Adam, batch_loss, grad_check,
                              small_check_config, train, write_report)


def toy_tabular(n_per_class=40, num_classes=2, seed=0):
    """Linearly separable blobs, far apart relative to their spread."""
    rng = Rng(seed)
    ids, labels, rows = [], [], []
    for cls in range(num_classes):
        center = np.zeros(4)
        center[cls % 4] = 6.0 * (1 + cls // 4)
        for i in range(n_per_class):
            rows.append(center + rng.normal(4, scale=0.5))
            labels.append(cls)
            ids.append(f"toy-{cls}-{i}")
    order = Rng(seed).child(1).permutation(len(ids))
    rows = np.array(rows)[order]
    labels = np.array(labels)[order]
    ids = [ids[i] for i in order]
    cat = np.ones((len(ids), 1))
    return PreparedDataset(ids=ids, labels=labels, num=rows, cat=cat)


def toy_config(num_classes=2, seed=0):
    return ModelConfig(num_feature_dim=4, cat_feature_dim=1, embed_dim=1,
                       lstm_hidden=1, mlp_hidden=8, num_classes=num_classes,
                       max_seq_len=1, seed=seed)


def cross_entropy(probs, label):
    """``batch_loss`` of one example, as a one-row batch."""
    return batch_loss(probs[None], np.array([label]))[0]


class TestCrossEntropy:
    def test_uniform_13_classes(self):
        probs = np.full(13, 1.0 / 13)
        assert abs(cross_entropy(probs, 5) - math.log(13)) < 1e-12
        assert abs(cross_entropy(probs, 5) - 2.5649) < 1e-3

    def test_certain_prediction_is_zero_loss(self):
        probs = np.zeros(4)
        probs[2] = 1.0
        assert cross_entropy(probs, 2) == 0.0

    def test_floor_prevents_infinity(self):
        probs = np.zeros(4)
        probs[0] = 1.0
        assert cross_entropy(probs, 3) == -math.log(1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.full(4, 0.25), 4)


class TestAdam:
    def test_first_step_bounded_by_learning_rate(self):
        rng = Rng(21)
        lr = 0.17
        opt = _Adam(lr, 28)
        theta = np.concatenate([rng.normal(24), rng.normal(4) * 100])
        before = theta.copy()
        grad = np.concatenate([rng.normal(24) * 10, rng.normal(4) * 0.001])
        opt.step(theta, grad)
        assert np.max(np.abs(theta - before)) <= lr * (1 + 1e-8)


class ReferenceAdam:
    """Adam with one temporary array per term; ``_Adam.step`` must give its bytes."""

    def __init__(self, lr, size):
        self.lr, self.m, self.v, self.t = lr, np.zeros(size), np.zeros(size), 0

    def step(self, theta, grad):
        self.t += 1
        bc1 = 1.0 - _Adam.BETA1**self.t
        bc2 = 1.0 - _Adam.BETA2**self.t
        self.m *= _Adam.BETA1
        self.m += (1.0 - _Adam.BETA1) * grad
        self.v *= _Adam.BETA2
        self.v += (1.0 - _Adam.BETA2) * grad * grad
        update = self.m / bc1
        update *= self.lr
        denom = self.v / bc2
        np.sqrt(denom, out=denom)
        denom += _Adam.EPS
        update /= denom
        theta -= update


def reference_clip(grads, max_norm):
    """``clip_grads_`` summing each block with ``np.sum``."""
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def test_adam_step_matches_the_reference_bytes():
    rng = Rng(12)
    lean, ref = _Adam(3e-3, 300), ReferenceAdam(3e-3, 300)
    theta = rng.normal(300)
    theta_ref = theta.copy()
    for step in range(6):
        grad = rng.normal(300) * 10.0 ** (step - 3)
        lean.step(theta, grad)
        ref.step(theta_ref, grad)
        assert theta.tobytes() == theta_ref.tobytes(), step
    assert lean.m.tobytes() == ref.m.tobytes() and lean.v.tobytes() == ref.v.tobytes()


@pytest.mark.parametrize("max_norm", [0.5, 1e9], ids=["clipped", "unclipped"])
def test_clip_grads_matches_the_reference_bytes(max_norm):
    # Quickstart-sized blocks, so each sum is long enough to be pairwise,
    # then blocks at the CLI's default hidden size with 100-wide embeddings,
    # whose gate-column views hold more than the 8,192 entries numpy sums
    # a non-contiguous array in.
    for embed_dim, hidden in ((16, 32), (100, 64)):
        config = ModelConfig(num_feature_dim=20, cat_feature_dim=40, embed_dim=embed_dim,
                             lstm_hidden=hidden, mlp_hidden=32, num_classes=13)
        model = build_variant(config, "fusion")
        grad = Rng(13).normal(model.theta.shape)
        grad_ref = grad.copy()
        blocks = model.grad_blocks(grad)
        assert not blocks["encoder.fwd.W_i"].flags.c_contiguous  # a gate-column view
        norm = training.clip_grads_(blocks, max_norm)
        assert norm == reference_clip(model.grad_blocks(grad_ref), max_norm)
        assert grad.tobytes() == grad_ref.tobytes()
        # The squares-buffer path that train() takes: one product over the
        # flat gradient, read through views named like the gradient's blocks.
        # Block by block too, where a last-bit difference in one block's sum
        # cannot vanish into the total.
        grad = Rng(13).normal(model.theta.shape)
        squares = model.grad_blocks(np.multiply(grad, grad))
        for name, g in model.grad_blocks(grad.copy()).items():
            assert (training.clip_grads_({name: g.copy()}, max_norm, squares={name: squares[name]})
                    == reference_clip({name: g.copy()}, max_norm)), name
        assert training.clip_grads_(model.grad_blocks(grad), max_norm, squares=squares) == norm
        assert grad.tobytes() == grad_ref.tobytes()


def test_clip_grads_leaves_a_non_finite_norm_unscaled():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([1e300, -1e300])}
    with np.errstate(over="ignore"):
        assert training.clip_grads_(grads, 1.0) == math.inf
    assert grads["a"].tolist() == [3.0, 4.0] and grads["b"].tolist() == [1e300, -1e300]


def _inf_in_two_blocks(blocks):
    blocks["head.W"][0, 0] = np.inf  # first in clipping order, last in param_blocks order
    blocks["mlp_cat.1.b"][2] = -np.inf


def _huge_everywhere(blocks):
    for g in blocks.values():
        g.fill(1e300)


@pytest.mark.parametrize("rig, message", [
    (_inf_in_two_blocks, "non-finite gradient in block mlp_cat.1.b (epoch 0 batch 0)"),
    (_huge_everywhere, "gradient norm overflows (epoch 0 batch 0)"),
], ids=["inf-block", "overflow"])
def test_a_non_finite_gradient_norm_aborts_training(monkeypatch, rig, message):
    batch_gradients = training._batch_gradients

    def rigged(model, *args):
        loss, grad = batch_gradients(model, *args)
        rig(dict(model.param_blocks(grad)))
        return loss, grad

    monkeypatch.setattr(training, "_batch_gradients", rigged)
    data = toy_tabular(n_per_class=8)
    with pytest.raises(TrainingAbort, match=f"^{re.escape(message)}$"):
        train(build_variant(toy_config(), "mlp"), data, data, TrainConfig(epochs=1, batch_size=4))


def test_train_hands_clipping_one_gradient_buffer(monkeypatch):
    calls = []
    clip = training.clip_grads_

    def recording_clip(grads, max_norm, squares=None):
        calls.append((grads, squares))
        return clip(grads, max_norm, squares=squares)

    monkeypatch.setattr(training, "clip_grads_", recording_clip)
    data = toy_tabular(n_per_class=8)
    train(build_variant(toy_config(), "mlp"), data, data, TrainConfig(epochs=2, batch_size=4))
    assert len(calls) == 2 * 4
    grads, squares = calls[0]
    assert all(g is grads and s is squares for g, s in calls)
    flat = next(iter(grads.values())).base
    assert flat.ndim == 1 and all(g.base is flat for g in grads.values())
    assert not any(np.shares_memory(flat, s) for s in squares.values())


def test_training_ranks_top_k_only_while_validating(monkeypatch):
    calls = {"validation": 0, "training": 0}
    validating = []
    rank, validate = model_module.topk_indices, training._validation_topk_accuracy

    def counting_rank(*args):
        calls["validation" if validating else "training"] += 1
        return rank(*args)

    def flagged_validate(*args):
        validating.append(True)
        try:
            return validate(*args)
        finally:
            validating.pop()

    monkeypatch.setattr(model_module, "topk_indices", counting_rank)
    monkeypatch.setattr(training, "topk_indices", counting_rank)
    monkeypatch.setattr(training, "_validation_topk_accuracy", flagged_validate)
    data = toy_tabular(n_per_class=8)
    train(build_variant(toy_config(), "mlp"), data, data, TrainConfig(epochs=1, batch_size=4))
    assert calls["training"] == 0 and calls["validation"] >= 1


class TestTrain:
    def test_separable_toy_loss_decreases_and_fits(self):
        data = toy_tabular()
        val = toy_tabular(n_per_class=10, seed=1)
        model = build_variant(toy_config(), "mlp")
        cfg = TrainConfig(epochs=10, batch_size=16, learning_rate=1e-2, seed=0)
        best, report = train(model, data, val, cfg)
        losses = [e.train_loss for e in report.epochs]
        assert all(losses[i + 1] < losses[i] for i in range(min(4, len(losses) - 1)))
        hits = 0
        for i in range(len(val)):
            probs, _ = forward(best, val.num[i:i + 1], val.cat[i:i + 1], None)
            hits += int(topk_indices(probs, 1)[0][0] == int(val.labels[i]))
        assert hits == len(val)

    def test_zero_learning_rate_leaves_parameters_bit_identical(self):
        data = toy_tabular(n_per_class=8)
        model = build_variant(toy_config(), "mlp")
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.0, seed=0)
        best, _ = train(model, data, data, cfg)
        assert np.array_equal(best.theta, model.theta)

    def test_same_seed_same_report(self):
        data = toy_tabular(n_per_class=12)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3, seed=7)
        _, r1 = train(build_variant(toy_config(), "mlp"), data, data, cfg)
        _, r2 = train(build_variant(toy_config(), "mlp"), data, data, cfg)
        assert r1.deterministic_fields() == r2.deterministic_fields()

    def test_full_batch_step_decreases_loss_at_small_lr(self):
        data = toy_tabular(n_per_class=10)
        model = build_variant(toy_config(), "mlp")

        def frozen_loss(m):
            return sum(
                batch_loss(forward(m, data.num[i:i + 1], data.cat[i:i + 1], None)[0],
                           data.labels[i:i + 1])[0]
                for i in range(len(data))
            ) / len(data)

        before = frozen_loss(model)
        cfg = TrainConfig(epochs=1, batch_size=len(data), learning_rate=1e-4,
                          optimizer="sgd", seed=0)
        stepped, _ = train(model, data, data, cfg)
        assert frozen_loss(stepped) < before

    def test_early_stopping_returns_best_checkpoint(self):
        data = toy_tabular(n_per_class=20)
        val = toy_tabular(n_per_class=10, seed=3)
        model = build_variant(toy_config(), "mlp")
        cfg = TrainConfig(epochs=12, batch_size=16, learning_rate=5e-3, seed=2,
                          early_stop_patience=2)
        best, report = train(model, data, val, cfg)
        accs = [e.val_top3 for e in report.epochs]
        # The kept checkpoint has maximal observed validation accuracy
        # (ties broken toward lower train loss).
        assert accs[report.best_epoch] == max(accs)
        hits = 0
        for i in range(len(val)):
            probs, _ = forward(best, val.num[i:i + 1], val.cat[i:i + 1], None)
            hits += int(int(val.labels[i]) in topk_indices(probs, 2)[0])
        assert hits / len(val) == max(accs)

    def test_nan_abort_names_block_and_batch(self):
        data = toy_tabular(n_per_class=8)
        model = build_variant(toy_config(), "mlp")
        model.head.W[0, 0] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=1e-3, seed=0)
        with pytest.raises(TrainingAbort, match="batch 0"):
            train(model, data, data, cfg)

    def test_dims_validated_before_training(self):
        data = toy_tabular(n_per_class=8)
        wrong = build_variant(toy_config(), "mlp")
        bad = PreparedDataset(ids=data.ids, labels=data.labels,
                              num=data.num[:, :3], cat=data.cat)
        with pytest.raises(ValueError, match="numerical width"):
            train(wrong, bad, bad, TrainConfig(epochs=1))

    def test_input_model_is_not_mutated(self, monkeypatch):
        data = toy_tabular(n_per_class=8)
        model = build_variant(toy_config(), "mlp")
        before = model.theta.copy()
        working = []
        monkeypatch.setattr(training, "clone", lambda m: working.append(clone(m)) or working[-1])
        best, _ = train(model, data, data, TrainConfig(epochs=2, learning_rate=1e-2, seed=0))
        assert np.array_equal(model.theta, before)
        # The kept snapshot is a copy of neither the input nor the working model.
        for other in (model, *working):
            assert not np.shares_memory(best.theta, other.theta)

    def test_dropout_training_is_deterministic_and_off_at_eval(self):
        data = toy_tabular(n_per_class=12)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3, seed=5,
                          dropout_rate=0.5)
        best1, r1 = train(build_variant(toy_config(), "mlp"), data, data, cfg)
        best2, r2 = train(build_variant(toy_config(), "mlp"), data, data, cfg)
        assert r1.deterministic_fields() == r2.deterministic_fields()
        # Inference applies no dropout: repeated forwards agree bit-for-bit.
        p1, _ = forward(best1, data.num[:1], data.cat[:1], None)
        p2, _ = forward(best1, data.num[:1], data.cat[:1], None)
        assert np.array_equal(p1, p2)
        for (n1, a1), (_, a2) in zip(best1.param_blocks(), best2.param_blocks()):
            assert np.array_equal(a1, a2), n1


class TestTrainConfigValidation:
    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1e-3)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(learning_rate=lr)

    def test_zero_lr_accepted(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_bad_optimizer(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="adagrad")

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("norm", [-1.0, 0.0, float("nan")])
    def test_clip_norm_must_be_positive(self, norm):
        with pytest.raises(ValueError, match="clip_norm"):
            TrainConfig(clip_norm=norm)


class TestGradCheckHarness:
    def test_all_variants_pass(self):
        assert grad_check("fusion", seed=3).max_rel_err < 1e-4
        assert grad_check("text", seed=3).max_rel_err < 1e-4
        assert grad_check("mlp", seed=3).max_rel_err < 1e-5

    def test_reports_every_parameter_block(self):
        result = grad_check("fusion", seed=0)
        model = build_variant(
            ModelConfig(num_feature_dim=6, cat_feature_dim=5, embed_dim=4,
                        lstm_hidden=4, mlp_hidden=6, num_classes=5, max_seq_len=5,
                        seed=0, mlp_activation="tanh"),
            "fusion",
        )
        assert set(result.per_block) == {name for name, _ in model.param_blocks()}


def test_write_report(tmp_path):
    data = toy_tabular(n_per_class=8)
    _, report = train(build_variant(toy_config(), "mlp"), data, data,
                      TrainConfig(epochs=2, learning_rate=1e-3, seed=0))
    path = tmp_path / "report.txt"
    write_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# epoch")
    assert len([l for l in lines if not l.startswith("#")]) == len(report.epochs)
    assert lines[-1] == f"# best_epoch\t{report.best_epoch}"


# SHA-256 of the checkpoints the test below trains. Any change to the
# forward or backward pass, the gradient norm, clipping or the optimizer
# update that moves a parameter by one ulp changes them.
TRAINED_SHA256 = {
    "adam": "c2c89be28feca1fd2e40494f16520e2ec429378b26d531bbf0fe50d9c87f4181",
    "sgd": "67c7530acc87a11e5b1dfd51e42cd97e1d9ef733f4595581d200f3727ecba59e",
}


@pytest.mark.parametrize("optimizer", sorted(TRAINED_SHA256))
def test_trained_checkpoint_bytes_are_pinned(optimizer, tmp_path, monkeypatch):
    check_pinned_checkpoint(optimizer, tmp_path, monkeypatch)


def check_pinned_checkpoint(optimizer, tmp_path, monkeypatch):
    config = small_check_config(seed=3)
    rng = Rng(3).child(5)
    n, T = 48, config.max_seq_len
    vectors = rng.normal((n, T, config.embed_dim))
    mask = np.arange(T) < rng.integers(1, T + 1, n)[:, None]
    vectors[~mask] = 0.0
    data = PreparedDataset(
        ids=[f"row-{i}" for i in range(n)],
        labels=rng.integers(0, config.num_classes, n),
        num=rng.normal((n, config.num_feature_dim)),
        cat=(rng.random((n, config.cat_feature_dim)) < 0.5).astype(np.float64),
        texts=EmbeddedSequence(vectors=vectors, mask=mask),
    )
    train_set, val_set = (PreparedDataset(data.ids[rows], data.labels[rows], data.num[rows],
                                          data.cat[rows], data.texts[rows], np.arange(size))
                          for rows, size in ((slice(0, 36), 36), (slice(36, n), n - 36)))
    norms = []
    clip = training.clip_grads_

    def recording_clip(*args, **kwargs):
        norms.append(clip(*args, **kwargs))
        return norms[-1]

    monkeypatch.setattr(training, "clip_grads_", recording_clip)
    cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05, optimizer=optimizer,
                      clip_norm=0.5, dropout_rate=0.2, seed=3, early_stop_patience=5)
    best, _ = train(build_variant(config, "fusion"), train_set, val_set, cfg)
    assert len(norms) == 2 * 5
    assert sum(norm > cfg.clip_norm for norm in norms) >= 5  # clipping fired
    path = tmp_path / "trained.afn"
    save(best, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRAINED_SHA256[optimizer]


@pytest.fixture
def fresh_heap_helper():
    """``_fix_heap_thresholds`` as if no run had called it yet, before and after."""
    training._fix_heap_thresholds.cache_clear()
    yield
    training._fix_heap_thresholds.cache_clear()


class FakeLibc:
    opened: list = []  # every instance, in order

    def __init__(self, name):
        assert name is None
        self.calls = []
        FakeLibc.opened.append(self)

        def mallopt(param, value):  # a function, which takes argtypes like a foreign one
            self.calls.append((param, value))
            return 1
        self.mallopt = mallopt


def test_training_fixes_the_heap_thresholds_once(monkeypatch, fresh_heap_helper):
    FakeLibc.opened = []
    monkeypatch.setattr(training.ctypes, "CDLL", FakeLibc)
    data = toy_tabular(n_per_class=4)
    for _ in range(2):
        train(build_variant(toy_config(), "mlp"), data, data, TrainConfig(epochs=1))
    [libc] = FakeLibc.opened
    mib = 1024 * 1024
    assert libc.calls == [(-3, 32 * mib), (-1, 64 * mib)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _no_libc(name):
    raise OSError("no C library")


class _NoMallopt:
    def __init__(self, name):
        pass


@pytest.mark.parametrize("cdll", [_no_libc, _NoMallopt], ids=["cannot-load", "no-mallopt"])
def test_without_mallopt_training_runs_and_keeps_its_bytes(cdll, tmp_path, monkeypatch,
                                                           fresh_heap_helper):
    monkeypatch.setattr(training.ctypes, "CDLL", cdll)
    assert training._fix_heap_thresholds() is None
    check_pinned_checkpoint("adam", tmp_path, monkeypatch)
