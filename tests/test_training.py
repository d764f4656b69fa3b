import math

import numpy as np
import pytest

from fusenet.dataset import PreparedDataset
from fusenet.model import ModelConfig, build_variant, forward
from fusenet.numcore import Rng
from fusenet.training import (TrainConfig, TrainingAbort, _Adam, cross_entropy,
                              grad_check, train, write_report)


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
        opt = _Adam(lr, 0.9, 0.999, 1e-8)
        blocks = [("w", rng.normal((6, 4))), ("b", rng.normal(4) * 100)]
        before = {n: a.copy() for n, a in blocks}
        grads = {"w": rng.normal((6, 4)) * 10, "b": rng.normal(4) * 0.001}
        opt.step(blocks, grads)
        for name, arr in blocks:
            assert np.max(np.abs(arr - before[name])) <= lr * (1 + 1e-8)


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
            pred, _ = forward(best, val.num[i], val.cat[i], None, k=1)
            hits += int(pred.top_k[0] == int(val.labels[i]))
        assert hits == len(val)

    def test_zero_learning_rate_leaves_parameters_bit_identical(self):
        data = toy_tabular(n_per_class=8)
        model = build_variant(toy_config(), "mlp")
        before = model.copy_param_blocks()
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.0, seed=0)
        best, _ = train(model, data, data, cfg)
        for name, arr in best.param_blocks():
            assert np.array_equal(arr, before[name]), name

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
                cross_entropy(forward(m, data.num[i], data.cat[i], None)[0].probs,
                              int(data.labels[i]))
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
            pred, _ = forward(best, val.num[i], val.cat[i], None, k=2)
            hits += int(int(val.labels[i]) in pred.top_k)
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

    def test_input_model_is_not_mutated(self):
        data = toy_tabular(n_per_class=8)
        model = build_variant(toy_config(), "mlp")
        before = model.copy_param_blocks()
        train(model, data, data, TrainConfig(epochs=2, learning_rate=1e-2, seed=0))
        for name, arr in model.param_blocks():
            assert np.array_equal(arr, before[name])

    def test_dropout_training_is_deterministic_and_off_at_eval(self):
        data = toy_tabular(n_per_class=12)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3, seed=5,
                          dropout_rate=0.5)
        best1, r1 = train(build_variant(toy_config(), "mlp"), data, data, cfg)
        best2, r2 = train(build_variant(toy_config(), "mlp"), data, data, cfg)
        assert r1.deterministic_fields() == r2.deterministic_fields()
        # Inference applies no dropout: repeated forwards agree bit-for-bit.
        p1, _ = forward(best1, data.num[0], data.cat[0], None)
        p2, _ = forward(best1, data.num[0], data.cat[0], None)
        assert np.array_equal(p1.probs, p2.probs)
        for (n1, a1), (_, a2) in zip(best1.param_blocks(), best2.param_blocks()):
            assert np.array_equal(a1, a2), n1


class TestTrainConfigValidation:
    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1e-3)

    def test_zero_lr_accepted(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_bad_optimizer(self):
        with pytest.raises(ValueError):
            TrainConfig(optimizer="adagrad")

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


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
