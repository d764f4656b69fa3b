import json

import numpy as np
import pytest

from fusenet import metrics
from fusenet.dataset import CLASS_NAMES, PreparedDataset
from fusenet.embeddings import EmbeddedSequence
from fusenet.layers import AllMaskedError
from fusenet.metrics import (EvalReport, ReportError, compute_report, from_json, to_json,
                             topk_accuracy, topk_recall)
from fusenet.model import ModelConfig, build_variant, forward, predict_topk
from fusenet.numcore import Rng
from fusenet.training import _validation_topk_accuracy


def brute_force_recall(preds, labels, class_idx):
    """Per-case enumeration oracle, written independently of the library."""
    hits = 0
    total = 0
    for case in range(len(labels)):
        if labels[case] == class_idx:
            total += 1
            found = False
            for p in preds[case]:
                if p == labels[case]:
                    found = True
            if found:
                hits += 1
    if total == 0:
        return None
    return hits / total


def brute_force_accuracy(preds, labels):
    hits = 0
    for case in range(len(labels)):
        found = False
        for p in preds[case]:
            if p == labels[case]:
                found = True
        if found:
            hits += 1
    return hits / len(labels)


def random_prediction_set(rng, n, k=3, num_classes=13):
    preds = []
    labels = []
    for _ in range(n):
        order = rng.permutation(num_classes)
        preds.append([int(c) for c in order[:k]])
        labels.append(int(rng.integers(0, num_classes)))
    return preds, labels


class TestRecall:
    def test_all_hits(self):
        preds = [[2, 0, 1]] * 4
        labels = [2] * 4
        assert topk_recall(preds, labels, 2) == 1.0

    def test_no_hits(self):
        preds = [[0, 1, 3]] * 4
        labels = [2] * 4
        assert topk_recall(preds, labels, 2) == 0.0

    def test_absent_class_is_undefined_not_zero(self):
        preds = [[0, 1, 2]]
        labels = [0]
        assert topk_recall(preds, labels, 5) is None

    def test_matches_enumeration_oracle(self):
        rng = Rng(51)
        for _ in range(500):
            preds, labels = random_prediction_set(rng, int(rng.integers(1, 40)))
            cls = int(rng.integers(0, 13))
            assert topk_recall(preds, labels, cls) == brute_force_recall(preds, labels, cls)

    def test_duplicate_prediction_rejected(self):
        with pytest.raises(ValueError):
            topk_recall([[1, 1, 2]], [1], 1)


class TestAccuracy:
    def test_three_of_four(self):
        preds = [[0, 1, 2], [0, 1, 2], [0, 1, 2], [0, 1, 2]]
        labels = [0, 1, 2, 5]
        assert topk_accuracy(preds, labels) == 0.75

    def test_k_spanning_all_classes_is_one(self):
        rng = Rng(52)
        preds, labels = random_prediction_set(rng, 50, k=13)
        assert topk_accuracy(preds, labels) == 1.0

    def test_matches_enumeration_oracle(self):
        rng = Rng(53)
        for _ in range(500):
            preds, labels = random_prediction_set(rng, int(rng.integers(1, 40)))
            assert topk_accuracy(preds, labels) == brute_force_accuracy(preds, labels)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            topk_accuracy([], [])


class TestReport:
    def test_single_class_dataset(self):
        preds = [[4, 1, 2], [4, 0, 3], [5, 6, 7]]
        labels = [4, 4, 4]
        rep = compute_report(preds, labels, k=3)
        assert rep.recall_of(CLASS_NAMES[4]) == pytest.approx(2 / 3)
        assert rep.accuracy == pytest.approx(2 / 3)
        for idx, recall in enumerate(rep.per_class_recall):
            if idx != 4:
                assert recall is None

    def test_weighted_identity_holds_exactly(self):
        rng = Rng(54)
        for _ in range(100):
            preds, labels = random_prediction_set(rng, int(rng.integers(5, 60)))
            rep = compute_report(preds, labels, k=3)
            weighted = sum(
                (nk / rep.n) * r
                for nk, r in zip(rep.n_k, rep.per_class_recall) if r is not None
            )
            assert abs(weighted - rep.accuracy) <= 1e-12

    def test_identity_violation_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            EvalReport(k=3, n=2, class_names=("a", "b"), n_k=[1, 1],
                       per_class_recall=[1.0, 1.0], accuracy=0.5)

    def test_monotone_in_k(self):
        rng = Rng(55)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            probs = rng.random((n, 13))
            labels = [int(rng.integers(0, 13)) for _ in range(n)]
            accs = []
            for k in (1, 2, 3, 4):
                preds = [list(np.argsort(-p, kind="stable")[:k]) for p in probs]
                accs.append(topk_accuracy(preds, labels))
            assert all(accs[i + 1] >= accs[i] for i in range(3))

    def test_permutation_invariance(self):
        rng = Rng(56)
        preds, labels = random_prediction_set(rng, 30)
        rep1 = compute_report(preds, labels, k=3)
        order = rng.permutation(30)
        preds2 = [preds[int(i)] for i in order]
        labels2 = [labels[int(i)] for i in order]
        rep2 = compute_report(preds2, labels2, k=3)
        assert rep1.accuracy == rep2.accuracy
        assert rep1.per_class_recall == rep2.per_class_recall

    def test_json_round_trip(self):
        rng = Rng(57)
        preds, labels = random_prediction_set(rng, 40)
        rep = compute_report(preds, labels, k=3)
        doc = json.loads(json.dumps(to_json(rep)))
        clone = from_json(doc)
        assert clone == rep
        assert doc["version"] == 1
        assert {"name", "n_k", "recall"} <= set(doc["per_class"][0])

    @pytest.mark.parametrize("field, value", [
        ("per_class", None), ("k", None), ("n", None), ("accuracy", None),
        ("per_class", [{"name": "x", "n_k": 1}]), ("k", "3"), ("n", 0), ("accuracy", "1"),
        ("accuracy", float("nan")), ("per_class", [{"name": "x", "n_k": 1, "recall": "all"}]),
    ], ids=["no-per_class", "no-k", "no-n", "no-accuracy", "entry-without-recall",
            "string-k", "zero-n", "string-accuracy", "nan-accuracy", "string-recall"])
    def test_json_missing_or_mistyped_field_named(self, field, value):
        doc = to_json(compute_report([[0, 1, 2]], [0], k=3))
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(ReportError, match=f"'{field}'"):
            from_json(doc)

    def test_json_version_checked(self):
        rep = compute_report([[0, 1, 2]], [0], k=3)
        doc = to_json(rep)
        doc["version"] = 99
        with pytest.raises(ValueError):
            from_json(doc)


def ragged_fusion_set(n=40, seed=60):
    """A small 13-class fusion model and n rows with text lengths 1..T."""
    config = ModelConfig(num_feature_dim=4, cat_feature_dim=2, embed_dim=3, lstm_hidden=4,
                         mlp_hidden=6, num_classes=13, max_seq_len=5, seed=2)
    rng = Rng(seed)
    lengths = 1 + np.arange(n) % config.max_seq_len
    mask = np.arange(config.max_seq_len) < lengths[:, None]
    vectors = rng.normal((n, config.max_seq_len, config.embed_dim)) * mask[..., None]
    data = PreparedDataset(
        ids=[f"t{i}" for i in range(n)],
        labels=rng.integers(0, 13, n),
        num=rng.normal((n, 4)),
        cat=(rng.random((n, 2)) < 0.5).astype(float),
        seqs=EmbeddedSequence(vectors=vectors, mask=mask),
    )
    return build_variant(config, "fusion"), data


def one_at_a_time(model, data, k):
    return [predict_topk(model, *data.inputs(model, j), k=k).top_k for j in range(len(data))]


def test_report_scores_chunks_and_matches_one_example_predictions(monkeypatch):
    model, data = ragged_fusion_set()
    expected = one_at_a_time(model, data, 3)
    batch_rows = []

    def counting_forward(model, num_x, cat_x, seq, **kwargs):
        batch_rows.append(len(num_x))
        return forward(model, num_x, cat_x, seq, **kwargs)

    monkeypatch.setattr(metrics, "forward", counting_forward)
    assert metrics.predict_all(model, data, 3) == expected
    assert batch_rows == [metrics.SCORE_CHUNK, 40 - metrics.SCORE_CHUNK]
    assert metrics.report(model, data, k=3) == compute_report(expected, data.labels, 3)


def test_validation_accuracy_is_topk_accuracy_of_the_same_predictions():
    model, data = ragged_fusion_set()
    accuracy = _validation_topk_accuracy(model, data, 3)
    assert accuracy == topk_accuracy(one_at_a_time(model, data, 3), data.labels)


def test_report_names_an_all_masked_example():
    model, data = ragged_fusion_set()
    data.seqs.mask[35] = False
    with pytest.raises(AllMaskedError, match="example t35:"):
        metrics.report(model, data, k=3)
