import dataclasses
import json

import numpy as np
import pytest

from fusenet import metrics
from fusenet.dataset import CLASS_NAMES, PreparedDataset
from fusenet.embeddings import EmbeddedSequence
from fusenet.layers import AllMaskedError
from fusenet.metrics import (EvalReport, ReportError, compute_report, from_json, to_json,
                             topk_accuracy)
from fusenet.model import (ModelConfig, backward, build_variant, encode_text, forward,
                           predict_topk, topk_indices)
from fusenet.numcore import Rng
from fusenet.training import TrainConfig, _validation_topk_accuracy, train


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


def recall(preds, labels, class_idx):
    """The top-k recall of ``class_idx`` as its report counts it."""
    return compute_report(preds, labels, len(preds[0])).per_class_recall[class_idx]


class TestRecall:
    def test_all_hits(self):
        preds = [[2, 0, 1]] * 4
        labels = [2] * 4
        assert recall(preds, labels, 2) == 1.0

    def test_no_hits(self):
        preds = [[0, 1, 3]] * 4
        labels = [2] * 4
        assert recall(preds, labels, 2) == 0.0

    def test_absent_class_is_undefined_not_zero(self):
        preds = [[0, 1, 2]]
        labels = [0]
        assert recall(preds, labels, 5) is None

    def test_matches_enumeration_oracle(self):
        rng = Rng(51)
        for _ in range(500):
            preds, labels = random_prediction_set(rng, int(rng.integers(1, 40)))
            cls = int(rng.integers(0, 13))
            assert recall(preds, labels, cls) == brute_force_recall(preds, labels, cls)

    def test_duplicate_prediction_rejected(self):
        with pytest.raises(ValueError):
            recall([[1, 1, 2]], [1], 1)


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

    def test_counts_match_the_enumeration_oracles_exactly(self):
        rng = Rng(58)
        for _ in range(50):
            preds, labels = random_prediction_set(rng, int(rng.integers(1, 60)))
            rep = compute_report(preds, labels, k=3)
            assert rep.n_k == [labels.count(idx) for idx in range(13)]
            assert rep.per_class_recall == [brute_force_recall(preds, labels, idx)
                                            for idx in range(13)]
            assert rep.accuracy == topk_accuracy(preds, labels)

    def test_repeated_class_in_a_prediction_rejected(self):
        with pytest.raises(ValueError, match="repeats a class"):
            compute_report([[0, 1, 2], [3, 3, 4]], [0, 3], k=3)

    @pytest.mark.parametrize("label", [-1, 13])
    def test_a_label_outside_the_classes_names_its_row(self, label):
        # -1 was counted as the last class, and 13 raised a bare IndexError.
        with pytest.raises(ValueError, match=rf"^label {label} of row 1 is not in \[0, 13\)$"):
            compute_report([[0, 1, 2], [3, 4, 5]], [0, label], k=3)

    @pytest.mark.parametrize("preds", [[0, 1], [[0, 1, 2]]], ids=["flat", "short"])
    def test_predictions_must_be_one_list_per_label(self, preds):
        with pytest.raises(ValueError, match="one list of k classes per label"):
            compute_report(preds, [0, 1], k=1)

    def test_counts_a_ranked_array_as_its_lists(self):
        rng = Rng(59)
        preds, labels = random_prediction_set(rng, 40)
        assert compute_report(np.array(preds), np.array(labels), k=3) == compute_report(
            preds, labels, k=3)

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


def ragged_fusion_set(n=40, seed=60, variant="fusion"):
    """A small 13-class model (fusion unless ``variant`` says otherwise) and
    n rows with text lengths 1..T."""
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
        texts=EmbeddedSequence(vectors=vectors, mask=mask),
        groups=np.arange(n),
    )
    return build_variant(config, variant), data


def one_at_a_time(model, data, k):
    return [predict_topk(model, *data.inputs(model, j), k=k) for j in range(len(data))]


def one_row(data, j):
    """Row ``j`` of ``data`` as a dataset of its own."""
    rows = slice(j, j + 1)
    return dataclasses.replace(data, ids=data.ids[rows], labels=data.labels[rows],
                               num=data.num[rows], cat=data.cat[rows], groups=data.groups[rows])


@pytest.mark.parametrize("variant", ["fusion", "text", "mlp"])
def test_report_scores_chunks_and_matches_one_example_predictions(monkeypatch, variant):
    model, data = ragged_fusion_set(metrics.SCORE_CHUNK + 8, variant=variant)
    one = one_at_a_time(model, data, 3)
    # One example takes predict_all's route: the same bytes as a one-row dataset.
    for j, pred in enumerate(one):
        assert pred.probs.tobytes() == metrics.predict_all(model, one_row(data, j))[0].tobytes()
    expected = [pred.top_k for pred in one]
    batch_rows = []

    def counting_forward(model, num_x, cat_x, seq=None, **kwargs):
        batch_rows.append(len(num_x))
        return forward(model, num_x, cat_x, seq, **kwargs)

    monkeypatch.setattr(metrics, "forward", counting_forward)
    assert topk_indices(metrics.predict_all(model, data), 3).tolist() == expected
    assert batch_rows == [metrics.SCORE_CHUNK, 8]
    assert metrics.report(model, data, k=3) == compute_report(expected, data.labels, 3)


def test_cache_free_forward_scores_bit_identically_and_cannot_run_backward():
    model, data = ragged_fusion_set()
    num, cat, seq = data.inputs(model, slice(None))
    kept, cache = forward(model, num, cat, seq)
    free, free_cache = forward(model, num, cat, text=encode_text(model, seq))
    assert np.array_equal(free, kept)
    backward(model, cache, np.ones_like(kept))
    with pytest.raises(ValueError, match="given the text features and kept no cache"):
        backward(model, free_cache, np.ones_like(free))


def test_validation_accuracy_is_topk_accuracy_of_the_same_predictions():
    model, data = ragged_fusion_set()
    accuracy = _validation_topk_accuracy(model, data, 3)
    expected = [pred.top_k for pred in one_at_a_time(model, data, 3)]
    assert accuracy == topk_accuracy(expected, data.labels)


def test_report_names_an_all_masked_example():
    model, data = ragged_fusion_set()
    data.texts.mask[35] = False
    with pytest.raises(AllMaskedError, match="example t35:"):
        metrics.report(model, data, k=3)


BAD_LABELS = {
    "short": (lambda y: y[:-1], r"labels int64 \(39,\) vs integer \(40,\)$"),
    "float": (lambda y: y.astype(float), r"labels float64 \(40,\) vs integer \(40,\)$"),
    "too-large": (lambda y: np.where(np.arange(40) == 7, 13, y),
                  r"example t7: label 13 is not in \[0, 13\)$"),
    "negative": (lambda y: np.where(np.arange(40) >= 5, -1, y),
                 r"example t5: label -1 is not in \[0, 13\)$"),
}


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_bad_labels_are_named_before_any_forward(monkeypatch, case):
    change, message = BAD_LABELS[case]
    model, data = ragged_fusion_set()
    bad = dataclasses.replace(data, labels=change(data.labels))
    monkeypatch.setattr(metrics, "forward", None)  # never reached
    with pytest.raises(ValueError, match=f"^data: {message}"):
        metrics.report(model, bad, k=3)
    with pytest.raises(ValueError, match=f"^data: {message}"):
        _validation_topk_accuracy(model, bad, 3)
    for train_set, val_set, split in ((bad, data, "train"), (data, bad, "validation")):
        with pytest.raises(ValueError, match=f"^{split}: {message}"):
            train(model, train_set, val_set, TrainConfig(epochs=1))
