import dataclasses
import json

import numpy as np
import pytest

from fusenet import metrics
from fusenet import model as model_module
from fusenet.dataset import CLASS_NAMES, PreparedDataset
from fusenet.embeddings import EmbeddedSequence
from fusenet.layers import AllMaskedError
from fusenet.metrics import (EvalReport, ReportError, compute_report, from_json, to_json,
                             topk_accuracy, true_class_ranks)
from fusenet.model import (ROW_CHUNK, SCORE_CHUNK, ModelConfig, backward, build_variant,
                           encode_text, forward, predict_topk, topk_indices)
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
    """n rows of probabilities, the top-k list of each (ranked in Python:
    largest first, ties to the lower index) and n labels. Probabilities
    are multiples of 1/5, so exact ties are common."""
    probs = rng.integers(0, 6, (n, num_classes)) / 5.0
    preds = [sorted(range(num_classes), key=lambda c: (-row[c], c))[:k]
             for row in probs.tolist()]
    labels = [int(rng.integers(0, num_classes)) for _ in range(n)]
    return true_class_ranks(probs, labels), preds, labels


def recall(ranks, labels, class_idx, k=3):
    """The top-k recall of ``class_idx`` as its report counts it."""
    return compute_report(ranks, labels, k).per_class_recall[class_idx]


class TestRecall:
    def test_all_hits(self):
        ranks = [0, 2, 1, 0]
        labels = [2] * 4
        assert recall(ranks, labels, 2) == 1.0

    def test_no_hits(self):
        ranks = [3, 12, 5, 3]
        labels = [2] * 4
        assert recall(ranks, labels, 2) == 0.0

    def test_absent_class_is_undefined_not_zero(self):
        ranks = [0]
        labels = [0]
        assert recall(ranks, labels, 5) is None

    def test_matches_enumeration_oracle(self):
        rng = Rng(51)
        for _ in range(500):
            ranks, preds, labels = random_prediction_set(rng, int(rng.integers(1, 40)))
            cls = int(rng.integers(0, 13))
            assert recall(ranks, labels, cls) == brute_force_recall(preds, labels, cls)


class TestAccuracy:
    def test_three_of_four(self):
        probs = np.tile([0.5, 0.3, 0.2] + [0.0] * 10, (4, 1))
        labels = [0, 1, 2, 5]
        ranks = true_class_ranks(probs, labels)
        assert ranks.tolist() == [0, 1, 2, 5]
        assert topk_accuracy(ranks, 3) == 0.75

    def test_k_spanning_all_classes_is_one(self):
        rng = Rng(52)
        ranks, _, _ = random_prediction_set(rng, 50, k=13)
        assert topk_accuracy(ranks, 13) == 1.0

    def test_matches_enumeration_oracle(self):
        rng = Rng(53)
        for _ in range(500):
            ranks, preds, labels = random_prediction_set(rng, int(rng.integers(1, 40)))
            assert topk_accuracy(ranks, 3) == brute_force_accuracy(preds, labels)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            topk_accuracy([], 3)


class TestReport:
    def test_single_class_dataset(self):
        ranks = [0, 2, 3]
        labels = [4, 4, 4]
        rep = compute_report(ranks, labels, k=3)
        assert rep.per_class_recall[rep.class_names.index(CLASS_NAMES[4])] == pytest.approx(2 / 3)
        assert rep.accuracy == pytest.approx(2 / 3)
        for idx, recall in enumerate(rep.per_class_recall):
            if idx != 4:
                assert recall is None

    def test_weighted_identity_holds_exactly(self):
        rng = Rng(54)
        for _ in range(100):
            ranks, _, labels = random_prediction_set(rng, int(rng.integers(5, 60)))
            rep = compute_report(ranks, labels, k=3)
            weighted = sum(
                (nk / rep.n) * r
                for nk, r in zip(rep.n_k, rep.per_class_recall) if r is not None
            )
            assert abs(weighted - rep.accuracy) <= 1e-12

    def test_counts_match_the_enumeration_oracles_exactly(self):
        rng = Rng(58)
        for _ in range(50):
            ranks, preds, labels = random_prediction_set(rng, int(rng.integers(1, 60)))
            rep = compute_report(ranks, labels, k=3)
            assert rep.n_k == [labels.count(idx) for idx in range(13)]
            assert rep.per_class_recall == [brute_force_recall(preds, labels, idx)
                                            for idx in range(13)]
            assert rep.accuracy == topk_accuracy(ranks, 3)
            assert rep.accuracy == brute_force_accuracy(preds, labels)

    @pytest.mark.parametrize("rank", [-1, 13])
    def test_a_rank_outside_the_classes_names_its_row(self, rank):
        with pytest.raises(ValueError, match=rf"^rank {rank} of row 1 is not in \[0, 13\)$"):
            compute_report([0, rank], [0, 3], k=3)

    @pytest.mark.parametrize("label", [-1, 13])
    def test_a_label_outside_the_classes_names_its_row(self, label):
        # -1 was counted as the last class, and 13 raised a bare IndexError.
        with pytest.raises(ValueError, match=rf"^label {label} of row 1 is not in \[0, 13\)$"):
            compute_report([0, 1], [0, label], k=3)

    @pytest.mark.parametrize("ranks", [[[0], [1]], [0]], ids=["column", "short"])
    def test_ranks_must_be_one_per_label(self, ranks):
        with pytest.raises(ValueError, match="expected one rank per label"):
            compute_report(ranks, [0, 1], k=1)

    @pytest.mark.parametrize("k", [0, 14])
    def test_k_outside_the_classes_rejected(self, k):
        with pytest.raises(ValueError, match=rf"^k must be in \[1, 13\], got {k}$"):
            compute_report([0], [0], k=k)

    def test_counts_a_ranked_array_as_its_lists(self):
        rng = Rng(59)
        ranks, _, labels = random_prediction_set(rng, 40)
        assert compute_report(ranks, np.array(labels), k=3) == compute_report(
            ranks.tolist(), labels, k=3)

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
            ranks = true_class_ranks(probs, labels)
            accs = [topk_accuracy(ranks, k) for k in (1, 2, 3, 4)]
            assert all(accs[i + 1] >= accs[i] for i in range(3))

    def test_permutation_invariance(self):
        rng = Rng(56)
        ranks, _, labels = random_prediction_set(rng, 30)
        rep1 = compute_report(ranks, labels, k=3)
        order = rng.permutation(30)
        ranks2 = [ranks[int(i)] for i in order]
        labels2 = [labels[int(i)] for i in order]
        rep2 = compute_report(ranks2, labels2, k=3)
        assert rep1.accuracy == rep2.accuracy
        assert rep1.per_class_recall == rep2.per_class_recall

    def test_json_round_trip(self):
        rng = Rng(57)
        ranks, _, labels = random_prediction_set(rng, 40)
        rep = compute_report(ranks, labels, k=3)
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
        doc = to_json(compute_report([0], [0], k=3))
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(ReportError, match=f"'{field}'"):
            from_json(doc)

    def test_json_version_checked(self):
        rep = compute_report([0], [0], k=3)
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
    model, data = ragged_fusion_set(SCORE_CHUNK + 8, variant=variant)
    one = one_at_a_time(model, data, 3)
    # One example takes predict_all's route: the same bytes as a one-row dataset.
    for j, pred in enumerate(one):
        assert pred.probs.tobytes() == metrics.predict_all(model, one_row(data, j))[0].tobytes()
    expected = [pred.top_k for pred in one]
    batch_rows = []

    def counting_forward(model, num_x, cat_x, seq=None, **kwargs):
        batch_rows.append(len(num_x))
        return forward(model, num_x, cat_x, seq, **kwargs)

    monkeypatch.setattr(model_module, "forward", counting_forward)
    assert topk_indices(metrics.predict_all(model, data), 3).tolist() == expected
    assert batch_rows == [SCORE_CHUNK + 8]  # one chunk of up to ROW_CHUNK rows
    ranks = true_class_ranks(np.array([pred.probs for pred in one]), data.labels)
    assert metrics.report(model, data, k=3) == compute_report(ranks, data.labels, 3)


@pytest.mark.parametrize("n", [SCORE_CHUNK + 8, 1, ROW_CHUNK + 1])
@pytest.mark.parametrize("variant", ["fusion", "text", "mlp"])
def test_predict_topk_gives_its_row_of_predict_all_and_no_call_scores_one_row(
        monkeypatch, variant, n):
    model, data = ragged_fusion_set(n, variant=variant)
    calls = []

    def recording(fn):
        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((fn.__name__, len(out[0] if fn is forward else out)))
            return out
        return recorded

    monkeypatch.setattr(model_module, "forward", recording(forward))
    monkeypatch.setattr(model_module, "encode_text", recording(encode_text))
    probs = metrics.predict_all(model, data)
    for j, pred in enumerate(one_at_a_time(model, data, 3)):
        assert pred.probs.tobytes() == probs[j].tobytes(), j
    assert {name for name, _ in calls} == (
        {"forward", "encode_text"} if model.uses_text else {"forward"})
    assert min(rows for _, rows in calls) >= 2, calls


def assert_ranks_are_topk_positions(probs, labels):
    """For every k, rank < k exactly when the label is in topk_indices' k."""
    __tracebackhide__ = True
    ranks = true_class_ranks(probs, labels)
    for k in range(1, probs.shape[1] + 1):
        expected = [int(y) in top for y, top in zip(labels, topk_indices(probs, k).tolist())]
        assert (ranks < k).tolist() == expected, k


@pytest.mark.parametrize("variant", ["fusion", "text", "mlp"])
def test_true_class_ranks_are_topk_positions_of_scored_rows(variant):
    model, data = ragged_fusion_set(90, variant=variant)
    assert_ranks_are_topk_positions(metrics.predict_all(model, data), data.labels)


def test_true_class_ranks_are_topk_positions_with_ties_duplicates_and_zeros():
    rng = Rng(61)
    coarse = rng.integers(0, 4, (40, 13)) / 3.0  # exact ties, zeros and ones
    rows = np.concatenate([coarse, coarse[:10], np.zeros((3, 13)), np.eye(13)[:4]])
    rows[5] = rows[6]  # a duplicated row inside the block as well
    labels = rng.integers(0, 13, len(rows))
    labels[-7:] = [0, 12, 6, 0, 1, 2, 5]  # all-zero rows and one-hot rows
    assert_ranks_are_topk_positions(rows, labels)
    # Each label of one row: its rank is its position in the stable ranking.
    order = topk_indices(rows[:1], 13)[0]
    assert true_class_ranks(np.repeat(rows[:1], 13, axis=0), order).tolist() == list(range(13))


@pytest.mark.parametrize("k", [0, 14])
def test_report_refuses_a_k_outside_the_classes(k):
    model, data = ragged_fusion_set()
    with pytest.raises(ValueError, match=rf"^k must be in \[1, 13\], got {k}$"):
        metrics.report(model, data, k=k)


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
    one = one_at_a_time(model, data, 3)
    hits = sum(int(y) in pred.top_k for y, pred in zip(data.labels, one))
    assert accuracy == hits / len(data)
    ranks = true_class_ranks(np.array([pred.probs for pred in one]), data.labels)
    assert accuracy == topk_accuracy(ranks, 3)


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
    monkeypatch.setattr(model_module, "forward", None)  # never reached
    with pytest.raises(ValueError, match=f"^data: {message}"):
        metrics.report(model, bad, k=3)
    with pytest.raises(ValueError, match=f"^data: {message}"):
        _validation_topk_accuracy(model, bad, 3)
    for train_set, val_set, split in ((bad, data, "train"), (data, bad, "validation")):
        with pytest.raises(ValueError, match=f"^{split}: {message}"):
            train(model, train_set, val_set, TrainConfig(epochs=1))
