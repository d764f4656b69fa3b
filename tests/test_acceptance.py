"""Acceptance gate: one test per release criterion, one printed line each.

The expensive fixtures (synthetic corpus + three trained variants per
noise setting) are module-scoped; run with ``pytest -s`` to see the
per-criterion PASS lines and timings.
"""

import itertools
import json
import time

import numpy as np
import pytest

from fusenet import dataset as ds
from fusenet import embeddings as emb
from fusenet import gradcheck, metrics, synth, training
from fusenet import model as mm
from fusenet.layers import FeedforwardAttention
from fusenet.numcore import Rng, affine
from fusenet.textprep import TokenSequence, contains_pii, normalize

EMBED_DIM = 16
EMBED_SEED = 7
MAX_SEQ_LEN = 20
MODEL_SEED = 1
SPLIT_SEED = 0

TRAIN_BUDGET = training.TrainConfig(
    epochs=10, batch_size=32, learning_rate=3e-3, optimizer="adam",
    early_stop_patience=3, seed=0,
)


def _train_all_variants(noise: float, data_seed: int):
    """Identical budget for every variant; returns test-split reports."""
    examples, manifest = synth.generate_synthetic(1300, noise, seed=data_seed)
    table = emb.random_table(synth.vocabulary(), EMBED_DIM, seed=EMBED_SEED)
    train_ex, val_ex, test_ex = ds.split(examples, seed=SPLIT_SEED)
    pipeline = ds.FeaturePipeline.fit(train_ex)
    prep = {
        "train": ds.prepare(train_ex, pipeline, table, MAX_SEQ_LEN),
        "val": ds.prepare(val_ex, pipeline, table, MAX_SEQ_LEN),
        "test": ds.prepare(test_ex, pipeline, table, MAX_SEQ_LEN),
    }
    config = mm.ModelConfig(
        num_feature_dim=pipeline.num_dim, cat_feature_dim=pipeline.cat_dim,
        embed_dim=EMBED_DIM, lstm_hidden=32, mlp_hidden=32,
        num_classes=ds.NUM_CLASSES, max_seq_len=MAX_SEQ_LEN, seed=MODEL_SEED,
    )
    reports = {}
    started = time.perf_counter()
    for variant in mm.VARIANTS:
        best, _ = training.train(mm.build_variant(config, variant),
                                 prep["train"], prep["val"], TRAIN_BUDGET)
        reports[variant] = metrics.report(best, prep["test"], k=3)
    elapsed = time.perf_counter() - started
    return {"reports": reports, "elapsed": elapsed, "manifest": manifest}


@pytest.fixture(scope="module")
def ordering_runs():
    return _train_all_variants(noise=0.05, data_seed=5)


@pytest.fixture(scope="module")
def blindspot_runs():
    return _train_all_variants(noise=0.0, data_seed=11)


def test_criterion_1_gradient_fidelity():
    """Every layer and every variant under 1e-4 vs central differences."""
    started = time.perf_counter()
    tolerance = 1e-4
    worst: dict[str, float] = {}
    for seed in range(10):
        for name, err in gradcheck.layer_grad_checks(seed).items():
            worst[name] = max(worst.get(name, 0.0), err)
        for variant in mm.VARIANTS:
            result = gradcheck.grad_check(variant, seed=seed)
            key = f"variant.{variant}"
            worst[key] = max(worst.get(key, 0.0), max(result.values()))
    elapsed = time.perf_counter() - started

    for name in ("dense.identity", "dense.sigmoid", "dense.tanh", "lstm_step",
                 "bilstm.T3", "attention", "classifier_head",
                 "variant.fusion", "variant.mlp", "variant.text"):
        assert name in worst
        assert worst[name] < tolerance, (name, worst[name])
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    print(f"\ncriterion 1 gradient fidelity: PASS "
          f"(worst {max(worst.values()):.2e} < 1e-4 across 10 seeds, {elapsed:.1f}s)")


def test_criterion_2_fusion_ordering(ordering_runs):
    """Fused model beats both single sources by >= 2 points of top-3 accuracy."""
    reports = ordering_runs["reports"]
    fusion = reports["fusion"].accuracy
    text = reports["text"].accuracy
    mlp = reports["mlp"].accuracy
    chance = 3.0 / 13.0
    assert fusion >= text + 0.02, (fusion, text)
    assert fusion >= mlp + 0.02, (fusion, mlp)
    assert text >= chance and mlp >= chance
    assert ordering_runs["elapsed"] < 600.0
    print(f"criterion 2 ordering: PASS (fusion {fusion:.3f} vs text {text:.3f} "
          f"vs signals {mlp:.3f}; trained in {ordering_runs['elapsed']:.0f}s)")


def _recall(report, class_name):
    return report.per_class_recall[report.class_names.index(class_name)]


def _weakest_pair(report, group):
    pairs = list(itertools.combinations(group, 2))
    means = {
        pair: (_recall(report, pair[0]) + _recall(report, pair[1])) / 2.0
        for pair in pairs
    }
    return min(means, key=lambda p: (means[p], p))


def test_criterion_3_single_source_blind_spots(blindspot_runs):
    """On noise-0 data each baseline has a confused pair the fusion resolves."""
    reports = blindspot_runs["reports"]

    def pair_mean(report, pair):
        return (_recall(report, pair[0]) + _recall(report, pair[1])) / 2.0

    # Text-disambiguated classes (shared signal profile): tabular-only blind.
    mlp_pair = _weakest_pair(reports["mlp"], synth.SIGNAL_SHARED_GROUP)
    mlp_recall = pair_mean(reports["mlp"], mlp_pair)
    fusion_on_mlp_pair = pair_mean(reports["fusion"], mlp_pair)
    assert mlp_recall < 0.7, (mlp_pair, mlp_recall)
    assert fusion_on_mlp_pair > 0.9, (mlp_pair, fusion_on_mlp_pair)
    gap_a = fusion_on_mlp_pair - mlp_recall
    assert gap_a >= 0.15

    # Signal-disambiguated classes (shared template pool): text-only blind.
    text_pair = _weakest_pair(reports["text"], synth.TEXT_SHARED_GROUP)
    text_recall = pair_mean(reports["text"], text_pair)
    fusion_on_text_pair = pair_mean(reports["fusion"], text_pair)
    assert text_recall < 0.7, (text_pair, text_recall)
    assert fusion_on_text_pair > 0.9, (text_pair, fusion_on_text_pair)
    gap_b = fusion_on_text_pair - text_recall
    assert gap_b >= 0.15

    print(f"criterion 3 blind spots: PASS "
          f"(signals-only {mlp_recall:.2f} vs fusion {fusion_on_mlp_pair:.2f} on {mlp_pair}; "
          f"text-only {text_recall:.2f} vs fusion {fusion_on_text_pair:.2f} on {text_pair})")


def test_criterion_4_metric_exactness(ordering_runs, blindspot_runs):
    """Library metrics equal a per-case enumeration oracle, exactly."""

    def oracle_accuracy(preds, labels):
        hits = 0
        for i in range(len(labels)):
            hits += int(any(p == labels[i] for p in preds[i]))
        return hits / len(labels)

    def oracle_recall(preds, labels, cls):
        total = sum(1 for y in labels if y == cls)
        if total == 0:
            return None
        hits = sum(
            1 for i in range(len(labels))
            if labels[i] == cls and any(p == labels[i] for p in preds[i])
        )
        return hits / total

    rng = Rng(404)
    for _ in range(500):
        n = int(rng.integers(1, 50))
        orders = [rng.permutation(13) for _ in range(n)]
        preds = [[int(c) for c in order[:3]] for order in orders]
        labels = [int(rng.integers(0, 13)) for _ in range(n)]
        # Each row's probabilities rank its classes in its drawn order.
        probs = np.zeros((n, 13))
        for row, order in zip(probs, orders):
            row[order] = np.arange(13, 0, -1) / 13
        ranks = metrics.true_class_ranks(probs, labels)
        assert metrics.topk_accuracy(ranks, 3) == oracle_accuracy(preds, labels)
        cls = int(rng.integers(0, 13))
        recall = metrics.compute_report(ranks, labels, 3).per_class_recall[cls]
        assert recall == oracle_recall(preds, labels, cls)

    # The weighted identity holds on every report this suite generated.
    produced = list(ordering_runs["reports"].values()) + list(blindspot_runs["reports"].values())
    for rep in produced:
        weighted = sum(
            (nk / rep.n) * r for nk, r in zip(rep.n_k, rep.per_class_recall) if r is not None
        )
        assert abs(weighted - rep.accuracy) <= 1e-12
    print(f"criterion 4 metric exactness: PASS (500 oracle sets exact; "
          f"identity to 1e-12 on {len(produced)} reports)")


def test_criterion_5_preprocessing_golden():
    """Verbatim normalization examples plus idempotence over a fuzz corpus."""
    assert normalize("April 29, 2017") == "this date"
    assert normalize("I’d like a loan") == "i would like a loan"
    assert normalize("john.doe@gmail.com") == "this email address"

    from test_textprep import fuzz_corpus
    corpus = fuzz_corpus(n=1000, seed=20240209)
    for s in corpus:
        once = normalize(s)
        assert normalize(once) == once
        assert not contains_pii(once)
    print("criterion 5 preprocessing: PASS (3 golden examples; "
          "idempotent and PII-free on 1000 fuzz strings)")


def test_criterion_6_determinism_and_round_trips(tmp_path):
    # Same-seed training is bit-identical at the checkpoint level.
    examples, _ = synth.generate_synthetic(130, 0.0, seed=2)
    train_ex, val_ex, _ = ds.split(examples, seed=0)
    pipeline = ds.FeaturePipeline.fit(train_ex)
    prep_train = ds.prepare(train_ex, pipeline, None, MAX_SEQ_LEN)
    prep_val = ds.prepare(val_ex, pipeline, None, MAX_SEQ_LEN)
    config = mm.ModelConfig(num_feature_dim=pipeline.num_dim, cat_feature_dim=pipeline.cat_dim,
                            embed_dim=4, lstm_hidden=4, mlp_hidden=8,
                            num_classes=13, max_seq_len=MAX_SEQ_LEN, seed=3)
    cfg = training.TrainConfig(epochs=3, batch_size=16, learning_rate=1e-3, seed=4)
    paths = []
    for run in range(2):
        best, _ = training.train(mm.build_variant(config, "mlp"), prep_train, prep_val, cfg)
        path = tmp_path / f"run{run}.afn"
        mm.save(best, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    # Model save/load round-trips bit-exactly (fusion variant).
    fusion_config = mm.ModelConfig(num_feature_dim=6, cat_feature_dim=5, embed_dim=4,
                                   lstm_hidden=4, mlp_hidden=6, num_classes=13,
                                   max_seq_len=5, seed=8)
    model = mm.build_variant(fusion_config, "fusion")
    model_path = tmp_path / "fusion.afn"
    mm.save(model, model_path)
    loaded = mm.load(model_path)
    for (name_a, a), (_, b) in zip(model.param_blocks(), loaded.param_blocks()):
        assert np.array_equal(a, b), name_a

    # Dataset JSONL round-trip is lossless.
    data_path = tmp_path / "rt.jsonl"
    ds.save_jsonl(examples, data_path)
    assert ds.load_jsonl(data_path) == examples

    # .vec loading matches the one-hot dot-product oracle exactly.
    rng = Rng(31)
    words = [f"w{i}" for i in range(120)]
    matrix = rng.normal((120, 9))
    vec_path = tmp_path / "oracle.vec"
    emb.write_vec_file(vec_path, words, matrix)
    table = emb.load_vec_file(vec_path)
    for idx in rng.integers(0, 120, size=100):
        word = words[int(idx)]
        onehot = np.zeros((1, 120))
        onehot[0, table.vocab[word]] = 1.0
        expected = affine(table.matrix, onehot, np.zeros(9))
        seq = emb.embed_sequence(table, TokenSequence([word], 1), 1)
        assert np.array_equal(seq.vectors, expected)
    print("criterion 6 determinism/round-trips: PASS (bit-identical checkpoints; "
          "lossless model/data round-trips; 100-word one-hot oracle exact)")


def test_criterion_7_attention_contract():
    rng = Rng(77)
    for seed in range(25):
        case = rng.child(seed)
        width = int(case.integers(2, 10))
        T = int(case.integers(2, 12))
        attn = FeedforwardAttention.init(case, width)
        H = case.normal((1, T, width)) * 4
        mask = case.random((1, T)) < 0.7
        if not mask.any():
            mask[0, int(case.integers(0, T))] = True
        _, alphas, _ = attn.forward(H, mask)
        assert abs(alphas.sum() - 1.0) < 1e-12
        assert np.all(alphas[~mask] == 0.0)
        assert np.all(alphas >= 0.0)

        # Uniform scores (zero parameters) must give exactly uniform weights.
        uniform = FeedforwardAttention(np.zeros(width), np.zeros(1))
        _, alphas_u, _ = uniform.forward(H, mask)
        live = int(mask.sum())
        assert np.max(np.abs(alphas_u[mask] - 1.0 / live)) < 1e-12
    print("criterion 7 attention contract: PASS (normalization 1e-12, "
          "masked weights exactly 0, uniform scores -> uniform weights)")
