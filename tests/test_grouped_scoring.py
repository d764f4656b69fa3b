"""Scoring that encodes each distinct token sequence once.

``prepare`` numbers each row's token list, and ``metrics.predict_all`` runs
the text branch once per distinct sequence. The oracle is the untrimmed
forward of every row itself, ``chunk_bounds`` chunks in row order, as
scoring ran before it shared encodings: every row's probabilities must
have its bytes, with shared entries and with one entry per row.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from fusenet import metrics, synth
from fusenet import model as model_module
from fusenet.dataset import Example, FeaturePipeline, prepare
from fusenet.embeddings import EmbeddedSequence, random_table
from fusenet.layers import AllMaskedError, BiLstmEncoder
from fusenet.model import (ModelConfig, backward, build_variant, chunk_bounds, encode_text,
                           forward, topk_indices)
from fusenet.numcore import Rng, ShapeError
from fusenet.textprep import normalize, tokenize

T = 20  # the quickstart --max-seq-len
WORDS = synth.vocabulary()
TABLE = random_table(WORDS, 16, seed=4)


def model_for(variant, data, seed=5):
    """A quickstart-shaped ``variant`` model, weights moved off their initial values."""
    config = ModelConfig(num_feature_dim=data.num.shape[1], cat_feature_dim=data.cat.shape[1],
                         embed_dim=TABLE.dim, lstm_hidden=32, mlp_hidden=32, max_seq_len=T,
                         seed=seed)
    model = build_variant(config, variant)
    model.theta += Rng(seed).normal(model.theta.shape, scale=0.3)
    return model


def prepared(examples):
    return prepare(examples, FeaturePipeline.fit(examples), TABLE, T)


def synth_corpus(n=260, seed=7):
    return prepared(synth.generate_synthetic(n, 0.05, seed)[0])


def corpus_of(texts, seed=0):
    """One example per text, each with its own seeded features."""
    rng = Rng(seed)
    examples = [Example(id=f"x{i}", text=text, numerical=rng.normal(3).tolist(),
                        categorical=[("tier", "ab"[int(rng.random() < 0.5)])], label="Other")
                for i, text in enumerate(texts)]
    return prepared(examples)


def renumbered(data):
    """``data`` with its entries of ``texts`` in reverse, so that entry order
    is not the order of each entry's first row."""
    return dataclasses.replace(data, texts=data.texts[::-1],
                               groups=data.groups.max() - data.groups)


def oracle_probs(model, data):
    """Forwards of every row's own sequence, chunk_bounds chunks in row order,
    a lone row as two copies of itself."""
    rows = np.arange(len(data)).repeat(2 if len(data) == 1 else 1)
    return np.concatenate([forward(model, *data.inputs(model, rows[slice(*bounds)]))[0]
                           for bounds in chunk_bounds(len(rows))])[:len(data)]


def scored(monkeypatch, model, data):
    """predict_all's probabilities, and the rows of each encoder call.

    The chunks are scored in row order, so the probabilities of the
    forwards, in call order, must be those predict_all returns (a lone
    row's forward holds it twice)."""
    probs, encoded = [], []
    encoder_forward = BiLstmEncoder.forward

    def recording_forward(model, *args, **kwargs):
        out, cache = forward(model, *args, **kwargs)
        probs.append(out)
        return out, cache

    def recording_encoder_forward(self, vectors, *args, **kwargs):
        encoded.append(len(vectors))
        return encoder_forward(self, vectors, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(model_module, "forward", recording_forward)
        patch.setattr(BiLstmEncoder, "forward", recording_encoder_forward)
        got = metrics.predict_all(model, data)
    assert np.array_equal(got, np.concatenate(probs)[:len(got)])
    return got, encoded


def assert_scores_like_the_oracle(monkeypatch, model, data):
    """Both paths give the oracle's bytes; returns the grouped path's encoder calls."""
    __tracebackhide__ = True
    want = oracle_probs(model, data)
    got, encoded = scored(monkeypatch, model, data)
    ungrouped, _ = scored(monkeypatch, model, dataclasses.replace(
        data, texts=data.seqs, groups=np.arange(len(data))))
    assert np.array_equal(got, want) and np.array_equal(ungrouped, want)
    assert np.array_equal(topk_indices(got, 3), topk_indices(want, 3))
    return encoded


VARIANTS = ["fusion", "text"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_synth_corpus(monkeypatch, variant):
    data = synth_corpus()
    model = model_for(variant, data)
    encoded = assert_scores_like_the_oracle(monkeypatch, model, data)
    assert sum(encoded) == data.groups.max() + 1 < len(data) / 5
    assert_scores_like_the_oracle(monkeypatch, model, renumbered(data))
    # Entries no row names, one all padding and one live, are never encoded.
    texts = data.texts
    unused = dataclasses.replace(data, groups=data.groups + 1, texts=EmbeddedSequence(
        vectors=np.concatenate([np.zeros_like(texts.vectors[:1]), texts.vectors,
                                texts.vectors[:1]]),
        mask=np.concatenate([np.zeros_like(texts.mask[:1]), texts.mask, texts.mask[:1]])))
    got, with_unused = scored(monkeypatch, model, unused)
    assert got.tobytes() == metrics.predict_all(model, data).tobytes()
    assert sum(with_unused) == sum(encoded)


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_sharing_one_text_encode_it_twice(monkeypatch, variant):
    data = corpus_of(["my loan was declined why"] * 5)
    assert data.groups.tolist() == [0] * 5
    encoded = assert_scores_like_the_oracle(monkeypatch, model_for(variant, data), data)
    assert encoded == [2]  # never one row alone: a one-row product runs gemv


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_row(monkeypatch, variant):
    data = corpus_of(["when will the funds arrive"])
    assert assert_scores_like_the_oracle(monkeypatch, model_for(variant, data), data) == [2]


@pytest.mark.parametrize("variant", VARIANTS)
def test_65_distinct_sequences_split_into_two_chunks(monkeypatch, variant):
    texts = [f"{a} {b}" for a, b in zip(WORDS[:65], WORDS[65:130])]
    data = corpus_of(texts + texts[::-1])  # each twice, with other features
    assert data.groups.max() == 64
    encoded = assert_scores_like_the_oracle(monkeypatch, model_for(variant, data), data)
    assert encoded == [32, 33]


@pytest.mark.parametrize("variant", VARIANTS)
def test_equal_texts_with_different_features(monkeypatch, variant):
    data = corpus_of(["how do i pay off my plan early", "what does it cost"] * 4, seed=2)
    model = model_for(variant, data)
    assert data.groups.tolist() == [0, 1] * 4
    assert assert_scores_like_the_oracle(monkeypatch, model, data) == [2]
    if variant == "fusion":
        probs, _ = scored(monkeypatch, model, data)
        assert len({p.tobytes() for p in probs[::2]}) == 4


@pytest.mark.parametrize("variant", VARIANTS)
def test_texts_that_differ_only_beyond_max_seq_len_share_a_group(monkeypatch, variant):
    head = " ".join(WORDS[:T])
    texts = [head, f"{head} {WORDS[T]}", f"{head} {WORDS[T + 1]} {WORDS[T + 2]}",
             " ".join(WORDS[1:T + 1])]
    data = corpus_of(texts)
    assert data.groups.tolist() == [0, 0, 0, 1]
    encoded = assert_scores_like_the_oracle(monkeypatch, model_for(variant, data), data)
    assert encoded == [2]


def test_groups_are_the_distinct_truncated_token_lists():
    data = synth_corpus()
    examples = synth.generate_synthetic(260, 0.05, 7)[0]
    number = {}
    want = [number.setdefault(tuple(tokenize(normalize(ex.text), T).tokens), len(number))
            for ex in examples]
    assert data.groups.tolist() == want


@pytest.mark.parametrize("layout", ["prepared", "renumbered"])
def test_all_masked_error_names_the_first_such_row_in_row_order(layout):
    data = synth_corpus()
    data = {"prepared": data, "renumbered": renumbered(data)}[layout]
    first_rows = np.sort(np.unique(data.groups, return_index=True)[1])
    early, late = first_rows[5], first_rows[20]  # renumbered, late's entry comes first
    data.texts.mask[data.groups[[late, early]]] = False
    with pytest.raises(AllMaskedError, match=f"^example {data.ids[early]}: "):
        metrics.predict_all(model_for("fusion", data), data)


@pytest.mark.parametrize("groups, message", [
    (lambda g, size: None, "embedded sequences without groups"),
    (lambda g, size: np.where(g == 3, size, g), "groups must lie in"),
    (lambda g, size: -1 - g, "groups must lie in"),
], ids=["none", "past-the-end", "negative"])
def test_groups_that_do_not_index_the_texts_are_refused(groups, message):
    data = synth_corpus()
    data = dataclasses.replace(data, groups=groups(data.groups, len(data.texts.mask)))
    with pytest.raises(ValueError, match=f"^data: {message}"):
        metrics.predict_all(model_for("fusion", data), data)


def test_the_encoder_sees_each_of_34_sequences_of_a_quickstart_corpus_once(monkeypatch):
    data = prepared(synth.generate_synthetic(1300, 0.05, 5)[0])
    _, encoded = scored(monkeypatch, model_for("fusion", data), data)
    assert sum(encoded) == 34 and len(data) == 1300


@pytest.mark.parametrize("variant", VARIANTS)
def test_given_text_features_must_fit_and_keep_no_cache(variant):
    data = corpus_of(["what does it cost", "when will the funds arrive"])
    model = model_for(variant, data)
    num, cat, seq = data.inputs(model, slice(None))
    features = encode_text(model, seq)
    probs, cache = forward(model, num, cat, text=features)
    assert np.array_equal(probs, forward(model, num, cat, seq)[0])
    with pytest.raises(ValueError, match="kept no cache"):
        backward(model, cache, np.ones_like(probs))
    with pytest.raises(ShapeError, match="text features"):
        forward(model, num, cat, text=features[:, 1:])
    with pytest.raises(ShapeError, match="text features"):
        forward(model, num, cat, text=features[None])


# SHA-256 of predict_all's probabilities and of the report JSON they give
# (as ``eval --out`` writes it) on the 260-row synth corpus.
PINNED = {
    "fusion": ("eb828e9d4899de834a1dc57ef82c72f0ab921ae83bca6ea33868d82c0a189c2b",
               "d4b229a20a4cf5e6c5b8cbd1b3b4ab2ad1e865446101ce649689bbbaa16af30c"),
    "text": ("8f84510a3ab92e47f0223444afac3ff7cee880f60d3e30b29bb0516af1717570",
             "0acfdc3d33c1a3b02856a1986baf18cb171f3c0473bfa0923dcce3846216557f"),
    "mlp": ("68278734c502e31bd57c689d075e4b33893db9d35c76b4a90c33a7a5af0d8fa7",
            "b7b3b1856321bf3c7970b53bb6988d73a31a20fe16534b82e47562a4d87853ac"),
}


@pytest.mark.parametrize("variant", sorted(PINNED))
def test_probabilities_and_report_bytes_are_pinned(variant):
    data = synth_corpus()
    model = model_for(variant, data)
    probs = metrics.predict_all(model, data)
    assert probs.shape == (len(data), 13) and probs.dtype == np.float64
    report = json.dumps(metrics.to_json(metrics.report(model, data, k=3)), indent=2)
    assert (hashlib.sha256(probs.tobytes()).hexdigest(),
            hashlib.sha256(report.encode()).hexdigest()) == PINNED[variant]
