"""The batched forward/backward path against per-example results.

The batch is ragged: B=3 rows of max_seq_len 5, one full length, one of
length 1 and one ending in padding. The per-example reference runs each
row alone through the same layers in their one-example shapes; a tiny
per-gate, per-timestep forward written straight from the LSTM and
attention equations checks the fused gate layout on its own.
"""

import hashlib

import numpy as np
import pytest

from fusenet.dataset import PreparedDataset
from fusenet.embeddings import EmbeddedSequence
from fusenet.layers import AllMaskedError, LstmCell
from fusenet.model import VARIANTS, backward, build_variant, forward, load, save
from fusenet.numcore import Rng, sigmoid
from fusenet.training import (TrainConfig, batch_loss, cross_entropy, max_relative_error,
                              numeric_gradient, small_check_config, train)

LENGTHS = (5, 1, 3)
CLASS_WEIGHTS = np.array([0.5, 2.0, 1.0, 3.0, 0.25])  # small_check_config has 5 classes


def ragged_batch(seed, config):
    """Features, one (B, T, d) sequence batch (row j is ``seqs[j]``) and labels."""
    rng = Rng(seed).child(41)
    vectors = np.stack([rng.normal((config.max_seq_len, config.embed_dim)) for _ in LENGTHS])
    mask = np.arange(config.max_seq_len) < np.array(LENGTHS)[:, None]
    vectors[~mask] = 0.0
    seqs = EmbeddedSequence(vectors=vectors, mask=mask)
    num = rng.normal((len(LENGTHS), config.num_feature_dim))
    cat = (rng.random((len(LENGTHS), config.cat_feature_dim)) < 0.5).astype(np.float64)
    labels = rng.integers(0, config.num_classes, len(LENGTHS))
    return num, cat, seqs, labels


@pytest.mark.parametrize("weights", [None, CLASS_WEIGHTS], ids=["unweighted", "class-weighted"])
def test_batch_gradient_matches_finite_differences(weights):
    config = small_check_config(seed=2)
    model = build_variant(config, "fusion")
    num, cat, seq, labels = ragged_batch(2, config)

    def loss():
        return batch_loss(forward(model, num, cat, seq)[0].probs, labels, weights)[0]

    pred, cache = forward(model, num, cat, seq)
    analytic = backward(model, cache, batch_loss(pred.probs, labels, weights)[1])
    for name, arr in model.param_blocks():
        err = max_relative_error(analytic[name], numeric_gradient(loss, arr))
        assert err < 1e-4, (name, err)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("weights", [None, CLASS_WEIGHTS], ids=["unweighted", "class-weighted"])
def test_batch_equals_sum_of_examples(variant, weights):
    config = small_check_config(seed=4)
    model = build_variant(config, variant)
    num, cat, seqs, labels = ragged_batch(4, config)
    pred, cache = forward(model, num, cat, seqs)
    loss, dlogits = batch_loss(pred.probs, labels, weights)
    grads = backward(model, cache, dlogits)

    n = len(LENGTHS)
    w = np.ones(config.num_classes) if weights is None else weights
    ref_loss = 0.0
    ref_grads = {name: np.zeros(arr.shape) for name, arr in model.param_blocks()}
    for j, label in enumerate(labels):
        one, one_cache = forward(model, num[j], cat[j], seqs[j])
        assert np.max(np.abs(one.probs - pred.probs[j])) <= 1e-12
        assert one.top_k == pred.top_k[j]
        ref_loss += w[label] * cross_entropy(one.probs, int(label)) / n
        d = one.probs.copy()
        d[label] -= 1.0
        for name, g in backward(model, one_cache, d * (w[label] / n)).items():
            ref_grads[name] += g
    assert abs(loss - ref_loss) <= 1e-12
    assert set(grads) == set(ref_grads)
    for name, ref in ref_grads.items():
        assert np.max(np.abs(grads[name] - ref)) <= 1e-12, name


def test_batch_dropout_masks_match_rows_run_in_order():
    config = small_check_config(seed=6)
    model = build_variant(config, "fusion")
    num, cat, seqs, _ = ragged_batch(6, config)
    batched, _ = forward(model, num, cat, seqs, dropout_rate=0.5,
                         drop_rng=Rng(9))
    rng = Rng(9)
    for j in range(len(LENGTHS)):
        one, _ = forward(model, num[j], cat[j], seqs[j], dropout_rate=0.5, drop_rng=rng)
        assert np.max(np.abs(one.probs - batched.probs[j])) <= 1e-12


def _reference_text_vector(model, vectors, mask):
    """One example, one gate and one timestep at a time."""
    enc = model.encoder

    def run(cell, order):
        h = np.zeros(enc.hidden_dim)
        c = np.zeros(enc.hidden_dim)
        out = {}
        for t in order:
            u = np.concatenate([h, vectors[t]])
            i = sigmoid(u @ cell.W["i"] + cell.b["i"])
            f = sigmoid(u @ cell.W["f"] + cell.b["f"])
            o = sigmoid(u @ cell.W["o"] + cell.b["o"])
            q = np.tanh(u @ cell.W["q"] + cell.b["q"])
            c = f * c + i * q
            h = o * np.tanh(c)
            out[t] = h
        return out

    T = len(vectors)
    fwd, bwd = run(enc.fwd, range(T)), run(enc.bwd, range(T - 1, -1, -1))
    H = np.array([np.concatenate([fwd[t], bwd[t]]) for t in range(T)])
    scores = np.tanh(H @ model.attention.w + model.attention.b[0])
    e = np.exp(scores[mask] - np.max(scores[mask]))
    alphas = np.zeros(T)
    alphas[mask] = e / np.sum(e)
    return alphas @ H


def test_fused_text_branch_matches_per_gate_reference():
    config = small_check_config(seed=8)
    model = build_variant(config, "text")
    _, _, seq, _ = ragged_batch(8, config)
    H, _ = model.encoder.forward(seq.vectors)
    a, _, _ = model.attention.forward(H, seq.mask)
    for j in range(len(LENGTHS)):
        one = seq[j]
        ref = _reference_text_vector(model, one.vectors, one.mask)
        assert np.max(np.abs(a[j] - ref)) <= 1e-12


def test_gate_blocks_are_views_of_the_fused_matrix():
    cell = LstmCell.init(Rng(3), 4, 5)
    assert cell.W_all.shape == (9, 20) and cell.b_all.shape == (20,)
    params = cell.params()
    assert list(params) == ["W_i", "W_f", "W_o", "W_q", "b_i", "b_f", "b_o", "b_q"]
    params["W_o"] -= 1.0  # an optimizer's in-place update
    params["b_q"][...] = 7.0  # a checkpoint load
    assert np.array_equal(cell.W_all[:, 10:15], cell.W["o"])
    assert np.all(cell.b_all[15:] == 7.0) and np.all(cell.b["q"] == 7.0)


def test_all_masked_row_names_its_example():
    config = small_check_config(seed=1)
    model = build_variant(config, "fusion")
    num, cat, seq, _ = ragged_batch(1, config)
    seq.mask[1] = False
    with pytest.raises(AllMaskedError, match="example b:"):
        forward(model, num, cat, seq, example_id=["a", "b", "c"])


# Written by the per-gate, per-example implementation that preceded the
# fused layout, for build_variant(small_check_config(5), "fusion"), and
# its probabilities on the input below.
V1_SHA256 = "ed37601fdd61df228dd23c74e28a2c030b8bad25dbc85fca171f23de7220241c"
V1_PROBS = ["0x1.9ba078ef53d90p-3", "0x1.61a15d2deba17p-3", "0x1.2d45b2d1d6aabp-3",
            "0x1.52f8ec7425498p-3", "0x1.413fc54e6248bp-2"]


def test_v1_checkpoint_bytes_and_predictions_unchanged(tmp_path):
    config = small_check_config(5)
    path = tmp_path / "v1.afn"
    save(build_variant(config, "fusion"), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == V1_SHA256
    rng = Rng(5).child(1)
    num = rng.normal(config.num_feature_dim)
    cat = rng.normal(config.cat_feature_dim)
    vectors = rng.normal((config.max_seq_len, config.embed_dim))
    mask = np.array([True, True, True, False, False])
    vectors[~mask] = 0.0
    pred, _ = forward(load(path), num, cat, EmbeddedSequence(vectors, mask))
    expected = np.array([float.fromhex(p) for p in V1_PROBS])
    assert np.max(np.abs(pred.probs - expected)) <= 1e-12


@pytest.mark.parametrize("bad", ["rows", "length", "width", "mask"])
def test_train_names_the_split_whose_sequence_array_has_the_wrong_shape(bad):
    config = small_check_config(seed=3)
    num, cat, seq, labels = ragged_batch(3, config)
    good = PreparedDataset(ids=["a", "b", "c"], labels=labels, num=num, cat=cat, seqs=seq)
    wrong = {"rows": seq[:2], "length": EmbeddedSequence(seq.vectors[:, :4], seq.mask[:, :4]),
             "width": EmbeddedSequence(seq.vectors[..., :-1], seq.mask),
             "mask": EmbeddedSequence(seq.vectors, seq.mask[:, :4])}[bad]
    data = PreparedDataset(ids=["a", "b", "c"], labels=labels, num=num, cat=cat, seqs=wrong)
    model = build_variant(config, "fusion")
    with pytest.raises(ValueError, match="^validation: sequences"):
        train(model, good, data, TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="^train: sequences"):
        train(model, data, good, TrainConfig(epochs=1))
