"""The batched forward/backward path against per-example results.

The batch is ragged: B=3 rows of max_seq_len 5, one full length, one of
length 1 and one ending in padding. The per-example reference runs each
row alone through the same layers as a one-row batch; a tiny
per-gate, per-timestep forward written straight from the LSTM and
attention equations checks the fused gate layout on its own.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from fusenet import training
from fusenet.dataset import PreparedDataset
from fusenet.embeddings import EmbeddedSequence
from fusenet.layers import ACTIVATIONS, AllMaskedError, DenseLayer
from fusenet.model import VARIANTS, backward, build_variant, forward, load, save, topk_indices
from fusenet.numcore import Rng, sigmoid
from fusenet.gradcheck import max_relative_error, numeric_gradient, small_check_config
from fusenet.training import TrainConfig, batch_loss, train

LENGTHS = (5, 1, 3)
# Per-class scales of a row's loss and logit gradient, so backward sees
# rows of unequal upstream scale (small_check_config has 5 classes).
CLASS_WEIGHTS = np.array([0.5, 2.0, 1.0, 3.0, 0.25])


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


def scaled_loss(probs, labels, weights):
    """``batch_loss``, with row j's loss and logit gradient scaled by ``weights[labels[j]]``."""
    loss, dlogits = batch_loss(probs, labels)
    if weights is None:
        return loss, dlogits
    w = weights[labels]
    per_row = [batch_loss(probs[j:j + 1], labels[j:j + 1])[0] for j in range(len(labels))]
    return float(np.mean(w * per_row)), dlogits * w[:, None]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("weights", [None, CLASS_WEIGHTS], ids=["unweighted", "class-weighted"])
def test_batch_gradient_matches_finite_differences(variant, weights):
    config = small_check_config(seed=2)
    model = build_variant(config, variant)
    num, cat, seq, labels = ragged_batch(2, config)

    def loss():
        return scaled_loss(forward(model, num, cat, seq)[0], labels, weights)[0]

    probs, cache = forward(model, num, cat, seq)
    analytic = dict(model.param_blocks(backward(model, cache, scaled_loss(probs, labels,
                                                                           weights)[1])))
    for name, arr in model.param_blocks():
        err = max_relative_error(analytic[name], numeric_gradient(loss, arr))
        assert err < 1e-4, (name, err)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("weights", [None, CLASS_WEIGHTS], ids=["unweighted", "class-weighted"])
def test_batch_equals_sum_of_examples(variant, weights):
    config = small_check_config(seed=4)
    model = build_variant(config, variant)
    num, cat, seqs, labels = ragged_batch(4, config)
    probs, cache = forward(model, num, cat, seqs)
    loss, dlogits = scaled_loss(probs, labels, weights)
    grad = backward(model, cache, dlogits)

    n = len(LENGTHS)
    w = np.ones(config.num_classes) if weights is None else weights
    ref_loss = 0.0
    ref_grad = np.zeros_like(model.theta)
    for j, label in enumerate(labels):
        row = slice(j, j + 1)
        one, one_cache = forward(model, num[row], cat[row], seqs[row])
        assert np.max(np.abs(one[0] - probs[j])) <= 1e-12
        assert np.array_equal(topk_indices(one, 3)[0], topk_indices(probs, 3)[j])
        ref_loss += w[label] * batch_loss(one, labels[row])[0] / n
        d = one.copy()
        d[0, label] -= 1.0
        ref_grad += backward(model, one_cache, d * (w[label] / n))
    assert abs(loss - ref_loss) <= 1e-12
    for (name, g), (_, ref) in zip(model.param_blocks(grad), model.param_blocks(ref_grad)):
        assert np.max(np.abs(g - ref)) <= 1e-12, name


# backward()'s bytes on the ragged batch at seed 3, as the fused layout
# gave them when backward copied each layer's gradients into named views.
BACKWARD_SHA256 = {
    "fusion": "48ad9ade0e8641e1d78ad2a6edc2539cf15a290fe043f68320077df0e51e1603",
    "mlp": "0f433517860826559f475c99ac1c19fb49a0e34cb919340d29c55395de10b568",
    "text": "4061b8566f9d8faf6c88c786219a18d15d71203b7a2ed6b40604b4826b4f7f9d",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_bytes_are_pinned(variant):
    config = small_check_config(seed=3)
    model = build_variant(config, variant)
    num, cat, seqs, labels = ragged_batch(3, config)
    probs, cache = forward(model, num, cat, seqs)
    grad = backward(model, cache, batch_loss(probs, labels)[1])
    assert grad.dtype == np.float64 and grad.shape == model.theta.shape
    assert hashlib.sha256(grad.tobytes()).hexdigest() == BACKWARD_SHA256[variant]


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_dense_skips_its_input_gradient_with_the_same_parameter_gradients(activation):
    rng = Rng(17)
    layer = DenseLayer.init(rng.child(0), 6, 4, activation)
    x, dy = rng.normal((3, 6)), rng.normal((3, 4))
    _, cache = layer.forward(x)
    dx, grads = layer.backward(cache, dy)
    skipped, lean = layer.backward(cache, dy, input_grad=False)
    assert dx.shape == x.shape and skipped is None
    assert {n: g.tobytes() for n, g in lean.items()} == {n: g.tobytes() for n, g in grads.items()}


@pytest.mark.parametrize("rows", [slice(None), slice(0, 1)], ids=["ragged", "one-row"])
def test_encoder_skips_its_input_gradient_with_the_same_parameter_gradients(rows):
    config = small_check_config(seed=5)
    encoder = build_variant(config, "text").encoder
    vectors = ragged_batch(5, config)[2].vectors[rows]
    dH = Rng(18).normal((*vectors.shape[:2], encoder.out_dim))
    grads = {}
    for input_grad in (True, False):
        dX, grads[input_grad] = encoder.backward(encoder.forward(vectors)[1], dH, input_grad)
        assert dX.shape == vectors.shape if input_grad else dX is None
    assert ({n: g.tobytes() for n, g in grads[False].items()}
            == {n: g.tobytes() for n, g in grads[True].items()})


def test_batch_dropout_masks_match_rows_run_in_order():
    config = small_check_config(seed=6)
    model = build_variant(config, "fusion")
    num, cat, seqs, _ = ragged_batch(6, config)
    batched, _ = forward(model, num, cat, seqs, dropout_rate=0.5,
                         drop_rng=Rng(9))
    rng = Rng(9)
    for j in range(len(LENGTHS)):
        row = slice(j, j + 1)
        one, _ = forward(model, num[row], cat[row], seqs[row], dropout_rate=0.5, drop_rng=rng)
        assert np.max(np.abs(one[0] - batched[j])) <= 1e-12


def _reference_text_vector(model, vectors, mask):
    """One example, one gate and one timestep at a time, from the checkpoint's gate blocks."""
    enc = model.encoder
    blocks = dict(model.param_blocks())

    def run(direction, order):
        h = np.zeros(enc.hidden_dim)
        c = np.zeros(enc.hidden_dim)
        out = {}
        p = {name: blocks[f"encoder.{direction}.{name}"]
             for name in ("W_i", "W_f", "W_o", "W_q", "b_i", "b_f", "b_o", "b_q")}
        for t in order:
            u = np.concatenate([h, vectors[t]])
            i = sigmoid(u @ p["W_i"] + p["b_i"])
            f = sigmoid(u @ p["W_f"] + p["b_f"])
            o = sigmoid(u @ p["W_o"] + p["b_o"])
            q = np.tanh(u @ p["W_q"] + p["b_q"])
            c = f * c + i * q
            h = o * np.tanh(c)
            out[t] = h
        return out

    T = len(vectors)
    fwd, bwd = run("fwd", range(T)), run("bwd", range(T - 1, -1, -1))
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
    model = build_variant(small_check_config(seed=3), "text")
    cell = model.encoder.fwd
    assert cell.W_all.shape == (8, 16) and cell.b_all.shape == (16,)
    assert list(cell.params()) == ["W_all", "b_all"]
    blocks = dict(model.param_blocks())
    assert [name for name in blocks if name.startswith("encoder.fwd.")] == [
        f"encoder.fwd.{kind}_{gate}" for kind in "Wb" for gate in "ifoq"]
    theta, W_all = model.theta.copy(), cell.W_all.copy()
    blocks["encoder.fwd.W_o"] -= 1.0  # an optimizer's in-place update
    blocks["encoder.fwd.b_q"][...] = 7.0  # a checkpoint load
    W_all[:, 8:12] -= 1.0
    assert np.array_equal(cell.W_all, W_all) and np.array_equal(blocks["encoder.fwd.W_o"],
                                                                W_all[:, 8:12])
    assert np.all(cell.b_all[12:] == 7.0) and np.all(blocks["encoder.fwd.b_q"] == 7.0)
    # Both writes land in theta, and nowhere else.
    assert np.count_nonzero(model.theta != theta) == 8 * 4 + 4
    assert np.shares_memory(cell.W_all, model.theta) and np.shares_memory(cell.b_all, model.theta)


def test_all_masked_row_names_its_batch_row():
    config = small_check_config(seed=1)
    model = build_variant(config, "fusion")
    num, cat, seq, _ = ragged_batch(1, config)
    seq.mask[1] = False
    with pytest.raises(AllMaskedError, match=r"\(batch row 1\)$"):
        forward(model, num, cat, seq)


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
    seq = EmbeddedSequence(vectors[None], mask[None])
    probs, _ = forward(load(path), num[None], cat[None], seq)
    expected = np.array([float.fromhex(p) for p in V1_PROBS])
    assert np.max(np.abs(probs[0] - expected)) <= 1e-12


@pytest.mark.parametrize("bad", ["rows", "length", "width", "mask"])
def test_train_names_the_split_whose_sequence_array_has_the_wrong_shape(bad):
    config = small_check_config(seed=3)
    num, cat, seq, labels = ragged_batch(3, config)
    groups = np.arange(3)
    good = PreparedDataset(ids=["a", "b", "c"], labels=labels, num=num, cat=cat, texts=seq,
                           groups=groups)
    # "rows": the mask has fewer rows than the vectors (rows past the
    # last entry are the groups' check, below).
    wrong = {"rows": EmbeddedSequence(seq.vectors, seq.mask[:2]),
             "length": EmbeddedSequence(seq.vectors[:, :4], seq.mask[:, :4]),
             "width": EmbeddedSequence(seq.vectors[..., :-1], seq.mask),
             "mask": EmbeddedSequence(seq.vectors, seq.mask[:, :4])}[bad]
    data = PreparedDataset(ids=["a", "b", "c"], labels=labels, num=num, cat=cat, texts=wrong,
                           groups=groups)
    model = build_variant(config, "fusion")
    with pytest.raises(ValueError, match="^validation: sequences"):
        train(model, good, data, TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="^train: sequences"):
        train(model, data, good, TrainConfig(epochs=1))


@pytest.mark.parametrize("bad, message", [
    ("mask", "sequences"),  # texts holds 2 entries; the mask is not (2, T)
    ("groups-per-row", r"groups \(2,\) vs 3 rows"),
    ("group-past-the-last-entry", r"groups must lie in \[0, 2\)"),
    ("negative-group", r"groups must lie in \[0, 2\)"),
])
def test_train_names_the_split_whose_sequence_groups_are_wrong(bad, message):
    config = small_check_config(seed=3)
    num, cat, seq, labels = ragged_batch(3, config)
    texts, groups = seq[:2], [0, 1, 1]
    if bad == "mask":
        texts = EmbeddedSequence(texts.vectors, seq.mask)
    else:
        groups = {"groups-per-row": [0, 1], "group-past-the-last-entry": [0, 2, 1],
                  "negative-group": [0, -1, 1]}[bad]
    good, data = (PreparedDataset(ids=["a", "b", "c"], labels=labels, num=num, cat=cat,
                                  texts=t, groups=np.array(g))
                  for t, g in ((seq[:2], [0, 1, 1]), (texts, groups)))
    model = build_variant(config, "fusion")
    with pytest.raises(ValueError, match=f"^validation: {message}"):
        train(model, good, data, TrainConfig(epochs=1))
    with pytest.raises(ValueError, match=f"^train: {message}"):
        train(model, data, good, TrainConfig(epochs=1))


def test_train_names_the_split_whose_texts_come_without_groups():
    config = small_check_config(seed=3)
    num, cat, seq, labels = ragged_batch(3, config)
    good = PreparedDataset(ids=["a", "b", "c"], labels=labels, num=num, cat=cat, texts=seq,
                           groups=np.arange(3))
    data = PreparedDataset(ids=["a", "b", "c"], labels=labels, num=num, cat=cat, texts=seq)
    model = build_variant(config, "fusion")
    with pytest.raises(ValueError, match="^validation: embedded sequences without groups"):
        train(model, good, data, TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="^train: embedded sequences without groups"):
        train(model, data, good, TrainConfig(epochs=1))


@pytest.mark.parametrize("split", ["train", "validation"])
def test_train_names_an_all_padding_example_before_its_first_step(monkeypatch, split):
    config = small_check_config(seed=3)
    num, cat, seq, labels = ragged_batch(3, config)
    good = PreparedDataset(ids=["a", "b", "c"], labels=labels, num=num, cat=cat, texts=seq,
                           groups=np.arange(3))
    bad = dataclasses.replace(good, texts=EmbeddedSequence(seq.vectors, seq.mask.copy()))
    bad.texts.mask[2] = False
    clipped = []
    monkeypatch.setattr(training, "clip_grads_", lambda *args: clipped.append(args) or 0.0)
    sets = (bad, good) if split == "train" else (good, bad)
    with pytest.raises(AllMaskedError,
                       match="^example c: attention: no unmasked positions to attend to$"):
        train(build_variant(config, "fusion"), *sets, TrainConfig(epochs=1, batch_size=1))
    assert clipped == []
