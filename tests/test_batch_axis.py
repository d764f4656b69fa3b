"""The batch axis is mandatory below ``model.predict_topk``.

Every layer, ``numcore.affine`` and ``model.forward`` take a leading row
axis and name the shape of an input that lacks it. ``predict_topk`` is
the one entry point for a single example: it scores it as a batch of two
copies of itself, as ``model.score_rows`` scores a lone row, and returns
the first row.
"""

import re

import numpy as np
import pytest

from fusenet.embeddings import EmbeddedSequence
from fusenet.layers import BiLstmEncoder, DenseLayer, FeedforwardAttention, LstmCell
from fusenet.model import (VARIANTS, build_variant, encode_text, forward, predict_topk,
                           topk_indices)
from fusenet.numcore import Rng, ShapeError, affine
from fusenet.training import small_check_config

CONFIG = small_check_config(seed=4)


def unbatched_calls():
    """(name, call, shape of the input without a batch axis) of every boundary."""
    rng = Rng(3)
    dense = DenseLayer.init(rng.child(0), 4, 3)
    cell = LstmCell.init(rng.child(1), 3, 4)
    encoder = BiLstmEncoder.init(rng.child(2), 3, 4)
    attention = FeedforwardAttention.init(rng.child(3), 8)
    mlp = build_variant(CONFIG, "mlp")
    text = build_variant(CONFIG, "text")
    T, E = CONFIG.max_seq_len, CONFIG.embed_dim
    return [
        ("affine", lambda: affine(np.zeros((4, 3)), np.zeros(4), np.zeros(3)), (4,)),
        ("dense", lambda: dense.forward(np.zeros(4)), (4,)),
        ("lstm_step", lambda: cell.step(np.zeros((1, 4)), np.zeros((1, 4)), np.zeros(3)), (3,)),
        ("bilstm", lambda: encoder.forward(np.zeros((5, 3))), (5, 3)),
        ("attention", lambda: attention.forward(np.zeros((5, 8)), np.ones(5, dtype=bool)),
         (5, 8)),
        ("forward.tabular", lambda: forward(mlp, np.zeros(CONFIG.num_feature_dim),
                                            np.zeros(CONFIG.cat_feature_dim)),
         (CONFIG.num_feature_dim,)),
        ("forward.text", lambda: forward(text, seq=EmbeddedSequence(np.ones((T, E)),
                                                                    np.ones(T, dtype=bool))),
         (T, E)),
    ]


UNBATCHED = unbatched_calls()


@pytest.mark.parametrize("name, call, shape", UNBATCHED, ids=[case[0] for case in UNBATCHED])
def test_an_input_without_the_batch_axis_is_a_shape_error_naming_its_shape(name, call, shape):
    with pytest.raises(ShapeError, match=re.escape(str(shape))):
        call()


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_topk_is_row_0_of_a_batch_of_two_copies(variant):
    model = build_variant(CONFIG, variant)
    model.theta += Rng(5).normal(model.theta.shape, scale=0.3)
    rng = Rng(6)
    num = rng.normal(CONFIG.num_feature_dim)
    cat = (rng.random(CONFIG.cat_feature_dim) < 0.5).astype(np.float64)
    mask = np.arange(CONFIG.max_seq_len) < 3
    seq = EmbeddedSequence(rng.normal((CONFIG.max_seq_len, CONFIG.embed_dim)) * mask[:, None],
                           mask)
    k = CONFIG.num_classes
    one = predict_topk(model, num, cat, seq, k=k)
    # Never a one-row batch: numpy sends a one-row product to gemv.
    num2, cat2, vectors2, mask2 = (np.repeat(x[None], 2, axis=0)
                                   for x in (num, cat, seq.vectors, seq.mask))
    seq2 = EmbeddedSequence(vectors2, mask2)
    text = encode_text(model, seq2) if model.uses_text else None
    batch, _ = forward(model, num2, cat2, text=text)
    assert one.probs.shape == (k,) and one.probs.tobytes() == batch[0].tobytes()
    assert one.probs.tobytes() == forward(model, num2, cat2, seq2)[0][0].tobytes()
    assert one.top_k == topk_indices(batch, k)[0].tolist()
