"""Length-aware scoring against the untrimmed forward.

``encode_text`` runs the encoder only up to the rows' longest live length
and starts the backward direction from the padding state; ``forward``
given the sequences runs every timestep and is the oracle. The
ragged set uses the quickstart shapes (T=20, E=16, H=32) with weights
moved away from their initial values, and holds full-length rows,
length-1 rows, an empty text (one OOV position), zero-vector OOV tokens
inside and at the end of texts, and a row with non-zero vectors under
false mask entries.
"""

import numpy as np
import pytest

from fusenet import metrics
from fusenet import model as model_module
from fusenet.dataset import PreparedDataset
from fusenet.embeddings import EmbeddedSequence
from fusenet.layers import AllMaskedError, BiLstmEncoder, live_lengths
from fusenet.metrics import compute_report, topk_accuracy, true_class_ranks
from fusenet.model import (ROW_CHUNK, SCORE_CHUNK, ModelConfig, build_variant, chunk_bounds,
                           encode_text, forward, topk_indices)
from fusenet.numcore import Rng
from fusenet.training import _validation_topk_accuracy

T, E = 20, 16
EMPTY, HIDDEN_TAIL = 7, 9  # rows with one OOV position, and with vectors under false entries


def ragged_set(variant, n=70, seed=3):
    """A ``variant`` model and n ragged rows; sorted by live length, the
    first 64 rows all end before T."""
    rng = Rng(seed)
    config = ModelConfig(num_feature_dim=6, cat_feature_dim=5, embed_dim=E, lstm_hidden=32,
                         mlp_hidden=32, num_classes=13, max_seq_len=T, seed=seed)
    model = build_variant(config, variant)
    model.theta += rng.normal(model.theta.shape, scale=0.3)
    lengths = rng.integers(2, 15, n)
    lengths[[5, 40]] = T
    lengths[[3, 50, 51]] = 1
    lengths[HIDDEN_TAIL] = 4
    mask = np.arange(T) < lengths[:, None]
    vectors = rng.normal((n, T, E)) * mask[..., None]
    vectors[rng.random((n, T)) < 0.1] = 0.0  # OOV tokens, some of them a text's last
    vectors[EMPTY], mask[EMPTY] = 0.0, np.arange(T) == 0
    vectors[HIDDEN_TAIL, 12] = rng.normal(E)
    data = PreparedDataset(ids=[f"r{i}" for i in range(n)], labels=rng.integers(0, 13, n),
                           num=rng.normal((n, 6)), cat=(rng.random((n, 5)) < 0.5).astype(float),
                           texts=EmbeddedSequence(vectors=vectors, mask=mask),
                           groups=np.arange(n))
    return model, data


def cache_free(model, num, cat, seq):
    """The probabilities of one batch from ``encode_text``'s text features."""
    return forward(model, num, cat, text=encode_text(model, seq))[0]


def scored(model, data, size):
    """Cache-free and untrimmed probabilities of every row (in row order),
    scored ``size`` rows per forward in stable live-length order."""
    order = np.argsort(live_lengths(data.texts.vectors, data.texts.mask), kind="stable")
    free, kept = (np.empty((len(data), model.config.num_classes)) for _ in range(2))
    for start in range(0, len(data), size):
        rows = order[start:start + size]
        inputs = data.inputs(model, rows)
        free[rows] = cache_free(model, *inputs)
        kept[rows] = forward(model, *inputs)[0]
    return free, kept


def row_order_probs(model, data):
    """Probabilities of every row from untrimmed forwards of SCORE_CHUNK rows in row order."""
    size = SCORE_CHUNK
    return np.concatenate([forward(model, *data.inputs(model, slice(start, start + size)))[0]
                           for start in range(0, len(data), size)])


def row_order_oracle(model, data, k=3):
    """Top-k of every row from untrimmed forwards of SCORE_CHUNK rows in row order."""
    return topk_indices(row_order_probs(model, data), k).tolist()


def test_live_lengths_count_true_mask_entries_and_non_zero_vectors():
    vectors = np.zeros((5, 6, 2))
    mask = np.zeros((5, 6), dtype=bool)
    mask[0, :3] = True  # zero vectors (OOV) up to a true entry: 3
    vectors[1, 4, 1] = -0.5  # a non-zero vector under a false entry: 5
    mask[2, 0], vectors[2, 5, 0] = True, np.nan  # NaN is not zero: 6
    mask[4] = True  # full: 6; row 3 is empty: 0
    assert live_lengths(vectors, mask).tolist() == [3, 5, 6, 0, 6]
    assert live_lengths(vectors).tolist() == [0, 5, 6, 0, 0]
    assert live_lengths(vectors[1], mask[1]) == 5


def test_the_ragged_set_trims_every_chunk_size():
    _, data = ragged_set("fusion")
    lengths = live_lengths(data.texts.vectors, data.texts.mask)
    assert lengths[EMPTY] == 1 and lengths[HIDDEN_TAIL] == 13 and np.sum(lengths == T) == 2
    assert np.sort(lengths)[SCORE_CHUNK - 1] < T


@pytest.mark.parametrize("size", [1, 2, 64])
@pytest.mark.parametrize("variant", ["fusion", "text"])
def test_cache_free_forward_equals_the_untrimmed_forward_bit_for_bit(variant, size):
    model, data = ragged_set(variant)
    free, kept = scored(model, data, size)
    assert np.array_equal(free, kept)


@pytest.mark.parametrize("variant", ["fusion", "text"])
def test_one_example_forward_equals_the_untrimmed_forward_bit_for_bit(variant):
    model, data = ragged_set(variant)
    for j in (3, 5, EMPTY, HIDDEN_TAIL, 20):
        inputs = data.inputs(model, slice(j, j + 1))
        assert inputs[2].vectors.shape[0] == 1
        free = cache_free(model, *inputs)
        assert np.array_equal(free, forward(model, *inputs)[0]), j


HALF = SCORE_CHUNK // 2


@pytest.mark.parametrize("n, chunks", [(70, [70]),
                                       (SCORE_CHUNK + 1, [SCORE_CHUNK + 1])],
                         ids=["70", str(SCORE_CHUNK + 1)])
def test_predict_all_returns_rows_in_row_order(monkeypatch, n, chunks):
    model, data = ragged_set("fusion", n=n)
    batch_rows, probs = [], []

    def counting_forward(model, num_x, cat_x, seq=None, **kwargs):
        batch_rows.append(len(num_x))
        out, cache = forward(model, num_x, cat_x, seq, **kwargs)
        probs.append(out)
        return out, cache

    monkeypatch.setattr(model_module, "forward", counting_forward)
    got = metrics.predict_all(model, data)
    assert topk_indices(got, 3).tolist() == row_order_oracle(model, data)
    assert batch_rows == chunks
    # No row was scored alone, so each row has the bytes of one chunk of all rows.
    # The chunks run in row order, so call order is row order.
    assert np.array_equal(np.concatenate(probs), scored(model, data, n)[0])
    assert np.array_equal(got, np.concatenate(probs))
    free, _ = scored(model, data, SCORE_CHUNK)
    assert np.array_equal(topk_indices(metrics.predict_all(model, data), 4),
                          topk_indices(free, 4))


def recording_padding(monkeypatch):
    """Each padding_states call as (count, rows), and the steps each one's recurrence ran."""
    calls, steps, inside = [], [], []
    padding_states, recur = BiLstmEncoder.padding_states, BiLstmEncoder._recur

    def counting_padding_states(self, count, rows):
        calls.append((count, rows))
        inside.append(True)
        try:
            return padding_states(self, count, rows)
        finally:
            inside.pop()

    def counting_recur(self, W, V, *args):
        if inside:
            steps.append(V.shape[1])
        return recur(self, W, V, *args)

    monkeypatch.setattr(BiLstmEncoder, "padding_states", counting_padding_states)
    monkeypatch.setattr(BiLstmEncoder, "_recur", counting_recur)
    return calls, steps


def test_one_call_runs_the_padding_recurrence_once(monkeypatch):
    model, data = ragged_set("fusion", n=2 * SCORE_CHUNK + 6)
    chunk_lengths = []

    def measuring_encode_text(model, seq, padding=None):
        chunk_lengths.append(int(live_lengths(seq.vectors, seq.mask).max()))
        return encode_text(model, seq, padding)

    padding_calls, padding_steps = recording_padding(monkeypatch)
    monkeypatch.setattr(model_module, "encode_text", measuring_encode_text)
    probs = metrics.predict_all(model, data)
    assert len(chunk_lengths) == 3 and len({L for L in chunk_lengths if L < T}) == 2
    # Only the T - m steps the chunks read run, m the shortest chunk's longest entry.
    m = min(chunk_lengths)
    assert 1 < m < T - 1
    assert padding_calls == [(T - m + 1, len(data))] and padding_steps == [T - m]
    assert topk_indices(probs, 3).tolist() == row_order_oracle(model, data)


def test_chunks_of_full_length_entries_run_no_padding_step(monkeypatch):
    model, data = ragged_set("fusion")
    data.texts.mask[:] = True
    padding_calls, padding_steps = recording_padding(monkeypatch)
    probs = metrics.predict_all(model, data)
    assert padding_calls == [(1, len(data))] and padding_steps == [0]
    assert topk_indices(probs, 3).tolist() == row_order_oracle(model, data)


@pytest.mark.parametrize("n", [70, SCORE_CHUNK + 1])
@pytest.mark.parametrize("variant", ["fusion", "text", "mlp"])
def test_each_row_has_the_bytes_of_its_chunks_untrimmed_forward(variant, n):
    model, data = ragged_set(variant, n=n)
    probs = metrics.predict_all(model, data)
    assert probs.shape == (n, 13)
    for bounds in chunk_bounds(n):
        rows = slice(*bounds)
        kept = forward(model, *data.inputs(model, rows))[0]
        for j, row in zip(range(*bounds), kept):
            assert probs[j].tobytes() == row.tobytes(), j


def test_chunk_bounds_leave_no_row_alone():
    c = SCORE_CHUNK
    assert chunk_bounds(0) == [] and chunk_bounds(1) == [(0, 1)]
    assert chunk_bounds(c) == [(0, c)]
    assert chunk_bounds(c + 2) == [(0, c), (c, c + 2)]
    assert chunk_bounds(2 * c + 1) == [(0, c), (c, c + HALF), (c + HALF, 2 * c + 1)]


def first_rows(data, n):
    """The first ``n`` rows of ``data``, each with its own entry."""
    return PreparedDataset(ids=data.ids[:n], labels=data.labels[:n], num=data.num[:n],
                           cat=data.cat[:n], texts=data.texts[:n], groups=np.arange(n))


@pytest.fixture(scope="module")
def ragged_1560():
    return ragged_set("fusion", n=1560)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1560])
def test_row_chunks_leave_no_row_alone_and_keep_one_chunk_bytes(monkeypatch, ragged_1560, n):
    bounds = chunk_bounds(n, ROW_CHUNK)
    sizes = [stop - start for start, stop in bounds]
    assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
    assert bounds[-1][1] == n and max(sizes) <= ROW_CHUNK
    assert 1 not in sizes or n == 1
    model, data = ragged_1560[0], first_rows(ragged_1560[1], n)
    batch_rows = []

    def counting_forward(model, num_x, cat_x, seq=None, **kwargs):
        batch_rows.append(len(num_x))
        return forward(model, num_x, cat_x, seq, **kwargs)

    monkeypatch.setattr(model_module, "forward", counting_forward)
    got = metrics.predict_all(model, data)
    assert batch_rows == [max(size, 2) for size in sizes]  # a lone row is scored twice
    # One untrimmed forward of all n rows, a lone row twice: no row is scored alone.
    rows = np.arange(n).repeat(2 if n == 1 else 1)
    assert got.tobytes() == forward(model, *data.inputs(model, rows))[0][:n].tobytes()


@pytest.mark.parametrize("n, chunks", [(200, [64, 64, 64, 8]), (129, [64, 32, 33])])
def test_encoder_entries_go_in_score_chunk_entry_chunks(monkeypatch, ragged_1560, n, chunks):
    model, data = ragged_1560[0], first_rows(ragged_1560[1], n)
    entries, batch_rows = [], []

    def counting_encode_text(model, seq, padding=None):
        entries.append(len(seq.mask))
        return encode_text(model, seq, padding)

    def counting_forward(model, num_x, cat_x, seq=None, **kwargs):
        batch_rows.append(len(num_x))
        return forward(model, num_x, cat_x, seq, **kwargs)

    monkeypatch.setattr(model_module, "encode_text", counting_encode_text)
    monkeypatch.setattr(model_module, "forward", counting_forward)
    metrics.predict_all(model, data)
    assert SCORE_CHUNK == 64 and entries == chunks
    assert batch_rows == [n]


def test_report_and_validation_accuracy_are_those_of_the_untrimmed_forward():
    model, data = ragged_set("fusion")
    ranks = true_class_ranks(row_order_probs(model, data), data.labels)
    assert metrics.report(model, data, k=3) == compute_report(ranks, data.labels, 3)
    assert _validation_topk_accuracy(model, data, 3) == topk_accuracy(ranks, 3)


def test_all_masked_error_names_the_first_such_example_in_row_order():
    model, data = ragged_set("fusion")
    data.texts.mask[HIDDEN_TAIL] = False  # still live to position 13 through its vectors
    data.texts.vectors[66], data.texts.mask[66] = 0.0, False  # live length 0, a later chunk
    with pytest.raises(AllMaskedError, match=f"example r{HIDDEN_TAIL}:"):
        metrics.predict_all(model, data)
