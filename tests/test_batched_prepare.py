"""``dataset.prepare``'s batched pass against the per-row pass it replaced.

``reference_prepare`` normalizes, tokenizes and embeds one row at a time
and builds one one-hot row per example, as ``prepare`` did before it
became one batched pass. It is kept here only as the oracle: on every
split below both must give the same bytes for every array and the same
OOV count.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from fusenet import dataset, synth, textprep
from fusenet.dataset import Example, FeaturePipeline, prepare
from fusenet.embeddings import (EmbeddingTable, embed_sequence, load_vec_file, random_table,
                                write_vec_file)
from fusenet.textprep import TokenSequence, normalize, tokenize

MAX_SEQ_LEN = 12


def reference_embed_sequence(table, tokens, max_seq_len):
    if len(table) == 0 and not table.file_rows:
        raise ValueError("embedding table is empty")
    vectors = np.zeros((max_seq_len, table.dim))
    mask = np.zeros(max_seq_len, dtype=bool)
    oov = 0
    for t, tok in enumerate(tokens[:max_seq_len] or [None]):
        mask[t] = True
        row = table.lookup(tok)
        if row is None:
            oov += 1
        else:
            vectors[t] = row
    return vectors, mask, oov


def reference_one_hot(encoder, pairs):
    values = dict(pairs)
    out = np.zeros(encoder.dim)
    offset = 0
    for name, cats in encoder.features:
        value = values.get(name)
        idx = {cat: i for i, cat in enumerate(cats)}.get(value) if value is not None else None
        if idx is not None:
            out[offset + idx] = 1.0
        offset += len(cats)
    return out


def reference_prepare(examples, pipeline, table, max_seq_len):
    num = np.array([ex.numerical for ex in examples], dtype=np.float64)
    num = pipeline.scaler.transform(num.reshape(len(examples), pipeline.num_dim))
    cat = (np.vstack([reference_one_hot(pipeline.encoder, ex.categorical) for ex in examples])
           if examples else np.zeros((0, pipeline.cat_dim)))
    labels = np.array([ex.label_index for ex in examples], dtype=np.int64)
    seqs = None
    if table is not None:
        vectors = np.zeros((len(examples), max_seq_len, table.dim))
        mask = np.zeros((len(examples), max_seq_len), dtype=bool)
        oov = 0
        for i, ex in enumerate(examples):
            tokens = tokenize(normalize(ex.text), max_seq_len).tokens
            vectors[i], mask[i], row_oov = reference_embed_sequence(table, tokens, max_seq_len)
            oov += row_oov
        seqs = (vectors, mask, oov)
    return labels, num, cat, seqs


def assert_same_bytes(got, want):
    __tracebackhide__ = True
    labels, num, cat, seqs = want
    for name, a, b in (("labels", got.labels, labels), ("num", got.num, num),
                       ("cat", got.cat, cat)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    if seqs is None:
        assert got.seqs is None
        return
    vectors, mask, oov = seqs
    for name, a, b in (("vectors", got.seqs.vectors, vectors), ("mask", got.seqs.mask, mask)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.oov_total == oov


def corpus():
    examples, _ = synth.generate_synthetic(260, 0.05, 3)
    return examples


def with_texts(texts):
    """Copies of the first examples of ``corpus()`` carrying ``texts``."""
    return [Example(id=f"t{i}", text=text, numerical=ex.numerical, categorical=ex.categorical,
                    label=ex.label) for i, (text, ex) in enumerate(zip(texts, corpus()))]


def vocab_table():
    return random_table(synth.vocabulary(), 6, seed=11)


def table_without_rows(tmp_path):
    path = tmp_path / "some.vec"
    write_vec_file(path, ["loan", "help"], np.ones((2, 6)))
    table = load_vec_file(path, only=["absent"])
    assert len(table) == 0 and table.file_rows == 2
    return table


LONG = " ".join(synth.vocabulary()[:40])

# Each case: (examples, table or a factory taking tmp_path, rows the pipeline is fitted on).
CASES = {
    "corpus": lambda: (corpus(), vocab_table(), None),
    "duplicate-texts": lambda: (with_texts(["help with my loan"] * 5 + ["Help  with my LOAN"] * 3
                                           + ["help with my loan"]), vocab_table(), None),
    "empty-text": lambda: (with_texts(["", "   ", "?! ...", "loan", ""]), vocab_table(), None),
    "all-oov-text": lambda: (with_texts(["zzqx qqzx", "qqzx", "loan zzqx"]), vocab_table(), None),
    "longer-than-T": lambda: (with_texts([LONG, LONG[:40], LONG + " zzqx"]), vocab_table(), None),
    "unseen-categories": lambda: unseen_categories(),
    "zero-examples": lambda: ([], vocab_table(), corpus()[:20]),
    "no-table": lambda: (corpus()[:40], None, None),
    "only-table-without-rows": lambda: (corpus()[:30], table_without_rows, None),
}


def unseen_categories():
    base = corpus()
    rows = [Example(id=f"u{i}", text=ex.text, numerical=ex.numerical, label=ex.label,
                    categorical=cats)
            for i, (ex, cats) in enumerate(zip(base, [
                [("account_state", "never-seen")],
                [],
                [("no-such-feature", "x")] + list(base[1].categorical),
                list(base[2].categorical) + [(base[2].categorical[0][0], "never-seen")],
                list(base[3].categorical) * 2,
            ]))]
    return rows, vocab_table(), base[:50]


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_prepare_gives_the_per_row_bytes(tmp_path, case):
    examples, table, fit_on = CASES[case]()
    if callable(table):
        table = table(tmp_path)
    pipeline = FeaturePipeline.fit(fit_on or examples)
    got = prepare(examples, pipeline, table, MAX_SEQ_LEN)
    assert_same_bytes(got, reference_prepare(examples, pipeline, table, MAX_SEQ_LEN))
    assert got.ids == [ex.id for ex in examples]


def test_each_distinct_token_list_is_embedded_once(monkeypatch):
    # eval-bulk's corpus: 1,560 rows, 34 distinct token lists at T=20.
    examples, _ = synth.generate_synthetic(1560, 0.05, 20007)
    table, max_seq_len = random_table(synth.vocabulary(), 16, seed=4), 20
    pipeline = FeaturePipeline.fit(examples)
    calls = []
    real = dataset.embed_batch

    def recording_embed_batch(table, token_lists, *args, **kwargs):
        calls.append(len(token_lists))
        return real(table, token_lists, *args, **kwargs)

    monkeypatch.setattr(dataset, "embed_batch", recording_embed_batch)
    got = prepare(examples, pipeline, table, max_seq_len)
    assert calls == [34]
    assert got.texts.vectors.nbytes == 87_040
    _, num, cat, (vectors, mask, oov) = reference_prepare(examples, pipeline, table,
                                                          max_seq_len)
    assert got.oov_total == oov
    model = SimpleNamespace(uses_tabular=True, uses_text=True)
    for rows in (slice(100, 180), np.array([1559, 3, 3, 700]), 42):
        got_num, got_cat, seq = got.inputs(model, rows)
        for name, a, b in (("num", got_num, num[rows]), ("cat", got_cat, cat[rows]),
                           ("vectors", seq.vectors, vectors[rows]),
                           ("mask", seq.mask, mask[rows])):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name


def test_one_row_paths_are_the_batched_ones():
    # predict embeds and encodes one query through embed_sequence and a one-row transform.
    examples = with_texts(["", "zzqx", LONG, "help with my loan"]) + corpus()[:20]
    table = vocab_table()
    encoder = FeaturePipeline.fit(corpus()[:5]).encoder
    for ex in examples:
        tokens = tokenize(normalize(ex.text), MAX_SEQ_LEN)
        seq = embed_sequence(table, tokens, MAX_SEQ_LEN)
        vectors, mask, oov = reference_embed_sequence(table, tokens.tokens, MAX_SEQ_LEN)
        assert seq.vectors.tobytes() == vectors.tobytes() and seq.vectors.shape == vectors.shape
        assert seq.mask.tobytes() == mask.tobytes() and seq.oov_count == oov
        one_hot = encoder.transform([ex.categorical])[0]
        assert one_hot.tobytes() == reference_one_hot(encoder, ex.categorical).tobytes()
        assert one_hot.shape == (encoder.dim,)


def test_an_empty_table_is_refused_only_when_there_is_text_to_embed():
    empty = EmbeddingTable(vocab={}, matrix=np.zeros((0, 4)), dim=4)
    pipeline = FeaturePipeline.fit(corpus()[:20])
    assert prepare([], pipeline, empty, MAX_SEQ_LEN).seqs.vectors.shape == (0, MAX_SEQ_LEN, 4)
    with pytest.raises(ValueError, match="embedding table is empty"):
        prepare(corpus()[:2], pipeline, empty, MAX_SEQ_LEN)
    with pytest.raises(ValueError, match="embedding table is empty"):
        embed_sequence(empty, TokenSequence([], 0), MAX_SEQ_LEN)


def test_each_distinct_raw_text_is_normalized_once(monkeypatch):
    examples = with_texts(["help with my loan"] * 4 + ["Help  with my LOAN", "help with my loan",
                                                         "", ""])
    calls = []
    real = dataset.normalize
    monkeypatch.setattr(dataset, "normalize", lambda text: calls.append(text) or real(text))
    prepare(examples, FeaturePipeline.fit(examples), vocab_table(), MAX_SEQ_LEN)
    assert sorted(calls) == sorted({ex.text for ex in examples})


class _Spy:
    """A compiled pattern that records each ``sub`` call under ``name``."""

    def __init__(self, name, pattern, ran):
        self.name, self.pattern, self.ran = name, pattern, ran

    def sub(self, repl, s):
        self.ran.append(self.name)
        return self.pattern.sub(repl, s)


@pytest.mark.parametrize("text, detectors", [
    ("no personal data here", []),
    ("a lone $ sign and an @", ["email"]),
    ("write to a1@b.co now", ["email"]),  # the email substitution takes the only digit
    # 10 digits: the month date and the phone number; no "/", "-" or "$".
    ("call 555 123 4567", ["date", "phone"]),
    ("paid $1,200 on may 3, 2020", ["date", "amount"]),  # 9 digits: no phone number
    ("mail x@y.co about $٣", ["email", "amount"]),  # 1 digit: no date
    ("call 555-123-456 or 1-2-201", ["date", "date", "phone"]),  # 13 digits, no "/"
    ("on 12/2/201", ["date", "date"]),  # 6 digits: the month and "/" dates
    ("on 1/2/201", ["date"]),  # 5 digits: the month date alone
])
def test_a_detector_whose_character_is_absent_is_not_run(monkeypatch, text, detectors):
    ran = []
    monkeypatch.setattr(textprep, "_EMAIL_RE", _Spy("email", textprep._EMAIL_RE, ran))
    names = {textprep._AMOUNT_RE: "amount", textprep._PHONE_RE: "phone",
             **dict.fromkeys(textprep._DATE_RES, "date")}
    monkeypatch.setattr(textprep, "_DIGIT_DETECTORS", tuple(
        (_Spy(names[p], p, ran), *rest) for p, *rest in textprep._DIGIT_DETECTORS))
    textprep._redact_pii(text)
    assert ran == detectors
