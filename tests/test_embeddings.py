import numpy as np
import pytest

from fusenet.embeddings import (EmbeddingTable, VecParseError, embed_sequence,
                                load_vec_file, random_table, write_vec_file)
from fusenet.numcore import Rng, affine
from fusenet.textprep import TokenSequence


def write(tmp_path, content, name="vectors.vec"):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadVecFile:
    def test_direct_readback(self, tmp_path):
        path = write(tmp_path, "2 3\napple 1 0 0\nbanana 0 1 0\n")
        table = load_vec_file(path)
        assert len(table) == 2 and table.dim == 3
        assert np.array_equal(table.matrix[table.vocab["apple"]], [1, 0, 0])
        assert np.array_equal(table.matrix[table.vocab["banana"]], [0, 1, 0])

    def test_vocab_limit(self, tmp_path):
        # The header's V is the only vocabulary limit: rows after it are never read.
        path = write(tmp_path, "1 3\napple 1 0 0\nbanana 0 1 0\n")
        table = load_vec_file(path)
        assert len(table) == 1
        assert "banana" not in table.vocab

    def test_duplicates_keep_first(self, tmp_path):
        path = write(tmp_path, "2 2\nword 1 2\nword 3 4\n")
        table = load_vec_file(path)
        assert np.array_equal(table.matrix[table.vocab["word"]], [1, 2])

    def test_malformed_header(self, tmp_path):
        with pytest.raises(VecParseError, match="line 1"):
            load_vec_file(write(tmp_path, "not a header\n"))
        with pytest.raises(VecParseError, match="line 1"):
            load_vec_file(write(tmp_path, "2\n"))

    def test_wrong_component_count_names_line(self, tmp_path):
        with pytest.raises(VecParseError, match="line 3"):
            load_vec_file(write(tmp_path, "2 3\napple 1 0 0\nbanana 0 1\n"))
        blank = "^line 3: expected a word plus 3 values, got 1 fields$"
        with pytest.raises(VecParseError, match=blank):
            load_vec_file(write(tmp_path, "3 3\napple 1 0 0\n\ncherry 0 0 1\n"))

    def test_truncated_file_names_line(self, tmp_path):
        with pytest.raises(VecParseError, match="line 3"):
            load_vec_file(write(tmp_path, "2 3\napple 1 0 0\n"))

    def test_non_numeric_component(self, tmp_path):
        with pytest.raises(VecParseError, match="line 2"):
            load_vec_file(write(tmp_path, "1 2\napple x 0\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_component_names_line(self, tmp_path, value):
        content = f"3 2\napple 1 0\nbanana 0 {value}\ncherry 1 1\n"
        with pytest.raises(VecParseError, match="^line 3: non-finite vector component$"):
            load_vec_file(write(tmp_path, content))

    @pytest.mark.parametrize("content, line", [
        (b"2 \xff3\napple 1 0 0\nbanana 0 1 0\n", 1),
        (b"2 3\r\napple 1 0 0\r\nban\xe1na 0 1 0\r\n", 3),
        (b"2 3\rapple 1 0 0\rbanana 0 1 0\r\xc3", 4),
    ], ids=["header", "crlf-row", "cr-after-rows"])
    def test_invalid_utf8_names_line(self, tmp_path, content, line):
        path = tmp_path / "vectors.vec"
        path.write_bytes(content)
        with pytest.raises(VecParseError, match=f"^line {line}: not valid UTF-8 "):
            load_vec_file(path)

    def test_round_trip_100_words(self, tmp_path):
        rng = Rng(31)
        words = [f"word{i}" for i in range(100)]
        matrix = rng.normal((100, 8))
        path = tmp_path / "round.vec"
        write_vec_file(path, words, matrix)
        table = load_vec_file(path)
        assert list(table.vocab) == words
        assert np.array_equal(table.matrix, matrix)


class TestEmbedSequence:
    def test_padding_and_mask(self, tiny_table):
        seq = embed_sequence(tiny_table, TokenSequence(["apple"], 1), max_seq_len=3)
        assert np.array_equal(seq.vectors, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert seq.mask.tolist() == [True, False, False]
        assert seq.oov_count == 0

    def test_oov_token_zero_row_true_mask(self, tiny_table):
        seq = embed_sequence(tiny_table, TokenSequence(["zzzz"], 1), max_seq_len=1)
        assert np.array_equal(seq.vectors, [[0, 0, 0]])
        assert seq.mask.tolist() == [True]
        assert seq.oov_count == 1

    def test_text_without_tokens_is_one_oov_position(self):
        # A table holding the empty word must not give it to empty text.
        table = EmbeddingTable(vocab={"": 0}, matrix=np.ones((1, 3)), dim=3)
        seq = embed_sequence(table, TokenSequence([], 0), max_seq_len=3)
        assert np.array_equal(seq.vectors, np.zeros((3, 3)))
        assert seq.mask.tolist() == [True, False, False]
        assert seq.oov_count == 1

    def test_mask_count_matches_real_tokens(self, tiny_table):
        seq = embed_sequence(tiny_table, TokenSequence(["apple"] * 5, 7), max_seq_len=3)
        assert int(seq.mask.sum()) == 3

    def test_lookup_equals_onehot_product(self, tmp_path):
        # e_t = table^T . onehot(word), computed with the affine kernel.
        rng = Rng(17)
        words = [f"tok{i}" for i in range(100)]
        matrix = rng.normal((100, 6))
        path = tmp_path / "oracle.vec"
        write_vec_file(path, words, matrix)
        table = load_vec_file(path)
        pick = rng.integers(0, 100, size=100)
        for idx in pick:
            word = words[int(idx)]
            onehot = np.zeros((1, len(words)))
            onehot[0, table.vocab[word]] = 1.0
            via_product = affine(table.matrix, onehot, np.zeros(table.dim))
            seq = embed_sequence(table, TokenSequence([word], 1), max_seq_len=1)
            assert np.array_equal(seq.vectors, via_product)

    def test_empty_table_rejected(self):
        empty = EmbeddingTable(vocab={}, matrix=np.zeros((0, 4)), dim=4)
        with pytest.raises(ValueError):
            embed_sequence(empty, TokenSequence(["a"], 1), max_seq_len=2)


def test_random_table_deterministic():
    a = random_table(["x", "y"], 4, seed=3)
    b = random_table(["x", "y"], 4, seed=3)
    assert np.array_equal(a.matrix, b.matrix)
