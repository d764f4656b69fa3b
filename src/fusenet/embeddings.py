"""Pre-trained word vectors: .vec text format loading and sequence lookup.

The file format is the plain-text one FastText distributes: a header
line ``V d``, then V lines of ``word v1 ... vd`` separated by single
spaces, UTF-8. Vectors are frozen; lookup of an in-vocabulary word
returns exactly its stored row (equivalent to multiplying the table by
the word's one-hot vector). Out-of-vocabulary tokens map to a zero row
with a true mask entry and are counted, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import Rng
from .textprep import TokenSequence


class VecParseError(ValueError):
    """Malformed .vec file; message carries the 1-based line number."""


@dataclass
class EmbeddingTable:
    vocab: dict[str, int]
    matrix: np.ndarray  # (V, d) float64, row per word
    dim: int

    def __len__(self) -> int:
        return len(self.vocab)

    def lookup(self, word: str):
        """Row for ``word``, or None when out of vocabulary."""
        idx = self.vocab.get(word)
        if idx is None:
            return None
        return self.matrix[idx]


@dataclass
class EmbeddedSequence:
    """Right-padded embedding matrix for one token sequence, or for N of them.

    A dataset or batch of sequences has a leading axis on both arrays;
    indexing it with a row, a slice or an index array gives that row or
    batch (a view, for a row or a slice).
    """

    vectors: np.ndarray  # (max_seq_len, d), or (N, max_seq_len, d)
    mask: np.ndarray  # (max_seq_len,) or (N, max_seq_len) bool, True = real token
    oov_count: int = 0

    def __getitem__(self, rows) -> "EmbeddedSequence":
        """The selected rows; OOV counts belong to the whole and are not carried over."""
        return EmbeddedSequence(vectors=self.vectors[rows], mask=self.mask[rows])


def load_vec_file(path, vocab_limit: int | None = None) -> EmbeddingTable:
    """Read a .vec file, keeping the first min(V, vocab_limit) rows.

    Duplicate words keep their first occurrence. Raises VecParseError
    with a line number on a malformed header, a row with the wrong
    number of components, or non-finite values.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise VecParseError(f"line 1: expected header 'V d', got {header.strip()!r}")
        try:
            declared_v, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise VecParseError(f"line 1: non-integer header fields in {header.strip()!r}")
        if declared_v < 0 or dim < 1:
            raise VecParseError(f"line 1: invalid header values V={declared_v} d={dim}")

        want = declared_v if vocab_limit is None else min(declared_v, vocab_limit)
        vocab: dict[str, int] = {}
        rows = []
        for lineno in range(2, want + 2):
            line = fh.readline()
            if not line:
                raise VecParseError(
                    f"line {lineno}: file ends after {lineno - 2} of {want} rows"
                )
            fields = line.rstrip("\n").split(" ")
            if len(fields) != dim + 1:
                raise VecParseError(
                    f"line {lineno}: expected a word plus {dim} values, got {len(fields)} fields"
                )
            word = fields[0]
            try:
                vec = np.array(fields[1:], dtype=np.float64)
            except ValueError:
                raise VecParseError(f"line {lineno}: non-numeric vector component")
            if not np.all(np.isfinite(vec)):
                raise VecParseError(f"line {lineno}: non-finite vector component")
            if word in vocab:
                continue
            vocab[word] = len(rows)
            rows.append(vec)

    matrix = np.vstack(rows) if rows else np.zeros((0, dim))
    return EmbeddingTable(vocab=vocab, matrix=matrix, dim=dim)


def write_vec_file(path, words, matrix: np.ndarray) -> None:
    """Write a table in the exact .vec text format (see module docstring)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape[0] != len(words):
        raise ValueError(f"{len(words)} words but {matrix.shape[0]} rows")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            # repr(float) is the shortest digit string that parses back
            # bit-exactly, so write-then-read round-trips.
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


def random_table(words, dim: int, seed: int) -> EmbeddingTable:
    """Seeded random embedding table for synthetic-data experiments."""
    words = list(words)
    rng = Rng(seed)
    matrix = rng.normal((len(words), dim)) / np.sqrt(dim)
    return EmbeddingTable(
        vocab={w: i for i, w in enumerate(words)}, matrix=matrix, dim=dim
    )


def embed_sequence(
    table: EmbeddingTable, seq: TokenSequence, max_seq_len: int
) -> EmbeddedSequence:
    """Map tokens to table rows, right-padded to ``max_seq_len``.

    OOV tokens become zero rows with a true mask entry (neutral under
    attention); padding rows are zero with a false mask entry.
    """
    if len(table) == 0:
        raise ValueError("embedding table is empty")
    vectors = np.zeros((max_seq_len, table.dim))
    mask = np.zeros(max_seq_len, dtype=bool)
    oov = 0
    for t, tok in enumerate(seq.tokens[:max_seq_len]):
        mask[t] = True
        row = table.lookup(tok)
        if row is None:
            oov += 1
        else:
            vectors[t] = row
    return EmbeddedSequence(vectors=vectors, mask=mask, oov_count=oov)
