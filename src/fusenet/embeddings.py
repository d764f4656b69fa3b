"""Pre-trained word vectors: .vec text format loading and sequence lookup.

The file format is the plain-text one FastText distributes: a header
line ``V d``, then V lines of ``word v1 ... vd`` separated by single
spaces, UTF-8. Vectors are frozen; lookup of an in-vocabulary word
returns exactly its stored row (equivalent to multiplying the table by
the word's one-hot vector). Out-of-vocabulary tokens map to a zero row
with a true mask entry and are counted, never silently dropped.
"""

from __future__ import annotations

import itertools
import os
import stat
from dataclasses import dataclass

import numpy as np

from .numcore import Rng
from .textprep import TokenSequence


# Rows of a .vec file parsed and checked together.
VEC_CHUNK_ROWS = 1024


class VecParseError(ValueError):
    """Malformed .vec file; message carries the 1-based line number."""


@dataclass
class EmbeddingTable:
    vocab: dict[str, int]
    matrix: np.ndarray  # (V, d) float64, row per word
    dim: int
    # The header's V when read from a .vec file. With load_vec_file(only=...)
    # the file may hold rows, or words, that the table does not.
    file_rows: int | None = None

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
    """Right-padded embedding matrices of N token sequences, one per row.

    Indexing with a slice or an index array gives those rows as a batch
    (a view, for a slice). ``embed_sequence`` and indexing with one row
    give a single sequence without the leading axis, the form only
    ``model.predict_topk`` takes.
    """

    vectors: np.ndarray  # (N, max_seq_len, d); (max_seq_len, d) for one sequence
    mask: np.ndarray  # (N, max_seq_len) bool, True = real token; (max_seq_len,) for one
    oov_count: int = 0

    def __getitem__(self, rows) -> "EmbeddedSequence":
        """The selected rows; OOV counts belong to the whole and are not carried over."""
        return EmbeddedSequence(vectors=self.vectors[rows], mask=self.mask[rows])


def load_vec_file(path, only=None) -> EmbeddingTable:
    """Read a .vec file: the header's V rows, and nothing after them.

    Rows are read ``VEC_CHUNK_ROWS`` at a time and every row is checked,
    each check one pass over the chunk. Duplicate words keep their first
    occurrence. Raises VecParseError naming the first bad line in file
    order: a malformed header, a file that ends early, a row with the
    wrong number of fields, or a non-numeric or non-finite value. Text
    that is not UTF-8 is a VecParseError naming the line that holds it.

    With ``only``, a collection of words, the table holds just those of
    them the file has, in file order, and only the first row of each is
    converted to floats. A non-numeric or non-finite value is then an
    error only in such a row; every other check still covers every row.
    """
    try:
        return _read_vec_file(path, only)
    except UnicodeDecodeError:
        raise _undecodable_line(path) from None


def _read_vec_file(path, only) -> EmbeddingTable:
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

        # Words still to find; each is dropped from the set at its first row.
        wanted = None if only is None else set(only)
        most = declared_v if wanted is None else min(declared_v, len(wanted))
        matrix = np.empty((_rows_to_allocate(fh, dim, most), dim))
        vocab: dict[str, int] = {}
        for start in range(0, declared_v, VEC_CHUNK_ROWS):
            size = min(VEC_CHUNK_ROWS, declared_v - start)
            lines = []
            try:
                for line in itertools.islice(fh, size):
                    lines.append(line)
            except UnicodeDecodeError as err:
                # Rows before the undecodable text come first in file order.
                raise _row_error(lines, start + 2, dim, _select(lines, wanted)) or err
            rows = _select(lines, wanted)
            chunk = _parse_chunk(lines, dim, rows) if len(lines) == size else None
            if chunk is None:
                lineno = start + 2 + len(lines)
                raise _row_error(lines, start + 2, dim, rows) or VecParseError(
                    f"line {lineno}: file ends after {lineno - 2} of {declared_v} rows"
                )
            words, values = chunk
            first = len(vocab)
            keep = []
            for i, word in enumerate(words):
                if word not in vocab:
                    vocab[word] = len(vocab)
                    keep.append(i)
            matrix[first:len(vocab)] = values if len(keep) == len(words) else values[keep]

    return EmbeddingTable(vocab=vocab, matrix=matrix[:len(vocab)], dim=dim, file_rows=declared_v)


def _undecodable_line(path) -> VecParseError:
    """The error naming the first line of ``path`` that is not valid UTF-8.

    A text reader decodes ahead of the line it returns, so the line is
    found again from the file's bytes, split at the same line endings.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as err:
                return VecParseError(
                    f"line {lineno}: not valid UTF-8 ({err.reason} at byte {err.start + 1})")
    return VecParseError("not valid UTF-8")


def _rows_to_allocate(fh, dim: int, want: int) -> int:
    """``want``, capped at the most rows a regular file's bytes can hold.

    A row that passes has ``dim`` spaces, ``dim`` non-empty values and a
    newline (the last row may lack it), so a header that claims more rows
    than the file holds fails as truncated before its claim is allocated.
    """
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        return want
    return min(want, (info.st_size + 1) // (2 * dim + 1))


def _select(lines: list[str], wanted: set[str] | None) -> list[int] | None:
    """Indices of the lines that are the first row of a ``wanted`` word, or None for all.

    Each word found is removed from ``wanted``, so a later row of it is
    never selected.
    """
    if wanted is None:
        return None
    rows = []
    for i, line in enumerate(lines):
        word = line.partition(" ")[0]
        if word in wanted:
            wanted.remove(word)
            rows.append(i)
    return rows


def _parse_chunk(lines: list[str], dim: int, rows: list[int] | None):
    """Words and values of the ``rows`` of ``lines`` (all when None), or None when a check fails.

    Every line must have exactly ``dim`` spaces; the selected rows, joined
    by spaces, then split into ``dim + 1`` fields per row: the word, then
    its values. A row's last value keeps the line's newline, which float
    conversion ignores as it ignores any surrounding whitespace.
    """
    if not all(line.count(" ") == dim for line in lines):
        return None
    if rows is not None:
        lines = [lines[i] for i in rows]
    fields = " ".join(lines).split(" ") if lines else []
    words = fields[:: dim + 1]
    del fields[:: dim + 1]
    try:
        values = np.array(fields, dtype=np.float64)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return words, values.reshape(len(lines), dim)


def _row_error(lines: list[str], first_lineno: int, dim: int,
               rows: list[int] | None) -> VecParseError | None:
    """The error of the first bad row among ``lines``, in file order, or None.

    Every row's field count is checked, and the values of the ``rows``
    selected (all when None).
    """
    for lineno, line in enumerate(lines, start=first_lineno):
        fields = line.rstrip("\n").split(" ")
        if len(fields) != dim + 1:
            return VecParseError(
                f"line {lineno}: expected a word plus {dim} values, got {len(fields)} fields"
            )
        if rows is not None and lineno - first_lineno not in rows:
            continue
        try:
            vec = np.array(fields[1:], dtype=np.float64)
        except ValueError:
            return VecParseError(f"line {lineno}: non-numeric vector component")
        if not np.isfinite(vec).all():
            return VecParseError(f"line {lineno}: non-finite vector component")
    return None


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


def embed_batch(table: EmbeddingTable, token_lists: list[list[str]],
                max_seq_len: int, repeats: np.ndarray | None = None) -> EmbeddedSequence:
    """Map N token lists to table rows: one (N, max_seq_len, d) array, right-padded.

    OOV tokens become zero rows with a true mask entry (neutral under
    attention); padding rows are zero with a false mask entry. Text with
    no tokens embeds as one OOV token, so attention always has a position.
    Every row is gathered from the table in one indexed copy. The OOV
    count counts list i's OOV positions ``repeats[i]`` times, once each
    when ``repeats`` is None.
    """
    # A selection from a file with vectors may hold none, and is not empty.
    if token_lists and len(table) == 0 and not table.file_rows:
        raise ValueError("embedding table is empty")
    vocab = table.vocab
    # Empty text is one OOV position: None is no word of any table.
    lengths = np.fromiter((min(len(tokens), max_seq_len) or 1 for tokens in token_lists),
                          dtype=np.intp, count=len(token_lists))
    positions = int(lengths.sum())
    mask = np.arange(max_seq_len) < lengths[:, None]
    index = np.full(mask.shape, -1, dtype=np.intp)  # row of each position; -1 is OOV
    index[mask] = np.fromiter((vocab.get(tok, -1) for tokens in token_lists
                               for tok in tokens[:max_seq_len] or [None]),
                              dtype=np.intp, count=positions)
    hit = index >= 0
    if len(table):
        np.maximum(index, 0, out=index)  # OOV and padding positions gather row 0 ...
        vectors = np.asarray(table.matrix, dtype=np.float64)[index]
        vectors[~hit] = 0.0  # ... and are zeroed
    else:
        vectors = np.zeros(mask.shape + (table.dim,))
    oov = lengths - np.count_nonzero(hit, axis=1)
    return EmbeddedSequence(vectors=vectors, mask=mask,
                            oov_count=int(oov.sum() if repeats is None else oov @ repeats))


def embed_sequence(
    table: EmbeddingTable, seq: TokenSequence, max_seq_len: int
) -> EmbeddedSequence:
    """One token sequence as ``embed_batch`` maps it: a (max_seq_len, d) array."""
    batch = embed_batch(table, [seq.tokens], max_seq_len)
    return EmbeddedSequence(vectors=batch.vectors[0], mask=batch.mask[0],
                            oov_count=batch.oov_count)
