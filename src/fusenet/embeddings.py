"""Pre-trained word vectors: .vec text format loading and sequence lookup.

The file format is the plain-text one FastText distributes: a header
line ``V d``, then V lines of ``word v1 ... vd`` separated by single
spaces, UTF-8. ``load_vec_file`` scans the file's bytes a block at a
time: on every row it checks the field count and UTF-8, and it converts,
and checks as finite numbers, only the values of the rows it keeps (all
of them, or with ``only=`` the first row of each wanted word). A word may
hold any character but a space or a line end, a tab included.

Vectors are frozen; lookup of an in-vocabulary word returns exactly its
stored row (equivalent to multiplying the table by the word's one-hot
vector). Out-of-vocabulary tokens map to a zero row with a true mask
entry and are counted, never silently dropped.
"""

from __future__ import annotations

import itertools
import os
import stat
from dataclasses import dataclass

import numpy as np

from .numcore import Rng
from .textprep import TokenSequence


# Bytes of a .vec file read at a time. A block is cut after its last
# newline, and its rows are checked together.
VEC_BLOCK_BYTES = 1 << 17


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


@dataclass
class EmbeddedSequence:
    """Right-padded embedding matrices of N token sequences, one per row.

    Indexing with a slice or an index array gives those rows as a batch
    (a view, for a slice), the form ``model.forward`` and
    ``model.encode_text`` take. ``embed_sequence`` and indexing with one
    row give a single sequence without the leading axis, the form only
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

    The file is read in blocks of ``VEC_BLOCK_BYTES``, each cut after its
    last newline (a row longer than a block is read whole); ``\\r\\n``
    and a lone ``\\r`` end a line as ``\\n`` does. Every row is checked
    with one numpy pass and one decode per block: its spaces and newlines
    must come as d spaces then a newline, and the text of its block must
    be UTF-8, to the block's end (also past row V). The rows kept are
    then converted to floats, which must be finite. Duplicate words keep
    their first occurrence. Raises VecParseError naming the first bad
    line in file order: a malformed header, a file that ends early, a row
    with the wrong number of fields, a non-numeric or non-finite value, or
    text that is not UTF-8.

    With ``only``, a collection of words, the table holds just those of
    them the file has, in file order. A row's word is compared with them
    only when it has the byte length and first byte of one, and only the
    first row of each is decoded and converted. A non-numeric or
    non-finite value is then an error only in such a row; the field count
    and UTF-8 checks still cover every row.
    """
    with open(path, "rb") as fh:
        blocks = _blocks(fh)
        block = next(blocks, b"")
        cut = block.find(b"\n") + 1
        try:
            header = block[:cut].rstrip(b"\n").decode("utf-8")
        except UnicodeDecodeError as err:
            raise _utf8_error(1, err) from None
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
        pick = None if wanted is None else _first_row_picker(wanted)
        most = declared_v if wanted is None else min(declared_v, len(wanted))
        matrix = np.empty((_rows_to_allocate(fh, dim, most), dim))
        vocab: dict[str, int] = {}
        lineno, end = 2, declared_v + 2
        blocks = itertools.chain([block[cut:]], blocks)
        while lineno < end:
            block = next(blocks, None)
            if block is None:
                raise VecParseError(
                    f"line {lineno}: file ends after {lineno - 2} of {declared_v} rows")
            parsed = _parse_block(block, dim, end - lineno, pick)
            if parsed is None:
                raise _block_error(block, lineno, dim, end - lineno, wanted)
            rows, words, values = parsed
            lineno += rows
            first = len(vocab)
            keep = []
            for i, word in enumerate(words):
                if word not in vocab:
                    vocab[word] = len(vocab)
                    keep.append(i)
            matrix[first:len(vocab)] = values if len(keep) == len(words) else values[keep]
            if wanted is not None:
                wanted.difference_update(words)

    return EmbeddingTable(vocab=vocab, matrix=matrix[:len(vocab)], dim=dim, file_rows=declared_v)


def _blocks(fh):
    """The bytes of ``fh`` in blocks of whole lines, each ending in ``\\n``.

    ``\\r\\n`` and a lone ``\\r`` become ``\\n``, and a last line without a
    newline gets one, so the lines are those text mode reads. Each block
    is ``VEC_BLOCK_BYTES`` read, cut after its last newline; the bytes
    after the cut start the next block, so a line longer than a block is
    carried until its newline is read.
    """
    carry = []  # what was read after the last newline
    after_cr = False  # the last read ended in \r: a \n opening the next one ends the same line
    while True:
        data = fh.read(VEC_BLOCK_BYTES)
        last = len(data) < VEC_BLOCK_BYTES
        if after_cr and data.startswith(b"\n"):
            data = data[1:]
        after_cr = data.endswith(b"\r")
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if last:
            block = b"".join([*carry, data])
            if block:
                yield block if block.endswith(b"\n") else block + b"\n"
            return
        cut = data.rfind(b"\n") + 1
        if cut:
            yield b"".join([*carry, memoryview(data)[:cut]])
            carry = []
        carry.append(data[cut:])


def _parse_block(block: bytes, dim: int, most: int, pick=None):
    """The row count, words and values of the first rows of ``block``, at
    most ``most``, or None when a check fails.

    With ``pick`` (see ``_first_row_picker``) the words and values are
    those of the rows it picks. All of ``block`` must be UTF-8, also past
    its first ``most`` rows.
    """
    a = np.frombuffer(block, dtype=np.uint8)
    seps = np.flatnonzero(a <= 32)  # spaces and newlines, and control bytes a word may hold
    kind = a[seps]
    newline = kind == 10
    is_sep = newline | (kind == 32)
    if not is_sep.all():
        seps, newline = seps[is_sep], newline[is_sep]
    nl = np.flatnonzero(newline)[:most]  # each row's newline, as an index into seps
    rows = len(nl)
    # Row i is d spaces, then its newline: separator i * (d + 1) + d.
    if not np.array_equal(nl, np.arange(dim, rows * (dim + 1), dim + 1)):
        return None
    try:
        # A selection decodes its rows below; here it only checks, and ASCII is UTF-8.
        text = "" if pick is not None and block.isascii() else block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    taken = rows
    if pick is not None:
        ends = seps[nl]
        starts = np.concatenate([[0], ends[:-1] + 1]) if rows else ends
        picked = pick(block, a, starts, seps[nl - dim])
        text = "".join(block[starts[i]:ends[i] + 1].decode("utf-8") for i in picked)
        taken = len(picked)
    # Each newline stays on its row's last value, which float conversion
    # ignores; the text after the rows taken is one more field, dropped.
    size = taken * (dim + 1)
    fields = text.replace("\n", "\n ").split(" ", size)
    del fields[size:]
    words = fields[:: dim + 1]
    del fields[:: dim + 1]
    try:
        values = np.array(fields, dtype=np.float64)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return rows, words, values.reshape(len(words), dim)


def _first_row_picker(wanted: set[str]):
    """``pick(block, a, starts, word_ends)``: the rows of a block, in order,
    that are the first in the file of a ``wanted`` word, for one
    ``load_vec_file`` call to pass each of its blocks in turn.

    Only a row whose word has the byte length and the first byte of a
    wanted word (for the empty word, the space after it) is compared. A
    word is dropped at its first row; its key stays in the table, where
    it costs only a comparison.
    """
    left = dict.fromkeys((w.encode("utf-8", "surrogatepass") for w in wanted), True)
    longest = max(map(len, left), default=0) + 1  # any longer word is no wanted word
    keys = np.zeros((longest + 1) * 256, dtype=bool)
    for w in left:
        keys[len(w) * 256 + (w + b" ")[0]] = True

    def pick(block: bytes, a: np.ndarray, starts: np.ndarray, word_ends: np.ndarray) -> list[int]:
        if not left:
            return []
        hits = np.flatnonzero(keys[np.minimum(word_ends - starts, longest) * 256 + a[starts]])
        return [i for i, start, end in zip(hits.tolist(), starts[hits].tolist(),
                                           word_ends[hits].tolist())
                if left.pop(block[start:end], False)]

    return pick


def _block_error(block: bytes, first_lineno: int, dim: int, most: int,
                 wanted: set[str] | None) -> VecParseError:
    """The error of the first bad line of ``block``: among its first ``most``
    rows (see ``_row_error``), or a later line that is not UTF-8."""
    lines, undecodable = [], None
    for lineno, raw in enumerate(block.splitlines(), start=first_lineno):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as err:
            undecodable = _utf8_error(lineno, err)
            break
    return _row_error(lines[:most], first_lineno, dim, wanted) or undecodable


def _utf8_error(lineno: int, err: UnicodeDecodeError) -> VecParseError:
    """The error naming line ``lineno``, ``err`` from decoding it without its newline."""
    return VecParseError(f"line {lineno}: not valid UTF-8 ({err.reason} at byte {err.start + 1})")


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


def _row_error(lines: list[str], first_lineno: int, dim: int,
               wanted: set[str] | None) -> VecParseError | None:
    """The error of the first bad row among ``lines``, in file order, or None.

    Every row's field count is checked, and the values of every row, or
    with ``wanted`` those of the first row among ``lines`` of each wanted
    word, as ``_parse_block`` selects them.
    """
    left = None if wanted is None else set(wanted)
    for lineno, line in enumerate(lines, start=first_lineno):
        fields = line.rstrip("\n").split(" ")
        if len(fields) != dim + 1:
            return VecParseError(
                f"line {lineno}: expected a word plus {dim} values, got {len(fields)} fields"
            )
        if left is not None:
            if fields[0] not in left:
                continue
            left.remove(fields[0])
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
