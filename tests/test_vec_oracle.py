"""The block-scanning .vec parser against the per-row parser it replaced.

``reference_load_vec_file`` reads, converts and checks one row at a time
and is kept here only as the oracle. On every file below both parsers
must give the same vocabulary order, the same matrix bytes and width,
or the same error message. So must both with ``only=`` a seeded sample
of the file's words, and the rows selected must be the full parse's.

Files built by the ``vec`` fixture are read in blocks of their first
``CUT`` rows' bytes, so that a block cut falls between rows ``CUT - 1``
and ``CUT``; other tests set their own block size.
"""

import numpy as np
import pytest

from fusenet import embeddings
from fusenet.embeddings import EmbeddingTable, VecParseError, load_vec_file


def reference_load_vec_file(path, only=None):
    """Per-row .vec reader: the oracle for ``load_vec_file``."""
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

        wanted = None if only is None else set(only)
        vocab: dict[str, int] = {}
        rows = []
        for lineno in range(2, declared_v + 2):
            line = fh.readline()
            if not line:
                raise VecParseError(
                    f"line {lineno}: file ends after {lineno - 2} of {declared_v} rows"
                )
            fields = line.rstrip("\n").split(" ")
            if len(fields) != dim + 1:
                raise VecParseError(
                    f"line {lineno}: expected a word plus {dim} values, got {len(fields)} fields"
                )
            word = fields[0]
            if wanted is not None:
                # Only the first row of a wanted word is converted.
                if word not in wanted:
                    continue
                wanted.remove(word)
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


def outcome(loader, path, **kwargs):
    try:
        table = loader(path, **kwargs)
    except VecParseError as err:
        return "error", str(err)
    assert table.matrix.dtype == np.float64
    return list(table.vocab.items()), table.matrix.shape, table.matrix.tobytes(), table.dim


def assert_same(path):
    got = outcome(load_vec_file, path)
    want = outcome(reference_load_vec_file, path)
    assert got == want
    assert_selection_same(path, got)
    return got


def sample_words(path, seed=0, size=13):
    """Up to ``size`` words seeded-sampled from the file's rows, plus one it lacks."""
    lines = path.read_bytes().decode("utf-8", "replace").splitlines()[1:]
    words = [line.split(" ")[0] for line in lines if line]
    picked = np.random.default_rng(seed).choice(len(words), min(size, len(words)),
                                                replace=False) if words else []
    return [words[i] for i in picked] + ["absent-word"]


def assert_selection_same(path, full):
    """``only=`` gives the oracle's outcome, and the full parse's rows and faults.

    A header, field-count, truncation or UTF-8 fault is reported at the
    same line as by the full parse, and a selection from a file that
    parses gives the full parse's rows bit for bit, in file order.
    """
    only = sample_words(path)
    got = outcome(load_vec_file, path, only=only)
    assert got == outcome(reference_load_vec_file, path, only=only)
    if full[0] == "error":
        if "vector component" not in full[1]:
            assert got == full
        return
    vocab, _, matrix, dim = full
    rows = np.frombuffer(matrix).reshape(len(vocab), dim)
    selected = [(word, i) for word, i in vocab if word in only]
    assert got[0] == [(word, j) for j, (word, _) in enumerate(selected)]
    assert got[1:] == ((len(selected), dim), rows[[i for _, i in selected]].tobytes(), dim)
    declared = int(path.read_bytes().split(maxsplit=1)[0])
    assert load_vec_file(path).file_rows == load_vec_file(path, only=only).file_rows == declared


# ---------------------------------------------------------------------------
# Generated files. A row index is 0-based; its line number is index + 2.

BAD_ROWS = {
    "short": lambda word, vals: " ".join([word, *vals[:-1]]),
    "long": lambda word, vals: " ".join([word, *vals, "0.5"]),
    "blank": lambda word, vals: "",
    "double-space": lambda word, vals: " ".join([word, *vals]).replace(" ", "  ", 1),
    "tab": lambda word, vals: word + "\t" + " ".join(vals),
    "non-numeric": lambda word, vals: " ".join([word, "x", *vals[1:]]),
    "empty-field": lambda word, vals: " ".join([word, *vals[:-1], ""]),
    "nan": lambda word, vals: " ".join([word, *vals[:-1], "nan"]),
    "inf": lambda word, vals: " ".join([word, "-inf", *vals[1:]]),
    "overflow": lambda word, vals: " ".join([word, *vals[:-1], "1e999"]),
}


def make_rows(rng, n, dim):
    words = [f"w{i}" for i in range(n)]
    values = rng.normal(size=(n, dim))
    return [[word, [repr(float(v)) for v in row]] for word, row in zip(words, values)]


def write_vec(path, rows, dim, declared=None, bad=None, newline="\n", final_newline=True):
    """Write ``rows`` under a header of ``declared`` rows (default all).

    ``bad`` maps a row index to the kind of damage written in its place.
    """
    bad = bad or {}
    lines = [f"{len(rows) if declared is None else declared} {dim}"]
    for i, (word, vals) in enumerate(rows):
        lines.append(BAD_ROWS[bad[i]](word, vals) if i in bad else " ".join([word, *vals]))
    text = newline.join(lines) + (newline if final_newline else "")
    path.write_bytes(text.encode("utf-8"))
    return path


# Rows before the first block cut of a file from the ``vec`` fixture.
CUT = 1024


def cut_after(monkeypatch, path, rows=CUT):
    """Read ``path`` in blocks of the bytes of its header and first ``rows``
    rows, so that the first block ends after row ``rows - 1``."""
    lines = path.read_bytes().splitlines(keepends=True)
    monkeypatch.setattr(embeddings, "VEC_BLOCK_BYTES", max(sum(map(len, lines[:rows + 1])), 1))
    return path


@pytest.fixture
def vec(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)

    def build(n, dim=3, **kwargs):
        path = write_vec(tmp_path / "t.vec", make_rows(rng, n, dim), dim, **kwargs)
        return cut_after(monkeypatch, path)
    return build


@pytest.mark.parametrize("n", [0, 1, CUT - 1, CUT, CUT + 1, 2100])
def test_well_formed_sizes(vec, n):
    vocab, shape, _, dim = assert_same(vec(n))
    assert len(vocab) == n and shape == (n, 3) and dim == 3


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize("index", [CUT - 1, CUT])
def test_bad_row_either_side_of_a_chunk_boundary(vec, kind, index):
    got = assert_same(vec(2100, bad={index: kind}))
    assert got[0] == "error" and got[1].startswith(f"line {index + 2}: ")


@pytest.mark.parametrize("first, second", [("nan", "short"), ("non-numeric", "inf"),
                                           ("blank", "non-numeric"), ("overflow", "long")])
def test_first_of_two_bad_rows_in_one_chunk_wins(vec, first, second):
    got = assert_same(vec(2100, bad={1100: first, 1500: second}))
    assert got[1].startswith("line 1102: ")


VALUE_FAULTS = {"non-numeric", "empty-field", "nan", "inf", "overflow"}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize("index", [CUT - 1, CUT])
def test_selection_checks_values_only_in_the_rows_it_converts(tmp_path, monkeypatch, kind, index):
    rows = make_rows(np.random.default_rng(13), 2100, 3)
    clean = write_vec(tmp_path / "clean.vec", rows, 3)
    path = cut_after(monkeypatch, write_vec(tmp_path / "bad.vec", rows, 3, bad={index: kind}))
    full = outcome(load_vec_file, path)
    assert full[0] == "error" and full[1].startswith(f"line {index + 2}: ")
    used = [rows[index][0], "w5", "w2000"]
    assert outcome(load_vec_file, path, only=used) == full
    unused = outcome(load_vec_file, path, only=used[1:])
    if kind in VALUE_FAULTS:
        assert unused == outcome(load_vec_file, clean, only=used[1:])
        assert unused[0] == [("w5", 0), ("w2000", 1)]
    else:
        assert unused == full


def test_selection_keeps_the_first_row_of_a_repeated_word(tmp_path, monkeypatch):
    rows = make_rows(np.random.default_rng(3), 2100, 4)
    for dup, orig in [(1500, 10), (30, 5), (31, 5)]:
        rows[dup][0] = rows[orig][0]
    full = load_vec_file(write_vec(tmp_path / "d.vec", rows, 4))
    # A later row of a selected word is never converted, so a bad value there loads.
    path = write_vec(tmp_path / "bad.vec", rows, 4, bad={1500: "nan", 31: "non-numeric"})
    cut_after(monkeypatch, path)
    assert outcome(load_vec_file, path)[0] == "error"
    table = load_vec_file(path, only=["w10", "w5", "w1501"])
    assert list(table.vocab) == ["w5", "w10", "w1501"]
    for word in table.vocab:
        assert table.lookup(word).tobytes() == full.lookup(word).tobytes()
    # A malformed row later in the block is the error, not the repeat's value.
    path = write_vec(tmp_path / "short.vec", rows, 4, bad={31: "non-numeric", 500: "short"})
    assert outcome(load_vec_file, path, only=["w10", "w5", "w1501"]) == (
        "error", "line 502: expected a word plus 4 values, got 4 fields")


@pytest.mark.parametrize("header", ["not a header", "2", "x 3", "2 0", "-1 3", "2 3 4", ""])
def test_malformed_header(tmp_path, header):
    path = tmp_path / "h.vec"
    path.write_text(header + "\nw0 1 2 3\nw1 4 5 6\n", encoding="utf-8")
    got = assert_same(path)
    assert got[0] == "error" and got[1].startswith("line 1: ")


def test_duplicates_within_and_across_chunks_keep_the_first(tmp_path, monkeypatch):
    rows = make_rows(np.random.default_rng(3), 2100, 4)
    for dup, orig in [(1500, 10), (1501, 10), (2000, 1499), (30, 5)]:
        rows[dup][0] = rows[orig][0]
    path = cut_after(monkeypatch, write_vec(tmp_path / "d.vec", rows, 4))
    vocab, shape, _, _ = assert_same(path)
    assert shape == (2096, 4) and len(vocab) == 2096


@pytest.mark.parametrize("limit", [0, 1, 1500, 2100, 5000, -1])
def test_vocab_limit(vec, limit):
    # The header's V is the only vocabulary limit: a bad row beyond it is
    # never read, and a negative V is a header error.
    path = vec(2100, declared=limit, bad={1600: "non-numeric"})
    got = assert_same(path)
    assert (got[0] == "error") == (limit > 1600 or limit < 0)


def test_rows_after_the_declared_count_are_ignored(vec):
    vocab, shape, _, _ = assert_same(vec(1100, declared=1030, bad={1030: "blank", 1050: "nan"}))
    assert len(vocab) == 1030 and shape == (1030, 3)


@pytest.mark.parametrize("rows", [0, 500, CUT, 1500])
def test_truncated_file(vec, rows):
    got = assert_same(vec(rows, declared=2100))
    assert got == ("error", f"line {rows + 2}: file ends after {rows} of 2100 rows")


def test_bad_row_before_the_early_end_is_named_first(vec):
    got = assert_same(vec(1500, declared=2100, bad={1400: "inf"}))
    assert got[1] == "line 1402: non-finite vector component"


def test_header_claiming_far_more_rows_than_the_file_holds(vec):
    got = assert_same(vec(3, declared=10**15))
    assert got == ("error", f"line 5: file ends after 3 of {10**15} rows")


@pytest.mark.parametrize("newline, final", [("\n", False), ("\r\n", True), ("\r\n", False),
                                            ("\r", True)])
def test_line_endings(vec, newline, final):
    vocab, _, _, _ = assert_same(vec(1100, newline=newline, final_newline=final))
    assert len(vocab) == 1100


def test_blank_row(vec):
    got = assert_same(vec(1100, bad={700: "blank"}))
    assert got == ("error", "line 702: expected a word plus 3 values, got 1 fields")


@pytest.mark.parametrize("seed", range(40))
def test_random_malformed_files(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 2300))
    dim = int(rng.integers(1, 5))
    kinds = sorted(BAD_ROWS)
    bad = {int(rng.integers(0, n)): kinds[int(rng.integers(len(kinds)))]
           for _ in range(int(rng.integers(0, 3)))} if n else {}
    rows = make_rows(rng, n, dim)
    for _ in range(int(rng.integers(0, 4))):
        if n:
            rows[int(rng.integers(n))][0] = rows[int(rng.integers(n))][0]
    declared = max(n + int(rng.integers(-5, 6)), 0) if rng.random() < 0.3 else None
    path = write_vec(tmp_path / "r.vec", rows, dim, declared=declared, bad=bad,
                     newline=["\n", "\r\n"][int(rng.integers(2))],
                     final_newline=bool(rng.integers(2)))
    # Blocks from a few bytes, shorter than a row, to a few rows.
    monkeypatch.setattr(embeddings, "VEC_BLOCK_BYTES", int(rng.integers(1, 400)))
    assert_same(path)


def test_shortest_possible_rows(tmp_path):
    # One-character words and values, an empty word and no final newline:
    # the file's bytes bound the rows allocated, and must never cut them.
    words = [chr(c) for c in range(33, 127)]
    text = f"{len(words) + 1} 1\n" + "\n".join(f"{w} {i % 10}" for i, w in enumerate(words))
    path = tmp_path / "short.vec"
    path.write_text(text + "\n 7", encoding="utf-8")
    vocab, shape, _, _ = assert_same(path)
    assert shape == (95, 1)


@pytest.mark.parametrize("bad", [{3: "nan"}, {}], ids=["bad-row-first", "decode-error"])
def test_undecodable_text_later_in_the_chunk(tmp_path, bad):
    # The invalid byte sits past the first 8 KB of the file but inside the
    # first block: a bad row before it is still the error reported.
    rows = make_rows(np.random.default_rng(5), 2000, 2)
    rows[900][0] = "undecodable"
    path = write_vec(tmp_path / "u.vec", rows, 2, bad=bad)
    path.write_bytes(path.read_bytes().replace(b"undecodable", b"w\xff"))
    errors = []
    for loader in (load_vec_file, reference_load_vec_file):
        with pytest.raises(ValueError) as exc:
            loader(path)
        errors.append((type(exc.value), str(exc.value)))
    # A selection reports the undecodable line as the full parse does, and
    # the bad row before it only when that row is selected.
    utf8_error = "line 902: not valid UTF-8 (invalid start byte at byte 2)"
    for only, want in ((["w3", "w5"], errors[0][1]), (["w5"], utf8_error)):
        with pytest.raises(VecParseError) as exc:
            load_vec_file(path, only=only)
        assert str(exc.value) == want
    if bad:
        assert errors[0] == errors[1] and errors[0][0] is VecParseError
    else:
        # The per-row reader passes the decoder's error through; the
        # block scan names the line that holds the invalid byte.
        assert errors[1][0] is UnicodeDecodeError
        assert errors[0] == (VecParseError, "line 902: not valid UTF-8 (invalid start byte at byte 2)")


# ---------------------------------------------------------------------------
# Block cuts at every position.


def special_file(path, case):
    """A 12-row, d=2 file holding ``case`` around row 6, and its line ending."""
    rows = make_rows(np.random.default_rng(17), 12, 2)
    bad, newline = {}, "\n"
    if case == "bad-row":
        bad = {6: "short"}
    elif case == "repeated-word":
        rows[6][0] = rows[5][0]
        rows[7][0] = rows[2][0]
    elif case in ("crlf", "cr"):
        newline = {"crlf": "\r\n", "cr": "\r"}[case]
    elif case == "multibyte-word":
        rows[5][0], rows[6][0], rows[7][0] = "café", "日本語", "\U0001f600"
    elif case == "invalid-byte":
        rows[6][0] = "invalid"
    write_vec(path, rows, 2, bad=bad, newline=newline)
    if case == "invalid-byte":
        path.write_bytes(path.read_bytes().replace(b"invalid", b"in\xffvalid"))
    return path


@pytest.mark.parametrize("case", ["bad-row", "repeated-word", "crlf", "cr", "multibyte-word",
                                  "invalid-byte"])
def test_each_case_on_both_sides_of_every_block_cut(tmp_path, monkeypatch, case):
    # Every block size from one byte to the whole file puts a cut before,
    # inside and after the case's bytes: inside a \r\n pair, a multi-byte
    # character or a row longer than the block.
    path = special_file(tmp_path / "s.vec", case)
    for size in range(1, len(path.read_bytes()) + 2):
        monkeypatch.setattr(embeddings, "VEC_BLOCK_BYTES", size)
        if case != "invalid-byte":
            assert_same(path)
            continue
        # The per-row reader raises the decoder's own error here.
        for only in (None, ["w1", "w11"], ["w1", "in\ufffdvalid"]):
            with pytest.raises(VecParseError) as exc:
                load_vec_file(path, only=only)
            assert str(exc.value) == "line 8: not valid UTF-8 (invalid start byte at byte 3)"


def test_a_row_longer_than_one_block(tmp_path):
    dim = 12_000
    rows = make_rows(np.random.default_rng(19), 4, dim)
    rows[1][0] = "long" * 40_000  # a word alone longer than a block
    path = write_vec(tmp_path / "wide.vec", rows, dim)
    assert len(" ".join(rows[2][1])) > embeddings.VEC_BLOCK_BYTES
    vocab, shape, _, _ = assert_same(path)
    assert shape == (4, dim)
    got = assert_same(write_vec(tmp_path / "bad.vec", rows, dim, bad={2: "nan"}))
    assert got == ("error", "line 4: non-finite vector component")


def test_malformed_text_after_the_declared_rows_is_never_reported(tmp_path, monkeypatch):
    rows = make_rows(np.random.default_rng(23), 400, 3)
    clean = load_vec_file(write_vec(tmp_path / "clean.vec", rows[:100], 3))
    bad = {i: kind for i, kind in zip(range(100, 400, 7), sorted(BAD_ROWS) * 5)}
    path = write_vec(tmp_path / "tail.vec", rows, 3, declared=100, bad=bad)
    # Past the blocks read, and past the per-row reader's 8 KB read-ahead.
    path.write_bytes(path.read_bytes() + b"\xff\xfe \x00\r\r\n")
    for cut in (50, 99, 100, 101):
        cut_after(monkeypatch, path, cut)
        vocab, shape, matrix, _ = assert_same(path)
        assert vocab == list(clean.vocab.items()) and matrix == clean.matrix.tobytes()
    # Bytes read past row V, in the block that holds it, must still be UTF-8.
    rows[100][0] = "invalid"
    path = write_vec(tmp_path / "utf8.vec", rows, 3, declared=100)
    path.write_bytes(path.read_bytes().replace(b"invalid", b"\xff"))
    cut_after(monkeypatch, path, 150)
    with pytest.raises(VecParseError, match="^line 102: not valid UTF-8 "):
        load_vec_file(path)


def test_wanted_words_of_a_byte_length_and_first_byte_that_most_rows_share(tmp_path,
                                                                            monkeypatch):
    rows = make_rows(np.random.default_rng(29), 2000, 3)
    for i, row in enumerate(rows):
        row[0] = f"w{i:04d}"
    rows[1500][0] = rows[1200][0]
    path = cut_after(monkeypatch, write_vec(tmp_path / "same.vec", rows, 3))
    full = load_vec_file(path)
    only = ["w1999", "w1200", "w0000", "w1023", "w1024", "wzzzz", "w100", "w10000"]
    got = outcome(load_vec_file, path, only=only)
    assert got == outcome(reference_load_vec_file, path, only=only)
    assert [word for word, _ in got[0]] == ["w0000", "w1023", "w1024", "w1200", "w1999"]
    for (word, i) in got[0]:
        assert got[2][i * 24:(i + 1) * 24] == full.lookup(word).tobytes()


def test_a_tab_or_other_control_character_inside_a_word(tmp_path, monkeypatch):
    rows = make_rows(np.random.default_rng(31), 30, 2)
    rows[4][0], rows[9][0], rows[10][0], rows[20][0] = "a\tb", "\tlead", "c\x0bd", "e\x1c\x85"
    path = write_vec(tmp_path / "tab.vec", rows, 2)
    for size in (7, 64, embeddings.VEC_BLOCK_BYTES):
        monkeypatch.setattr(embeddings, "VEC_BLOCK_BYTES", size)
        got = outcome(load_vec_file, path)
        assert got == outcome(reference_load_vec_file, path)
        assert [word for word, _ in got[0]][9:11] == ["\tlead", "c\x0bd"]
        only = ["a\tb", "c\x0bd", "e\x1c\x85", "a", "b", "c"]
        got = outcome(load_vec_file, path, only=only)
        assert got == outcome(reference_load_vec_file, path, only=only)
        assert [word for word, _ in got[0]] == ["a\tb", "c\x0bd", "e\x1c\x85"]
