"""The checkpoint loader on damaged files: a ModelLoadError or a load, nothing else.

A small fusion checkpoint has every bit of its header and block
declarations flipped in turn, and is cut at every byte offset. Each
damaged copy must either load or raise a ``ModelLoadError`` subclass;
any other exception (a ``UnicodeDecodeError``, a bare ``ValueError``
from ``int()``, a numpy error) fails the test.
"""

import numpy as np
import pytest

from fusenet.model import (CorruptModelError, ModelConfig, ModelLoadError, build_variant, load,
                           save)


CONFIG = ModelConfig(num_feature_dim=2, cat_feature_dim=2, embed_dim=2, lstm_hidden=2,
                     mlp_hidden=2, num_classes=3, max_seq_len=3, seed=4)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "small.afn"
    save(build_variant(CONFIG, "fusion"), path)
    return path.read_bytes()


def text_spans(data: bytes):
    """(start, end) byte ranges of the header and of each block declaration line."""
    end = data.index(b"end-header\n") + len(b"end-header\n")
    spans = [(0, end)]
    while end < len(data):
        line_end = data.index(b"\n", end) + 1
        shape = [int(d) for d in data[end:line_end].split()[2:]]
        spans.append((end, line_end))
        end = line_end + 8 * int(np.prod(shape))
    return spans


def outcome(path, data: bytes) -> str:
    path.write_bytes(data)
    try:
        load(path)
    except ModelLoadError as err:
        return type(err).__name__
    return "loaded"


def test_the_spans_cover_the_file(checkpoint):
    spans = text_spans(checkpoint)
    assert len(spans) == 1 + len(build_variant(CONFIG, "fusion").param_blocks())
    assert spans[-1][1] + 8 * 3 == len(checkpoint)  # the last block is head.b, 3 values


def test_every_flipped_header_or_declaration_bit(checkpoint, tmp_path):
    path = tmp_path / "flipped.afn"
    seen = {}
    for start, end in text_spans(checkpoint):
        for pos in range(start, end):
            for bit in range(8):
                damaged = bytearray(checkpoint)
                damaged[pos] ^= 1 << bit
                kind = outcome(path, bytes(damaged))
                seen[kind] = seen.get(kind, 0) + 1
    # Non-ASCII bytes and non-integer shapes are corrupt files, not crashes.
    assert seen["CorruptModelError"] > 0 and seen["ModelLoadError"] > 0


def test_every_truncation(checkpoint, tmp_path):
    path = tmp_path / "cut.afn"
    for size in range(len(checkpoint)):
        kind = outcome(path, checkpoint[:size])
        assert kind != "loaded", size


@pytest.mark.parametrize("damage, message", [
    (lambda d: d.replace(b"variant fusion", b"variant fus\xffon", 1), "non-ASCII"),
    (lambda d: d.replace(b"block head.b 3", b"block head.b x", 1), "non-integer shape"),
])
def test_damage_that_used_to_escape_is_named(checkpoint, tmp_path, damage, message):
    path = tmp_path / "bad.afn"
    path.write_bytes(damage(checkpoint))
    with pytest.raises(CorruptModelError, match=message):
        load(path)
