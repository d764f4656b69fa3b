import re

import pytest

from fusenet.numcore import Rng
from fusenet.textprep import CONTRACTIONS, TokenSequence, contains_pii, normalize, tokenize


class TestNormalizeGolden:
    def test_month_name_date(self):
        assert normalize("April 29, 2017") == "this date"

    def test_contraction_with_curly_apostrophe(self):
        assert normalize("I’d like a loan") == "i would like a loan"

    def test_contraction_with_straight_apostrophe(self):
        assert normalize("I'd like a loan") == "i would like a loan"

    def test_email_address(self):
        assert normalize("john.doe@gmail.com") == "this email address"

    def test_numeric_dates(self):
        assert normalize("due 04/29/2017 ok") == "due this date ok"
        assert normalize("due 4-9-2017 ok") == "due this date ok"

    def test_amounts(self):
        assert normalize("charged $1,234.56 today") == "charged this amount today"
        assert normalize("fee of $ 90") == "fee of this amount"

    def test_phone_formats(self):
        for raw in ("(415) 555-0134", "415-555-0134", "415.555.0134",
                    "415 555 0134", "4155550134", "+1 415-555-0134"):
            assert normalize(f"call {raw} now") == "call this phone number now", raw

    def test_lowercases_and_collapses_whitespace(self):
        assert normalize("  HELLO   World \t\n again ") == "hello world again"

    def test_degenerate_input_passes_through(self):
        assert normalize("") == ""
        assert normalize("plain words only") == "plain words only"

    def test_run_together_addresses_fully_redacted(self):
        out = normalize("a@b.comx@d.net")
        assert "@" not in out


def fuzz_corpus(n=1000, seed=20240209):
    """Random mix of prose, PII-shaped fragments and punctuation."""
    rng = Rng(seed)
    words = ["loan", "seller", "Fee", "why", "HELP", "reader", "café",
             "renewal", "offer", "totally", "update", "x9", "q"]
    contractions = list(CONTRACTIONS)
    pieces = []
    corpus = []
    for _ in range(n):
        k = int(rng.integers(1, 12))
        pieces.clear()
        for _ in range(k):
            kind = int(rng.integers(0, 10))
            if kind <= 3:
                pieces.append(words[int(rng.integers(0, len(words)))])
            elif kind == 4:
                pieces.append(contractions[int(rng.integers(0, len(contractions)))])
            elif kind == 5:
                pieces.append(f"${int(rng.integers(1, 99999)):,}")
            elif kind == 6:
                pieces.append(f"{int(rng.integers(1,13))}/{int(rng.integers(1,29))}/{int(rng.integers(1990,2030))}")
            elif kind == 7:
                pieces.append(f"user{int(rng.integers(0,999))}@mail{int(rng.integers(0,99))}.org")
            elif kind == 8:
                pieces.append(f"({int(rng.integers(200,999))}) {int(rng.integers(200,999))}-{int(rng.integers(1000,9999))}")
            else:
                pieces.append("".join("ab@.$,19-'!? "[int(i)] for i in rng.integers(0, 13, 6)))
        sep = "  " if int(rng.integers(0, 4)) == 0 else " "
        corpus.append(sep.join(pieces))
    return corpus


class TestNormalizeProperties:
    def test_idempotent_on_fuzz_corpus(self):
        for s in fuzz_corpus():
            once = normalize(s)
            assert normalize(once) == once, repr(s)

    def test_no_pii_survives(self):
        for s in fuzz_corpus(seed=77):
            assert not contains_pii(normalize(s)), repr(s)

    def test_deterministic(self):
        for s in fuzz_corpus(n=50, seed=3):
            assert normalize(s) == normalize(s)

    def test_contraction_table_is_pinned(self):
        # The shipped table is versioned; these entries are load-bearing.
        assert len(CONTRACTIONS) >= 40
        assert CONTRACTIONS["i'd"] == "i would"
        assert CONTRACTIONS["don't"] == "do not"
        assert CONTRACTIONS["won't"] == "will not"
        assert all("'" in key for key in CONTRACTIONS)
        assert all("'" not in value for value in CONTRACTIONS.values())


class TestTokenize:
    def test_basic(self):
        seq = tokenize("i would like a loan")
        assert seq.tokens == ["i", "would", "like", "a", "loan"]
        assert seq.original_len == 5

    def test_empty(self):
        seq = tokenize("")
        assert seq == TokenSequence([], 0)

    def test_truncation_keeps_first_tokens(self):
        text = " ".join(f"w{i}" for i in range(150))
        seq = tokenize(text, max_seq_len=100)
        assert len(seq.tokens) == 100
        assert seq.original_len == 150
        assert seq.tokens[0] == "w0" and seq.tokens[-1] == "w99"

    def test_terminal_punctuation_stripped(self):
        seq = tokenize("hello, world! what: now; ok.")
        assert seq.tokens == ["hello", "world", "what", "now", "ok"]

    def test_intraword_apostrophe_and_hyphen_kept(self):
        seq = tokenize("point-of-sale seller's")
        assert seq.tokens == ["point-of-sale", "seller's"]

    def test_no_token_contains_whitespace(self):
        for s in fuzz_corpus(n=100, seed=8):
            for tok in tokenize(normalize(s)).tokens:
                assert not re.search(r"\s", tok)

    def test_max_seq_len_validated(self):
        with pytest.raises(ValueError):
            tokenize("hello", max_seq_len=0)

