"""``textprep.normalize`` against the normalizer it replaced.

``reference_normalize`` runs the PII fixpoint loop until the text stops
changing and always applies the contraction table. It is kept here only
as the oracle. ``normalize`` ends the loop once the text holds no digit,
"@" or "$", and skips the table when the text has no apostrophe; on
every text below both must give the same string.
"""

import random

import pytest

from fusenet import synth
from fusenet.textprep import (_AMOUNT_RE, _CONTRACTION_RE, _DATE_RES, _EMAIL_RE, _PHONE_RE,
                              _WS_RE, CONTRACTIONS, normalize)


def reference_redact_pii(s):
    prev = None
    while s != prev:
        prev = s
        s = _EMAIL_RE.sub("this email address", s)
        for date_re in _DATE_RES:
            s = date_re.sub("this date", s)
        s = _AMOUNT_RE.sub("this amount", s)
        s = _PHONE_RE.sub("this phone number", s)
    return s


def reference_normalize(text):
    s = str(text)
    s = s.replace("’", "'").replace("‘", "'")
    s = _WS_RE.sub(" ", s).strip()
    s = reference_redact_pii(s)
    s = s.lower()
    s = _CONTRACTION_RE.sub(lambda m: CONTRACTIONS[m.group(1)], s)
    return _WS_RE.sub(" ", s).strip()


# Pieces that trigger each detector, near misses, non-ASCII digits
# (Arabic-Indic, fullwidth) that ``\d`` matches, and apostrophes.
PIECES = [
    "April 29, 2017", "march 3 2020", "May", "29,", "2017", "04/29/2017", "4-9-2017",
    "1/2/345", "$", "$1,234.56", "$ 90", "1,000", "@", "john.doe@gmail.com", "a@b.co",
    "x@y", "(555) 123-4567", "555.123.4567", "+1 555 123 4567", "5551234567", "12345678901",
    "٣", "٣/٣/٢٠١٧", "１", "$١٢", "１２３４５６７８９０", "I'd", "I’d", "don't", "can't", "won’t",
    "IT'S", "'", "’", "‘", "loan", "help", "the", "payment", ".", ",", "!", "?", "-", "/",
    "\t", "\n", "  ",
]
ALPHABET = "aZ 09٣１$@.,-/()+'’‘\t\n:;!?é"


def random_texts(seed, n):
    rng = random.Random(seed)
    texts = []
    for _ in range(n):
        if rng.random() < 0.5:
            parts = [rng.choice(PIECES) for _ in range(rng.randrange(0, 12))]
            texts.append("".join(p + rng.choice(["", " ", " ", "\n"]) for p in parts))
        else:
            texts.append("".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 40))))
    return texts


def test_every_contraction_has_an_apostrophe():
    assert CONTRACTIONS and all("'" in key for key in CONTRACTIONS)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_texts_match_oracle(seed):
    texts = random_texts(seed, 5000)
    assert sum(any(c in t for c in "0123456789٣１@$") for t in texts) > 2000
    assert sum("'" in t or "’" in t for t in texts) > 500
    for text in texts:
        assert normalize(text) == reference_normalize(text), repr(text)


def test_synthetic_corpus_matches_oracle():
    examples, _ = synth.generate_synthetic(1300, 0.3, 11)
    for ex in examples:
        assert normalize(ex.text) == reference_normalize(ex.text), repr(ex.text)


# Each detector just below and at the fewest digits its matches hold (a
# "Month D YYYY" date 5, a "/" or "-" date 6, a phone number 10, an amount
# 1), in ASCII, Arabic-Indic and fullwidth digits, alone and beside other
# digits; normalize skips a detector when the text holds fewer.
DIGIT_COUNT_CASES = [
    ("April 1, 201", None), ("April 1, 2017", "this date"),
    ("April ٣, ٢٠١", None), ("April ٣, ٢٠١٧", "this date"),
    ("May １ ２０２", None), ("May １ ２０２０", "this date"),
    ("1/2/201", None), ("1/2/2017", "this date"), ("٣/٣/٢٠١", None), ("٣/٣/٢٠١٧", "this date"),
    ("１/２/２０１", None), ("１/２/２０１７", "this date"),
    ("4-9-201", None), ("4-9-2017", "this date"), ("٤-٩-٢٠١", None), ("٤-٩-٢٠١٧", "this date"),
    ("１-２-２０１", None), ("１-２-２０１７", "this date"),
    ("555123456", None), ("5551234567", "this phone number"),
    ("(555) 123-456", None), ("(555) 123-4567", "this phone number"),
    ("٥٥٥١٢٣٤٥٦", None), ("٥٥٥١٢٣٤٥٦٧", "this phone number"),
    ("１２３４５６７８９", None), ("１２３４５６７８９０", "this phone number"),
    ("$ off", None), ("$١", "this amount"), ("$１", "this amount"),
    ("1/2/2017 or 555123456", "this date"), ("May 1 201 5551234567", "this phone number"),
    ("john@x.com 1/2/201 5551234", "this email address"),
]


@pytest.mark.parametrize("text, placeholder", DIGIT_COUNT_CASES)
def test_detectors_at_their_fewest_digits_match_oracle(text, placeholder):
    want = reference_normalize(text)
    assert normalize(text) == want
    phrases = ("this date", "this phone number", "this amount", "this email address")
    assert [p for p in phrases if p in want] == ([placeholder] if placeholder else [])
