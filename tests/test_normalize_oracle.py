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
