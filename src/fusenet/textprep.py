"""Deterministic email text normalization and tokenization.

Normalization rewrites volatile or personal substrings to fixed
placeholder phrases (dates -> "this date", dollar amounts -> "this
amount", email addresses -> "this email address", phone numbers ->
"this phone number"), expands a fixed table of contractions, lowercases,
and collapses whitespace. The placeholder phrases contain no digits,
"$" or "@", so running normalize twice is the same as running it once.

Tokenization splits on whitespace and strips terminal punctuation
(.,!?;:) from both ends of each token; intra-word apostrophes and
hyphens survive so embedding-table hits stay high.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

DEFAULT_MAX_SEQ_LEN = 100

_TERMINAL_PUNCT = ".,!?;:"

_MONTHS = (
    "january|february|march|april|may|june|july|august|september|october|november|december"
)

# Dates: "Month D, YYYY" (comma optional), MM/DD/YYYY, MM-DD-YYYY.
_DATE_RES = (
    re.compile(rf"\b(?:{_MONTHS})\s+\d{{1,2}}\s*,?\s*\d{{4}}\b", re.IGNORECASE),
    re.compile(r"(?<!\d)\d{1,2}/\d{1,2}/\d{4}(?!\d)"),
    re.compile(r"(?<!\d)\d{1,2}-\d{1,2}-\d{4}(?!\d)"),
)

_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")

# "$" followed by digits with optional thousands commas and decimals.
_AMOUNT_RE = re.compile(r"\$\s?\d[\d,]*(?:\.\d+)?")

# 10-digit North-American numbers with common separators, optional +1/1 prefix.
_PHONE_RE = re.compile(
    r"(?<!\d)(?:\+?1[\s.-]?)?(?:\(\d{3}\)\s?|\d{3}[\s.-])\d{3}[\s.-]\d{4}(?!\d)"
    r"|(?<!\d)\d{10}(?!\d)"
)


def _load_contractions() -> dict[str, str]:
    table = {}
    text = resources.files("fusenet.resources").joinpath("contractions.tsv").read_text("utf-8")
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        pattern, replacement = line.split("\t")
        table[pattern] = replacement
    return table


CONTRACTIONS = _load_contractions()

_CONTRACTION_RE = re.compile(
    r"\b(" + "|".join(re.escape(k) for k in sorted(CONTRACTIONS, key=len, reverse=True)) + r")\b"
)

_WS_RE = re.compile(r"\s+")


def _redact_pii(s: str) -> str:
    # Iterate to a fixpoint: a replacement can expose a new match (for
    # example the tail of a run-together pair of addresses). Each pass
    # removes at least one digit/@/$ and inserts none, so this terminates.
    prev = None
    while s != prev:
        prev = s
        s = _EMAIL_RE.sub("this email address", s)
        for date_re in _DATE_RES:
            s = date_re.sub("this date", s)
        s = _AMOUNT_RE.sub("this amount", s)
        s = _PHONE_RE.sub("this phone number", s)
    return s


def normalize(text: str) -> str:
    """Normalize raw email text; idempotent and deterministic.

    Degenerate input (empty, whitespace, no matches) passes through
    modulo lowercasing and whitespace collapse.
    """
    s = str(text)
    # Curly apostrophes to straight so one contraction table covers both.
    s = s.replace("’", "'").replace("‘", "'")
    # Collapse whitespace before the detectors run: the phone pattern
    # accepts single-space separators, and collapsing afterwards could
    # assemble a match the detectors never saw.
    s = _WS_RE.sub(" ", s).strip()
    s = _redact_pii(s)
    s = s.lower()
    s = _CONTRACTION_RE.sub(lambda m: CONTRACTIONS[m.group(1)], s)
    return _WS_RE.sub(" ", s).strip()


@dataclass
class TokenSequence:
    """Tokenized text plus the token count before truncation."""

    tokens: list[str] = field(default_factory=list)
    original_len: int = 0


def tokenize(normalized: str, max_seq_len: int = DEFAULT_MAX_SEQ_LEN) -> TokenSequence:
    """Whitespace-split ``normalized``, keeping the first ``max_seq_len`` tokens."""
    if max_seq_len < 1:
        raise ValueError(f"max_seq_len must be >= 1, got {max_seq_len}")
    tokens = []
    for word in normalized.split():
        word = word.strip(_TERMINAL_PUNCT)
        if word:
            tokens.append(word)
    return TokenSequence(tokens=tokens[:max_seq_len], original_len=len(tokens))


def contains_pii(text: str) -> bool:
    """True if the detector patterns still match; used by the survival tests."""
    return bool(_EMAIL_RE.search(text) or _PHONE_RE.search(text))
