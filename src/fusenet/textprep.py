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
import sys
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

_DIGIT_RE = re.compile(r"\d")  # a Unicode digit, as ``\d`` in the patterns

# The detectors after the email one, in order, each with its placeholder,
# the fewest digits a match holds, and a character every match holds.
_DIGIT_DETECTORS = (
    (_DATE_RES[0], "this date", 5, ""),
    (_DATE_RES[1], "this date", 6, "/"),
    (_DATE_RES[2], "this date", 6, "-"),
    (_AMOUNT_RE, "this amount", 1, "$"),
    (_PHONE_RE, "this phone number", 10, ""),
)


def _redact_pii(s: str) -> str:
    # Iterate to a fixpoint: a replacement can expose a new match (for
    # example the tail of a run-together pair of addresses). Each pass
    # removes at least one digit/@/$ and inserts none, so this terminates.
    # A detector is skipped when s lacks what each of its matches holds
    # ("@" for an email address), as it could only return s.
    prev = None
    while s != prev:
        prev = s
        if "@" in s:
            s = _EMAIL_RE.sub("this email address", s)
        # Counted after the email substitution, which can remove digits. The
        # later substitutions only remove more, so the count never falls short.
        digits = len(_DIGIT_RE.findall(s))
        for pattern, phrase, fewest, needs in _DIGIT_DETECTORS:
            if digits >= fewest and needs in s:
                s = pattern.sub(phrase, s)
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
    if "'" in s:  # every contraction has an apostrophe
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
            # Interned: the tokens a corpus keeps share one string per word.
            tokens.append(sys.intern(word))
    return TokenSequence(tokens=tokens[:max_seq_len], original_len=len(tokens))


def contains_pii(text: str) -> bool:
    """True if the detector patterns still match; used by the survival tests."""
    return bool(_EMAIL_RE.search(text) or _PHONE_RE.search(text))
