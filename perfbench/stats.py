"""Small statistics and validation helpers shared by the benchmark files."""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TAIL_BEYOND = 10  # samples that must lie above a reported tail percentile


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric or workload name, else raise."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(
            f"bad name {name!r}: start with a letter or digit, then at most 63 "
            "letters, digits, '_', '.' or '-'"
        )
    return name


def check_unit(unit: str) -> str:
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(f"bad unit {unit!r}: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'")
    return unit


def tail(values):
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile)``: the sorted sample at 0-based index
    ``n - TAIL_BEYOND - 1`` and the share of samples at or below it, in
    percent. Returns None when there are too few samples for any.
    """
    ordered = sorted(values)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        return None
    return ordered[index], 100.0 * (index + 1) / len(ordered)
