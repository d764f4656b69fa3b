"""The map the dataset scorer runs its chunks through.

It is serial: each chunk is already one batched forward, and fanning
chunks out over threads made scoring slower. The map stays a named
function so benchmark tracing can time the scoring loop as one span.
"""

from __future__ import annotations


def ordered_map(fn, items) -> list:
    return [fn(item) for item in items]
