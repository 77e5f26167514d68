"""Deterministic chunked execution for enumeration-heavy operations.

The range is cut into fixed chunks by the worker count, each chunk computes
an independent partial result, and partials are merged in chunk order.
Chunks run one after another in the calling thread: the worker count sets
only the partition, so the output is identical for any worker count.
"""

from __future__ import annotations

from .ffield import split_range


def map_chunks(fn, n: int, workers: int) -> list:
    """Apply fn(lo, hi) over a partition of [0, n); results in chunk order."""
    return [fn(lo, hi) for lo, hi in split_range(n, max(1, workers))]


def merge_counters(parts: list[dict]) -> dict:
    out: dict = {}
    for part in parts:
        for key, val in part.items():
            out[key] = out.get(key, 0) + val
    return out
