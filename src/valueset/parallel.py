"""Deterministic chunked execution: fn(lo, hi) over a fixed partition.

No package module imports this: every counter runs one serial loop.  It
is kept, with ffield.split_range, only because bench/run.py binds
map_chunks and merge_counters; both go when the benchmark stops binding
them (ROADMAP item 1).
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
