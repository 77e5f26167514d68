"""The quadratic-character gadget over F_p and its pattern statistics.

alpha(x) = (x^((p-1)/2) + x^(p-1)) / 2 is the {0,1}-valued indicator of
nonzero quadratic residuosity; the map x -> (alpha(x), ..., alpha(x+t-1))
sends field elements to bit patterns.  Pattern counts are compared against
the Weil range (p/2^t - t(3+sqrt(p)), p/2^t + t(3+sqrt(p))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import EvenCharacteristicError, NotPrimeError, OrderTooLargeError
from .ffield import ENUMERATION_CAP, is_prime, make_field
from .polyrep import SparsePoly

MAX_PATTERN_WIDTH = 20


def _check_odd_prime(p: int) -> None:
    if p == 2:
        raise EvenCharacteristicError("the quadratic character needs odd p")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def chi(x: int, p: int) -> int:
    """Quadratic character: 0 at 0, +1 on nonzero squares, -1 otherwise."""
    if p == 2:
        raise EvenCharacteristicError("the quadratic character needs odd p")
    v = pow(x % p, (p - 1) // 2, p)
    if v == p - 1:
        return -1
    if v in (0, 1):
        return v
    raise NotPrimeError(f"x^((p-1)/2) = {v} mod {p}; p is not an odd prime")


@dataclass(frozen=True)
class CharacterGadget:
    """The sparse polynomial realization of the residuosity indicator."""

    p: int
    alpha: SparsePoly


def alpha_poly(p: int) -> CharacterGadget:
    """inv2 * x^((p-1)/2) + inv2 * x^(p-1) with inv2 = (p+1)/2."""
    _check_odd_prime(p)
    field = make_field(p)
    inv2 = (p + 1) // 2
    alpha = SparsePoly(field, ((inv2, (p - 1) // 2), (inv2, p - 1)))
    return CharacterGadget(p, alpha)


@lru_cache(maxsize=8)
def alpha_table(p: int) -> bytes:
    """alpha(x) for all x in [0, p), built by sieving the nonzero squares.

    Independent of the pow-based chi, so the two routes cross-check.
    """
    _check_odd_prime(p)
    if p > ENUMERATION_CAP:
        raise OrderTooLargeError(f"p = {p} exceeds the enumeration cap 2^26")
    table = bytearray(p)
    for x in range(1, p):
        table[x * x % p] = 1
    return bytes(table)


@dataclass(frozen=True)
class PatternCoverage:
    """Exact pattern counts over all of F_p plus the Weil interval.

    counts is indexed by the pattern read as bits with b_1 least
    significant (matching the weight sum(alpha(x+i) * 2^i)).  weil_low and
    weil_high use floor(sqrt(p)) on both sides, which makes the emitted
    closed interval a subset of the open real Weil interval: a count inside
    [weil_low, weil_high] is strictly inside the real range.
    """

    p: int
    t: int
    counts: tuple[int, ...]
    first_x: tuple[int | None, ...]
    weil_low: Fraction
    weil_high: Fraction

    @property
    def onto(self) -> bool:
        return all(c >= 1 for c in self.counts)

    def inside_weil(self, pattern: int) -> bool:
        """Certified strict containment of one count in the Weil range."""
        c = self.counts[pattern]
        lower_ok = self.weil_low <= 0 or c >= self.weil_low
        return lower_ok and c <= self.weil_high

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "t": self.t,
            "counts": list(self.counts),
            "weil_low": str(self.weil_low),
            "weil_high": str(self.weil_high),
            "onto": self.onto,
        }


def _window_patterns(p: int, t: int):
    """pattern(x) = sum(alpha(x + i) << i for i < t), for x = 0, 1, ..., p - 1.

    A window may wrap F_p more than once (t - 1 > p).
    """
    top = t - 1
    ext = alpha_table(p) * -(-(p + top) // p)  # alpha(i mod p) for i < p + t - 1
    pat = sum(ext[i] << (i + 1) for i in range(top))
    for x in range(p):
        pat = (pat >> 1) | (ext[x + top] << top)
        yield pat


def coverage(p: int, t: int) -> PatternCoverage:
    """Count every pattern by a single sliding-window pass over F_p."""
    _check_odd_prime(p)
    if not 1 <= t <= MAX_PATTERN_WIDTH:
        raise ValueError(f"t must be in [1, {MAX_PATTERN_WIDTH}]")
    size = 1 << t
    counts = [0] * size
    first: list[int | None] = [None] * size
    for x, pat in enumerate(_window_patterns(p, t)):
        counts[pat] += 1
        if first[pat] is None:
            first[pat] = x
    if sum(counts) != p:  # once per table; the reductions rely on it
        raise AssertionError(f"pattern classes total {sum(counts)}, not p = {p}")
    root = math.isqrt(p)
    center = Fraction(p, 1 << t)
    spread = t * (3 + root)
    return PatternCoverage(
        p=p, t=t, counts=tuple(counts), first_x=tuple(first),
        weil_low=center - spread, weil_high=center + spread)


@lru_cache(maxsize=64)
def pattern_table(p: int, t: int) -> PatternCoverage:
    """Cached coverage; reused by the subset-sum reductions."""
    return coverage(p, t)


@lru_cache(maxsize=32)
def pattern_index_table(p: int, t: int) -> bytes:
    """pattern(x) for every x in [0, p), packed one byte per point (t <= 8)."""
    if not 1 <= t <= 8:
        raise ValueError("t must be in [1, 8] for the packed table")
    return bytes(_window_patterns(p, t))


def is_onto(p: int, t: int) -> bool:
    """True iff every pattern in {0,1}^t occurs; guaranteed when 2^(3t) < p."""
    return pattern_table(p, t).onto
