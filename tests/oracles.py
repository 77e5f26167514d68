"""Slow, independent reference routes that the tests compare against."""

import math
from fractions import Fraction

from valueset.charsum import chi
from valueset.counting import SymWeights
from valueset.errors import NonIntegralResultError
from valueset.ffield import (
    Field,
    _dense_gcd,
    _dense_mod,
    _dense_monic,
    _dense_mul,
    _dense_powmod,
    _dense_sub,
)


def alpha_value(p: int, x: int) -> int:
    """alpha(x) from the pow-based quadratic character, no polynomial."""
    return 1 if chi(x, p) == 1 else 0


def pattern_map(p: int, t: int, x: int) -> tuple[int, ...]:
    """(alpha(x), alpha(x+1), ..., alpha(x+t-1))."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return tuple(alpha_value(p, (x + i) % p) for i in range(t))


def solution_patterns_reference(inst, p: int) -> list[int]:
    """The alpha patterns, read as bits, whose weighted sum of a is b mod p,
    by testing every pattern bit by bit."""
    target = inst.b % p
    hits = []
    for pat in range(1 << inst.t):
        s = 0
        for i, ai in enumerate(inst.a):
            if pat >> i & 1:
                s += ai
        if s % p == target:
            hits.append(pat)
    return hits


def mux_reference(clause, y_i: int, y_next: int, xbits) -> int:
    """The mux form of w_i, evaluated purely on booleans."""
    sat = any((lit > 0) == bool(xbits[abs(lit) - 1]) for lit in clause)
    return (y_i ^ y_next) if sat else y_i


def newton_reciprocal(d: int) -> SymWeights:
    """The Newton recurrence taken literally over the reciprocal power sums.

    Cleared of denominators by d! * L^k with L = lcm(1..d): with
    G_k = d! L^k sigma_k and S_i = sum_j (L/j)^i,
        k * G_k = sum_{i=1..k} (-1)^(i-1) G_(k-i) S_i.
    Exponential bit growth makes this a small-d cross-check only.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    fact = math.factorial(d)
    L = math.lcm(*range(1, d + 1))
    ratios = [L // j for j in range(1, d + 1)]
    powers = [1] * d
    S = [0] * (d + 1)
    for i in range(1, d + 1):
        powers = [pw * r for pw, r in zip(powers, ratios)]
        S[i] = sum(powers)
    G = [fact] + [0] * d
    for k in range(1, d + 1):
        acc = 0
        for i in range(1, k + 1):
            term = G[k - i] * S[i]
            acc += term if i % 2 else -term
        G[k], rem = divmod(acc, k)
        if rem:
            raise NonIntegralResultError("Newton recurrence left a remainder")
    Lk = 1
    sigma = []
    for k in range(1, d + 1):
        Lk *= L
        sigma.append(Fraction(G[k], fact * Lk))
    return SymWeights(d, tuple(sigma))


def mul_poly_reference(field, a: int, b: int) -> int:
    """a * b in F_(p^m) through F_p[x]: multiply the coefficient vectors,
    then reduce by the modulus."""
    fp = Field(field.p, 1, None)
    prod = _dense_mul(fp, list(field.coeffs(a)), list(field.coeffs(b)))
    return field.from_coeffs(_dense_mod(fp, prod, list(field.modulus)))


def logexp_reference(field) -> tuple[list[int], list[int]]:
    """Log/exp tables by trial multiplication: powers of g = 2, 3, ... are
    multiplied out through F_p[x] until one has order q - 1."""
    q = field.q
    for g in range(2, q):
        exp = [1] * (2 * q - 3)
        log = [0] * q
        x = 1
        ok = True
        for i in range(1, q - 1):
            x = mul_poly_reference(field, x, g)
            if x == 1:
                ok = False
                break
            exp[i] = x
            log[x] = i
        if ok:
            for i in range(q - 1, 2 * q - 3):
                exp[i] = exp[i - (q - 1)]
            return log, exp
    raise AssertionError("no multiplicative generator found; field is corrupt")


def add_reference(field, a: int, b: int, sign: int = 1) -> int:
    """a + sign * b coefficient by coefficient over F_p."""
    return field.from_coeffs(
        x + sign * y for x, y in zip(field.coeffs(a), field.coeffs(b)))


def has_root_reference(field, g: list[int]) -> bool:
    """Root test on a trimmed coefficient list through the dense kernel
    alone: gcd(x^q - x mod g, g) != 1, x^q by _dense_powmod.  The zero list
    vanishes everywhere and a nonzero constant nowhere."""
    if len(g) <= 1:
        return not g
    g = _dense_monic(field, g)
    r = _dense_sub(field, _dense_powmod(field, [0, 1], field.q, g), [0, 1])
    return not r or len(_dense_gcd(field, g, r)) - 1 >= 1
