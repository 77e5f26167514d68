"""Exact arithmetic in F_p and F_(p^m).

Field elements are plain Python ints: the canonical index of an element is
sum(coeffs[i] * p**i), i.e. the little-endian base-p encoding of its
coefficient vector over the prime field.  All file formats and histogram
keys use this index.  A Field object carries the modulus and provides the
arithmetic; indices from different fields must not be mixed.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial
from operator import xor

from .errors import (
    NotMonicError,
    NotPrimeError,
    OrderTooLargeError,
    SingularMatrixError,
)

# Exhaustive operations (enumeration, histograms, coverage) refuse to run
# above this order.  A configuration constant, not baked into arithmetic.
ENUMERATION_CAP = 2 ** 26

# Extension fields at or below this order get log/exp multiplication tables.
_TABLE_CAP = 2 ** 16

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_PROBABILISTIC_ROUNDS = 64
_PROBABILISTIC_SALT = 0x76616C73  # fixed salt so large-n tests are reproducible


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """True if a witnesses the compositeness of n = 2^r * d + 1."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Primality test: deterministic below 2^64, 64-round Miller-Rabin above.

    The witness set {2,...,37} is exact for n < 2^64.  Above that the bases
    come from a generator seeded by n, so results are reproducible; the
    error probability is at most 4^-64.  Memoized: the reductions test the
    same few dozen primes once per instance.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 2 ** 64:
        bases = _MR_WITNESSES
    else:
        rng = random.Random(_PROBABILISTIC_SALT ^ n)
        bases = [rng.randrange(2, n - 1) for _ in range(_PROBABILISTIC_ROUNDS)]
    return not any(_miller_rabin_witness(n, a, d, r) for a in bases)


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic over a Field: little-endian lists of canonical
# element indices, trailing zeros trimmed.  Prime fields take an inline % p
# path in mul and mod; extension fields go through the Field's element ops.
# Extension-field multiplication itself runs on this kernel over F_p.
# ---------------------------------------------------------------------------


def _dense_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _dense_add(field: Field, a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return _dense_trim(out)


def _dense_sub(field: Field, a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = field.sub(out[i], c)
    return _dense_trim(out)


def _dense_mul(field: Field, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if field.m == 1:
        p = field.p
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return _dense_trim(out)
    mul, add = field.mul, field.add
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return _dense_trim(out)


def _dense_mod(field: Field, a: list[int], g: list[int]) -> list[int]:
    if not g:
        raise ZeroDivisionError("polynomial modulus is zero")
    a = list(a)
    dg = len(g) - 1
    low = g[:-1]
    monic = g[-1] == 1
    if field.m == 1:
        p = field.p
        inv_lead = 1 if monic else pow(g[-1], -1, p)
        while _dense_trim(a) and len(a) > dg:
            coef = a.pop() * inv_lead % p  # the top term cancels
            for i, gi in enumerate(low, len(a) - dg):
                a[i] = (a[i] - coef * gi) % p
        return a
    inv_lead = 1 if monic else field.inv(g[-1])
    mul, sub = field.mul, field.sub
    while _dense_trim(a) and len(a) > dg:
        coef = a.pop() if monic else mul(a.pop(), inv_lead)
        for i, gi in enumerate(low, len(a) - dg):
            if gi:
                a[i] = sub(a[i], mul(coef, gi))
    return a


def _dense_monic(field: Field, a: list[int]) -> list[int]:
    """a (nonzero) divided by its leading coefficient."""
    if a[-1] == 1:
        return a
    inv, mul = field.inv(a[-1]), field.mul
    return [mul(c, inv) for c in a]


def _dense_pow(field: Field, base: list[int], e: int) -> list[int]:
    result = [1]
    while e > 0:
        if e & 1:
            result = _dense_mul(field, result, base)
        e >>= 1
        if e:
            base = _dense_mul(field, base, base)
    return result


def _dense_powmod(field: Field, base: list[int], e: int, g: list[int]) -> list[int]:
    result = [1]
    base = _dense_mod(field, base, g)
    while e > 0:
        if e & 1:
            result = _dense_mod(field, _dense_mul(field, result, base), g)
        e >>= 1
        if e:
            base = _dense_mod(field, _dense_mul(field, base, base), g)
    return result


def _dense_gcd(field: Field, a: list[int], b: list[int]) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _dense_mod(field, a, b)
    return _dense_monic(field, a) if a else a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _primitive_element(n: int, candidates, is_one) -> int:
    """The first candidate g of multiplicative order n, where is_one(g, e)
    tells whether g^e = 1: g has order n iff g^(n/r) != 1 for every prime
    r | n (the cofactor order test)."""
    cofactors = [n // r for r in _prime_factors(n)]
    for g in candidates:
        if not any(is_one(g, e) for e in cofactors):
            return g
    raise AssertionError("no multiplicative generator found; field is corrupt")


def prime_logexp(p: int) -> tuple[list[int], list[int]]:
    """Discrete-log tables of F_p for its first primitive root g (trial
    order 1, 2, ...): exp[j] = g^j for 0 <= j < p - 1 and log[g^j] = j;
    log[0] is 0 and means nothing."""
    n = p - 1
    g = _primitive_element(n, range(1, p), lambda g, e: pow(g, e, p) == 1)
    exp = [1] * n
    for j in range(1, n):
        exp[j] = exp[j - 1] * g % p
    log = [0] * p
    for j, y in enumerate(exp):
        log[y] = j
    return log, exp


def is_irreducible(poly: list[int], p: int) -> bool:
    """Rabin test: poly (monic, little-endian coeffs, degree >= 1) over F_p."""
    poly = list(poly)
    if not poly or poly[-1] != 1:
        raise NotMonicError(f"polynomial must be monic over F_{p}")
    m = len(poly) - 1
    if m < 1:
        raise NotMonicError("degree must be at least 1")
    fp = Field(p, 1, None)
    x = _dense_mod(fp, [0, 1], poly)  # x itself is not reduced when m == 1
    # x^(p^m) == x mod poly, and gcd(x^(p^(m/l)) - x, poly) == 1 for prime l | m
    for ell in _prime_factors(m):
        h = _dense_sub(fp, _dense_powmod(fp, x, p ** (m // ell), poly), x)
        if len(_dense_gcd(fp, h, poly)) - 1 >= 1:
            return False
    return not _dense_sub(fp, _dense_powmod(fp, x, p ** m, poly), x)


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------


def _add_digits(p: int, sign: int, a: int, b: int) -> int:
    """a + sign * b digit by digit in base p."""
    out, mult = 0, 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += (da + sign * db) % p * mult
        mult *= p
    return out


@lru_cache(maxsize=256)
def _prime_ops(p: int):
    """add, sub, mul, inv, pow in F_p, shared by every F_p object."""

    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def mul(a, b):
        return a * b % p

    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, p)

    def power(a, e):
        if e < 0:
            raise ValueError("negative exponent")
        return pow(a, e, p)  # pow(0, 0, p) == 1

    return add, sub, mul, inv, power


def _table_ops(field: Field):
    """add, sub, mul, inv, pow in F_(p^m), q <= _TABLE_CAP, by log/exp tables.

    The tables are built by the first product (or inverse or power) and
    kept in the closures' own cells, so an operation bound before the
    build sees them after it.  Sums before the build run digit by digit.
    """
    p, m, q, modulus, tables = field.p, field.m, field.q, field.modulus, field._tables
    n = q - 1
    half = n // 2  # log(-1) for odd p
    log = exp = zech = None

    def load():
        nonlocal log, exp, zech
        # Field._build_logexp is looked up at call time, on a fresh equal
        # field: the closures then hold no reference back to `field`, whose
        # tables go with its last reference.  They are kept as arrays of C
        # ints, about a seventh of the memory of lists of int objects.
        # Products test exp and sums zech, stored after log, so no caller
        # sees a part-set trio.
        built = Field(p, m, modulus)._build_logexp()
        log, exp, zech = tables["logexp"] = tuple(
            None if t is None else array("i", t) for t in built)

    def mul(a, b):
        if not a or not b:
            return 0
        if exp is None:
            load()
        return exp[log[a] + log[b]]

    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if exp is None:
            load()
        return exp[n - log[a]]

    def power(a, e):
        if e < 0:
            raise ValueError("negative exponent")
        if not e:
            return 1
        if not a:
            return 0
        if exp is None:
            load()
        return exp[log[a] * (e % n) % n]

    if p == 2:
        return xor, xor, mul, inv, power

    def add(a, b):
        if zech is None:  # never build here: only products pay for tables
            return _add_digits(p, 1, a, b)
        if not a:
            return b
        if not b:
            return a
        la = log[a]
        z = zech[(log[b] - la) % n]  # a + b = a (1 + b/a)
        return exp[la + z] if z >= 0 else 0

    def sub(a, b):
        if zech is None:
            return _add_digits(p, -1, a, b)
        if not b:
            return a
        lb = log[b] + half
        if not a:
            return exp[lb]
        la = log[a]
        z = zech[(lb - la) % n]
        return exp[la + z] if z >= 0 else 0

    return add, sub, mul, inv, power


def _reduction_rows(p: int, modulus, count: int) -> list[list[int]]:
    """Digits of x^m, ..., x^(m+count-1) mod modulus (monic, degree m) over F_p."""
    rows = []
    row = [-c % p for c in modulus[:-1]]  # x^m = -(modulus without its lead)
    for _ in range(count):  # x^(k+1) = x * x^k, the top digit folds back
        rows.append(row)
        top = row[-1]
        row = [(lo + top * r0) % p for lo, r0 in zip([0] + row[:-1], rows[0])]
    return rows


def _poly_ops(field: Field):
    """add, sub, mul, inv, pow in F_(p^m) above _TABLE_CAP.

    A product packs the base-p digits of both factors w bits apart
    (Kronecker substitution), multiplies the two integers, folds the
    coefficients of x^m..x^(2m-2) back through the precomputed rows
    x^k mod modulus, and reads the m low coefficients mod p.  w is wide
    enough for the largest coefficient that folding can produce.
    """
    p, m, n = field.p, field.m, field.q - 1
    rows = _reduction_rows(p, field.modulus, m - 1)
    w = (m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))).bit_length()
    mask = (1 << w) - 1
    low_mask = (1 << w * m) - 1
    shifts = [w * i for i in range(m)]
    folds = [(sum(r << s for r, s in zip(row, shifts)), w * (m + k))
             for k, row in enumerate(rows)]
    top_first = shifts[::-1]

    def mul(a, b):
        if not a or not b:
            return 0
        pa = pb = 0
        for s in shifts:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            pa |= da << s
            pb |= db << s
        prod = pa * pb
        low = prod & low_mask
        for row, s in folds:
            low += (prod >> s & mask) * row
        out = 0
        for s in top_first:
            out = out * p + (low >> s & mask) % p
        return out

    def power(a, e):
        if e < 0:
            raise ValueError("negative exponent")
        if not e:
            return 1
        if not a:
            return 0
        e %= n
        out = 1
        while e:
            if e & 1:
                out = mul(out, a)
            e >>= 1
            if e:
                a = mul(a, a)
        return out

    def inv(a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return power(a, n - 1)

    if p == 2:
        return xor, xor, mul, inv, power
    return partial(_add_digits, p, 1), partial(_add_digits, p, -1), mul, inv, power


# ---------------------------------------------------------------------------
# Root test: gcd(x^q - x mod g, g) != 1 iff g has a root in F_q
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _packed_xq(p: int, m: int, modulus, d: int):
    """x^q mod g (q = p^m) for monic g of degree d >= 1 over F_(p^m).

    An element of F_q[x]/(g) is one int (Kronecker substitution at two
    levels): the coefficient of x^i fills slot i, S = 3m - 2 digits of w
    bits each, and holds the base-p digits of that F_q element one digit
    apart, as a polynomial in y, the residue of the modulus's variable.
    x^q is computed left to right.  A square is one integer product; its
    slots d..2d-2 fold back through the packed rows x^k mod g, which
    leaves y-digits up to 3m-3 in each slot; those fold back through the
    rows y^j mod modulus, one whole-int step per j; then every digit is
    reduced mod p.  A multiply-by-x step is a shift and one fold.
    """
    P, S = p - 1, 3 * m - 2
    # w bounds the largest digit before the mod-p step.  A square's digit is
    # a sum of at most d*m digit products: d*m*P^2.  Folding slots d..2d-2
    # adds d-1 slot-by-row products, each digit a sum of at most m products
    # of such a digit with a row digit <= P: b = d*m*P^2 * (1 + (d-1)*m*P).
    # Folding y-digits m..3m-3 adds 2m-2 multiples of a digit <= b by a row
    # digit <= P: b * (1 + (2m-2)*P).  A multiply-by-x step stays below that.
    w = (d * m * P * P * (1 + (d - 1) * m * P) * (1 + (2 * m - 2) * P)).bit_length()
    mask, slot = (1 << w) - 1, S * w
    low_mask, slot_mask = (1 << d * slot) - 1, (1 << slot) - 1
    digits = [i * S + j for i in range(d) for j in range(m)]
    ones = sum(1 << i * w for i in digits)
    keep = ones * mask  # y-digits 0..m-1 of every slot
    lane = sum(mask << i * slot for i in range(d))  # y-digit 0 of every slot
    y_rows = _reduction_rows(p, modulus, 2 * m - 2) if m > 1 else []
    yrows = [(j * w, sum(c << i * w for i, c in enumerate(row)))
             for j, row in enumerate(y_rows, m)]  # y^j mod modulus, j = m..3m-3
    # v mod p for many digits at once (Granlund-Montgomery): for v < 2^w,
    # floor(v / p) = floor(v * magic / 2^k).  v * magic takes up to 2w + 2
    # bits and its quotient ends at bit k + w <= 3w, so the digits go in
    # three classes, three digits apart, one product per class.
    k = w + P.bit_length()
    magic = (1 << k) // p + 1
    c0, c1, c2 = (sum(mask << i * w for i in digits if i % 3 == c) for c in range(3))
    bits = bin(p ** m)[3:]
    unpack = [[(i * S + j) * w for j in reversed(range(m))] for i in range(d)]

    def reduce(v):
        if yrows:
            v, high = v & keep, v
            for s, row in yrows:
                v += (high >> s & lane) * row
        if p == 2:
            return v & ones
        return v - p * ((v & c0) * magic >> k & c0 | (v & c1) * magic >> k & c1
                        | (v & c2) * magic >> k & c2)

    def times_x(r, top):
        r <<= slot
        return reduce((r & low_mask) + (r >> d * slot) * top)

    def xq(g):
        top = 0  # x^d mod g = -(g without its lead)
        for i, c in enumerate(g[:-1]):
            for j in range(m):
                c, digit = divmod(c, p)
                top |= -digit % p << (i * S + j) * w
        rows = [(d * slot, top)]  # x^k mod g, k = d..2d-2 (d = 1: an empty slot)
        for s in range((d + 1) * slot, (2 * d - 1) * slot, slot):
            rows.append((s, times_x(rows[-1][1], top)))
        r = times_x(1, top)
        for bit in bits:
            prod = r * r
            v = prod & low_mask
            for s, row in rows:
                v += (prod >> s & slot_mask) * row
            r = reduce(v)
            if bit == "1":
                r = times_x(r, top)
        out = []
        for shifts in unpack:
            c = 0
            for s in shifts:
                c = c * p + (r >> s & mask)
            out.append(c)
        return _dense_trim(out)

    return xq


def root_test(field: Field, d: int) -> Callable[[list[int]], bool]:
    """A test for monic g of degree d >= 1: gcd(x^q - x mod g, g) != 1.

    x^q mod g is packed (_packed_xq) above _TABLE_CAP, and below it when
    2d <= q + 1 and either m = 1 or p is odd and 3d >= m; otherwise it is
    _dense_powmod.  The rule follows a timed grid of both routes: the list
    kernel wins where x^q needs few reductions against the d - 1 rows the
    packed ring builds (d near q or above), in characteristic 2 (XOR sums
    and table products are cheap) and at small d against large m (2m - 2
    digit folds per step).  The gcd runs on the list kernel either way.
    """
    p, m, q = field.p, field.m, field.q
    if q > _TABLE_CAP or 2 * d <= q + 1 and (m == 1 or p > 2 and 3 * d >= m):
        xq = _packed_xq(p, m, field.modulus, d)
    else:
        xq = partial(_dense_powmod, field, [0, 1], q)

    def test(g):
        r = _dense_sub(field, xq(g), [0, 1])
        return not r or len(_dense_gcd(field, g, r)) > 1

    return test


@dataclass(frozen=True, slots=True)
class Field:
    """F_(p^m) with elements addressed by canonical integer index.

    Immutable; all operations are pure.
    add, sub, mul, inv and pow(a, e) (with 0**0 == 1) are functions chosen
    once, at construction, for the field's shape: % p in a prime field;
    log/exp tables for extension fields with q <= _TABLE_CAP, XOR sums for
    p = 2 and Zech logarithms for odd p, the tables built on the first
    product (sums taken before that run digit by digit and build nothing);
    above the cap a packed-integer product reduced by precomputed rows and
    digit-wise sums.
    """

    p: int
    m: int
    q: int = dc_field(init=False, compare=False)  # p ** m, set by __post_init__
    modulus: tuple[int, ...] | None  # monic, little-endian, length m+1; None iff m == 1
    _tables: dict = dc_field(default_factory=dict, repr=False, compare=False)
    # Set by __post_init__: the ops.
    add: Callable[[int, int], int] = dc_field(init=False, repr=False, compare=False)
    sub: Callable[[int, int], int] = dc_field(init=False, repr=False, compare=False)
    mul: Callable[[int, int], int] = dc_field(init=False, repr=False, compare=False)
    inv: Callable[[int], int] = dc_field(init=False, repr=False, compare=False)
    pow: Callable[[int, int], int] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", self.p ** self.m)
        if self.m == 1:
            ops = _prime_ops(self.p)
        else:
            ops = (_table_ops if self.q <= _TABLE_CAP else _poly_ops)(self)
        for name, op in zip(("add", "sub", "mul", "inv", "pow"), ops):
            object.__setattr__(self, name, op)

    # -- element construction ------------------------------------------------

    def coeffs(self, e: int) -> tuple[int, ...]:
        """Coefficient vector (little-endian base-p digits of the index)."""
        out = []
        for _ in range(self.m):
            e, d = divmod(e, self.p)
            out.append(d)
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        idx = 0
        for c in reversed(list(coeffs)):
            idx = idx * self.p + c % self.p
        return idx

    @property
    def gen(self) -> int:
        """The extension generator (the residue of x); only for m > 1."""
        if self.m == 1:
            raise ValueError("prime field has no extension generator")
        return self.p

    def _build_logexp(self):
        """Tables (log, exp, zech) for the generator g, the first element of
        order q - 1 in trial order 2, 3, ...: exp[i] = g^i for 0 <= i < 2q - 3,
        log[g^i] = i, and for odd p the Zech logarithms zech[n] = log(1 + g^n),
        -1 where 1 + g^n = 0 (None for p = 2, where addition is XOR)."""
        p, q, n = self.p, self.q, self.q - 1
        fp = Field(p, 1, None)
        # Candidates below p are F_p constants, of order dividing p - 1 < q - 1.
        g = _primitive_element(n, range(p, q), lambda g, e: _dense_powmod(
            fp, self.coeffs(g), e, self.modulus) == [1])
        add = xor if p == 2 else partial(_add_digits, p, 1)

        def scale(c, a):
            return self.from_coeffs(c * d for d in self.coeffs(a))

        # Multiply by x: shift the digits up; the top digit t folds back as
        # t * x^m = -t * (modulus without its lead).
        top = q // p
        fold = [scale(-t, self.from_coeffs(self.modulus[:-1])) for t in range(p)]

        def times_x(a):
            t, low = divmod(a, top)
            return add(low * p, fold[t]) if t else low * p

        digits = []  # g's digits, most significant first
        while g:
            g, d = divmod(g, p)
            digits.insert(0, d)
        lead, *rest = digits

        exp = [1] * (2 * q - 3)
        log = [0] * q
        ints = list(range(q))  # one int object per value, shared by log and exp
        a = 1
        for i in range(1, n):
            r = a if lead == 1 else scale(lead, a)  # a * g by Horner's rule
            for d in rest:
                r = times_x(r)
                if d:
                    r = add(r, a if d == 1 else scale(d, a))
            a = exp[i] = ints[r]
            log[a] = ints[i]
        exp[n:] = exp[:n - 1]
        if p == 2:
            return log, exp, None
        zech = [-1] * n
        for k in range(n):
            e = exp[k]
            one_plus = e - e % p + (e + 1) % p  # adding 1 touches only digit 0
            if one_plus:
                zech[k] = log[one_plus]
        return log, exp, zech

    # -- enumeration ---------------------------------------------------------

    def elements(self, start: int = 0, stop: int | None = None):
        """All elements in increasing canonical-index order (or a sub-range)."""
        if self.q > ENUMERATION_CAP:
            raise OrderTooLargeError(
                f"q = {self.q} exceeds the enumeration cap 2^26")
        return range(start, self.q if stop is None else stop)

    # -- serialization -------------------------------------------------------

    def describe(self) -> dict:
        """Field description used in result files."""
        out = {"p": self.p, "m": self.m}
        if self.m > 1:
            out["modulus"] = list(self.modulus)
        return out


def make_field(p: int, m: int = 1, modulus=None) -> Field:
    """Build F_(p^m), verifying primality and finding a modulus for m > 1.

    The modulus search is deterministic: monic degree-m candidates are tried
    in increasing canonical index of their coefficient vector, so the same
    field is produced on every run.  An explicit modulus (little-endian,
    monic, degree m) may be supplied instead; it is verified irreducible.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if modulus is not None and m == 1:
        raise ValueError("a modulus requires m > 1")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if m == 1:
        return Field(p=p, m=m, modulus=None)
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != m + 1:
            raise ValueError(f"modulus must have degree {m}")
        if any(not 0 <= c < p for c in modulus):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if not is_irreducible(list(modulus), p):
            raise ValueError("modulus is not irreducible over F_p")
        return Field(p=p, m=m, modulus=modulus)
    for idx in range(p ** m):
        cand = []
        e = idx
        for _ in range(m):
            e, d = divmod(e, p)
            cand.append(d)
        cand.append(1)
        if is_irreducible(cand, p):
            return Field(p=p, m=m, modulus=tuple(cand))
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


def split_range(n: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, n) into at most `parts` contiguous disjoint sub-ranges."""
    parts = max(1, min(parts, n)) if n else 1
    size, rem = divmod(n, parts)
    out = []
    lo = 0
    for i in range(parts):
        hi = lo + size + (1 if i < rem else 0)
        out.append((lo, hi))
        lo = hi
    return out


def solve_linear(matrix, rhs, field: Field) -> list[int]:
    """Solve a square system over `field` by Gaussian elimination.

    Pivots on the first nonzero entry in each column; raises
    SingularMatrixError when no pivot exists.
    """
    n = len(rhs)
    a = [list(row) for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    b = list(rhs)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = field.inv(a[col][col])
        a[col] = [field.mul(inv, v) for v in a[col]]
        b[col] = field.mul(inv, b[col])
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [field.sub(v, field.mul(factor, w)) for v, w in zip(a[r], a[col])]
                b[r] = field.sub(b[r], field.mul(factor, b[col]))
    return b
