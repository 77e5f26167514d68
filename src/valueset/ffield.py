"""Exact arithmetic in F_p and F_(p^m).

Field elements are plain Python ints: the canonical index of an element is
sum(coeffs[i] * p**i), i.e. the little-endian base-p encoding of its
coefficient vector over the prime field.  All file formats and histogram
keys use this index.  A Field object carries the modulus and provides the
arithmetic; indices from different fields must not be mixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

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


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 2^64, 64-round Miller-Rabin above.

    The witness set {2,...,37} is exact for n < 2^64.  Above that the bases
    come from a generator seeded by n, so results are reproducible; the
    error probability is at most 4^-64.
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
    if field.m == 1:
        p = field.p
        inv_lead = pow(g[-1], -1, p)
        while _dense_trim(a) and len(a) - 1 >= dg:
            coef = a[-1] * inv_lead % p
            shift = len(a) - 1 - dg
            for i, gi in enumerate(g):
                a[shift + i] = (a[shift + i] - coef * gi) % p
        return a
    inv_lead = field.inv(g[-1])
    mul, sub = field.mul, field.sub
    while _dense_trim(a) and len(a) - 1 >= dg:
        coef = mul(a[-1], inv_lead)
        shift = len(a) - 1 - dg
        for i, gi in enumerate(g):
            a[shift + i] = sub(a[shift + i], mul(coef, gi))
    return a


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
    if a:
        inv = field.inv(a[-1])
        a = [field.mul(c, inv) for c in a]
    return a


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


def is_irreducible(poly: list[int], p: int) -> bool:
    """Rabin test: poly (monic, little-endian coeffs, degree >= 1) over F_p."""
    poly = list(poly)
    if not poly or poly[-1] != 1:
        raise NotMonicError(f"polynomial must be monic over F_{p}")
    m = len(poly) - 1
    if m < 1:
        raise NotMonicError("degree must be at least 1")
    fp = Field(p, 1, p, None)
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


@dataclass(frozen=True)
class Field:
    """F_(p^m) with elements addressed by canonical integer index.

    Immutable and safe to share across workers; all operations are pure.
    Extension fields with q <= _TABLE_CAP build log/exp tables (and, for
    odd p, Zech logarithms for add/sub) on their first product and cache
    them; sums taken before that run digit by digit and build nothing.
    """

    p: int
    m: int
    q: int
    modulus: tuple[int, ...] | None  # monic, little-endian, length m+1; None iff m == 1
    _tables: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.m > 1:  # F_p, the coefficient field of the modulus, built once
            object.__setattr__(self, "_prime", Field(self.p, 1, self.p, None))

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

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        tables = self._tables.get("logexp")
        if tables is None:  # never build here: only products pay for tables
            return self._add_digits(a, b, 1)
        if not a:
            return b
        if not b:
            return a
        log, exp, zech = tables
        la = log[a]
        z = zech[(log[b] - la) % (self.q - 1)]  # a + b = a (1 + b/a)
        return exp[la + z] if z >= 0 else 0

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        tables = self._tables.get("logexp")
        if tables is None:
            return self._add_digits(a, b, -1)
        if not b:
            return a
        log, exp, zech = tables
        lb = log[b] + (self.q - 1) // 2  # -1 = g^((q-1)/2)
        if not a:
            return exp[lb]
        la = log[a]
        z = zech[(lb - la) % (self.q - 1)]
        return exp[la + z] if z >= 0 else 0

    def _add_digits(self, a: int, b: int, sign: int) -> int:
        """a + sign * b digit by digit in base p."""
        p, out, mult = self.p, 0, 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += (da + sign * db) % p * mult
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        log, exp, _ = self._logexp()
        if log is not None:
            return exp[log[a] + log[b]]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, -1, self.p)
        log, exp, _ = self._logexp()
        if log is not None:
            return exp[(self.q - 1 - log[a]) % (self.q - 1)]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        """a**e with the convention 0**0 == 1; e is a nonnegative big integer."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self.m == 1:
            return pow(a, e, self.p)
        log, exp, _ = self._logexp()
        if log is not None:
            return exp[log[a] * (e % (self.q - 1)) % (self.q - 1)]
        e %= self.q - 1
        if e == 0:
            return 1
        return self.from_coeffs(
            _dense_powmod(self._prime, self.coeffs(a), e, self.modulus))

    def _mul_poly(self, a: int, b: int) -> int:
        fp = self._prime
        prod = _dense_mul(fp, self.coeffs(a), self.coeffs(b))
        return self.from_coeffs(_dense_mod(fp, prod, self.modulus))

    def _logexp(self):
        """Lazy discrete-log tables keyed off a multiplicative generator."""
        if self.q > _TABLE_CAP:
            return None, None, None
        cached = self._tables.get("logexp")
        if cached is None:
            cached = self._build_logexp()
            self._tables["logexp"] = cached
        return cached

    def _build_logexp(self):
        """Tables (log, exp, zech) for the generator g, the first element of
        order q - 1 in trial order 2, 3, ...: exp[i] = g^i for 0 <= i < 2q - 3,
        log[g^i] = i, and for odd p the Zech logarithms zech[n] = log(1 + g^n),
        -1 where 1 + g^n = 0 (None for p = 2, where addition is XOR)."""
        p, q, n = self.p, self.q, self.q - 1
        cofactors = [n // r for r in _prime_factors(n)]
        # Candidates below p are F_p constants, of order dividing p - 1 < q - 1.
        for g in range(p, q):
            if all(_dense_powmod(self._prime, self.coeffs(g), e, self.modulus) != [1]
                   for e in cofactors):
                break
        else:
            raise AssertionError("no multiplicative generator found; field is corrupt")
        if p == 2:
            add = int.__xor__
        else:
            def add(a, b):
                return self._add_digits(a, b, 1)

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
        a = 1
        for i in range(1, n):
            r = a if lead == 1 else scale(lead, a)  # a * g by Horner's rule
            for d in rest:
                r = times_x(r)
                if d:
                    r = add(r, a if d == 1 else scale(d, a))
            a = exp[i] = r
            log[a] = i
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

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))


def make_field(p: int, m: int = 1, modulus=None) -> Field:
    """Build F_(p^m), verifying primality and finding a modulus for m > 1.

    The modulus search is deterministic: monic degree-m candidates are tried
    in increasing canonical index of their coefficient vector, so the same
    field is produced on every run.  An explicit modulus (little-endian,
    monic, degree m) may be supplied instead; it is verified irreducible.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    q = p ** m
    if m == 1:
        return Field(p=p, m=m, q=q, modulus=None)
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != m + 1:
            raise ValueError(f"modulus must have degree {m}")
        if any(not 0 <= c < p for c in modulus):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if not is_irreducible(list(modulus), p):
            raise ValueError("modulus is not irreducible over F_p")
        return Field(p=p, m=m, q=q, modulus=modulus)
    for idx in range(p ** m):
        cand = []
        e = idx
        for _ in range(m):
            e, d = divmod(e, p)
            cand.append(d)
        cand.append(1)
        if is_irreducible(cand, p):
            return Field(p=p, m=m, q=q, modulus=tuple(cand))
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
