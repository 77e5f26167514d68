"""Value-set cardinality: direct enumeration, codomain root-testing, and the
symmetric-function formula driven by equal-value tuple counts.

The symmetric route computes |V_f| = sum_{i=1..d} (-1)^(i-1) N_i s_i where
N_k counts k-tuples with f(x_1) = ... = f(x_k) and s_i is the i-th
elementary symmetric function of 1, 1/2, ..., 1/d.  N_k can be sourced from
the preimage histogram, from brute-force tuple enumeration, or from the
point count of the auxiliary hypersurface
    sum_{j=2..k} z_(j-1) * (f(x_1) - f(x_j)) = 0.
All arithmetic is exact (big integers and rationals).
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import polyrep
from .errors import (
    DeskScaleExceededError,
    NonIntegralResultError,
    OrderTooLargeError,
    ZeroPolynomialError,
)
from .ffield import ENUMERATION_CAP, Field, _dense_monic, root_test
from .polyrep import DensePoly, PolyInput, SparsePoly

# Expansion limit used when the symmetric method has to densify a
# sparse-shift or straight-line input to learn its exact degree.
EXPANSION_CAP = 2 ** 20

# Largest degree whose symmetric weights sigma_1..sigma_d are computed.
MAX_SYM_DEGREE = 1000

NK_SOURCES = ("histogram", "brute", "hypersurface")
METHODS = ("direct", "codomain", "symmetric")


@dataclass(frozen=True)
class PreimageHistogram:
    """c_y = |f^{-1}(y)| keyed by the canonical index of the value y."""

    field: Field
    entries: dict

    def num_values(self) -> int:
        return len(self.entries)

    def total(self) -> int:
        return sum(self.entries.values())

    def max_preimage(self) -> int:
        return max(self.entries.values()) if self.entries else 0

    def summary(self) -> dict:
        return {"num_values": self.num_values(), "max_preimage": self.max_preimage()}


@dataclass(frozen=True)
class EqualValueCounts:
    """The vector N_1..N_d of equal-value tuple counts."""

    d: int
    counts: tuple[int, ...]
    source: str

    def __post_init__(self):
        if len(self.counts) != self.d:
            raise ValueError("need exactly d counts")
        if self.source not in NK_SOURCES:
            raise ValueError(f"unknown N_k source {self.source!r}")


@dataclass(frozen=True)
class SymWeights:
    """Exact rationals s_i = sigma_i(1, 1/2, ..., 1/d)."""

    d: int
    sigma: tuple[Fraction, ...]


@dataclass(frozen=True)
class HypersurfaceCount:
    """Number of zeros of the auxiliary equation in F_q^(2k-1)."""

    k: int
    q: int
    count: int


@dataclass(frozen=True)
class ValueSetReport:
    cardinality: int
    method: str
    q: int
    d: int | None
    nk: EqualValueCounts | None = None
    histogram: PreimageHistogram | None = None
    seconds: float = 0.0

    def to_json_dict(self, field: Field, poly_text: str | None = None) -> dict:
        out = {
            "field": field.describe(),
            "method": self.method,
            "cardinality": str(self.cardinality),
            "d": self.d,
        }
        if poly_text is not None:
            out["poly"] = poly_text
        if self.nk is not None:
            out["Nk"] = [str(n) for n in self.nk.counts]
        if self.histogram is not None:
            out["histogram_summary"] = self.histogram.summary()
        return out


def _check_enumerable(q: int) -> None:
    if q > ENUMERATION_CAP:
        raise OrderTooLargeError(f"q = {q} exceeds the enumeration cap 2^26")


def _field_of(f) -> Field:
    if not isinstance(f, PolyInput):
        raise TypeError(f"cannot evaluate object of type {type(f).__name__}")
    return f.field


def _resolve(f):
    """The pointwise evaluator and field of a polynomial representation.

    nk_brute and the hypersurface count evaluate point by point, not
    through block_values, so that their N_k cross-checks the block kernels
    count_direct runs on.
    """
    fld = _field_of(f)
    return polyrep.evaluator(f), fld


def _assert_bounds(cardinality: int, q: int, d: int | None) -> None:
    # ceil(q/d) <= |V_f| <= q whenever an exact degree d >= 1 is known.
    if d is not None and d >= 1:
        low = -(-q // d)
        if not low <= cardinality <= q:
            raise AssertionError(
                f"|V_f| = {cardinality} violates [{low}, {q}] for q={q}, d={d}")
    elif not 0 < cardinality <= q:
        raise AssertionError(f"|V_f| = {cardinality} outside (0, {q}]")


# ---------------------------------------------------------------------------
# Direct and codomain counting
# ---------------------------------------------------------------------------


def count_direct(f):
    """Evaluate everywhere; returns (report, preimage histogram).

    The values come a block of points at a time from polyrep.block_values.
    """
    start = time.perf_counter()
    fld = _field_of(f)
    q = fld.q
    _check_enumerable(q)
    entries = Counter()
    for values in polyrep.block_values(f):
        entries.update(values)
    histogram = PreimageHistogram(fld, entries)
    bound = polyrep.degree_bound(f)
    d = bound.bound if bound.exact else None
    cardinality = len(entries)
    _assert_bounds(cardinality, q, d)
    report = ValueSetReport(
        cardinality=cardinality, method="direct", q=q, d=d,
        histogram=histogram, seconds=time.perf_counter() - start)
    return report, histogram


def has_root(g: DensePoly) -> bool:
    """True iff g has a root in F_q, via gcd(x^q - x mod g, g)."""
    if g.is_zero():
        raise ZeroPolynomialError("every point is a root of the zero polynomial")
    if not g.degree:
        return False
    return root_test(g.field, g.degree)(_dense_monic(g.field, list(g.coeffs)))


def count_codomain(f: DensePoly) -> ValueSetReport:
    """For each a in F_q decide whether f - a has a root; count the hits.

    Keeps only a counter (never the image set), so space stays polynomial
    in d*log(q).
    """
    start = time.perf_counter()
    if not isinstance(f, DensePoly):
        raise TypeError("the codomain method needs a dense polynomial")
    field = f.field
    q = field.q
    _check_enumerable(q)
    d = f.degree
    if not d:  # a constant c: f - a has a root (vanishes) for a = c alone
        cardinality = 1
    else:
        # f - a and f/lead - a/lead have the same roots, and a/lead runs
        # over F_q as a does: count over the monic f, one test per count.
        monic = _dense_monic(field, list(f.coeffs))
        test, sub, c0 = root_test(field, d), field.sub, monic[0]
        cardinality = 0
        g = list(monic)
        for a in range(q):
            g[0] = sub(c0, a)
            cardinality += test(g)
    _assert_bounds(cardinality, q, d)
    return ValueSetReport(
        cardinality=cardinality, method="codomain", q=q, d=d,
        seconds=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Symmetric-function weights
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def sym_weights(d: int, method: str = "newton") -> SymWeights:
    """sigma_i(1, 1/2, ..., 1/d) for i = 1..d, exactly.

    newton: Newton's identity k*E_k = sum_{i=1..k} (-1)^(i-1) E_(k-i) P_i.
    The reciprocals 1/1..1/d are the roots of the reversed polynomial of
    prod (x - j), whose elementary symmetric functions E_k over the integer
    roots 1..d satisfy sigma_k = E_(d-k) / E_d with E_d = d!.  Running the
    identity on the integer power sums P_i = 1^i + ... + d^i therefore
    yields the reciprocal weights after one reversal, while keeping every
    intermediate integer below d^(d+1) (the recurrence taken literally over
    the fractional power sums sum 1/j^i grows like lcm(1..d)^d, so that
    form serves only as a small-d cross-check in the tests).

    product: expand prod_{j=1..d} (X + j) over the integers; the X^i
    coefficient is d! * sigma_i.  Used as the independent cross-check.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if d > MAX_SYM_DEGREE:
        raise DeskScaleExceededError(
            f"d = {d} exceeds the symmetric-weight cap {MAX_SYM_DEGREE}")
    fact = math.factorial(d)
    if method == "product":
        poly = [1]
        for j in range(1, d + 1):
            poly = [j * poly[0]] + [poly[i - 1] + j * poly[i]
                                    for i in range(1, len(poly))] + [1]
        sigma = tuple(Fraction(poly[i], fact) for i in range(1, d + 1))
        return SymWeights(d, sigma)
    if method != "newton":
        raise ValueError(f"unknown sym_weights method {method!r}")
    P = [0] * (d + 1)
    powers = list(range(d + 1))
    P[1] = sum(powers)
    for i in range(2, d + 1):
        for j in range(2, d + 1):
            powers[j] *= j
        P[i] = sum(powers)
    E = [1] + [0] * d
    for k in range(1, d + 1):
        acc = 0
        for i in range(1, k + 1):
            term = E[k - i] * P[i]
            acc += term if i % 2 else -term
        E[k], rem = divmod(acc, k)
        if rem:
            raise NonIntegralResultError("Newton recurrence left a remainder")
    sigma = tuple(Fraction(E[d - k], fact) for k in range(1, d + 1))
    return SymWeights(d, sigma)


def scaled_sym_weights(weights: SymWeights) -> tuple[int, ...]:
    """d! * sigma_i as exact integers (the all-integer evaluation path)."""
    fact = math.factorial(weights.d)
    out = []
    for s in weights.sigma:
        v = s * fact
        if v.denominator != 1:
            raise NonIntegralResultError("d! * sigma_i is not an integer")
        out.append(v.numerator)
    return tuple(out)


def omega_identity_check(d: int, k: int) -> Fraction:
    """sum_{i=1..d} (-1)^(i-1) k^i sigma_i; equals 1 for every 1 <= k <= d."""
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    sigma = sym_weights(d).sigma
    acc = Fraction(0)
    kp = 1
    for i in range(1, d + 1):
        kp *= k
        term = kp * sigma[i - 1]
        acc += term if i % 2 else -term
    return acc


# ---------------------------------------------------------------------------
# N_k from three sources
# ---------------------------------------------------------------------------


def nk_from_histogram(hist: PreimageHistogram, d: int) -> EqualValueCounts:
    """N_k = sum_y c_y^k, k = 1..d."""
    counts = []
    for k in range(1, d + 1):
        counts.append(sum(c ** k for c in hist.entries.values()))
    return EqualValueCounts(d, tuple(counts), "histogram")


def nk_brute(f, k: int = 1) -> int:
    """Count k-tuples with equal images by exhaustive enumeration."""
    ev, fld = _resolve(f)
    q = fld.q
    if k < 1:
        raise ValueError("k must be >= 1")
    if q ** k > ENUMERATION_CAP:
        raise OrderTooLargeError(f"q^k = {q ** k} exceeds the enumeration cap")
    values = [ev(x) for x in range(q)]
    if k == 1:
        return q
    count = 0
    for tup in itertools.product(values, repeat=k):
        first = tup[0]
        if all(v == first for v in tup[1:]):
            count += 1
    return count


def count_hypersurface_points(f, k: int = 2, literal: bool = False) -> HypersurfaceCount:
    """Zeros of sum_j z_(j-1) (f(x_1) - f(x_j)) over F_q^k x F_q^(k-1).

    The default path enumerates x-tuples and counts z-solutions analytically:
    a tuple with all images equal kills the form (q^(k-1) solutions), any
    other tuple leaves a nonzero linear form in z (q^(k-2) solutions).  With
    literal=True the full (x, z) space is enumerated instead; that is the
    slow independent oracle used for cross-checks.
    """
    ev, fld = _resolve(f)
    q = fld.q
    if k < 2:
        raise ValueError("the auxiliary equation needs k >= 2")
    if q ** (2 * k - 1) > ENUMERATION_CAP:
        raise OrderTooLargeError(
            f"q^(2k-1) = {q ** (2 * k - 1)} exceeds the enumeration cap")
    values = [ev(x) for x in range(q)]
    total = 0
    if literal:
        sub, mul, add = fld.sub, fld.mul, fld.add
        for v1 in values:
            for rest in itertools.product(range(q), repeat=k - 1):
                diffs = [sub(v1, values[xj]) for xj in rest]
                for z in itertools.product(range(q), repeat=k - 1):
                    acc = 0
                    for zj, dj in zip(z, diffs):
                        acc = add(acc, mul(zj, dj))
                    if acc == 0:
                        total += 1
    else:
        all_equal = q ** (k - 1)
        generic = q ** (k - 2)
        for v1 in values:
            for rest in itertools.product(values, repeat=k - 1):
                if all(v == v1 for v in rest):
                    total += all_equal
                else:
                    total += generic
    return HypersurfaceCount(k=k, q=q, count=total)


def nk_from_hypersurface(c: HypersurfaceCount) -> int:
    """Recover N_k = (|F_k| - q^(2k-2)) / (q^(k-2) (q-1))."""
    q, k = c.q, c.k
    if k < 2:
        raise ValueError("k must be >= 2")
    num = c.count - q ** (2 * k - 2)
    den = q ** (k - 2) * (q - 1)
    nk, rem = divmod(num, den)
    if rem or nk < 0:
        raise NonIntegralResultError(
            f"hypersurface count {c.count} does not yield an integral N_k")
    return nk


# ---------------------------------------------------------------------------
# The symmetric-function method
# ---------------------------------------------------------------------------


def reduced_poly(f):
    """A representation of the same map with exact degree < q.

    Sparse inputs are folded through x^q = x; dense inputs of degree >= q
    are folded the same way; sparse-shift and straight-line inputs are
    densified first (DegreeCapExceededError signals the fallback to
    evaluation-only methods).
    """
    if not isinstance(f, PolyInput):
        raise TypeError("the symmetric method needs a polynomial representation")
    fld = f.field
    if isinstance(f, SparsePoly):
        return polyrep.reduce_exponents(f)
    if isinstance(f, DensePoly):
        if f.degree is None or f.degree < fld.q:
            return f
        terms = tuple((c, e) for e, c in enumerate(f.coeffs) if c)
        return polyrep.reduce_exponents(SparsePoly(fld, terms))
    dense = polyrep.to_dense(f, EXPANSION_CAP)
    return reduced_poly(dense)


def count_symmetric(f, nk_source: str = "histogram") -> ValueSetReport:
    """Exact |V_f| from the alternating N_k / sigma_i sum.

    The rational accumulation is shadowed by an all-integer path (the same
    sum multiplied through by d!); the two must agree exactly.
    """
    start = time.perf_counter()
    if nk_source not in NK_SOURCES:
        raise ValueError(f"unknown N_k source {nk_source!r}")
    g = reduced_poly(f)
    fld = g.field
    q = fld.q
    _check_enumerable(q)
    d = g.degree
    if d is None or d == 0:
        # Constants short-circuit: a single value is attained.
        return ValueSetReport(cardinality=1, method="symmetric", q=q, d=d,
                              seconds=time.perf_counter() - start)

    weights = sym_weights(d)
    histogram = None
    if nk_source == "histogram":
        _, histogram = count_direct(g)
        nk = nk_from_histogram(histogram, d)
    elif nk_source == "brute":
        nk = EqualValueCounts(
            d, tuple(nk_brute(g, k=k) for k in range(1, d + 1)), "brute")
    else:
        counts = [q]
        for k in range(2, d + 1):
            surf = count_hypersurface_points(g, k=k)
            counts.append(nk_from_hypersurface(surf))
        nk = EqualValueCounts(d, tuple(counts), "hypersurface")

    scaled = scaled_sym_weights(weights)
    total = Fraction(0)
    scaled_total = 0
    for i in range(1, d + 1):
        term = nk.counts[i - 1] * weights.sigma[i - 1]
        sterm = nk.counts[i - 1] * scaled[i - 1]
        if i % 2:
            total += term
            scaled_total += sterm
        else:
            total -= term
            scaled_total -= sterm
    if total.denominator != 1:
        raise NonIntegralResultError(f"symmetric sum {total} is not an integer")
    cardinality = int(total)
    if cardinality * math.factorial(d) != scaled_total:
        raise AssertionError("rational and integer evaluation paths disagree")
    _assert_bounds(cardinality, q, d)
    return ValueSetReport(
        cardinality=cardinality, method="symmetric", q=q, d=d, nk=nk,
        histogram=histogram, seconds=time.perf_counter() - start)


def count_value_set(f, method: str = "direct",
                    nk_source: str = "histogram") -> ValueSetReport:
    """Dispatch over the three algorithms."""
    if method == "direct":
        report, _ = count_direct(f)
        return report
    if method == "codomain":
        g = f if isinstance(f, DensePoly) else polyrep.to_dense(f, EXPANSION_CAP)
        return count_codomain(g)
    if method == "symmetric":
        return count_symmetric(f, nk_source=nk_source)
    raise ValueError(f"unknown method {method!r}")


def is_permutation(f, method: str = "direct") -> bool:
    """True iff the induced map is a bijection (|V_f| = q)."""
    report = count_value_set(f, method=method)
    return report.cardinality == report.q
