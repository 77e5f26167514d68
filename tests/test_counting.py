"""The three counting algorithms, N_k sources, and the proof identities."""

import dataclasses
import math
import random
import threading
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from oracles import has_root_reference, newton_reciprocal
from samples import sample_polys

from valueset.counting import (
    HypersurfaceCount,
    count_codomain,
    count_direct,
    count_hypersurface_points,
    count_symmetric,
    count_value_set,
    has_root,
    is_permutation,
    nk_brute,
    nk_from_histogram,
    nk_from_hypersurface,
    omega_identity_check,
    scaled_sym_weights,
    sym_weights,
)
from valueset.errors import (
    DeskScaleExceededError,
    NonIntegralResultError,
    OrderTooLargeError,
    ZeroPolynomialError,
)
from valueset.ffield import Field, _dense_monic, _dense_powmod, _packed_xq, make_field
from valueset import ffield, polyrep
from valueset.parallel import map_chunks
from valueset.polyrep import DensePoly, Slp, SparsePoly, SparseShiftPoly

F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F9 = make_field(3, 2)


def random_dense(rng, field, d):
    coeffs = [rng.randrange(field.q) for _ in range(d)]
    coeffs.append(rng.randrange(1, field.q))
    return DensePoly(field, tuple(coeffs))


def test_count_direct_identity():
    report, hist = count_direct(DensePoly(F7, (0, 1)))
    assert report.cardinality == 7
    assert all(c == 1 for c in hist.entries.values())


def test_count_direct_square_f3():
    report, hist = count_direct(DensePoly(F3, (0, 0, 1)))
    assert report.cardinality == 2
    assert hist.entries == {0: 1, 1: 2}


@pytest.mark.parametrize("q", [5, 7, 11, 19])
def test_count_direct_squares_odd_q(q):
    field = make_field(q)
    report, _ = count_direct(DensePoly(field, (0, 0, 1)))
    assert report.cardinality == (q + 1) // 2


def test_count_direct_histogram_invariants():
    rng = random.Random(1)
    for field in (F5, F9):
        for _ in range(10):
            f = random_dense(rng, field, rng.randrange(1, 5))
            report, hist = count_direct(f)
            assert hist.total() == field.q
            assert hist.num_values() == report.cardinality
            assert hist.max_preimage() <= f.degree


def block_route_cases(field, rng):
    """Zero, constants, exponents >= p, multiples of p - 1 and e = 0 terms,
    shifts with b = 0 or e = 0, and programs whose output is x, a constant,
    or a use of sub, each cheap to evaluate at every point of F_8191.  The
    last program squares its way to x^16, bound 16, past the difference
    route's cut-over."""
    p = field.p

    def r(lo=0):
        return rng.randrange(lo, p)

    yield DensePoly(field, ())
    yield DensePoly(field, (r(1),))
    yield DensePoly(field, tuple(r() for _ in range(5)) + (r(1),))
    yield SparsePoly(field, ())
    yield SparsePoly(field, ((r(1), 0),))
    yield SparsePoly(field, ((r(1), 0), (r(1), p - 1), (r(1), 2 * (p - 1)),
                             (r(1), p), (r(1), 3 * p + 2)))
    yield SparsePoly(field, ((1, 1), (r(1), rng.randrange(2, 2 * p))))
    yield SparseShiftPoly(field, (), r(1))
    yield SparseShiftPoly(field, ((r(1), 0, rng.randrange(1, 2 * p)),
                                  (r(1), r(), 0)), r())
    yield SparseShiftPoly(field, tuple(
        (r(1), r(), rng.randrange(1, 3 * p)) for _ in range(3)), r())
    yield Slp(field, (("x",),), 1)
    yield Slp(field, (("x",), ("const", r())), 2)
    yield Slp(field, (("x",), ("const", r()), ("sub", 2, 1), ("mul", 3, 3),
                      ("sub", 4, 2), ("mul", 5, 1)), 6)
    yield Slp(field, (("x",), ("const", r(1)), ("sub", 1, 2), ("mul", 3, 3),
                      ("sub", 4, 1), ("mul", 5, 5), ("mul", 6, 6), ("sub", 7, 2),
                      ("mul", 8, 8)), 9)


def ring_route_cases(field, rng, costly):
    """Zero and an F_q constant outside F_p; degree >= q; shift triples
    with e = 0 or b = 0; a program using gen, const and sub.  With costly
    (about a second more on a field above the cap) also a degree-2 dense
    polynomial, sparse exponents that are multiples of q - 1 (they fold to
    q - 1, about twenty ring products a block) and a shift pair that
    cancels, a(x+b)^e + (-a)(x+b)^e; up to q = 256 also a dense polynomial
    of degree q + 1.  Every case that depends on x is quadratic: a wrong
    product that is still bilinear leaves the histogram of a map linear
    over F_p unchanged."""
    p, q = field.p, field.q

    def r(lo=0):
        return rng.randrange(lo, q)

    c = rng.randrange(p, q)
    yield DensePoly(field, ())
    yield DensePoly(field, (c,))
    folded = ((r(1), q - 1), (r(1), 3 * (q - 1))) if costly else ()
    yield SparsePoly(field, ((c, 0), (r(1), q + 1)) + folded)  # x^(q+1) = x^2
    a, b = r(1), r()
    cancelling = ((a, b, q), (field.sub(0, a), b, q)) if costly else ()
    yield SparseShiftPoly(field, ((r(1), r(), 0), (r(1), 0, q + 1)) + cancelling, r())
    yield Slp(field, (("x",), ("gen",), ("const", rng.randrange(1, p)),
                      ("mul", 1, 2), ("sub", 4, 3), ("mul", 5, 1)), 6)
    if costly:
        yield DensePoly(field, (r(), r(), c))
    if costly and q <= 256:
        yield DensePoly(field, tuple(r() for _ in range(q + 1)) + (c,))


def table_twin(field, monkeypatch):
    """field with log/exp table arithmetic even above _TABLE_CAP: a
    pointwise reference about ten times cheaper than packed products, and
    one that shares no code with the block rings' reduction rows."""
    with monkeypatch.context() as patch:
        patch.setattr(ffield, "_TABLE_CAP", field.q)
        twin = Field(field.p, field.m, field.modulus)
    twin.mul(1, 1)  # builds the tables, so that sums take Zech logarithms too
    return twin


# F_2 has p - 1 = 1.  polyrep.BLOCK is 4096: F_4099, F_8191, F_3^9,
# F_257^2 and F_17^4 end in a partial block.  F_257^2 and F_17^4 lie above
# the table cap on the digit-list ring.  F_4, F_8, F_2^8, F_2^13 and F_2^17
# take the bit-plane ring, sparse inputs only above the cap; F_2^17 fills
# two blocks and its top plane is constant in each.  Inputs of degree at
# most 8 over F_4099, F_8191 and F_257^2 take the difference route; the
# slp of bound 16 takes the digit-list ring with one digit over every F_p.
BLOCK_FIELDS = [(2, 1), (3, 1), (5, 1), (13, 1), (4099, 1), (8191, 1),
                (2, 2), (2, 3), (3, 2), (2, 8), (2, 13), (3, 9), (257, 2), (17, 4),
                (2, 17)]


@pytest.mark.parametrize("p,m", BLOCK_FIELDS, ids=[str(p ** m) for p, m in BLOCK_FIELDS])
def test_block_route_matches_pointwise_evaluator(p, m, monkeypatch):
    field = make_field(p, m)
    q = field.q
    rng = random.Random(q)
    reference = field
    planes = p == 2 and m > 1
    if m == 1:
        polys = list(block_route_cases(field, rng))
    elif q > ffield._TABLE_CAP or planes:
        polys = list(ring_route_cases(field, rng, m == 2 or planes))
    else:  # zero, a constant, and degree q + 1 (folding to x^2) with a constant term
        polys = [DensePoly(field, ()), DensePoly(field, (rng.randrange(1, q),)),
                 SparsePoly(field, ((rng.randrange(1, q), 0), (rng.randrange(1, q), q + 1)))]
    if q > ffield._TABLE_CAP:
        reference = table_twin(field, monkeypatch)
    if q <= 13:  # degree >= q, and up to 3q, where that costs little
        polys += sample_polys(field, rng)
    want = [Counter(map(polyrep.evaluator(dataclasses.replace(f, field=reference)), range(q)))
            for f in polys]
    if m == 1 or q > ffield._TABLE_CAP or planes:
        pointwise = polyrep.evaluator

        def no_pointwise(f):  # sparse inputs over table fields F_(2^m) stay pointwise
            if planes and q <= ffield._TABLE_CAP and isinstance(f, SparsePoly):
                return pointwise(f)
            raise AssertionError("a block-ring count called the pointwise evaluator")

        monkeypatch.setattr(polyrep, "evaluator", no_pointwise)
    for f, hist in zip(polys, want):
        assert count_direct(f)[1].entries == hist, f


def refuse_pointwise(f):
    raise AssertionError("a block route called the pointwise evaluator")


def degree_cases(field, rng, d):
    """One input of each representation with degree bound d, and F_q
    coefficients outside F_p where m > 1."""
    q = field.q

    def r(lo=0):
        return rng.randrange(lo, q)

    yield DensePoly(field, tuple(r() for _ in range(d)) + (r(1),))
    yield SparsePoly(field, ((r(1), 0), (r(1), d // 2), (r(1), d)))
    yield SparseShiftPoly(field, ((r(1), r(), d), (r(1), r(), d // 2)), r())
    # (x + g)^d + c by repeated products, g = gen or a constant
    ins = [("x",), ("const", rng.randrange(1, field.p)),
           ("gen",) if field.m > 1 else ("const", rng.randrange(field.p)), ("add", 1, 3)]
    out = 4
    for _ in range(d - 1):
        ins.append(("mul", out, 4))
        out = len(ins)
    ins.append(("add", out, 2))
    yield Slp(field, tuple(ins), len(ins) if d else 2)


# Fields where polyrep._differences_win takes every degree up to its cut-over
# (8): F_4099, F_8191 and F_65521 end in a partial block (3, 4095 and
# 4081 points; the first is shorter than a degree-8 line's 9 seeds),
# F_67^2 is a table field with the smallest p the rule takes, and F_257^2
# lies above the table cap.  The costly fields run fewer degrees.  With
# 64-point blocks the 67 lines of F_67^2 need several blocks of seed
# points, the last one partial.
DIFFERENCE_FIELDS = [(4099, 1, (0, 1, 8, 9), None), (8191, 1, (0, 1, 8, 9), None),
                     (67, 2, (0, 1, 8, 9), None), (65521, 1, (1,), None),
                     (257, 2, (2,), None), (67, 2, (2, 8), 64)]
DIFFERENCE_CUT = 8


@pytest.mark.parametrize("p,m,degrees,block", DIFFERENCE_FIELDS, ids=[
    f"{p ** m}" + (f"-block{block}" if block else "") for p, m, _, block in DIFFERENCE_FIELDS])
def test_difference_route_matches_pointwise_evaluator(p, m, degrees, block, monkeypatch):
    if block:
        monkeypatch.setattr(polyrep, "BLOCK", block)
    field = make_field(p, m)
    q = field.q
    rng = random.Random(f"differences:{q}")
    reference = table_twin(field, monkeypatch) if q > ffield._TABLE_CAP else field
    polys = [DensePoly(field, ()), SparseShiftPoly(field, (), rng.randrange(1, q)),
             # x*x - x*x + x: bound 2, degree 1
             Slp(field, (("x",), ("mul", 1, 1), ("sub", 2, 2), ("add", 3, 1)), 4)]
    for d in degrees:
        polys += degree_cases(field, rng, d)
    assert not polyrep._differences_win(p, m, DIFFERENCE_CUT + 1)
    taken = []
    lines = polyrep._difference_lines
    monkeypatch.setattr(polyrep, "_difference_lines",
                        lambda f, bound: taken.append(f) or lines(f, bound))
    for f in polys:
        values = list(map(polyrep.evaluator(dataclasses.replace(f, field=reference)),
                          range(q)))
        bound = polyrep.degree_bound(f).bound or 0
        routed, before = bound <= DIFFERENCE_CUT, len(taken)
        with monkeypatch.context() as patch:
            if routed:  # seeds come from the block kernels, never pointwise
                patch.setattr(polyrep, "evaluator", refuse_pointwise)
                # lines in point order: seeds one point off would move every
                # line along itself and keep the histogram
                assert list(chain.from_iterable(lines(f, bound))) == values, f
            assert count_direct(f)[1].entries == Counter(values), f
        assert (len(taken) > before) == routed, f


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (13, 1), (2, 2), (2, 3), (3, 2),
                                 (5, 2), (3, 3), (7, 3)])
def test_digit_ring_matches_pointwise_on_small_fields(p, m):
    # the digit-list ring (and for p = 2 the bit-plane ring) called
    # directly, sparse inputs included, below the cap, where a full
    # pointwise reference is cheap for degree >= q and strict programs too;
    # over F_p the ring has one digit and no reduction rows
    field = make_field(p, m)
    rng = random.Random(f"ring:{p}:{m}")
    rings = [polyrep._digit_ring] + [polyrep._plane_ring] * (p == 2)
    cases = ring_route_cases(field, rng, True) if m > 1 else block_route_cases(field, rng)
    for f in [*sample_polys(field, rng), *cases]:
        want = Counter(map(polyrep.evaluator(f), range(field.q)))
        for ring in rings:
            assert Counter(chain.from_iterable(
                polyrep._ring_blocks(f, ring(field)))) == want, (ring.__name__, f)


def test_odd_p_above_cap_takes_digit_ring(monkeypatch):
    # F_3^12 lies above the cap: its first block comes from the digit-list
    # ring, never from the pointwise evaluator, in point order
    field = make_field(3, 12)
    rng = random.Random("digit-ring:3:12")
    pointwise, rings = polyrep.evaluator, []
    ring_blocks = polyrep._ring_blocks
    monkeypatch.setattr(polyrep, "_ring_blocks",
                        lambda f, ring: rings.append(ring) or ring_blocks(f, ring))
    monkeypatch.setattr(polyrep, "evaluator", refuse_pointwise)
    dense, _, _, slp = degree_cases(field, rng, 4)
    for f in (dense, slp):
        got = next(polyrep.block_values(f))
        digits, n = next(rings.pop().blocks())
        points = [field.from_coeffs(ds) for ds in zip(*digits)]
        assert len(got) == len(points) == n
        assert list(got) == list(map(pointwise(f), points)), f


@pytest.mark.parametrize("m", [13, 17])
def test_char_2_sparse_planes_above_cap(m, monkeypatch):
    # over F_(2^m) dense, shift and slp inputs run on bit planes; sparse
    # inputs do too above the table cap, and keep the pointwise evaluator
    # on table fields, where gamma's fields lie
    field = make_field(2, m)
    q, rng = field.q, random.Random(m)

    class Pointwise(Exception):
        pass

    def refuse(f):
        raise Pointwise(f)

    monkeypatch.setattr(polyrep, "evaluator", refuse)
    sparse = SparsePoly(field, ((1, 3), (rng.randrange(1, q), 1)))
    if q <= ffield._TABLE_CAP:
        with pytest.raises(Pointwise):
            count_direct(sparse)
    else:
        assert count_direct(sparse)[0].cardinality > 0
    for f in (DensePoly(field, (rng.randrange(q), 0, 1)),
              SparseShiftPoly(field, ((1, rng.randrange(q), 3),)),
              Slp(field, (("x",), ("mul", 1, 1)), 2)):
        assert count_direct(f)[0].cardinality > 0


def test_count_direct_cap():
    f = make_field(67108879)  # smallest prime above 2^26
    with pytest.raises(OrderTooLargeError):
        count_direct(SparsePoly(f, ((1, 2),)))


@pytest.mark.parametrize("count", [count_direct, count_symmetric, count_value_set,
                                   nk_brute], ids=lambda fn: fn.__name__)
def test_bare_callable_is_not_a_polynomial(count):
    with pytest.raises(TypeError):
        count(lambda x: x)


def test_count_codomain_monomials():
    assert count_codomain(DensePoly(F5, (0, 0, 0, 1))).cardinality == 5
    assert count_codomain(DensePoly(F7, (0, 0, 0, 1))).cardinality == 3
    assert count_codomain(DensePoly(F3, (0, 0, 1))).cardinality == 2


def test_count_codomain_constant_and_extension():
    assert count_codomain(DensePoly(F5, (3,))).cardinality == 1
    f = DensePoly(F9, (1, 0, 1))
    assert count_codomain(f).cardinality == count_direct(f)[0].cardinality


def test_has_root():
    assert has_root(DensePoly(F5, (1, 0, 1)))       # roots +-2
    assert not has_root(DensePoly(F3, (1, 0, 1)))   # -1 not a square mod 3
    assert has_root(DensePoly(F7, (6, 1)))          # x - 1
    assert has_root(DensePoly(F5, (0, 0, 1)))       # g(0) = 0
    assert not has_root(DensePoly(F5, (2,)))
    with pytest.raises(ZeroPolynomialError):
        has_root(DensePoly(F5, ()))


# Both sides of root_test's packed/dense rule: prime fields, characteristic
# 2, small d against large m, d > m, d >= q and one field above the cap.
ROOT_TEST_FIELDS = [(2, 1), (3, 1), (5, 1), (1009, 1), (2, 3), (2, 8), (2, 13),
                    (3, 2), (7, 3), (3, 6), (31, 2), (257, 2)]


@pytest.mark.parametrize("p,m", ROOT_TEST_FIELDS, ids=lambda v: str(v))
def test_root_test_matches_dense_reference(p, m):
    field = make_field(p, m)
    q = field.q
    rng = random.Random(f"root-test:{p}:{m}")
    degrees = {1, 2, m, m + 1, 2 * m + 1} | ({q, q + 1} if q <= 9 else set())
    ones = (q - 1) // (p - 1)  # every digit 1: -g has every digit p - 1
    for d in sorted(degrees):
        xq = _packed_xq(p, m, field.modulus, d)
        samples = [[rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]
                   for _ in range(6)]
        samples.append([ones] * d + [1])
        for g in samples:
            assert has_root(DensePoly(field, tuple(g))) == has_root_reference(field, g), g
            # x^q mod g from the packed ring, whichever route the rule picks
            g = _dense_monic(field, g)
            assert xq(g) == _dense_powmod(field, [0, 1], q, g), g
    for c in (1, rng.randrange(1, q)):
        assert not has_root(DensePoly(field, (c,))) and not has_root_reference(field, [c])
    assert has_root_reference(field, [])
    with pytest.raises(ZeroPolynomialError):
        has_root(DensePoly(field, ()))
    if q <= 343:  # the zero polynomial and a constant, over every a
        for c in (0, rng.randrange(1, q)):
            ref = sum(has_root_reference(field, [field.sub(c, a)] if c != a else [])
                      for a in range(q))
            assert count_codomain(DensePoly(field, (c,) if c else ())).cardinality == ref == 1


def test_sym_weights_small():
    assert sym_weights(1).sigma == (Fraction(1),)
    assert sym_weights(2).sigma == (Fraction(3, 2), Fraction(1, 2))
    assert sym_weights(3).sigma == (Fraction(11, 6), Fraction(1), Fraction(1, 6))


def test_sym_weights_three_routes_agree():
    for d in (1, 2, 3, 7, 16, 25, 40):
        newton = sym_weights(d, "newton").sigma
        product = sym_weights(d, "product").sigma
        literal = newton_reciprocal(d).sigma
        assert newton == product == literal
        assert newton[-1] == Fraction(1, math.factorial(d))
        assert newton[0] == sum(Fraction(1, j) for j in range(1, d + 1))
        assert all(s > 0 for s in newton)


def test_scaled_sym_weights_integral():
    for d in (1, 5, 12):
        scaled = scaled_sym_weights(sym_weights(d))
        assert all(isinstance(v, int) for v in scaled)
        fact = math.factorial(d)
        assert [Fraction(v, fact) for v in scaled] == list(sym_weights(d).sigma)


def test_sym_weights_degree_limits():
    with pytest.raises(ValueError):
        sym_weights(0)
    with pytest.raises(DeskScaleExceededError):
        sym_weights(1001)


def test_omega_identity_examples():
    assert omega_identity_check(2, 1) == 1
    assert omega_identity_check(2, 2) == 1
    assert omega_identity_check(20, 13) == 1
    with pytest.raises(ValueError):
        omega_identity_check(3, 4)


def test_nk_from_histogram():
    _, hist = count_direct(DensePoly(F3, (0, 0, 1)))
    nk = nk_from_histogram(hist, 2)
    assert nk.counts == (3, 5)
    _, hist = count_direct(DensePoly(F7, (0, 1)))
    assert nk_from_histogram(hist, 3).counts == (7, 7, 7)
    _, hist = count_direct(DensePoly(F7, (4,)))
    assert nk_from_histogram(hist, 1).counts == (7,)


def test_nk_brute():
    assert nk_brute(DensePoly(F3, (0, 0, 1)), k=2) == 5
    assert nk_brute(DensePoly(F9, (1, 2, 1)), k=1) == 9
    assert nk_brute(DensePoly(F4, (0, 1)), k=3) == 4


def test_hypersurface_worked_instance():
    surf = count_hypersurface_points(DensePoly(F3, (0, 0, 1)), k=2)
    assert surf.count == 19
    assert count_hypersurface_points(
        DensePoly(F3, (0, 0, 1)), k=2, literal=True).count == 19
    assert nk_from_hypersurface(surf) == 5


def test_hypersurface_identity_and_constant():
    surf = count_hypersurface_points(DensePoly(F3, (0, 1)), k=2)
    assert surf.count == 15 and nk_from_hypersurface(surf) == 3
    surf = count_hypersurface_points(DensePoly(F3, (2,)), k=2)
    assert surf.count == 27 and nk_from_hypersurface(surf) == 9


def test_nk_from_hypersurface_rejects_non_integral():
    with pytest.raises(NonIntegralResultError):
        nk_from_hypersurface(HypersurfaceCount(k=2, q=3, count=20))


@pytest.mark.parametrize("q,k", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (9, 2), (9, 3)])
def test_nk_three_sources_agree(q, k):
    field = make_field(q) if q != 9 else F9
    rng = random.Random(q * 31 + k)
    for _ in range(8):
        f = random_dense(rng, field, rng.randrange(1, 5))
        _, hist = count_direct(f)
        from_hist = sum(c ** k for c in hist.entries.values())
        brute = nk_brute(f, k=k)
        from_surf = nk_from_hypersurface(count_hypersurface_points(f, k=k))
        assert from_hist == brute == from_surf


def test_hypersurface_literal_matches_analytic():
    rng = random.Random(99)
    for q, k in ((3, 2), (5, 2), (3, 3)):
        field = make_field(q)
        for _ in range(4):
            f = random_dense(rng, field, rng.randrange(1, 4))
            fast = count_hypersurface_points(f, k=k)
            slow = count_hypersurface_points(f, k=k, literal=True)
            assert fast == slow


def test_count_symmetric_worked_instance():
    report = count_symmetric(DensePoly(F3, (0, 0, 1)))
    assert report.cardinality == 2
    assert report.nk.counts == (3, 5)


def test_count_symmetric_identity_and_cubes():
    assert count_symmetric(DensePoly(F7, (0, 1))).cardinality == 7
    for source in ("histogram", "brute", "hypersurface"):
        report = count_symmetric(DensePoly(F7, (0, 0, 0, 1)), nk_source=source)
        assert report.cardinality == 3, source
        assert report.nk.source == source


def test_count_symmetric_constants():
    assert count_symmetric(DensePoly(F5, (3,))).cardinality == 1
    assert count_symmetric(DensePoly(F5, ())).cardinality == 1


def test_count_symmetric_reduces_large_degrees():
    # x^5 over F_5 is the identity map
    report = count_symmetric(SparsePoly(F5, ((1, 5),)))
    assert report.cardinality == 5 and report.d == 1
    # dense of degree >= q folds too
    report = count_symmetric(DensePoly(F5, (0, 0, 0, 0, 0, 1)))
    assert report.cardinality == 5 and report.d == 1


def test_count_symmetric_shift_input():
    f = SparseShiftPoly(F7, ((1, 1, 2),), 3)  # (x+1)^2 + 3
    assert count_symmetric(f).cardinality == count_direct(f)[0].cardinality


@pytest.mark.parametrize("field", [F5, F7, F9, make_field(7, 2)])
def test_three_method_agreement_random(field):
    rng = random.Random(field.q * 7)
    for _ in range(12):
        f = random_dense(rng, field, rng.randrange(1, 7))
        a = count_direct(f)[0].cardinality
        b = count_codomain(f).cardinality
        c = count_symmetric(f).cardinality
        assert a == b == c


def test_no_non_integral_on_fuzzed_inputs():
    rng = random.Random(404)
    for _ in range(50):
        field = make_field(rng.choice((3, 5, 7)))
        f = random_dense(rng, field, rng.randrange(1, 7))
        count_symmetric(f, nk_source=rng.choice(("histogram", "brute")))


def test_equal_value_counts_invariants():
    rng = random.Random(8)
    for field in (F5, F9):
        for _ in range(8):
            f = random_dense(rng, field, rng.randrange(1, 5))
            _, hist = count_direct(f)
            nk = nk_from_histogram(hist, f.degree)
            assert nk.counts[0] == field.q
            for prev, cur in zip(nk.counts, nk.counts[1:]):
                assert cur <= prev * field.q


def test_is_permutation():
    assert is_permutation(DensePoly(F5, (0, 0, 0, 1)))
    assert not is_permutation(DensePoly(F7, (0, 0, 0, 1)))
    assert is_permutation(DensePoly(F9, (0, 1)))
    assert is_permutation(DensePoly(F7, (2, 1)), method="symmetric")
    assert is_permutation(DensePoly(F7, (2, 1)), method="codomain")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_monomial_permutation_law(q):
    field = make_field(*{4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4)}.get(q, (q, 1)))
    for k in range(1, 13):
        f = SparsePoly(field, ((1, k),))
        got = count_direct(f)[0].cardinality == q
        assert got == (math.gcd(k, q - 1) == 1), (q, k)


def test_trivial_bounds_hold():
    rng = random.Random(55)
    for field in (F3, F5, F9):
        for _ in range(10):
            f = random_dense(rng, field, rng.randrange(1, 6))
            report = count_direct(f)[0]
            assert -(-field.q // f.degree) <= report.cardinality <= field.q


def test_count_value_set_dispatch():
    f = DensePoly(F5, (0, 0, 1))
    for method in ("direct", "codomain", "symmetric"):
        assert count_value_set(f, method=method).cardinality == 3
    with pytest.raises(ValueError):
        count_value_set(f, method="magic")


def test_report_json_dict():
    report, _ = count_direct(DensePoly(F3, (0, 0, 1)))
    payload = report.to_json_dict(F3, "dense p=3: 0 0 1")
    assert payload["cardinality"] == "2"
    assert payload["histogram_summary"] == {"num_values": 2, "max_preimage": 2}
    assert payload["field"] == {"p": 3, "m": 1}


def test_nk_brute_cap():
    with pytest.raises(OrderTooLargeError):
        nk_brute(DensePoly(make_field(67), (0, 1)), k=5)
    with pytest.raises(OrderTooLargeError):
        count_hypersurface_points(DensePoly(make_field(67), (0, 1)), k=5)


def test_map_chunks_runs_fixed_chunks_in_order_in_caller_thread():
    calls = []

    def fn(lo, hi):
        calls.append((lo, hi, threading.get_ident()))
        return hi - lo

    assert map_chunks(fn, 10, 3) == [4, 3, 3]
    assert [c[:2] for c in calls] == [(0, 4), (4, 7), (7, 10)]
    assert {c[2] for c in calls} == {threading.get_ident()}


def test_count_direct_builds_one_table(monkeypatch):
    # one count over a table field builds the field's log/exp tables once
    builds = []
    build = Field._build_logexp

    def counted(self):
        builds.append(self.q)
        return build(self)

    monkeypatch.setattr(Field, "_build_logexp", counted)
    field = make_field(2, 14)
    f = SparsePoly(field, ((field.gen, 1), (1, 3)))
    _, hist = count_direct(f)
    assert builds == [field.q]
    assert hist.entries == Counter(map(polyrep.evaluator(f), range(field.q)))
    # a dense count there runs on bit planes and builds none (a new field
    # object: its tables are not built yet)
    builds.clear()
    count_direct(DensePoly(make_field(2, 14), (0, field.gen, 0, 1)))
    assert builds == []
    # a constant too: its products are by zero, and they still build, so
    # no sum runs digit by digit
    digit_sums = []
    add_digits = ffield._add_digits
    monkeypatch.setattr(ffield, "_add_digits",
                        lambda *args: digit_sums.append(args) or add_digits(*args))
    builds.clear()
    field = make_field(3, 9)
    report, hist = count_direct(DensePoly(field, (5,)))
    assert (report.cardinality, hist.entries) == (1, {5: field.q})
    assert builds == [field.q] and digit_sums == []


# Prime fields, odd p with m > 1 and p = 2, all with q <= 49.
@pytest.mark.parametrize("p,m", [(5, 1), (13, 1), (47, 1), (3, 2), (5, 2), (3, 3),
                                 (7, 2), (2, 2), (2, 3), (2, 5)])
def test_methods_agree_on_seeded_samples(p, m):
    # every representation, zero, constants and degree >= q: direct,
    # codomain and symmetric agree, and so do histogram and brute N_k
    field = make_field(p, m)
    rng = random.Random(f"methods:{p}:{m}")
    top_k = max(k for k in (1, 2, 3) if field.q ** k <= 4096)
    for _ in range(3):
        for f in sample_polys(field, rng):
            report, hist = count_direct(f)
            for method in ("codomain", "symmetric"):
                assert count_value_set(f, method=method).cardinality == report.cardinality, f
            assert nk_from_histogram(hist, top_k).counts == tuple(
                nk_brute(f, k=k) for k in range(1, top_k + 1)), f
