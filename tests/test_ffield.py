"""Field construction, arithmetic axioms, primality, irreducibility."""

import random

import pytest

from oracles import add_reference, logexp_reference, mul_poly_reference
from valueset import ffield
from valueset.errors import (
    NotMonicError,
    NotPrimeError,
    OrderTooLargeError,
    ParseError,
    SingularMatrixError,
)
from valueset.counting import count_direct
from valueset.ffield import (
    Field,
    is_irreducible,
    is_prime,
    make_field,
    solve_linear,
    split_range,
)
from valueset.polyrep import DensePoly, parse_poly


def trial_division(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def test_make_field_prime():
    f = make_field(5, 1)
    assert (f.p, f.m, f.q, f.modulus) == (5, 1, 5, None)


def test_make_field_f4_unique_modulus():
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1, the only irreducible quadratic


def test_make_field_rejects_composite():
    with pytest.raises(NotPrimeError):
        make_field(4, 1)


def test_make_field_explicit_modulus():
    f = make_field(2, 3, modulus=[1, 1, 0, 1])
    assert f.modulus == (1, 1, 0, 1)
    with pytest.raises(ValueError):
        make_field(2, 2, modulus=[1, 0, 1])  # (x+1)^2
    for modulus in ((1, 2, 3), (7,)):  # a prime field takes no modulus
        with pytest.raises(ValueError):
            make_field(5, 1, modulus=modulus)


def test_header_modulus_proved_once_and_reducible_always_refused(monkeypatch):
    # the Rabin test runs once per (p, modulus); a reducible modulus is
    # refused on every parse, not only the first
    calls = []
    real = ffield.is_irreducible
    monkeypatch.setattr(ffield, "is_irreducible",
                        lambda poly, p: calls.append(p) or real(poly, p))
    ffield._irreducible_modulus.cache_clear()
    for _ in range(3):
        assert parse_poly("dense p=3 m=2 mod=2,2,1: 1.1 0.2").field.modulus == (2, 2, 1)
    assert len(calls) == 1
    for _ in range(3):
        with pytest.raises(ParseError, match="not irreducible"):
            parse_poly("dense p=3 m=2 mod=2,0,1: 1.1 0.2")  # x^2 + 2 = (x+1)(x+2)
    assert len(calls) == 2


def test_f4_multiplication():
    f4 = make_field(2, 2)
    x = f4.gen
    assert f4.mul(x, f4.add(x, 1)) == 1  # x * (x+1) = x^2 + x = 1


def test_inverse_mod_5():
    f5 = make_field(5)
    assert f5.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


@pytest.mark.parametrize("p,m", [(5, 1), (2, 2), (3, 2), (7, 1), (2, 4)])
def test_lagrange(p, m):
    f = make_field(p, m)
    for a in range(1, f.q):
        assert f.pow(a, f.q - 1) == 1


def test_pow_zero_conventions():
    # one field of each arithmetic shape: prime, p = 2 and odd p with
    # log/exp tables, and above _TABLE_CAP
    for p, m in [(7, 1), (2, 4), (3, 2), (257, 2)]:
        f = make_field(p, m)
        assert f.pow(0, 0) == 1
        assert f.pow(3, 0) == 1
        assert f.pow(0, 12) == 0
        assert f.pow(3, 2 * (f.q - 1)) == 1  # e mod (q - 1) = 0, a != 0
        assert f.pow(3, f.q) == 3
        with pytest.raises(ValueError):
            f.pow(3, -1)
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_enumerate_small_fields():
    # canonical indices 0..q-1 run through the coefficient vectors in
    # little-endian base-p order
    assert [make_field(3).coeffs(e) for e in range(3)] == [(0,), (1,), (2,)]
    f4 = make_field(2, 2)
    assert [f4.coeffs(e) for e in range(f4.q)] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    f8 = make_field(2, 3)
    assert len({f8.coeffs(e) for e in range(f8.q)}) == 8


def test_enumeration_cap():
    f = make_field(2, 27)
    with pytest.raises(OrderTooLargeError):
        count_direct(DensePoly(f, (0, 1)))


def test_is_prime_examples():
    assert is_prime(67)
    assert not is_prime(2 ** 16)
    assert is_prime(4099)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2 ** 89 - 1)  # Mersenne prime, exercises the big-n path


def test_is_prime_cache_keeps_answers():
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5, 7, a prime
    # below 2^64 and a probable prime above it
    cases = {561: False, 3215031751: False, 2 ** 61 - 1: True, 2 ** 89 - 1: True}
    is_prime.cache_clear()
    cold = {n: is_prime(n) for n in cases}
    warm = {n: is_prime(n) for n in cases}
    assert is_prime.cache_info().hits >= len(cases)
    is_prime.cache_clear()
    assert cold == warm == {n: is_prime(n) for n in cases} == cases
    maxsize = is_prime.cache_info().maxsize
    assert maxsize is not None
    for n in range(maxsize + 100):
        is_prime(n)
    assert is_prime.cache_info().currsize <= maxsize


def test_is_prime_against_trial_division():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randrange(2, 10 ** 6)
        assert is_prime(n) == trial_division(n), n


def test_is_irreducible_examples():
    assert is_irreducible([1, 1, 1], 2)
    assert not is_irreducible([1, 0, 1], 2)  # (x+1)^2
    assert is_irreducible([1, 1, 0, 1], 2)
    with pytest.raises(NotMonicError):
        is_irreducible([1, 1, 2], 3)


def test_is_irreducible_matches_root_search_for_low_degree():
    # degree 2/3 polynomials are reducible over F_p iff they have a root,
    # except for deg-3 splitting into an irreducible quadratic times nothing
    rng = random.Random(23)
    for p in (2, 3, 5):
        for _ in range(60):
            deg = rng.choice((2, 3))
            coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
            has_root = any(
                sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
                for x in range(p))
            if has_root:
                assert not is_irreducible(coeffs, p), (p, coeffs)


def test_every_found_modulus_is_irreducible():
    for p, m in [(2, 2), (2, 3), (2, 8), (3, 2), (3, 3), (5, 2), (7, 2)]:
        f = make_field(p, m)
        assert is_irreducible(list(f.modulus), p)
        # a same-degree reducible: x^m is divisible by x
        assert not is_irreducible([0] * m + [1], p)


@pytest.mark.parametrize("p,m", [(7, 1), (67, 1), (2, 3), (3, 2), (7, 2)])
def test_field_axioms_random_sample(p, m):
    f = make_field(p, m)
    rng = random.Random(f.q)
    for _ in range(60):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.sub(f.add(a, b), b) == a
        if b != 0:
            assert f.mul(f.mul(a, b), f.inv(b)) == a


@pytest.mark.parametrize("p,m", [(2, 12), (3, 4), (5, 3), (61, 1)])
def test_index_coeffs_roundtrip_exhaustive(p, m):
    f = make_field(p, m)
    for e in range(f.q):
        coeffs = f.coeffs(e)
        assert len(coeffs) == m
        assert all(0 <= c < p for c in coeffs)
        assert f.from_coeffs(coeffs) == e


@pytest.mark.parametrize("p,m", [(7, 1), (3, 2), (2, 4)])
def test_pow_additivity(p, m):
    f = make_field(p, m)
    rng = random.Random(p * m)
    for _ in range(40):
        a = rng.randrange(f.q)
        e1 = rng.randrange(f.q ** 2)
        e2 = rng.randrange(f.q ** 2)
        assert f.pow(a, e1 + e2) == f.mul(f.pow(a, e1), f.pow(a, e2))


def schoolbook_mul(f, a, b):
    """a * b by integer convolution, then x^k -= modulus * x^(k-m) from the top."""
    prod = [0] * (2 * f.m - 1)
    for i, ai in enumerate(f.coeffs(a)):
        for j, bj in enumerate(f.coeffs(b)):
            prod[i + j] += ai * bj
    for k in range(len(prod) - 1, f.m - 1, -1):
        c = prod[k]
        for i, gi in enumerate(f.modulus):
            prod[k - f.m + i] -= c * gi
    return f.from_coeffs(prod[:f.m])


# Extension fields above _TABLE_CAP: packed products and digit-wise sums.
ABOVE_CAP = [(2, 17), (3, 11), (5, 7), (257, 2)]


@pytest.mark.parametrize("p,m", [(2, 8), (3, 3), (5, 3), (7, 2)] + ABOVE_CAP)
def test_mul_agrees_with_polynomial_route(p, m):
    # table-backed or packed multiplication vs direct polynomial reduction
    f = make_field(p, m)
    rng = random.Random(f.q)
    for _ in range(100):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.mul(a, b) == mul_poly_reference(f, a, b) == schoolbook_mul(f, a, b)
    top = f.q - 1  # every digit p - 1: the largest packed coefficients
    assert f.mul(top, top) == mul_poly_reference(f, top, top)


# x is primitive modulo the make_field modulus for (2, 13), (3, 6), (5, 6);
# the tables of the others start from a later generator.
@pytest.mark.parametrize("p,m", [(2, 8), (2, 12), (2, 13), (3, 2), (3, 6), (5, 3),
                                 (5, 6), (7, 3), (13, 2), (31, 2)])
def test_logexp_matches_trial_multiplication(p, m):
    f = make_field(p, m)
    log, exp, zech = f._build_logexp()
    assert (log, exp) == logexp_reference(f)
    assert (exp[1] == f.gen) == ((p, m) in {(2, 13), (3, 6), (5, 6)})
    assert (zech is None) == (p == 2)


def test_logexp_walks_the_generator_of_f_3_10():
    # q = 59049: too many trial products for logexp_reference.  The
    # generator is not x, so every digit of g reaches the a -> a*g table.
    f = make_field(3, 10)
    log, exp, zech = f._build_logexp()
    n, g = f.q - 1, exp[1]
    assert g != f.gen and exp[n:] == exp[:n - 1] and len(exp) == 2 * f.q - 3
    rng = random.Random(f.q)
    for i in rng.sample(range(n), 300):
        assert exp[i + 1] == mul_poly_reference(f, exp[i], g)
        assert log[exp[i]] == i
    pairs = [(exp[rng.randrange(n)], exp[rng.randrange(n)]) for _ in range(300)]
    pairs += [(a, add_reference(f, 0, a, -1)) for a, _ in pairs[:20]]  # a + (-a) = 0
    for a, b in pairs:
        z = zech[(log[b] - log[a]) % n]  # a + b = a (1 + b/a)
        assert (exp[log[a] + z] if z >= 0 else 0) == add_reference(f, a, b)


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 3), (7, 3), (3, 6), (31, 2), (5, 6)]
                         + ABOVE_CAP)
def test_zech_add_sub_match_digit_oracle(p, m):
    f = make_field(p, m)
    f.mul(1, 1)  # builds log/exp/Zech tables
    rng = random.Random(f.q)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(300)]
    pairs += [(0, 0), (0, 1), (1, 0), (0, f.q - 1), (f.q - 1, 0)]
    for a, b in pairs:
        assert f.add(a, b) == add_reference(f, a, b)
        assert f.sub(a, b) == add_reference(f, a, b, -1)
        assert f.sub(0, b) == add_reference(f, 0, b, -1)
        assert f.add(a, f.sub(0, a)) == 0 == f.sub(a, a)


@pytest.fixture
def table_builds(monkeypatch):
    """The q of every log/exp table build, through the class attribute that
    field ops look up at build time."""
    builds = []
    build = Field._build_logexp

    def counted(self):
        builds.append(self.q)
        return build(self)

    monkeypatch.setattr(Field, "_build_logexp", counted)
    return builds


def test_add_sub_leave_tables_unbuilt(table_builds):
    f = make_field(5, 3)
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.add(a, b) == add_reference(f, a, b)
        assert f.sub(a, b) == add_reference(f, a, b, -1)
    assert table_builds == []
    f.mul(1, 1)
    assert table_builds == [f.q]


@pytest.mark.parametrize("p,m", [(2, 8), (5, 3)])
def test_ops_bound_before_first_product_see_tables(p, m, table_builds):
    # evaluators bind field.add/field.mul once; the tables arrive later
    f = make_field(p, m)
    add, sub, mul = f.add, f.sub, f.mul
    assert table_builds == []
    rng = random.Random(p)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(100)]
    for a, b in pairs:
        assert mul(a, b) == mul_poly_reference(f, a, b)
        assert add(a, b) == add_reference(f, a, b)
        assert sub(a, b) == add_reference(f, a, b, -1)
    assert table_builds == [f.q]


@pytest.mark.parametrize("op,args", [("mul", (0, 5)), ("mul", (5, 0)), ("pow", (0, 3)),
                                     ("pow", (5, 0))])
def test_zero_operand_builds_tables(op, args, table_builds):
    # a zero product or trivial power still loads the tables, so the sums
    # after it run on Zech logarithms, not digit by digit
    f = make_field(3, 4)
    getattr(f, op)(*args)
    assert table_builds == [f.q]
    f.mul(2, 3)
    assert table_builds == [f.q]


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,m", [(2, m) for m in range(1, 9)]
                         + [(3, m) for m in range(1, 6)]
                         + [(5, m) for m in range(1, 4)] + [(7, 2)])
def test_irreducible_count_matches_gauss(p, m):
    # monic irreducibles of degree m: (1/m) sum_{d | m} mu(d) p^(m/d)
    want = sum(mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
    found = sum(is_irreducible([idx // p ** i % p for i in range(m)] + [1], p)
                for idx in range(p ** m))
    assert found == want


# The moduli make_field's deterministic search picks.  Canonical element
# indices, and with them every output byte, depend on these.
GOLDEN_MODULI = {
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 17): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (31, 2): (1, 0, 1),
    (257, 2): (3, 0, 1),
}


@pytest.mark.parametrize("p,m", sorted(GOLDEN_MODULI))
def test_make_field_golden_moduli(p, m):
    assert make_field(p, m).modulus == GOLDEN_MODULI[(p, m)]


def test_solve_linear():
    f5 = make_field(5)
    assert solve_linear([[1, 0], [0, 1]], [2, 3], f5) == [2, 3]
    assert solve_linear([[2]], [3], f5) == [4]
    with pytest.raises(SingularMatrixError):
        solve_linear([[0]], [1], f5)
    # a full 3x3 system over F_7, checked by substitution
    f7 = make_field(7)
    matrix = [[1, 2, 3], [4, 5, 6], [1, 0, 2]]
    rhs = [3, 1, 5]
    sol = solve_linear(matrix, rhs, f7)
    for row, want in zip(matrix, rhs):
        got = 0
        for coef, val in zip(row, sol):
            got = f7.add(got, f7.mul(coef, val))
        assert got == want


def test_split_range():
    assert split_range(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert split_range(2, 8) == [(0, 1), (1, 2)]
    assert split_range(0, 4) == [(0, 0)]
    for n, parts in [(100, 7), (5, 5), (64, 1)]:
        chunks = split_range(n, parts)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))


def test_field_description():
    assert make_field(5).describe() == {"p": 5, "m": 1}
    assert make_field(2, 2).describe() == {"p": 2, "m": 2, "modulus": [1, 1, 1]}
