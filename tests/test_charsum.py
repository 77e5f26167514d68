"""Quadratic character, the alpha gadget, and pattern coverage."""

import pytest
from oracles import pattern_map

from valueset.charsum import (
    alpha_poly,
    alpha_table,
    chi,
    coverage,
    is_onto,
    pattern_index_table,
    pattern_table,
)
from valueset.errors import (
    EvenCharacteristicError,
    NotPrimeError,
    OrderTooLargeError,
)
from valueset.polyrep import evaluate, evaluator

SAMPLE_PRIMES = (3, 5, 7, 11, 67, 101, 257, 1031, 4099, 9973)
WEIL_PRIMES = (67, 131, 257, 521, 1031)


def test_chi_examples():
    assert chi(2, 7) == 1   # 3^2 = 2 mod 7
    assert chi(0, 5) == 0
    assert chi(2, 5) == -1  # squares mod 5 are {1, 4}


def test_chi_even_characteristic():
    with pytest.raises(EvenCharacteristicError):
        chi(1, 2)


def test_alpha_poly_terms():
    assert alpha_poly(5).alpha.terms == ((3, 2), (3, 4))
    assert alpha_poly(67).alpha.terms == ((34, 33), (34, 66))


def test_alpha_vector_p5():
    gadget = alpha_poly(5)
    assert [evaluate(gadget.alpha, x) for x in range(5)] == [0, 1, 0, 0, 1]


def test_alpha_poly_rejects_bad_p():
    with pytest.raises(EvenCharacteristicError):
        alpha_poly(2)
    with pytest.raises(NotPrimeError):
        alpha_poly(9)


@pytest.mark.parametrize("p", SAMPLE_PRIMES)
def test_alpha_is_boolean_and_matches_chi(p):
    # three routes: polynomial evaluation, pow-based chi, square sieve
    gadget = alpha_poly(p)
    ev = evaluator(gadget.alpha)
    table = alpha_table(p)
    for x in range(p):
        v = ev(x)
        assert v in (0, 1)
        assert v == table[x]
        assert (v == 1) == (chi(x, p) == 1)
    assert ev(0) == 0


def test_pattern_map_examples():
    assert pattern_map(5, 2, 0) == (0, 1)
    assert pattern_map(5, 1, 1) == (1,)
    assert pattern_map(5, 2, 3) == (0, 1)
    assert pattern_map(5, 2, 4) == (1, 0)  # wraps to alpha(0)


def test_coverage_p5_t1():
    cov = coverage(5, 1)
    assert cov.counts == (3, 2)
    assert cov.onto


def test_coverage_counts_partition_field():
    for p in (5, 67, 131):
        for t in (1, 2, 3):
            assert sum(coverage(p, t).counts) == p


def test_coverage_first_occurrences():
    cov = coverage(67, 2)
    table = alpha_table(67)
    ext = table + table[:1]
    for pat in range(4):
        matches = [x for x in range(67)
                   if ext[x] | (ext[x + 1] << 1) == pat]
        assert cov.first_x[pat] == (matches[0] if matches else None)
        assert cov.counts[pat] == len(matches)


def test_coverage_worker_determinism():
    assert coverage(1031, 3, workers=1) == coverage(1031, 3, workers=4)


def test_coverage_validation():
    with pytest.raises(NotPrimeError):
        coverage(9, 2)
    with pytest.raises(ValueError):
        coverage(67, 0)
    with pytest.raises(OrderTooLargeError):
        coverage(67108879, 1)


@pytest.mark.parametrize("p", WEIL_PRIMES)
def test_weil_interval_containment(p):
    cov = coverage(p, 2)
    assert cov.onto  # p > 2^6, so the corollary applies
    for pat in range(4):
        if cov.weil_low > 0:
            assert cov.inside_weil(pat), (p, pat, cov.counts)
    assert sum(cov.counts) == p


def test_is_onto():
    assert is_onto(67, 2)
    assert is_onto(5, 1)
    # p = 3 < 2^6: outside the guarantee; record the observed value only
    observed = is_onto(3, 2)
    assert observed in (True, False)


@pytest.mark.parametrize("p,t", [(67, 2), (131, 2), (521, 2), (1031, 2)])
def test_onto_guarantee_when_p_above_cube(p, t):
    assert 2 ** (3 * t) < p
    assert is_onto(p, t)


def test_pattern_index_table_matches_pattern_map():
    for p, t in [(11, 1), (67, 2), (521, 3), (131, 4)]:
        table = pattern_index_table(p, t)
        for x in (0, 1, p // 3, p - 2, p - 1):
            want = sum(b << i for i, b in enumerate(pattern_map(p, t, x)))
            assert table[x] == want


def test_pattern_table_is_cached_coverage():
    assert pattern_table(67, 2) == coverage(67, 2)


def test_coverage_json():
    payload = coverage(67, 2).to_json_dict()
    assert payload["p"] == 67 and payload["t"] == 2
    assert payload["onto"] is True
    assert isinstance(payload["weil_low"], str)
    assert len(payload["counts"]) == 4
