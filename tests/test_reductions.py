"""Subset-sum and 3SAT reductions against their brute-force oracles."""

import itertools
import random
from collections import Counter

import pytest

from oracles import (
    alpha_value,
    mux_reference,
    pattern_map,
    solution_patterns_reference,
)
from samples import identity_circuit

from valueset import charsum, counting, polyrep, reductions
from valueset.errors import (
    ClauseTooLongError,
    DeskScaleExceededError,
    ParseError,
    PrimeTooSmallError,
)
from valueset.ffield import make_field
from valueset.reductions import (
    Cnf3,
    CountingPoly,
    SubsetSumInstance,
    _solution_patterns,
    beta_slp,
    brute_subset_count,
    brute_subset_decision,
    build_beta,
    build_circuit,
    build_gamma,
    circuit_image_count,
    count_ssp_via_valueset,
    counting_prime_bound,
    decide_ssp_via_root,
    decision_prime_bound,
    find_prime_above,
    gamma_image_check,
    parse_dimacs,
    parse_ssp,
    sat_count,
    serialize_dimacs,
    serialize_ssp,
)

UNSAT_PAIR = Cnf3(1, ((1, 1, 1), (-1, -1, -1)))
SINGLE_CLAUSE = Cnf3(3, ((1, 2, 3),))


def test_find_prime_above():
    assert find_prime_above(64) == 67
    assert find_prime_above(2) == 3
    assert find_prime_above(4096) == 4099
    with pytest.raises(ValueError):
        find_prime_above(1)


def test_find_prime_above_random_policy():
    for seed in range(5):
        p = find_prime_above(100, "random", seed=seed)
        assert 100 < p <= 200
        assert find_prime_above(100, "random", seed=seed) == p


def test_instance_validation():
    with pytest.raises(ValueError, match="need at least one element"):
        SubsetSumInstance((), 1)
    with pytest.raises(ValueError, match="elements must be positive integers"):
        SubsetSumInstance((0, 2), 1)
    with pytest.raises(ValueError, match="the target must be nonnegative"):
        SubsetSumInstance((1,), -1)
    assert SubsetSumInstance([3, 1], 2).a == (3, 1)


def test_instance_derived_fields():
    inst = SubsetSumInstance([3, 1, 3], 2)
    assert (inst.t, inst.total()) == (3, 7)
    assert repr(inst) == "SubsetSumInstance(a=(3, 1, 3), b=2)"
    twin = SubsetSumInstance((3, 1, 3), 2)
    assert inst == twin and hash(inst) == hash(twin)
    assert inst != SubsetSumInstance((3, 1, 3), 1)


def test_ssp_file_roundtrip():
    inst = SubsetSumInstance((1, 2), 3)
    assert parse_ssp(serialize_ssp(inst)) == inst
    assert parse_ssp("# note\nssp b=3\n1 2\n") == inst
    with pytest.raises(ParseError):
        parse_ssp("ssp 3\n1 2")
    with pytest.raises(ParseError):
        parse_ssp("ssp b=3\n")


def test_build_beta_structure():
    inst = SubsetSumInstance((1, 2), 3)
    beta = build_beta(inst, 67)
    assert len(beta.triples) == 4
    assert beta.constant == 64  # -3 mod 67
    assert {(b, e) for _, b, e in beta.triples} == {(0, 33), (0, 66), (1, 33), (1, 66)}


def test_build_beta_pointwise():
    inst = SubsetSumInstance((1, 2), 3)
    beta = build_beta(inst, 67)
    for x in range(67):
        want = (alpha_value(67, x) + 2 * alpha_value(67, (x + 1) % 67) - 3) % 67
        assert polyrep.evaluate(beta, x) == want


def test_build_beta_requires_large_odd_prime():
    inst = SubsetSumInstance((5, 9), 2)
    with pytest.raises(PrimeTooSmallError):
        build_beta(inst, 13)  # 13 <= 5 + 9
    with pytest.raises(PrimeTooSmallError):
        build_beta(inst, 16)  # not prime


def test_beta_never_zero_when_target_unreachable():
    # alpha in {0,1} so beta = alpha - 2 cannot vanish
    inst = SubsetSumInstance((1,), 2)
    beta = build_beta(inst, 11)
    assert all(polyrep.evaluate(beta, x) != 0 for x in range(11))


def test_decide_examples():
    d = decide_ssp_via_root(SubsetSumInstance((1, 2), 3))
    assert d.answer and d.p == 67
    assert pattern_map(67, 2, d.witness) == (1, 1)
    assert not decide_ssp_via_root(SubsetSumInstance((2, 3), 4)).answer
    d = decide_ssp_via_root(SubsetSumInstance((1,), 0))
    assert d.answer and d.p == 11  # empty subset; beta = alpha(x)


def test_decide_witness_is_smallest_root():
    rng = random.Random(3)
    for _ in range(20):
        t = rng.randrange(1, 4)
        inst = SubsetSumInstance(
            tuple(rng.randrange(1, 15) for _ in range(t)), rng.randrange(0, 30))
        d = decide_ssp_via_root(inst)
        if inst.b > inst.total():  # short-circuited: no prime, no beta
            assert (d.answer, d.p, d.witness) == (False, None, None)
            continue
        beta = build_beta(inst, d.p)
        roots = [x for x in range(d.p) if polyrep.evaluate(beta, x) == 0]
        if d.answer:
            assert d.witness == roots[0]
        else:
            assert not roots and d.witness is None


def test_decide_target_above_sum_is_false():
    # 12 = 1 (mod 11): beta over F_11 has roots, yet no subset of {1} sums to 12
    d = decide_ssp_via_root(SubsetSumInstance((1,), 12))
    assert (d.answer, d.p, d.witness) == (False, None, None)
    for a in itertools.combinations_with_replacement(range(1, 6), 2):
        p = find_prime_above(decision_prime_bound(SubsetSumInstance(a, 0)))
        for b in range(sum(a) + 1, sum(a) + 2 * p):
            d = decide_ssp_via_root(SubsetSumInstance(a, b))
            assert (d.answer, d.p, d.witness) == (False, None, None), (a, b)


def test_solution_patterns_match_bitwise_reference():
    # The lookup scans the subset sums cached per a; the reference sums
    # every pattern bit by bit.  Same patterns, same order, for any p above
    # sum(a) that either reduction or prime policy picks.
    rng = random.Random(12)
    for t in range(1, 9):
        for _ in range(3):
            a = tuple(rng.randint(1, 20) for _ in range(t))
            total = sum(a)
            for b in (0, 1, rng.randint(0, total), total, total + 1):
                inst = SubsetSumInstance(a, b)
                for bound in (decision_prime_bound(inst), counting_prime_bound(inst)):
                    for policy, seed in (("smallest", 0), ("random", rng.randrange(100))):
                        p = find_prime_above(bound, policy, seed)
                        assert (list(_solution_patterns(inst, p))
                                == solution_patterns_reference(inst, p)), (a, b, p)


def test_decide_scale_guard():
    with pytest.raises(DeskScaleExceededError):
        decide_ssp_via_root(SubsetSumInstance((1,) * 9, 3))


def test_desk_scale_refused_before_the_work(monkeypatch):
    # t > 8, or a prime bound at or above 2^26, refuses before the prime
    # search; the gamma cap before the circuit is built
    def forbidden(*args, **kwargs):
        raise AssertionError("work past a desk-scale limit")

    monkeypatch.setattr(reductions, "find_prime_above", forbidden)
    monkeypatch.setattr(reductions, "build_circuit", forbidden)
    for inst in (SubsetSumInstance((1,) * 9, 3), SubsetSumInstance((2 ** 26,), 1),
                 SubsetSumInstance((10 ** 1500,), 1)):
        for run in (decide_ssp_via_root, count_ssp_via_valueset):
            with pytest.raises(DeskScaleExceededError):
                run(inst)
    with pytest.raises(DeskScaleExceededError, match="gamma construction cap"):
        gamma_image_check(Cnf3(60000, ((1, 2, 3),)))


def test_decision_grid_subsample():
    # the full t <= 4 grid runs in the verification suite; spot-check here
    for a in itertools.combinations_with_replacement(range(1, 8), 2):
        for b in range(sum(a) + 1):
            inst = SubsetSumInstance(a, b)
            assert decide_ssp_via_root(inst).answer == brute_subset_decision(inst)


def test_counting_poly_values():
    inst = SubsetSumInstance((1, 2), 3)
    f = CountingPoly(inst, 67)
    values = {f(x) for x in range(67)}
    assert values == {0, 3}  # zero plus the weight of the solving pattern (1,1)
    with pytest.raises(PrimeTooSmallError):
        CountingPoly(inst, 61)  # 61 <= max(2^6, 2*sum(a))


def test_counting_poly_matches_definition():
    # (1 - beta^(p-1)) * sum alpha(x+i) 2^i, evaluated the slow way
    inst = SubsetSumInstance((2, 5, 1), 6)
    p = find_prime_above(counting_prime_bound(inst))
    f = CountingPoly(inst, p)
    field = make_field(p)
    beta = build_beta(inst, p)
    for x in range(0, p, 7):
        bx = polyrep.evaluate(beta, x)
        indicator = field.sub(1, field.pow(bx, p - 1))
        weight = sum(alpha_value(p, (x + i) % p) << i for i in range(inst.t)) % p
        assert f(x) == field.mul(indicator, weight)


def test_counting_poly_slp_rendering():
    inst = SubsetSumInstance((1, 2), 3)
    f = CountingPoly(inst, 67)
    slp = f.slp()
    assert slp.mode == "extended"
    for x in range(67):
        assert polyrep.evaluate(slp, x) == f(x)


def test_beta_slp_rendering():
    inst = SubsetSumInstance((3, 1), 2)
    p = find_prime_above(decision_prime_bound(inst))
    slp = beta_slp(inst, p)
    beta = build_beta(inst, p)
    for x in range(p):
        assert polyrep.evaluate(slp, x) == polyrep.evaluate(beta, x)


def test_count_via_valueset_examples():
    res = count_ssp_via_valueset(SubsetSumInstance((1, 2), 3))
    assert res.count == 1 and res.p == 67
    assert set(res.report.histogram.entries) == {0, 3}
    assert count_ssp_via_valueset(SubsetSumInstance((1, 2, 3), 3)).count == 2
    res = count_ssp_via_valueset(SubsetSumInstance((5,), 7))
    assert res.count == 0 and res.p is None and res.fpoly is None
    res = count_ssp_via_valueset(SubsetSumInstance((5,), 0))
    assert res.count == 1 and res.p is None


def test_count_sums_pattern_classes_without_evaluating(monkeypatch):
    # The histogram comes from the pattern classes: it must equal the
    # point-by-point walk of CountingPoly, and the count must neither call
    # count_direct nor build the per-point pattern index.
    def refuse(*args, **kwargs):
        raise AssertionError("the count evaluated points")

    rng = random.Random(8)
    for t in range(1, 5):
        for _ in range(2):
            a = tuple(rng.randint(1, 12) for _ in range(t))
            for b in (1, sum(a)):
                for policy, seed in (("smallest", 0), ("random", rng.randrange(100))):
                    inst = SubsetSumInstance(a, b)
                    with monkeypatch.context() as m:
                        m.setattr(counting, "count_direct", refuse)
                        m.setattr(charsum, "pattern_index_table", refuse)
                        res = count_ssp_via_valueset(inst, prime_policy=policy, seed=seed)
                    f, report = res.fpoly, res.report
                    walk = Counter(f(x) for x in range(res.p))
                    assert report.histogram.entries == walk, (a, b, policy)
                    assert report.histogram.field == f.field
                    assert (report.method, report.q, report.d) == ("direct", res.p, None)
                    assert report.cardinality == len(walk) == res.count + 1
                    assert res.count == brute_subset_count(inst)


def test_counting_grid_subsample():
    for a in itertools.combinations_with_replacement(range(1, 7), 2):
        for b in range(sum(a) + 2):
            inst = SubsetSumInstance(a, b)
            assert count_ssp_via_valueset(inst).count == brute_subset_count(inst)


def test_brute_oracles():
    assert brute_subset_count(SubsetSumInstance((1, 2), 3)) == 1
    assert brute_subset_count(SubsetSumInstance((1, 1), 1)) == 2
    assert brute_subset_count(SubsetSumInstance((2,), 1)) == 0
    assert brute_subset_decision(SubsetSumInstance((1, 1), 1))
    assert not brute_subset_decision(SubsetSumInstance((2,), 1))
    with pytest.raises(DeskScaleExceededError):
        brute_subset_count(SubsetSumInstance((1,) * 25, 1))


def test_parse_dimacs():
    cnf = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    assert cnf.n == 3 and cnf.clauses == ((1, 2, 3),) and not cnf.padded
    cnf = parse_dimacs("c comment\np cnf 2 2\n1 1 1 0\n-1 2 0\n")
    assert cnf.clauses == ((1, 1, 1), (-1, 2, 2))
    assert cnf.padded == (1,)
    # clauses may span lines
    cnf = parse_dimacs("p cnf 3 1\n1\n2 3 0\n")
    assert cnf.clauses == ((1, 2, 3),)
    # SATLIB files end with a "%" line and a lone "0"; nothing after % is read
    cnf = parse_dimacs("p cnf 3 1\n1 2 3 0\n%\n0\n\n")
    assert cnf.clauses == ((1, 2, 3),)


def test_parse_dimacs_errors():
    with pytest.raises(ClauseTooLongError):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 3 2 0\n")  # literal out of range
    with pytest.raises(ParseError):
        parse_dimacs("1 2 3 0\n")  # missing header
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n0\n")  # empty clause
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 3 5\n1 2 3 0\n")  # header declares five clauses
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 3 1\n1 0\n2 3 0\n")  # a padded clause counts
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 3 1\n1 2 5 0\np cnf 5 1\n")  # a second header


def test_dimacs_roundtrip():
    cnf = Cnf3(3, ((1, -2, 3), (-1, -1, 2)))
    assert parse_dimacs(serialize_dimacs(cnf)) == cnf


def test_sat_count():
    assert sat_count(SINGLE_CLAUSE) == 7
    assert sat_count(UNSAT_PAIR) == 0
    assert sat_count(Cnf3(1, ((1, 1, 1),))) == 1


def test_build_circuit_single_clause_wraps():
    # m = 1: w_1 = (1 + C_1) y_1
    circuit = build_circuit(SINGLE_CLAUSE)
    for bits in range(16):
        xbits = [bits >> i & 1 for i in range(3)]
        y1 = bits >> 3 & 1
        sat = any(xbits)
        w1 = circuit.eval_bits(bits) >> 3 & 1
        assert w1 == (0 if sat else y1)


def test_circuit_fanin_bound():
    rng = random.Random(17)
    for _ in range(10):
        n, m = rng.randrange(1, 7), rng.randrange(1, 7)
        clauses = tuple(
            tuple((1 if rng.random() < 0.5 else -1) * rng.randrange(1, n + 1)
                  for _ in range(3))
            for _ in range(m))
        circuit = build_circuit(Cnf3(n, clauses))
        for j in range(n + m):
            assert len(circuit.depends(j)) <= 5


def test_w_matches_mux_form_exhaustively():
    # per clause, over all 2^5 relevant inputs, with m = 2 so y_next != y_i
    for clause in [(1, 2, 3), (-1, 2, -3), (1, 1, 1), (-2, 3, -1), (-1, -2, -3)]:
        circuit = build_circuit(Cnf3(3, (clause, clause)))
        for bits in range(32):
            xbits = [bits >> i & 1 for i in range(3)]
            y1, y2 = bits >> 3 & 1, bits >> 4 & 1
            w1 = circuit.eval_bits(bits) >> 3 & 1
            assert w1 == mux_reference(clause, y1, y2, xbits)


def test_circuit_image_counts():
    assert circuit_image_count(build_circuit(SINGLE_CLAUSE)) == 9  # 16 - 7
    assert circuit_image_count(build_circuit(UNSAT_PAIR)) == 8     # permutation
    with pytest.raises(DeskScaleExceededError):
        circuit_image_count(identity_circuit(25))


def test_image_formula_random():
    rng = random.Random(71)
    for _ in range(25):
        n, m = rng.randrange(1, 6), rng.randrange(1, 6)
        clauses = tuple(
            tuple((1 if rng.random() < 0.5 else -1) * rng.randrange(1, n + 1)
                  for _ in range(3))
            for _ in range(m))
        cnf = Cnf3(n, clauses)
        image = circuit_image_count(build_circuit(cnf))
        assert image == 2 ** (n + m) - 2 ** (m - 1) * sat_count(cnf)


def test_gamma_identity_circuit():
    construction = build_gamma(identity_circuit(3))
    ev = polyrep.evaluator(polyrep.reduce_exponents(construction.gamma))
    for u in range(8):
        assert ev(u) == u


def test_gamma_extraction_polynomials():
    construction = build_gamma(build_circuit(SINGLE_CLAUSE))
    field = construction.field
    # L_i(w_k) = delta_ik on the basis, and extracts bit i everywhere
    for i, poly in enumerate(construction.extraction):
        ev = polyrep.evaluator(poly)
        for k, w in enumerate(construction.basis):
            assert ev(w) == (1 if i == k else 0)
        for u in range(field.q):
            assert ev(u) == (u >> i & 1)


def test_gamma_unsat_pair_is_permutation():
    construction = build_gamma(build_circuit(UNSAT_PAIR))
    reduced = polyrep.reduce_exponents(construction.gamma)
    assert counting.is_permutation(reduced)


def test_gamma_fidelity_small():
    rng = random.Random(29)
    for _ in range(3):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        clauses = tuple(
            tuple((1 if rng.random() < 0.5 else -1) * rng.randrange(1, n + 1)
                  for _ in range(3))
            for _ in range(m))
        cnf = Cnf3(n, clauses)
        circuit = build_circuit(cnf)
        construction = build_gamma(circuit)
        ev = polyrep.evaluator(polyrep.reduce_exponents(construction.gamma))
        for u in range(construction.field.q):
            assert ev(u) == circuit.eval_bits(u)


def test_gamma_term_count_bound():
    for cnf in (SINGLE_CLAUSE, UNSAT_PAIR):
        construction = build_gamma(build_circuit(cnf))
        nm = cnf.n + cnf.m
        # each output is at most 2^4 ANF monomials of degree <= 4
        assert len(construction.gamma.terms) <= nm * (1 + nm ** 4 * 16)


def test_gamma_image_check():
    report, _ = gamma_image_check(SINGLE_CLAUSE)
    assert (report.gamma_valueset, report.circuit_image,
            report.expected_image) == (9, 9, 9)
    report, _ = gamma_image_check(UNSAT_PAIR)
    assert (report.gamma_valueset, report.circuit_image,
            report.expected_image) == (8, 8, 8)
    assert report.agree


def test_gamma_scale_guard():
    with pytest.raises(DeskScaleExceededError):
        build_gamma(identity_circuit(15))
