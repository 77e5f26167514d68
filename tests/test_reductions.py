"""Subset-sum and 3SAT reductions against their brute-force oracles."""

import dataclasses
import functools
import inspect
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
    # The lane lookup reads the solving patterns off the cached pattern
    # table; the reference sums every pattern bit by bit.  Same patterns,
    # for primes just above sum(a), where some patterns do not occur and get
    # no lane (the lanes rank the rest by first x, with their class sizes),
    # and, up to t = 5, for the primes either reduction and prime policy
    # picks (above that a table costs 0.1-6 s; the differential test below
    # runs those widths).
    rng = random.Random(12)
    for t in range(1, 9):
        for _ in range(3):
            a = tuple(rng.randint(1, 20) for _ in range(t))
            total = sum(a)
            for b in (0, 1, rng.randint(0, total), total, total + 1):
                inst = SubsetSumInstance(a, b)
                bounds = [max(total, 2)]
                if t <= 5:
                    bounds += [decision_prime_bound(inst), counting_prime_bound(inst)]
                for bound in bounds:
                    for policy, seed in (("smallest", 0), ("random", rng.randrange(100))):
                        p = find_prime_above(bound, policy, seed)
                        want = solution_patterns_reference(inst, p)
                        got = reductions._solutions(inst, p)
                        if p > 1 << 3 * t:  # every pattern occurs
                            assert sorted(pat for _, pat, _ in got) == want, (a, b, p)
                            continue
                        first, sizes = _first_x(p, t), _class_sizes(p, t)
                        assert got == sorted((first[pat], pat, sizes[pat])
                                             for pat in want if sizes[pat]), (a, b, p)


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


# Differential: decide and count against the 2^t oracles and pointwise
# references, with every reductions and charsum cache cleared before each
# call, then warm.  t = 7 and 8 run warm only, on the smallest gadget prime:
# a cold F_p table there costs about 0.6 s a call, and one for t = 8
# (p > 2^24, 26-bit lanes) 5-8 s, so t = 8 builds its one table once.
DIFF_POLICIES = (("smallest", 0), ("random", 5))
POINTWISE_LIMIT = 2 ** 16  # class sizes through oracles.pattern_map up to here


def _clear_caches():
    for module in (reductions, charsum):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@functools.cache
def _class_sizes(p, t):
    """The number of x in F_p with each pattern: pointwise by pattern_map up
    to POINTWISE_LIMIT, by an uncached charsum.coverage above it, and for
    t = 8 by the cached table (a second pass over 2^24 points costs 5-8 s;
    the count is still checked against the 2^t oracle)."""
    if t == 8:
        return charsum.pattern_table(p, t).counts
    if p > POINTWISE_LIMIT:
        return charsum.coverage(p, t).counts
    sizes = [0] * (1 << t)
    for x in range(p):
        sizes[sum(bit << i for i, bit in enumerate(pattern_map(p, t, x)))] += 1
    return tuple(sizes)


@functools.cache
def _first_x(p, t):
    """The smallest x in F_p with each pattern that occurs, pointwise."""
    first = {}
    for x in range(p):
        first.setdefault(sum(bit << i for i, bit in enumerate(pattern_map(p, t, x))), x)
    return first


def _first_root(inst, p):
    """The smallest x with sum a_(i+1) * alpha(x+i) = b, scanned pointwise."""
    return next(x for x in range(p)
                if sum(ai * bit for ai, bit in zip(inst.a, pattern_map(p, inst.t, x)))
                == inst.b)


def _diff_instances(t):
    rng = random.Random(f"ssp-differential:{t}")
    a = [rng.randint(1, 9) for _ in range(t)]
    a[-1] = a[0]  # a repeated element
    total = sum(a)
    return [SubsetSumInstance(a, b)
            for b in sorted({0, rng.randint(1, total), total, total + 1})]


def _check_decision(inst, policy, seed):
    d = decide_ssp_via_root(inst, policy, seed)
    if inst.b > inst.total():
        assert (d.answer, d.p, d.witness) == (False, None, None)
        return d
    assert d.p == find_prime_above(decision_prime_bound(inst), policy, seed)
    assert d.answer == brute_subset_decision(inst)
    assert d.witness == (_first_root(inst, d.p) if d.answer else None)
    return d


def _check_count(inst, policy, seed):
    res = count_ssp_via_valueset(inst, prime_policy=policy, seed=seed)
    assert res.count == brute_subset_count(inst)
    if inst.b > inst.total() or inst.b == 0:
        assert (res.p, res.fpoly, res.report) == (None, None, None)
        return res
    p = find_prime_above(counting_prime_bound(inst), policy, seed)
    solutions = solution_patterns_reference(inst, p)
    sizes = _class_sizes(p, inst.t)
    want = {pat: sizes[pat] for pat in solutions if sizes[pat]}
    if p > sum(want.values()):
        want[0] = p - sum(want.values())
    assert res.p == p and res.report.q == p
    assert res.report.histogram.entries == want
    assert res.report.cardinality == len(want) == res.count + 1
    # __call__ reads only the patterns that occur in F_p
    assert [v for v, size in zip(res.fpoly._value_by_pattern, sizes) if size] == \
        [pat if pat in solutions else 0 for pat in range(1 << inst.t) if sizes[pat]]
    return res


@pytest.mark.parametrize("t", range(1, 9))
def test_ssp_reductions_match_oracles_cold_and_warm(t):
    wide = t >= 7
    for inst in _diff_instances(t):
        for policy, seed in DIFF_POLICIES[:1] if wide else DIFF_POLICIES:
            runs = []
            for cold in (False,) if wide else (True, False):
                if cold:
                    _clear_caches()
                d = _check_decision(inst, policy, seed)
                if cold:
                    _clear_caches()
                res = _check_count(inst, policy, seed)
                runs.append((d, res.count, res.p, res.fpoly))
            assert len({run[:3] for run in runs}) == 1, (inst, policy)
            f = runs[-1][3]
            if t <= 3 and f is not None:
                # one slp text from the cold and the warm field, and the slp
                # agrees with the pointwise reference at every x
                texts = {polyrep.serialize_poly(run[3].slp()) for run in runs}
                assert len(texts) == 1
                ev = polyrep.evaluator(runs[0][3].slp())
                for x in range(f.p):
                    pat = sum(bit << i for i, bit in enumerate(pattern_map(f.p, t, x)))
                    assert ev(x) == f._value_by_pattern[pat], (inst, x)
    if t == 8:
        _clear_caches()  # frees F_p's 16 MB alpha table for the rest of the run


def test_result_types_are_frozen_hashable_values():
    inst, twin = SubsetSumInstance([3, 1], 2), SubsetSumInstance((3, 1), 2)
    assert type(inst.a) is tuple
    pairs = [(inst, twin), (decide_ssp_via_root(inst), decide_ssp_via_root(twin)),
             (decide_ssp_via_root(SubsetSumInstance((3, 1), 9)),
              decide_ssp_via_root(SubsetSumInstance([3, 1], 9))),
             (count_ssp_via_valueset(SubsetSumInstance((3, 1), 0)),
              count_ssp_via_valueset(SubsetSumInstance([3, 1], 0)))]
    for one, other in pairs:
        assert one == other and hash(one) == hash(other)
        assert one is not other
    assert decide_ssp_via_root(inst) != decide_ssp_via_root(SubsetSumInstance((3, 1), 3))
    # a full count holds its CountingPoly and report: frozen, equal to itself
    full = count_ssp_via_valueset(inst)
    assert full == full and full.fpoly is not None
    for obj in (inst, pairs[1][0], full, full.report, full.report.histogram):
        for name in [f.name for f in dataclasses.fields(obj)] + ["extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1)


@pytest.mark.parametrize("cls", [SubsetSumInstance, reductions.RootDecision,
                                 reductions.CountResult, counting.PreimageHistogram,
                                 counting.ValueSetReport])
def test_hand_written_inits_take_every_init_field(cls):
    # These frozen types write their instance dict in their own __init__; a
    # field added to the class body alone would be skipped by it (or fall
    # back to its class default), so the signature must list the init
    # fields in order, with the same defaults.
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    fields = [f for f in dataclasses.fields(cls) if f.init]
    assert [p.name for p in params] == [f.name for f in fields]
    assert [p.default for p in params] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        for f in fields]


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
