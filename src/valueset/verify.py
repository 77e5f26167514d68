"""End-to-end property suites behind the `verify` command.

Each suite exercises one family of invariants and reports per-property
pass/fail with case counts.  All randomness is drawn from generators seeded
by the caller, and enumeration work is delegated to the worker-partitioned
operations, so a run's output depends only on (suite, seed), never on the
worker count.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import charsum, counting, polyrep, reductions
from .ffield import make_field
from .polyrep import DensePoly, SparsePoly

SUITE_NAMES = ("identities", "methods", "reductions")

# q = 5, 7, 9, 27, 49, 125, 343: the agreement-suite field list
AGREEMENT_FIELDS = ((5, 1), (7, 1), (3, 2), (3, 3), (7, 2), (5, 3), (7, 3))

WEIL_PRIMES = (67, 131, 257, 521, 1031)

UNSAT_PAIR = reductions.Cnf3(1, ((1, 1, 1), (-1, -1, -1)))
SINGLE_CLAUSE = reductions.Cnf3(3, ((1, 2, 3),))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        return f"{status} {self.name} (cases={self.cases}){extra}"


def _result(name: str, failures: list, cases: int) -> CheckResult:
    detail = "; ".join(str(f) for f in failures[:3])
    return CheckResult(name=name, passed=not failures, cases=cases, detail=detail)


def _random_poly(rng: random.Random, field, d: int) -> DensePoly:
    coeffs = [rng.randrange(field.q) for _ in range(d)]
    coeffs.append(rng.randrange(1, field.q))
    return DensePoly(field, tuple(coeffs))


def _random_cnf(rng: random.Random, n: int, m: int) -> reductions.Cnf3:
    clauses = []
    for _ in range(m):
        clauses.append(tuple(
            (1 if rng.random() < 0.5 else -1) * rng.randrange(1, n + 1)
            for _ in range(3)))
    return reductions.Cnf3(n, tuple(clauses))


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def suite_identities(seed: int = 0, workers: int = 1) -> list[CheckResult]:
    results = []

    failures = []
    cases = 0
    for d in range(1, 51):
        for k in range(1, d + 1):
            cases += 1
            if counting.omega_identity_check(d, k) != 1:
                failures.append((d, k))
    results.append(_result("omega_identity_d<=50", failures, cases))

    failures = []
    cases = 0
    for d in range(1, 201):
        cases += 1
        newton = counting.sym_weights(d, "newton").sigma
        product = counting.sym_weights(d, "product").sigma
        if newton != product:
            failures.append(d)
            continue
        if newton[-1] != Fraction(1, math.factorial(d)):
            failures.append(("sigma_d", d))
        if newton[0] != sum(Fraction(1, j) for j in range(1, d + 1)):
            failures.append(("sigma_1", d))
        if any(s <= 0 for s in newton):
            failures.append(("positivity", d))
    results.append(_result("sigma_newton_vs_product_d<=200", failures, cases))

    return results


# ---------------------------------------------------------------------------
# methods
# ---------------------------------------------------------------------------


def suite_methods(seed: int = 0, workers: int = 1) -> list[CheckResult]:
    results = []
    rng = random.Random(f"{seed}:methods")
    fields = [make_field(p, m) for p, m in AGREEMENT_FIELDS]

    failures = []
    reports = []
    for i in range(200):
        field = fields[i % len(fields)]
        d = rng.randrange(1, 7)
        f = _random_poly(rng, field, d)
        direct = counting.count_direct(f, workers=workers)[0]
        codomain = counting.count_codomain(f, workers=workers)
        symmetric = counting.count_symmetric(f, workers=workers)
        reports.extend((direct, codomain, symmetric))
        if not direct.cardinality == codomain.cardinality == symmetric.cardinality:
            failures.append((field.q, f.coeffs))
    results.append(_result("three_method_agreement_200", failures, 200))

    failures = []
    cases = 0
    for q in (3, 5, 7):
        field = make_field(q)
        for k in (2, 3):
            for _ in range(20):
                f = _random_poly(rng, field, rng.randrange(1, 5))
                cases += 1
                hist = counting.count_direct(f, workers=workers)[1]
                from_hist = sum(c ** k for c in hist.entries.values())
                brute = counting.nk_brute(f, k=k)
                surf = counting.count_hypersurface_points(f, k=k, workers=workers)
                from_surf = counting.nk_from_hypersurface(surf)
                if not from_hist == brute == from_surf:
                    failures.append((q, k, f.coeffs))
    results.append(_result("nk_three_sources_agree", failures, cases))

    failures = []
    cases = 0
    for q in (3, 5, 7):
        field = make_field(q)
        for _ in range(20):
            f = _random_poly(rng, field, rng.randrange(1, 4))
            cases += 1
            sym = counting.count_symmetric(f, nk_source="hypersurface",
                                           workers=workers)
            direct = counting.count_direct(f, workers=workers)[0]
            reports.extend((sym, direct))
            if sym.cardinality != direct.cardinality:
                failures.append((q, f.coeffs))
    results.append(_result("symmetric_hypersurface_vs_direct", failures, cases))

    failures = []
    cases = 0
    for q, k in ((3, 2), (5, 2), (3, 3)):
        field = make_field(q)
        for _ in range(5):
            f = _random_poly(rng, field, rng.randrange(1, 4))
            cases += 1
            fast = counting.count_hypersurface_points(f, k=k, workers=workers)
            slow = counting.count_hypersurface_points(f, k=k, literal=True)
            if fast != slow:
                failures.append((q, k, f.coeffs))
    results.append(_result("hypersurface_literal_oracle", failures, cases))

    failures = []
    f3 = DensePoly(make_field(3), (0, 0, 1))
    surf = counting.count_hypersurface_points(f3, k=2)
    nk = counting.nk_from_hypersurface(surf)
    card = counting.count_symmetric(f3, nk_source="hypersurface").cardinality
    if (surf.count, nk, card) != (19, 5, 2):
        failures.append((surf.count, nk, card))
    results.append(_result("worked_instance_x2_over_F3", failures, 1))

    failures = []
    for rep in reports:
        if rep.d is not None and rep.d >= 1:
            low = -(-rep.q // rep.d)
            if not low <= rep.cardinality <= rep.q:
                failures.append((rep.method, rep.q, rep.d, rep.cardinality))
    results.append(_result("trivial_bounds", failures, len(reports)))

    failures = []
    cases = 0
    prime_powers = [(p, m) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                                     37, 41, 43, 47, 53, 59, 61)
                    for m in range(1, 7) if p ** m <= 64]
    for p, m in prime_powers:
        field = make_field(p, m)
        for k in range(1, 21):
            cases += 1
            f = SparsePoly(field, ((1, k),))
            want = math.gcd(k, field.q - 1) == 1
            got = counting.count_direct(f, workers=workers)[0].cardinality == field.q
            if got != want:
                failures.append((field.q, k))
    results.append(_result("monomial_permutation_law_q<=64", failures, cases))

    failures = []
    cases = 0
    for p in WEIL_PRIMES:
        cov = charsum.coverage(p, 2, workers=workers)
        if sum(cov.counts) != p:
            failures.append(("sum", p))
        if not cov.onto:
            failures.append(("onto", p))
        for pat in range(4):
            cases += 1
            if cov.weil_low > 0 and not cov.inside_weil(pat):
                failures.append((p, pat, cov.counts[pat]))
    results.append(_result("weil_pattern_counts_t=2", failures, cases))

    failures = []
    sample_primes = (3, 5, 7, 67, 101, 257, 1031, 4099, 9973)
    cases = 0
    for p in sample_primes:
        gadget = charsum.alpha_poly(p)
        ev = polyrep.evaluator(gadget.alpha)
        table = charsum.alpha_table(p)
        for x in range(p):
            cases += 1
            v = ev(x)
            if v not in (0, 1) or v != table[x] or (v == 1) != (charsum.chi(x, p) == 1):
                failures.append((p, x))
    results.append(_result("alpha_in_01_and_matches_chi", failures, cases))

    return results


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _decision_grid():
    for t in range(1, 5):
        for a in itertools.combinations_with_replacement(range(1, 21), t):
            yield a


def _counting_grid():
    for t in range(1, 5):
        for a in itertools.combinations_with_replacement(range(1, 13), t):
            yield a


def suite_reductions(seed: int = 0, workers: int = 1) -> list[CheckResult]:
    results = []
    rng = random.Random(f"{seed}:reductions")

    failures = []
    cases = 0
    for a in _decision_grid():
        masks_by_sum = _masks_by_sum(a)
        for b in range(sum(a) + 1):
            inst = reductions.SubsetSumInstance(a, b)
            cases += 1
            got = reductions.decide_ssp_via_root(inst).answer
            want = b in masks_by_sum
            if got != want:
                failures.append((a, b))
                if len(failures) > 5:
                    break
    results.append(_result("ssp_decision_grid_t<=4_a<=20", failures, cases))

    failures = []
    structure_failures = []
    cases = 0
    for a in _counting_grid():
        total = sum(a)
        masks_by_sum = _masks_by_sum(a)
        for b in range(total + 2):  # b = total+1 exercises the b > sum short-circuit
            inst = reductions.SubsetSumInstance(a, b)
            cases += 1
            res = reductions.count_ssp_via_valueset(inst, workers=workers)
            want = reductions.brute_subset_count(inst)
            if res.count != want:
                failures.append((a, b))
                continue
            if res.report is not None and res.report.histogram is not None:
                values = set(res.report.histogram.entries)
                weights = masks_by_sum.get(b, set())
                if 0 not in values or not values <= weights | {0}:
                    structure_failures.append((a, b))
    results.append(_result("ssp_counting_grid_t<=4_a<=12", failures, cases))
    results.append(_result("ssp_valueset_structure", structure_failures, cases))

    failures = []
    worked = reductions.count_ssp_via_valueset(
        reductions.SubsetSumInstance((1, 2), 3))
    hist = worked.report.histogram.entries
    if worked.count != 1 or worked.p != 67 or set(hist) != {0, 3}:
        failures.append((worked.count, worked.p, sorted(hist)))
    results.append(_result("worked_instance_S12_b3", failures, 1))

    failures = []
    cases = 0
    for _ in range(100):
        n = rng.randrange(1, 7)
        m = rng.randrange(1, 7)
        cnf = _random_cnf(rng, n, m)
        cases += 1
        image = reductions.circuit_image_count(reductions.build_circuit(cnf))
        expected = 2 ** (n + m) - 2 ** (m - 1) * reductions.sat_count(cnf)
        if image != expected:
            failures.append((n, m, cnf.clauses))
    results.append(_result("image_formula_100_random_cnfs", failures, cases))

    failures = []
    gamma_fixtures = [
        SINGLE_CLAUSE,
        UNSAT_PAIR,
        _random_cnf(rng, 4, 3),
        _random_cnf(rng, 6, 4),
    ]
    cases = 0
    for cnf in gamma_fixtures:
        report, construction = reductions.gamma_image_check(cnf, workers=workers)
        circuit = construction.circuit
        ev = polyrep.evaluator(polyrep.reduce_exponents(construction.gamma))
        for u in range(construction.field.q):
            cases += 1
            if ev(u) != circuit.eval_bits(u):
                failures.append((cnf.n, cnf.m, u))
                break
    results.append(_result("gamma_fidelity_and_image_triple", failures, cases))

    failures = []
    triple = reductions.gamma_image_check(SINGLE_CLAUSE)[0]
    if (triple.gamma_valueset, triple.circuit_image, triple.expected_image) != (9, 9, 9):
        failures.append(triple)
    triple = reductions.gamma_image_check(UNSAT_PAIR)[0]
    if (triple.gamma_valueset, triple.circuit_image, triple.expected_image) != (8, 8, 8):
        failures.append(triple)
    results.append(_result("gamma_worked_triples", failures, 2))

    failures = []
    unsat_fixtures = [
        UNSAT_PAIR,
        reductions.Cnf3(2, ((1, 1, 1), (-1, -1, -1), (2, 2, 2), (-2, -2, -2))),
    ]
    cases = 0
    for cnf in unsat_fixtures:
        cases += 1
        if reductions.sat_count(cnf) != 0:
            failures.append(("satisfiable", cnf.clauses))
            continue
        construction = reductions.build_gamma(reductions.build_circuit(cnf))
        reduced = polyrep.reduce_exponents(construction.gamma)
        if not counting.is_permutation(reduced, workers=workers):
            failures.append(("not a permutation", cnf.clauses))
    results.append(_result("unsat_formulas_give_permutations", failures, cases))

    return results


def _masks_by_sum(a) -> dict[int, set[int]]:
    """The masks of a (bit i picks a[i]) grouped by their subset sum.

    The 2^t sums are built by doubling: the masks with bit i set follow
    those without it, each with a[i] added.
    """
    sums = [0]
    for ai in a:
        sums += [s + ai for s in sums]
    by_sum: dict[int, set[int]] = {}
    for mask, s in enumerate(sums):
        by_sum.setdefault(s, set()).add(mask)
    return by_sum


def run_suites(names, seed: int = 0, workers: int = 1) -> list[CheckResult]:
    table = {
        "identities": suite_identities,
        "methods": suite_methods,
        "reductions": suite_reductions,
    }
    if isinstance(names, str):
        names = SUITE_NAMES if names == "all" else (names,)
    results = []
    for name in names:
        if name not in table:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(table[name](seed=seed, workers=workers))
    return results
