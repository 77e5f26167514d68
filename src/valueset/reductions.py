"""Executable hardness constructions, each paired with a brute-force oracle.

Subset-sum instances are turned into root-existence questions for the
shift-sparse polynomial beta(x) = sum a_(i+1) alpha(x+i) - b over F_p, and
into value-set counting questions for
f(x) = (1 - beta(x)^(p-1)) * sum alpha(x+i) 2^i, whose value set has one
element per solution plus zero.  3SAT formulas are compiled into circuits
whose every output depends on at most 5 inputs, and then into a sparse
polynomial over F_(2^(n+m)) with the same value-set cardinality
2^(n+m) - 2^(m-1) M.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from operator import mul

from . import charsum, counting, polyrep
from .errors import (
    ClauseTooLongError,
    DeskScaleExceededError,
    ParseError,
    PrimeTooSmallError,
)
from .ffield import ENUMERATION_CAP, Field, is_prime, make_field, solve_linear
from .polyrep import Slp, SlpBuilder, SparsePoly, SparseShiftPoly

MAX_ORACLE_WIDTH = 24  # 2^t / 2^n exhaustive oracles stop here
MAX_GADGET_WIDTH = 8  # 2^(3t) <= 2^26 keeps F_p enumerable
MAX_GAMMA_BITS = 14  # F_(2^(n+m)) construction limit


# ---------------------------------------------------------------------------
# Subset sum
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class SubsetSumInstance:
    """Positive integers a_1..a_t and a target b (multiset semantics)."""

    a: tuple[int, ...]
    b: int
    # Derived from a, once: the reductions read both per use.
    t: int = dc_field(init=False, repr=False, compare=False)
    _total: int = dc_field(init=False, repr=False, compare=False)

    def __init__(self, a, b):
        if len(a) < 1:
            raise ValueError("need at least one element")
        if min(a) < 1:
            raise ValueError("elements must be positive integers")
        if b < 0:
            raise ValueError("the target must be nonnegative")
        a = tuple(map(int, a))
        # Frozen, so the fields go to the instance dict directly: the
        # generated __init__ costs one object.__setattr__ per field.
        fields = self.__dict__
        fields["a"], fields["b"], fields["t"], fields["_total"] = a, b, len(a), sum(a)

    def total(self) -> int:
        return self._total


def parse_ssp(text: str) -> SubsetSumInstance:
    """Instance file: line 1 `ssp b=<b>`, line 2 the space-separated a_i."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) != 2:
        raise ParseError("expected exactly two content lines")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "ssp" or not head[1].startswith("b="):
        raise ParseError(f"bad header {lines[0]!r}", 1)
    try:
        b = int(polyrep.check_digits(head[1][2:]))
        a = tuple(int(polyrep.check_digits(tok)) for tok in lines[1].split())
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    try:
        return SubsetSumInstance(a, b)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_ssp(inst: SubsetSumInstance) -> str:
    return f"ssp b={inst.b}\n" + " ".join(str(ai) for ai in inst.a) + "\n"


@lru_cache(maxsize=4096)
def _smallest_prime_above(lower: int) -> int:
    n = lower + 1
    while not is_prime(n):
        n += 1
    return n


def find_prime_above(lower: int, policy: str = "smallest", seed: int = 0) -> int:
    """A certified prime strictly above `lower`.

    smallest: deterministic linear scan.  random: seeded uniform samples
    from (lower, 2*lower], which always contains a prime.
    """
    if lower < 2:
        raise ValueError("lower bound must be >= 2")
    if policy == "smallest":
        return _smallest_prime_above(lower)
    if policy == "random":
        rng = random.Random(seed)
        while True:
            n = rng.randrange(lower + 1, 2 * lower + 1)
            if is_prime(n):
                return n
    raise ValueError(f"unknown prime policy {policy!r}")


def decision_prime_bound(inst: SubsetSumInstance) -> int:
    return max(2 ** (3 * inst.t), inst.total())


def counting_prime_bound(inst: SubsetSumInstance) -> int:
    return max(2 ** (3 * inst.t), 2 * inst.total())


def build_beta(inst: SubsetSumInstance, p: int) -> SparseShiftPoly:
    """beta as a sparse-shift polynomial over F_p.

    Each a_(i+1) * alpha(x+i) contributes two shift triples with exponents
    (p-1)/2 and p-1 and coefficient a_(i+1)/2; the target enters as the
    additive constant -b.
    """
    if p <= inst.total() or p == 2 or not is_prime(p):
        raise PrimeTooSmallError(
            f"need an odd prime above sum(a) = {inst.total()}, got {p}")
    field = make_field(p)
    inv2 = (p + 1) // 2
    triples = []
    for i, ai in enumerate(inst.a):
        c = ai * inv2 % p
        triples.append((c, i, (p - 1) // 2))
        triples.append((c, i, p - 1))
    return SparseShiftPoly(field, tuple(triples), (-inst.b) % p)


def _weighted_sum(builder: SlpBuilder, weights, regs) -> int:
    """Register holding sum w_i * r_i, as one const/mul/add run per term."""
    acc = None
    for w, reg in zip(weights, regs):
        term = builder.mul(builder.const(w), reg)
        acc = term if acc is None else builder.add(acc, term)
    return acc


def _beta_registers(builder: SlpBuilder, inst: SubsetSumInstance,
                    p: int) -> tuple[list[int], int]:
    """Registers holding alpha(x), ..., alpha(x+t-1), by literal powering,
    and the register holding beta(x)."""
    x = builder.x()
    inv2 = builder.const((p + 1) // 2)
    alphas = []
    for i in range(inst.t):
        xi = x if i == 0 else builder.add(x, builder.const(i))
        half = builder.power(xi, (p - 1) // 2)
        full = builder.mul(half, half)
        alphas.append(builder.mul(inv2, builder.add(half, full)))
    beta = builder.sub(_weighted_sum(builder, inst.a, alphas), builder.const(inst.b))
    return alphas, beta


def beta_slp(inst: SubsetSumInstance, p: int) -> Slp:
    """Extended-mode straight-line rendering of beta."""
    builder = SlpBuilder(make_field(p), polyrep.SLP_EXTENDED)
    return builder.build(_beta_registers(builder, inst, p)[1])


@lru_cache(maxsize=64)
def _pattern_lanes(p: int, t: int) -> tuple:
    """(width, planes, ones, ranked): one width-bit lane per pattern that
    occurs in F_p, by first x.  ranked[k] is lane k's (first x, pattern,
    class size); planes[i] is 1 in the lanes whose pattern has bit i set."""
    table, width = charsum.pattern_table(p, t), p.bit_length() + 1
    ranked = sorted((x, pat, table.counts[pat])
                    for pat, x in enumerate(table.first_x) if x is not None)
    lanes = [1 << width * k for k in range(len(ranked))]
    planes = [sum(lane for lane, (_, pat, _) in zip(lanes, ranked) if pat >> i & 1)
              for i in range(t)]
    return width, planes, sum(lanes), ranked


def _solutions(inst: SubsetSumInstance, p: int) -> list[tuple[int, int, int]]:
    """(first x, pattern, class size) of each pattern in F_p with
    sum a_(i+1) * bit_i = b mod p, in order of first x.

    sum(a_(i+1) * planes[i]) holds each pattern's sum in its lane.  As
    p > sum(a), the sums and b mod p stay below the lane's top bit: lane
    XOR (b mod p) is 0 iff the pattern solves, and adding 2^(width-1) - 1
    carries into the top bit iff it is not.
    """
    width, planes, ones, ranked = _pattern_lanes(p, inst.t)
    top, found = ones << width - 1, []
    hits = ((sum(map(mul, inst.a, planes)) ^ inst.b % p * ones) + top - ones & top) ^ top
    while hits:
        low = hits & -hits
        found.append(ranked[low.bit_length() // width - 1])
        hits ^= low
    return found


_prime_field = lru_cache(maxsize=16)(make_field)  # one F_p per prime


def _gadget_prime(inst: SubsetSumInstance, bound: int, policy: str, seed: int) -> int:
    """find_prime_above(bound), refused when F_p would be above the
    enumeration cap: before the search when t or bound already say so (the
    prime exceeds bound), after it when the next prime crosses the cap."""
    if inst.t > MAX_GADGET_WIDTH:
        raise DeskScaleExceededError(
            f"t = {inst.t} needs p > 2^{3 * inst.t}, beyond the enumeration cap")
    if bound >= ENUMERATION_CAP:
        raise DeskScaleExceededError(
            f"p > 2^{bound.bit_length() - 1} exceeds the enumeration cap 2^26")
    p = find_prime_above(bound, policy, seed)
    if p > ENUMERATION_CAP:
        raise DeskScaleExceededError(f"p = {p} exceeds the enumeration cap 2^26")
    return p


@dataclass(frozen=True, init=False)
class RootDecision:
    instance: SubsetSumInstance
    p: int | None  # None when b > sum(a) short-circuited the reduction
    answer: bool
    witness: int | None

    def __init__(self, instance, p, answer, witness):  # as SubsetSumInstance's
        self.__dict__.update(instance=instance, p=p, answer=answer, witness=witness)


def decide_ssp_via_root(inst: SubsetSumInstance,
                        prime_policy: str = "smallest", seed: int = 0) -> RootDecision:
    """Decide the instance by testing whether beta has a root in F_p.

    The enumeration of F_p happens once per (p, t) in the cached pattern
    table: beta(x) depends on x only through the pattern
    (alpha(x), ..., alpha(x+t-1)), so the root set is the union of the
    pattern classes whose weighted sum hits b, and the smallest root is the
    first x of the first of them to occur (_solutions).  b > sum(a)
    short-circuits to False: beta only sees b mod p, which may equal some
    subset sum.
    """
    if inst.b > inst.total():
        return RootDecision(inst, None, False, None)
    p = _gadget_prime(inst, decision_prime_bound(inst), prime_policy, seed)
    found = _solutions(inst, p)
    return RootDecision(inst, p, bool(found), found[0][0] if found else None)


class CountingPoly:
    """Evaluator for f(x) = (1 - beta(x)^(p-1)) * sum_i alpha(x+i) 2^i.

    beta^(p-1) collapses to 0/1 by Fermat, so evaluation never powers a
    symbolic object; the slp() rendering keeps the literal
    square-and-multiply chains instead.  field is one cached F_p per prime.
    """

    def __init__(self, inst: SubsetSumInstance, p: int):
        if p <= counting_prime_bound(inst) or not is_prime(p):
            raise PrimeTooSmallError(
                f"need a prime above max(2^3t, 2*sum(a)) = "
                f"{counting_prime_bound(inst)}, got {p}")
        self.instance = inst
        self.p = p
        self.field = _prime_field(p)

    @cached_property
    def _value_by_pattern(self) -> list[int]:
        # f(x) depends on x only through its alpha pattern, so the values
        # are tabulated once, indexed by the pattern: a solving pattern that
        # occurs in F_p is its own value (pat < 2^t < p), every other is 0.
        values = [0] * (1 << self.instance.t)
        for _, pat, _ in _solutions(self.instance, self.p):
            values[pat] = pat
        return values

    def __call__(self, x: int) -> int:
        pattern = charsum.pattern_index_table(self.p, self.instance.t)[x]
        return self._value_by_pattern[pattern]

    def slp(self) -> Slp:
        builder = SlpBuilder(self.field, polyrep.SLP_EXTENDED)
        inst, p = self.instance, self.p
        alphas, beta = _beta_registers(builder, inst, p)
        indicator = builder.sub(builder.const(1), builder.power(beta, p - 1))
        weight = _weighted_sum(builder, [pow(2, i, p) for i in range(inst.t)], alphas)
        return builder.build(builder.mul(indicator, weight))


@dataclass(frozen=True, init=False)
class CountResult:
    instance: SubsetSumInstance
    count: int
    p: int | None  # None when a special case short-circuited the reduction
    fpoly: CountingPoly | None = None
    report: counting.ValueSetReport | None = None

    def __init__(self, instance, count, p, fpoly=None, report=None):  # as above
        self.__dict__.update(instance=instance, count=count, p=p, fpoly=fpoly,
                             report=report)


def count_ssp_via_valueset(inst: SubsetSumInstance, workers: int = 1,
                           prime_policy: str = "smallest", seed: int = 0) -> CountResult:
    """Count solutions as |V_f| - 1; b = 0 and b > sum(a) short-circuit.

    f(x) depends on x only through its alpha pattern, so the preimage
    histogram comes from the cached pattern table decide_ssp_via_root
    reads: each solving pattern that occurs in F_p is a value, its class
    size the preimages (_solutions), and 0 takes the rest of F_p
    (charsum.coverage checks that the classes total p).  No point is
    evaluated.  workers is accepted, as the benchmark passes it, and unused.
    """
    if inst.b > inst.total():
        return CountResult(inst, 0, None)
    if inst.b == 0:
        return CountResult(inst, 1, None)
    start = time.perf_counter()
    p = _gadget_prime(inst, counting_prime_bound(inst), prime_policy, seed)
    f = CountingPoly(inst, p)
    entries = {pat: size for _, pat, size in _solutions(inst, p)}  # pat > 0 as b > 0
    rest = p - sum(entries.values())
    if rest:
        entries[0] = rest
    histogram = counting.PreimageHistogram(f.field, entries)
    report = counting.ValueSetReport(len(entries), "direct", p, None, None, histogram,
                                     time.perf_counter() - start)
    return CountResult(inst, len(entries) - 1, p, f, report)


def brute_subset_decision(inst: SubsetSumInstance) -> bool:
    """2^t oracle: does any sub-multiset sum to b exactly (over the integers)?"""
    if inst.t > MAX_ORACLE_WIDTH:
        raise DeskScaleExceededError(f"t = {inst.t} exceeds the 2^t oracle cap")
    seen = {0}
    for ai in inst.a:
        seen |= {s + ai for s in seen if s + ai <= inst.b}
        if inst.b in seen:
            return True
    return inst.b in seen


def brute_subset_count(inst: SubsetSumInstance) -> int:
    """2^t oracle: the number of sub-multisets summing to b."""
    if inst.t > MAX_ORACLE_WIDTH:
        raise DeskScaleExceededError(f"t = {inst.t} exceeds the 2^t oracle cap")
    sums = [0]
    for ai in inst.a:
        sums += [s + ai for s in sums]
    return sums.count(inst.b)


# ---------------------------------------------------------------------------
# 3SAT -> bounded-fanin circuit -> sparse polynomial over F_(2^(n+m))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cnf3:
    """Exactly-3 CNF; literals are signed 1-based variable indices."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]
    padded: tuple[int, ...] = ()  # clause indices that were padded by repetition

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("clauses must have exactly three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range")

    @property
    def m(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> Cnf3:
    """DIMACS CNF with every clause of length at most 3.

    Clauses with one or two literals are padded by repeating the last
    literal (recorded in `padded`); longer clauses are an error.  There is
    one `p cnf` header, and the clause count must match it.
    """
    n = declared = None
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break  # SATLIB end marker; a "0" line may follow it
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ParseError("repeated problem line", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad problem line {line!r}", lineno)
            try:
                n = int(polyrep.check_digits(parts[2]))
                declared = int(polyrep.check_digits(parts[3]))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            continue
        tokens.extend(line.split())
    if n is None:
        raise ParseError("missing 'p cnf' line")
    clauses = []
    padded = []
    current: list[int] = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError as exc:
            raise ParseError(f"bad literal {tok!r}") from exc
        if lit == 0:
            if not current:
                raise ParseError("empty clause cannot be padded")
            if len(current) > 3:
                raise ClauseTooLongError(
                    f"clause {current} has more than three literals")
            if len(current) < 3:
                padded.append(len(clauses))
                current += [current[-1]] * (3 - len(current))
            clauses.append(tuple(current))
            current = []
        else:
            if abs(lit) > n:
                raise ParseError(f"literal {lit} exceeds variable count {n}")
            current.append(lit)
    if current:
        raise ParseError("last clause is not terminated by 0")
    if len(clauses) != declared:
        raise ParseError(
            f"header declares {declared} clauses, found {len(clauses)}")
    return Cnf3(n=n, clauses=tuple(clauses), padded=tuple(padded))


def serialize_dimacs(cnf: Cnf3) -> str:
    lines = [f"p cnf {cnf.n} {cnf.m}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# Boolean functions in algebraic normal form: a frozenset of monomials,
# each monomial a bitmask of input variables; the empty mask is the
# constant 1 term, the empty set is the constant 0.


def _anf_and(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    acc: set[int] = set()
    for ma in a:
        for mb in b:
            acc ^= {ma | mb}
    return frozenset(acc)


def _literal_anf(lit: int) -> frozenset[int]:
    mask = 1 << (abs(lit) - 1)
    return frozenset({mask}) if lit > 0 else frozenset({0, mask})


def clause_indicator_anf(clause) -> frozenset[int]:
    """OR of three literals as 1 + (1+l1)(1+l2)(1+l3) over F_2."""
    prod = frozenset({0})
    for lit in clause:
        prod = _anf_and(prod, _literal_anf(lit) ^ frozenset({0}))
    return prod ^ frozenset({0})


@dataclass(frozen=True)
class Nc05Circuit:
    """n+m Boolean outputs over inputs (x_1..x_n, y_1..y_m), fanin <= 5."""

    n: int
    m: int
    outputs: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.outputs) != self.n + self.m:
            raise ValueError("need exactly n+m outputs")

    def depends(self, i: int) -> set[int]:
        vars_ = set()
        for mask in self.outputs[i]:
            while mask:
                low = mask & -mask
                vars_.add(low.bit_length() - 1)
                mask ^= low
        return vars_

    def eval_bits(self, bits: int) -> int:
        out = 0
        for j, monos in enumerate(self.outputs):
            acc = 0
            for mask in monos:
                if bits & mask == mask:
                    acc ^= 1
            if acc:
                out |= 1 << j
        return out


def build_circuit(cnf: Cnf3) -> Nc05Circuit:
    """z_i = x_i and w_i = y_i + C_i * y_(i mod m + 1) over F_2.

    The w_i form is an algebraic identity of the mux "if C_i then
    y_i xor y_next else y_i"; the equivalence is enforced by tests, not
    assumed here.
    """
    if cnf.m < 1:
        raise ValueError("need at least one clause")
    n, m = cnf.n, cnf.m
    outputs = [frozenset({1 << i}) for i in range(n)]
    for i in range(1, m + 1):
        ci = clause_indicator_anf(cnf.clauses[i - 1])
        y_i = frozenset({1 << (n + i - 1)})
        y_next = frozenset({1 << (n + (i % m))})
        outputs.append(y_i ^ _anf_and(ci, y_next))
    circuit = Nc05Circuit(n=n, m=m, outputs=tuple(outputs))
    for j in range(n + m):
        if len(circuit.depends(j)) > 5:  # pragma: no cover - structural guarantee
            raise AssertionError(f"output {j} depends on more than 5 inputs")
    return circuit


def sat_count(cnf: Cnf3) -> int:
    """Exact model count by enumerating all 2^n assignments."""
    if cnf.n > MAX_ORACLE_WIDTH:
        raise DeskScaleExceededError(f"n = {cnf.n} exceeds the 2^n oracle cap")
    compiled = []
    for clause in cnf.clauses:
        pos = 0
        neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        compiled.append((pos, neg))
    full = (1 << cnf.n) - 1
    count = 0
    for bits in range(1 << cnf.n):
        inv = bits ^ full
        if all(bits & pos or inv & neg for pos, neg in compiled):
            count += 1
    return count


def circuit_image_count(circuit: Nc05Circuit) -> int:
    """Exact image size over all 2^(n+m) inputs, via a bitset."""
    total_bits = circuit.n + circuit.m
    if total_bits > MAX_ORACLE_WIDTH:
        raise DeskScaleExceededError(
            f"n+m = {total_bits} exceeds the 2^(n+m) image cap")
    eval_bits = circuit.eval_bits
    bitset = bytearray(((1 << total_bits) + 7) >> 3)
    for bits in range(1 << total_bits):
        out = eval_bits(bits)
        bitset[out >> 3] |= 1 << (out & 7)
    return sum(byte.bit_count() for byte in bitset)


@dataclass(frozen=True)
class GammaConstruction:
    """The field F_(2^(n+m)), the coordinate extraction maps, and gamma."""

    circuit: Nc05Circuit
    field: Field
    basis: tuple[int, ...]
    extraction: tuple[SparsePoly, ...]
    gamma: SparsePoly


@lru_cache(maxsize=16)
def _extraction_system(p: int, m: int):
    field = make_field(p, m)
    basis = tuple(field.pow(field.gen, i) for i in range(m))
    matrix = [[field.pow(w, p ** j) for j in range(m)] for w in basis]
    extraction = []
    for i in range(m):
        rhs = [1 if k == i else 0 for k in range(m)]
        sol = solve_linear(matrix, rhs, field)
        terms = tuple((c, p ** j) for j, c in enumerate(sol) if c)
        extraction.append(SparsePoly(field, terms))
    return field, basis, tuple(extraction)


def _check_gamma_bits(nbits: int) -> None:
    if nbits > MAX_GAMMA_BITS:
        raise DeskScaleExceededError(
            f"n+m = {nbits} exceeds the gamma construction cap {MAX_GAMMA_BITS}")


def build_gamma(circuit: Nc05Circuit) -> GammaConstruction:
    """Compile the circuit into a sparse polynomial over F_(2^(n+m)).

    The power basis w_i = g^(i-1) of the deterministic modulus identifies
    bit strings with field elements; each input bit j is recovered by the
    linearized polynomial L_j (solved so that L_j(w_k) = delta_jk, hence
    F_2-linearity extracts coordinate j everywhere).  Substituting L_j into
    the output ANFs and recombining against the basis gives gamma with
    gamma(u) = circuit.eval_bits(u) for every u, an index's bits being its
    coordinates in the power basis.
    """
    nbits = circuit.n + circuit.m
    _check_gamma_bits(nbits)
    field, basis, extraction = _extraction_system(2, nbits)
    terms: dict[int, int] = {}
    for j, anf in enumerate(circuit.outputs):
        wj = basis[j]
        for mono in anf:
            prod = {0: 1}
            mask = mono
            while mask:
                low = mask & -mask
                mask ^= low
                lpoly = extraction[low.bit_length() - 1]
                nxt: dict[int, int] = {}
                for e0, c0 in prod.items():
                    for cj, ej in lpoly.terms:
                        e = e0 + ej
                        c = field.mul(c0, cj)
                        if c:
                            prev = nxt.get(e, 0)
                            cur = field.add(prev, c)
                            if cur:
                                nxt[e] = cur
                            elif e in nxt:
                                del nxt[e]
                prod = nxt
            for e, c in prod.items():
                contrib = field.mul(wj, c)
                cur = field.add(terms.get(e, 0), contrib)
                if cur:
                    terms[e] = cur
                elif e in terms:
                    del terms[e]
    gamma = SparsePoly(field, tuple((c, e) for e, c in sorted(terms.items())))
    return GammaConstruction(circuit=circuit, field=field, basis=basis,
                             extraction=extraction, gamma=gamma)


@dataclass(frozen=True)
class CircuitImageReport:
    n: int
    m: int
    sat_assignments: int
    circuit_image: int
    gamma_valueset: int
    expected_image: int

    @property
    def agree(self) -> bool:
        return self.circuit_image == self.gamma_valueset == self.expected_image

    def to_json_dict(self, field: Field) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "field": field.describe(),
            "sat_count": str(self.sat_assignments),
            "circuit_image": str(self.circuit_image),
            "gamma_valueset": str(self.gamma_valueset),
            "expected_image": str(self.expected_image),
            "agree": self.agree,
        }


def gamma_image_check(cnf: Cnf3, workers: int = 1):
    """|V_gamma|, the circuit image, and 2^(n+m) - 2^(m-1) M must coincide.

    workers is accepted, as the benchmark passes it, and unused.  The
    gamma cap is checked before the circuit is built.
    """
    _check_gamma_bits(cnf.n + cnf.m)
    circuit = build_circuit(cnf)
    construction = build_gamma(circuit)
    M = sat_count(cnf)
    image = circuit_image_count(circuit)
    expected = 2 ** (cnf.n + cnf.m) - 2 ** (cnf.m - 1) * M
    reduced = polyrep.reduce_exponents(construction.gamma)
    report, _ = counting.count_direct(reduced)
    result = CircuitImageReport(
        n=cnf.n, m=cnf.m, sat_assignments=M, circuit_image=image,
        gamma_valueset=report.cardinality, expected_image=expected)
    if not result.agree:
        raise AssertionError(
            f"value-set triple disagrees: image={image}, "
            f"|V_gamma|={report.cardinality}, expected={expected}")
    return result, construction
