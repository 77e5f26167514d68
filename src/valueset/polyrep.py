"""Polynomial representations: dense, sparse, sparse-shift, straight-line.

All four representations share a Field and evaluate to the same induced map
F_q -> F_q.  Coefficients are canonical element indices (see ffield); sparse
and sparse-shift exponents are arbitrary-precision nonnegative integers.
Values are immutable after construction.  evaluator compiles any
representation into a pointwise callable; block_values yields the values
at every point of the field a block at a time, for counting.
"""

from __future__ import annotations

import operator
import re
import sys
from array import array
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, islice, repeat

from .errors import (
    DegreeCapExceededError,
    DeskScaleExceededError,
    FieldMismatchError,
    OrderTooLargeError,
    ParseError,
)
from .ffield import (
    _TABLE_CAP,
    ENUMERATION_CAP,
    Field,
    _dense_add,
    _dense_gcd,
    _dense_mul,
    _dense_powmod,
    _dense_sub,
    _reduction_rows,
    _ring_pow,
    is_prime,
    make_field,
    prime_logexp,
)

SLP_STRICT = "strict"
SLP_EXTENDED = "extended"

# Degree bounds: `bound` is None for the zero polynomial (degree -infinity),
# `exact` is False when only an upper bound is known.
DegreeBound = namedtuple("DegreeBound", ["bound", "exact"])


def _check_coeff(field: Field, c: int) -> int:
    if not 0 <= c < field.q:
        raise FieldMismatchError(f"coefficient index {c} out of range for q={field.q}")
    return c


@dataclass(frozen=True)
class DensePoly:
    """Coefficient list, index i = coefficient of x^i, trailing zeros trimmed."""

    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = list(self.coeffs)
        for c in coeffs:
            _check_coeff(self.field, c)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True)
class SparsePoly:
    """Nonzero (coeff, exponent) terms, exponents strictly increasing."""

    field: Field
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        combined: dict[int, int] = {}
        for c, e in self.terms:
            _check_coeff(self.field, c)
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            combined[e] = self.field.add(combined.get(e, 0), c)
        terms = tuple((c, e) for e, c in sorted(combined.items()) if c != 0)
        object.__setattr__(self, "terms", terms)

    @property
    def degree(self) -> int | None:
        return self.terms[-1][1] if self.terms else None

    def is_zero(self) -> bool:
        return not self.terms


@dataclass(frozen=True)
class SparseShiftPoly:
    """Sum of a_i * (x + b_i)^e_i plus an additive constant."""

    field: Field
    triples: tuple[tuple[int, int, int], ...]
    constant: int = 0

    def __post_init__(self):
        triples = []
        for a, b, e in self.triples:
            _check_coeff(self.field, a)
            _check_coeff(self.field, b)
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if a != 0:
                triples.append((a, b, e))
        object.__setattr__(self, "triples", tuple(triples))
        object.__setattr__(self, "constant", _check_coeff(self.field, self.constant))


# Straight-line programs.  Instructions are tuples; register numbers are
# 1-based and every operand must refer to an earlier instruction.
_SLP_NULLARY = ("one", "gen", "x")


@dataclass(frozen=True)
class Slp:
    field: Field
    instructions: tuple[tuple, ...]
    output: int
    mode: str = SLP_EXTENDED

    def __post_init__(self):
        if self.mode not in (SLP_STRICT, SLP_EXTENDED):
            raise ValueError(f"unknown SLP mode {self.mode!r}")
        instrs = []
        for i, ins in enumerate(self.instructions, start=1):
            op = ins[0]
            if op in _SLP_NULLARY:
                if op == "gen" and self.field.m == 1:
                    raise ValueError("gen is only available in extension fields")
                if self.mode == SLP_STRICT and i > 2:
                    raise ValueError(
                        "strict programs allow only add/sub/mul after the "
                        "two seed registers")
                instrs.append((op,))
            elif op == "const":
                if self.mode == SLP_STRICT:
                    raise ValueError("const is not part of the strict model")
                instrs.append(("const", ins[1] % self.field.p))
            elif op in ("add", "sub", "mul"):
                j, k = ins[1], ins[2]
                if not (1 <= j < i and 1 <= k < i):
                    raise ValueError(f"instruction {i} refers to a later register")
                instrs.append((op, j, k))
            else:
                raise ValueError(f"unknown SLP instruction {op!r}")
        if self.mode == SLP_STRICT:
            want_first = "one" if self.field.m == 1 else "gen"
            if len(instrs) < 2 or instrs[0] != (want_first,) or instrs[1] != ("x",):
                raise ValueError(
                    f"strict programs must start with {want_first}, x")
        if not 1 <= self.output <= len(instrs):
            raise ValueError("output register out of range")
        object.__setattr__(self, "instructions", tuple(instrs))


PolyInput = (DensePoly, SparsePoly, SparseShiftPoly, Slp)


class SlpBuilder:
    """Incrementally assemble an Slp; returns 1-based register indices."""

    def __init__(self, field: Field, mode: str = SLP_EXTENDED):
        self.field = field
        self.mode = mode
        self._instrs: list[tuple] = []
        self._one: int | None = None
        if mode == SLP_STRICT:
            self._instrs.append(("one",) if field.m == 1 else ("gen",))
            self._instrs.append(("x",))

    def _emit(self, ins) -> int:
        self._instrs.append(ins)
        return len(self._instrs)

    def one(self) -> int:
        if self.mode == SLP_STRICT:
            # Strict extension programs have no ONE: gen^(q-1) = 1, built once.
            if self._one is None:
                self._one = 1 if self.field.m == 1 else self.power(1, self.field.q - 1)
            return self._one
        return self._emit(("one",))

    def x(self) -> int:
        if self.mode == SLP_STRICT:
            return 2
        return self._emit(("x",))

    def gen(self) -> int:
        if self.mode == SLP_STRICT and self.field.m > 1:
            return 1
        return self._emit(("gen",))

    def add(self, j: int, k: int) -> int:
        return self._emit(("add", j, k))

    def sub(self, j: int, k: int) -> int:
        return self._emit(("sub", j, k))

    def mul(self, j: int, k: int) -> int:
        return self._emit(("mul", j, k))

    def const(self, c: int) -> int:
        """Register holding the constant c (reduced mod p).

        In extended mode this is a CONST instruction.  In strict mode the
        constant is compiled from one() by a double-and-add chain, so the
        program stays inside the minimal instruction set.
        """
        c %= self.field.p
        if self.mode == SLP_EXTENDED:
            return self._emit(("const", c))
        if c == 0:
            return self.sub(1, 1)
        one = reg = self.one()
        for bit in bin(c)[3:]:
            reg = self.add(reg, reg)
            if bit == "1":
                reg = self.add(reg, one)
        return reg

    def power(self, j: int, e: int) -> int:
        """Register holding r_j ** e by a square-and-multiply chain."""
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        if e == 0:
            return self.one()
        reg = j
        for bit in bin(e)[3:]:
            reg = self._emit(("mul", reg, reg))
            if bit == "1":
                reg = self._emit(("mul", reg, j))
        return reg

    def build(self, output: int) -> Slp:
        return Slp(self.field, tuple(self._instrs), output, self.mode)


def _compile_slp(f: Slp, add, sub, mul, lift):
    """Compile f into x -> output register over the caller's arithmetic.

    add, sub and mul combine two register values; lift turns the field
    element that one, gen or const stands for into a register value.  Only
    registers the output depends on are kept.  Slot 0 holds x, the lifted
    constants follow (nullary instructions depend on nothing), then the kept
    ops in order; every kept op is an ancestor of the output or the output
    itself, so the output is the last register.
    """
    instrs = f.instructions
    ops = {"add": add, "sub": sub, "mul": mul}
    live = [False] * len(instrs)
    live[f.output - 1] = True
    for i in range(f.output - 1, -1, -1):
        ins = instrs[i]
        if live[i] and ins[0] in ops:
            live[ins[1] - 1] = live[ins[2] - 1] = True
    element = {"one": 1, "gen": f.field.p}
    slot = [0] * len(instrs)
    consts = []
    for i, ins in enumerate(instrs):
        if live[i] and ins[0] in ("one", "gen", "const"):
            consts.append(lift(ins[1] if ins[0] == "const" else element[ins[0]]))
            slot[i] = len(consts)
    steps = []
    for i, ins in enumerate(instrs):
        if live[i] and ins[0] in ops:
            steps.append((ops[ins[0]], slot[ins[1] - 1], slot[ins[2] - 1]))
            slot[i] = len(consts) + len(steps)

    def run_slp(x, _consts=tuple(consts), _steps=tuple(steps)):
        regs = [x, *_consts]
        push = regs.append
        for op, j, k in _steps:
            push(op(regs[j], regs[k]))
        return regs[-1]

    return run_slp


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _check_point(f, x: int) -> None:
    if not 0 <= x < f.field.q:
        raise FieldMismatchError(f"point index {x} out of range for q={f.field.q}")


def evaluate(f, x: int) -> int:
    """Evaluate any representation at the element with canonical index x."""
    _check_point(f, x)
    return evaluator(f)(x)


def evaluator(f):
    """Compile a representation into a fast callable index -> index.

    Sparse exponents are folded through x^q = x first; this changes the
    polynomial but not the induced map, which is all evaluation sees.
    """
    field = f.field
    if isinstance(f, DensePoly):
        rev = tuple(reversed(f.coeffs))
        add, mul = field.add, field.mul

        def eval_dense(x, _rev=rev):
            acc = 0
            for c in _rev:
                acc = add(mul(acc, x), c)
            return acc

        return eval_dense
    if isinstance(f, SparsePoly):
        terms = reduce_exponents(f).terms
        add, mul, powf = field.add, field.mul, field.pow

        def eval_sparse(x, _terms=terms):
            acc = 0
            for c, e in _terms:
                acc = add(acc, mul(c, powf(x, e)))
            return acc

        return eval_sparse
    if isinstance(f, SparseShiftPoly):
        qm1 = field.q - 1
        folded = tuple(
            (a, b, e if e == 0 else 1 + (e - 1) % qm1) for a, b, e in f.triples)
        add, mul, powf, const = field.add, field.mul, field.pow, f.constant

        def eval_shift(x, _triples=folded, _c=const):
            acc = _c
            for a, b, e in _triples:
                acc = add(acc, mul(a, powf(add(x, b), e)))
            return acc

        return eval_shift
    if isinstance(f, Slp):
        return _compile_slp(f, field.add, field.sub, field.mul, lambda c: c)
    raise TypeError(f"not a polynomial representation: {type(f).__name__}")


# Points per list in block_values: enough that a list-level kernel spends
# its time on points, not on per-block set-up, and few enough that a
# block's lists stay small.
BLOCK = 4096

# A block of the bit-plane ring holds 2^min(m, PLANE_BITS) points: the
# whole field up to F_2^16, and never a partial block.  Its planes and
# value bytes stay within about 0.5 MB, so q up to 2^26 fits in memory.
PLANE_BITS = 16

# A ring over blocks of field elements.  add, sub, mul and lift (a field
# element to a constant block) are its arithmetic; blocks() yields a
# (points, n) pair per block of n points, and values(u, n) turns a block
# result u into the values at those n points.  term(c, u, e, b), where a
# ring has it, is c*(u + b)^e (0^0 = 1) in one pass; the others add, square
# and multiply.
Ring = namedtuple("Ring", "add sub mul lift blocks values term", defaults=(None,))


def _digit_ring(field: Field) -> Ring:
    """Blocks of F_(p^m) elements held as m lists, digit i of every point
    in list i (a little-endian coefficient vector over F_p whose entries
    are lists).

    A product is m^2 list products gathered into the coefficients of
    x^0..x^(2m-2); those of x^m..x^(2m-2) fold back through the rows
    x^k mod modulus (ffield._reduction_rows), then every digit is reduced
    mod p.  Sums and differences are digit-wise and left unreduced, so a
    digit may be any int until the next product or the final mod p.  lift
    turns an element into m constant lists of min(BLOCK, q) entries; map
    stops at the shortest list, so they serve a partial block too.  Over
    F_p (m = 1) there are no rows and a block's one digit list is its
    points.
    """
    p, m, q = field.p, field.m, field.q
    rows = _reduction_rows(p, field.modulus, m - 1)  # x^m .. x^(2m-2)
    pairs = [[(i, k - i) for i in range(max(0, k - m + 1), min(k, m - 1) + 1)]
             for k in range(2 * m - 1)]
    folds = [[(k, row[i]) for k, row in enumerate(rows, m) if row[i]] for i in range(m)]
    mods = repeat(p)

    def coefficient(u, v, k):  # of x^k in u * v, unreduced, as a lazy map
        (i, j), *rest = pairs[k]
        c = map(operator.mul, u[i], v[j])
        for i, j in rest:
            c = map(operator.add, c, map(operator.mul, u[i], v[j]))
        return c

    def mul(u, v):
        high = [list(coefficient(u, v, k)) for k in range(m, 2 * m - 1)]
        out = []
        for i, fold in enumerate(folds):
            c = coefficient(u, v, i)
            for k, r in fold:
                c = map(operator.add, c, map(operator.mul, high[k - m], repeat(r)))
            out.append([d % p for d in c])
        return out

    def add(u, v):
        return [list(map(operator.add, a, b)) for a, b in zip(u, v)]

    def sub(u, v):
        return [list(map(operator.sub, a, b)) for a, b in zip(u, v)]

    width = min(BLOCK, q)

    def lift(c):
        return [[d] * width for d in field.coeffs(c)]

    # Blocks start at multiples of size = c * p^j (p^j <= BLOCK < p^(j+1)
    # or j = m - 1), so digits 0..j-1 of a block's points are those of
    # 0..size-1, computed once, and each higher digit is constant over
    # runs of p^j points.
    powers = [p ** i for i in range(m)]
    j = max(i for i, s in enumerate(powers) if s <= BLOCK)
    span = powers[j]
    size = BLOCK // span * span
    low_digits = [[x // s % p for x in range(size)] for s in powers[:j]]
    spans = repeat(span)

    def blocks():
        for lo in range(0, q, size):
            n = min(size, q - lo)
            runs = range(lo, lo + n, span)
            yield [d[:n] for d in low_digits] + [
                list(runs) if m == 1 else
                list(chain.from_iterable(map(repeat, [x // s % p for x in runs], spans)))
                for s in powers[j:]], n

    def values(u, n):
        *low, high = u
        out = map(operator.mod, high, mods)  # index = digits read top first
        for digit in reversed(low):
            out = map(operator.add, map(operator.mul, out, mods),
                      map(operator.mod, digit, mods))
        return list(islice(out, n))

    return Ring(add, sub, mul, lift, blocks, values)


def _plane_ring(field: Field) -> Ring:
    """Blocks of F_(2^m) elements held as m bit planes: bit t of int i is
    digit i of the value at the block's point t (bit-slicing).

    A sum is XOR, and so is a difference.  A product is m^2 ANDs gathered
    by XOR into the coefficients of x^0..x^(2m-2); those of x^m..x^(2m-2)
    fold back through the rows x^k mod modulus (ffield._reduction_rows).
    Block b holds the points b*2^k + t, t < 2^k, k = min(m, PLANE_BITS):
    planes 0..k-1 of its points are fixed bit patterns (bit t of plane i
    is bit i of t) and the higher planes are constant.  values spreads
    each plane's bits through bin() and a UTF-16 (m <= 16) or UTF-32
    encoding into 2- or 4-byte slots of one int, each holding '0' or '1',
    sums the planes shifted by their digit, subtracts what the '0's add,
    and reads the slots as an array.
    """
    m, q = field.m, field.q
    k = min(m, PLANE_BITS)
    size = 1 << k
    ones = (1 << size) - 1
    rows = _reduction_rows(2, field.modulus, m - 1)  # x^m .. x^(2m-2)
    folds = [[j for j, row in enumerate(rows, m) if row[i]] for i in range(m)]

    def mul(u, v):
        c = [0] * (2 * m - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v, i):
                    c[j] ^= a & b
        out = c[:m]
        for i, fold in enumerate(folds):
            for j in fold:
                out[i] ^= c[j]
        return out

    def add(u, v):
        return [a ^ b for a, b in zip(u, v)]

    def lift(c):
        return [ones if c >> i & 1 else 0 for i in range(m)]

    # Plane i of the points 0..2^k-1: runs of 2^i zeros and 2^i ones,
    # the first period doubled until it fills the block.
    low = []
    for i in range(k):
        plane, period = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while period < size:
            plane |= plane << period
            period *= 2
        low.append(plane)

    def blocks():
        for b in range(q >> k):
            yield low + lift(b)[:m - k], size

    width, code = (2, "H") if m <= 16 else (4, "I")
    encoding, top = f"utf-{8 * width}-le", 1 << size
    zeros = int.from_bytes(("0" * size).encode(encoding), "little") * ((1 << m) - 1)

    def values(u, n):
        total = -zeros
        for i, plane in enumerate(u):
            total += int.from_bytes(bin(plane | top)[3:].encode(encoding), "little") << i
        return array(code, total.to_bytes(width * n, sys.byteorder))

    return Ring(add, add, mul, lift, blocks, values)


def _log_ring(field: Field) -> Ring:
    """Blocks of F_(p^m) elements, odd p and q <= _TABLE_CAP, held as lists
    of discrete logs to the field's generator g, read from Field.tables:
    logs lie in [0, q - 1) and zero is the sentinel 2(q - 1).

    A product adds the logs and folds the sum into [0, q - 1) by
    comparison; a sum with zero in it reaches the sentinel.  A sum a + b
    is a(1 + b/a), one Zech lookup zech[log b - log a] (a negative index
    wraps mod q - 1), -1 where b = -a.  A difference first adds log(-1) =
    (q - 1)/2 to the subtrahend.  A term c*(u + b)^e is one pass:
    log c + e*log(u + b) mod (q - 1), log(u + b) by a Zech lookup too.
    A block's points are logs as well, zero and then g^0, g^1, ... in
    turn, so they cost no lookup and only the last block is partial.
    values reads exp.
    """
    log, exp, zech = field.tables()
    q = field.q
    n = q - 1
    half, zero = n // 2, 2 * n
    width = min(BLOCK, q)

    def mul(u, v):
        return [s if s < n else s - n if s < zero else zero for s in map(operator.add, u, v)]

    def add(u, v):
        return [b if a == zero else a if b == zero else
                zero if (z := zech[b - a]) < 0 else s if (s := a + z) < n else s - n
                for a, b in zip(u, v)]

    def sub(u, v):
        return add(u, [b + half if b < half else b - half if b < n else zero for b in v])

    def lift(c):
        return [log[c] if c else zero] * width

    def term(c, u, e, b):
        if not c or not e:
            return lift(c)
        k, e = log[c], e % n
        if not b:
            return [(k + e * a) % n if a < n else zero for a in u]
        lb = log[b]  # c*(u + b)^e = c*b^e*(1 + u/b)^e
        kb = (k + e * lb) % n
        return [kb if a >= n else (kb + e * z) % n if (z := zech[a - lb]) >= 0 else zero
                for a in u]

    def blocks():
        for lo in range(0, q, BLOCK):
            hi = min(lo + BLOCK, q)
            yield [zero, *range(hi - 1)] if not lo else list(range(lo - 1, hi - 1)), hi - lo

    def values(u, k):
        return [exp[a] if a < n else 0 for a in islice(u, k)]

    return Ring(add, sub, mul, lift, blocks, values, term)


def _fold_shift(f: SparseShiftPoly) -> tuple[int, list[tuple[int, int, int]]]:
    """f's constant and its triples with e >= 1, each exponent folded
    through x^q = x to 1 + (e - 1) mod (q - 1).  A triple with e = 0 is
    a*(x+b)^0 = a everywhere, 0^0 = 1 included, so it goes into the
    constant."""
    field = f.field
    const, triples = f.constant, []
    for a, b, e in f.triples:
        if e:
            triples.append((a, b, 1 + (e - 1) % (field.q - 1)))
        else:
            const = field.add(const, a)
    return const, triples


def _ring_blocks(f, ring: Ring):
    """block_values over a block ring, one block of points at a time.
    Dense: Horner's rule.  Sparse: exponents folded through x^q = x, each
    term c*x^e one pass of the ring's term where it has one (_log_ring),
    else c times the squares x^(2^k) that e's bits pick, shared by every
    term.  Shift: _fold_shift, then a*(x + b)^e by the ring's term or by a
    sum and square-and-multiply.  Slp: the registers are block elements.
    Coefficients are lifted block by block, so a long input holds one
    block's elements at a time."""
    add, sub, mul, lift = ring.add, ring.sub, ring.mul, ring.lift
    term = ring.term or (lambda c, u, e, b: mul(lift(c), _ring_pow(mul, add(u, lift(b)), e)))
    if isinstance(f, DensePoly):
        lead, *rest = f.coeffs[::-1] or (0,)

        def run(x):
            acc = lift(lead)
            for c in rest:
                acc = add(mul(acc, x), lift(c))
            return acc
    elif isinstance(f, SparseShiftPoly) or isinstance(f, SparsePoly) and ring.term:
        const, triples = (_fold_shift(f) if isinstance(f, SparseShiftPoly) else
                          (0, [(c, 0, e) for c, e in reduce_exponents(f).terms]))

        def run(x):
            acc = lift(const)
            for a, b, e in triples:
                acc = add(acc, term(a, x, e, b))
            return acc
    elif isinstance(f, SparsePoly):
        terms = reduce_exponents(f).terms
        depth = max((e.bit_length() for _, e in terms), default=0)

        def run(x):
            squares = [x]  # x^(2^k), shared by every term
            while len(squares) < depth:
                squares.append(mul(squares[-1], squares[-1]))
            acc = lift(0)
            for c, e in terms:
                prod = lift(c)
                for k in range(e.bit_length()):
                    if e >> k & 1:
                        prod = mul(prod, squares[k])
                acc = add(acc, prod)
            return acc
    elif isinstance(f, Slp):
        run = _compile_slp(f, add, sub, mul, lift)
    else:
        raise TypeError(f"not a polynomial representation: {type(f).__name__}")
    for x, n in ring.blocks():
        yield ring.values(run(x), n)


def _differences_win(p: int, m: int, d: int) -> bool:
    """Whether block_values extends lines from their first d + 1 values
    (_difference_lines) for f of degree at most d over F_(p^m).

    Timed per representation against the other routes of block_values on
    F_131 .. F_131071 and F_31^2 .. F_257^2 for d = 0 .. 12 (BENCH_17.json
    "cutover", identical histograms).  Where the rule holds the route is
    1.0-8.8x faster over F_p (0.89-0.94x for dense constants, one list
    either way) and 1.0-39x over F_67^2 and F_257^2.  Above d = 8 sparse
    and shift inputs of few terms, whose kernels do not grow with d, catch
    up (0.85-1.4x at d = 12).  Over F_p with p(d + 1) < 2048 a count takes
    microseconds and the route's set-up (degree bound, dense expansion,
    seeds) is not repaid for slp inputs (0.82-0.97x on F_131 and F_257).
    Over F_(p^m) a line is p points: at p = 31 slp inputs lose
    (0.80-0.98x), at p = 61 and 67 every input wins (1.1-39x).
    """
    return d <= 8 and p >= 64 and p ** m * (d + 1) >= 2048


def _horner(coeffs, xs, p: int) -> list[int]:
    """Dense coefficients over F_p evaluated at the integers xs, mod p."""
    top, *rest = coeffs[::-1] or (0,)
    acc = [top] * len(xs)
    for c in rest:
        acc = [(a * x + c) % p for a, x in zip(acc, xs)]
    return acc


def _extend(seeds, n: int, p: int):
    """The first n terms v_0, v_1, ... of a sequence of degree at most
    d = len(seeds) - 1 over F_p whose first d + 1 terms are seeds, lazily
    and unreduced.  By Newton's forward differences, v_t = sum over k of
    C(t, k) * D^k, D^k the k-th difference of the seeds at t = 0: the
    constant D^d summed d times in turn, the running sum at level k
    starting from D^k."""
    diffs = []
    while seeds:
        diffs.append(seeds[0] % p)
        seeds = [b - a for a, b in zip(seeds, seeds[1:])]
    out = repeat(diffs.pop(), n - len(diffs))
    for start in reversed(diffs):
        out = accumulate(out, initial=start)
    return islice(out, n)


def _difference_lines(f, bound: int):
    """block_values by forward differences for f of degree at most bound.

    A line is the points x0 + t, t = 0, 1, ..., on which f is a polynomial
    in t of degree d <= bound, so its values follow from those at its
    first d + 1 points by d running sums (_extend).  Adding t moves only
    digit 0 of x0, and sums in F_(p^m) are digit-wise, so every digit of
    the values runs its own sums.  Over F_p a line is a block of BLOCK
    points; over F_(p^m) it is the p points a*p + t.  The first d + 1
    values of every line come from the dense expansion (to_dense): Horner's
    rule on integers over F_p, the digit-list ring (_digit_ring) over
    F_(p^m), a block of seed points for many lines at once.  The unreduced
    sums stay below about BLOCK^d * p, a few machine words.
    """
    field = f.field
    p, m = field.p, field.m
    g = to_dense(f, bound)
    d = len(g.coeffs) - 1
    if d < 1:  # a constant, zero included
        c, = g.coeffs or (0,)
        for lo in range(0, field.q, BLOCK):
            yield [c] * min(BLOCK, field.q - lo)
        return
    if m == 1:
        for lo in range(0, p, BLOCK):
            seeds = _horner(g.coeffs, range(lo, lo + d + 1), p)
            yield list(map(operator.mod, _extend(seeds, min(BLOCK, p - lo), p), repeat(p)))
        return
    ring = _digit_ring(field)
    per = BLOCK // (d + 1)  # lines whose seed points fill a block
    powers = [p ** i for i in range(m - 1)]

    def seed_blocks():
        for lo in range(0, field.q // p, per):
            lines = range(lo, min(lo + per, field.q // p))  # a of a*p + t
            yield [list(range(d + 1)) * len(lines)] + [
                list(chain.from_iterable(repeat(a // s % p, d + 1) for a in lines))
                for s in powers], len(lines) * (d + 1)

    seeds = ring._replace(blocks=seed_blocks, values=lambda u, n: [c[:n] for c in u])
    for u in _ring_blocks(g, seeds):
        for j in range(0, len(u[0]), d + 1):
            yield ring.values([_extend(digit[j:j + d + 1], p, p) for digit in u], p)


def block_values(f):
    """f's values at all q points of its field, one list per block.

    Every point contributes one value to one list (or array), in no fixed
    order.  Where _differences_win says so for the degree bound d, every
    representation is expanded to dense coefficients and each line of
    points extended from its first d + 1 values (_difference_lines).
    Otherwise, over F_p dense inputs run Horner's rule over a block of
    points, and sparse and shift inputs have log-table kernels.  Sparse:
    x = g^j walks F_p^* for a primitive root g, term c*x^e reads
    exp[(log c + e*j) mod (p-1)], and x = 0 takes the constant term.
    Shift: the map y -> a*y^e is tabulated once per triple through the log
    table and rotated by b.  The log/exp tables are built per call.  Slp
    inputs over F_p run on the digit-list ring (_digit_ring) with one
    digit.  Over F_(2^m) every input runs on the bit-plane ring
    (_plane_ring) but sparse ones over table fields, which stay pointwise
    (gamma's fields have q <= 2^14).  Over odd p every representation runs
    on the log ring (_log_ring), one pass per product, sum, sparse term or
    shift power, up to _TABLE_CAP and on the digit-list ring above it.
    """
    field = f.field
    bound = degree_bound(f).bound or 0
    if _differences_win(field.p, field.m, bound):
        yield from _difference_lines(f, bound)
        return
    if field.m != 1:
        if field.p == 2 and (field.q > _TABLE_CAP or not isinstance(f, SparsePoly)):
            yield from _ring_blocks(f, _plane_ring(field))
        elif field.p != 2:
            ring = _digit_ring if field.q > _TABLE_CAP else _log_ring
            yield from _ring_blocks(f, ring(field))
        else:
            ev, q = evaluator(f), field.q
            for lo in range(0, q, BLOCK):
                yield list(map(ev, range(lo, min(lo + BLOCK, q))))
        return
    p = field.p
    if isinstance(f, DensePoly):
        for lo in range(0, p, BLOCK):
            yield _horner(f.coeffs, range(lo, min(lo + BLOCK, p)), p)
    elif isinstance(f, SparsePoly):
        log, exp = prime_logexp(p)
        n = p - 1
        terms = reduce_exponents(f).terms  # exponents 0 or 1..p-1
        c0 = terms[0][0] if terms and terms[0][1] == 0 else 0
        walk = [(log[c], e) for c, e in terms if e]
        yield [c0]  # x = 0, where every term with e >= 1 vanishes
        for lo in range(0, n, BLOCK):
            hi = min(lo + BLOCK, n)
            acc = [c0] * (hi - lo)
            for k, e in walk:
                acc = [a + exp[i % n]
                       for a, i in zip(acc, range(k + e * lo, k + e * hi, e))]
            yield [a % p for a in acc]
    elif isinstance(f, SparseShiftPoly):
        log, exp = prime_logexp(p)
        n = p - 1
        const, triples = _fold_shift(f)
        shifted = []
        for a, b, e in triples:
            k = log[a]
            power = [0] + [exp[(k + e * j) % n] for j in log[1:]]  # y -> a*y^e
            shifted.append(power[b:] + power[:b])  # x -> a*(x+b)^e
        for lo in range(0, p, BLOCK):
            acc = [const] * (min(lo + BLOCK, p) - lo)
            for table in shifted:
                acc = list(map(operator.add, acc, table[lo:lo + BLOCK]))
            yield [a % p for a in acc]
    else:  # slp, or not a representation: _ring_blocks raises TypeError
        yield from _ring_blocks(f, _digit_ring(field))


# ---------------------------------------------------------------------------
# Degree accounting and exponent folding
# ---------------------------------------------------------------------------


def degree_bound(f) -> DegreeBound:
    """Degree (exact where the representation allows) or an upper bound."""
    if isinstance(f, DensePoly):
        return DegreeBound(f.degree, True)
    if isinstance(f, SparsePoly):
        return DegreeBound(f.degree, True)
    if isinstance(f, SparseShiftPoly):
        if not f.triples:
            return DegreeBound(0 if f.constant else None, True)
        top = max(e for _, _, e in f.triples)
        lead = 0
        for a, _, e in f.triples:
            if e == top:
                lead = f.field.add(lead, a)
        return DegreeBound(top, lead != 0)
    if isinstance(f, Slp):
        bound = _compile_slp(f, max, max, operator.add, lambda c: 0)
        return DegreeBound(bound(1), False)
    raise TypeError(f"not a polynomial representation: {type(f).__name__}")


def reduce_exponents(f: SparsePoly) -> SparsePoly:
    """Fold exponents through x^q = x; the induced map is unchanged.

    Every exponent e >= 1 becomes 1 + (e-1) mod (q-1), terms with equal
    folded exponents are combined, and the result has degree < q.
    """
    qm1 = f.field.q - 1
    terms = [(c, e if e == 0 else 1 + (e - 1) % qm1) for c, e in f.terms]
    return SparsePoly(f.field, tuple(terms))


# ---------------------------------------------------------------------------
# Dense arithmetic on DensePoly (the list kernel lives in ffield)
# ---------------------------------------------------------------------------


def _same_field(a, b) -> Field:
    if a.field != b.field:
        raise FieldMismatchError("operands belong to different fields")
    return a.field


def dense_add(g: DensePoly, h: DensePoly) -> DensePoly:
    f = _same_field(g, h)
    return DensePoly(f, tuple(_dense_add(f, list(g.coeffs), list(h.coeffs))))


def dense_powmod(g: DensePoly, e: int, h: DensePoly) -> DensePoly:
    f = _same_field(g, h)
    return DensePoly(f, tuple(_dense_powmod(f, list(g.coeffs), e, list(h.coeffs))))


def dense_gcd(g: DensePoly, h: DensePoly) -> DensePoly:
    """Monic gcd; the zero polynomial is absorbed, gcd(0, 0) is an error."""
    f = _same_field(g, h)
    if g.is_zero() and h.is_zero():
        raise ZeroDivisionError("gcd of two zero polynomials")
    return DensePoly(f, tuple(_dense_gcd(f, list(g.coeffs), list(h.coeffs))))


def to_dense(f, cap: int) -> DensePoly:
    """Expand any representation to exact dense coefficients.

    Raises DegreeCapExceededError when the degree bound is above `cap`;
    callers are expected to fall back to evaluation-only methods.
    """
    bound = degree_bound(f).bound
    if bound is not None and bound > cap:
        raise DegreeCapExceededError(
            f"degree bound {bound} exceeds expansion cap {cap}")
    field = f.field
    if isinstance(f, DensePoly):
        return f
    if isinstance(f, SparsePoly):
        if f.is_zero():
            return DensePoly(field, ())
        coeffs = [0] * (f.degree + 1)
        for c, e in f.terms:
            coeffs[e] = c
        return DensePoly(field, tuple(coeffs))
    if isinstance(f, SparseShiftPoly):
        acc = [f.constant] if f.constant else []
        for a, b, e in f.triples:
            term = _ring_pow(partial(_dense_mul, field), [b, 1], e) if e else [1]
            term = [field.mul(a, c) for c in term]
            acc = _dense_add(field, acc, term)
        return DensePoly(field, tuple(acc))
    if isinstance(f, Slp):
        run = _compile_slp(f, partial(_dense_add, field), partial(_dense_sub, field),
                           partial(_dense_mul, field), lambda c: [c] if c else [])
        return DensePoly(field, tuple(run([0, 1])))
    raise TypeError(f"not a polynomial representation: {type(f).__name__}")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r":=|\d+(?:\.\d+)*|[A-Za-z][A-Za-z0-9_]*|[=:,+*^()]")


def _tokenize(text: str):
    """One (tokens, end) pair per line that holds a token.

    tokens are (text, line, column) triples; end is the position just past
    the line's last token, where a parse that runs out of tokens reports
    its error.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = []
        pos = 0
        for match in _TOKEN_RE.finditer(line):
            gap = line[pos:match.start()]
            if gap.strip():
                raise ParseError(f"unexpected character {gap.strip()[0]!r}",
                                 lineno, pos + 1)
            tokens.append((match.group(), lineno, match.start() + 1))
            pos = match.end()
        if line[pos:].strip():
            raise ParseError(f"unexpected character {line[pos:].strip()[0]!r}",
                             lineno, pos + 1)
        if tokens:
            lines.append((tokens, (lineno, pos + 1)))
    return lines


class _TokenStream:
    """Cursor over a token list; past its end it yields (None, *end)."""

    def __init__(self, tokens, end):
        self.tokens = tokens
        self.pos = 0
        self.end = (None, *end)

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return self.end

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, want: str):
        tok, line, col = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {_found(tok)}", line, col)
        return tok

    def at_end(self) -> bool:
        return self.peek()[0] is None


def _found(tok) -> str:
    return "end of input" if tok is None else repr(tok)


# CPython's int() refuses decimal strings of more than 4300 digits
# (sys.get_int_max_str_digits); a number that long is far above desk scale.
MAX_DIGITS = 4300


def check_digits(tok: str, line=None, col=None) -> str:
    """tok, or DeskScaleExceededError if it has more than MAX_DIGITS digits."""
    digits = sum(map(str.isdigit, tok))
    if digits > MAX_DIGITS:
        where = "" if line is None else f" (line {line}, column {col})"
        raise DeskScaleExceededError(
            f"a {digits}-digit integer{where} exceeds the {MAX_DIGITS}-digit cap")
    return tok


def _parse_int(tok, line, col) -> int:
    if tok is None or not tok.isdigit():
        raise ParseError(f"expected an integer, found {_found(tok)}", line, col)
    return int(check_digits(tok, line, col))


def _parse_element(field: Field, tok, line, col) -> int:
    if tok is None or not re.fullmatch(r"\d+(?:\.\d+)*", tok):
        raise ParseError(f"expected a field element, found {_found(tok)}", line, col)
    digits = [int(check_digits(d, line, col)) for d in tok.split(".")]
    if len(digits) > field.m:
        raise FieldMismatchError(
            f"element {tok!r} has {len(digits)} coordinates but m={field.m}")
    if any(d >= field.p for d in digits):
        raise FieldMismatchError(f"element {tok!r} has a digit >= p={field.p}")
    return field.from_coeffs(digits + [0] * (field.m - len(digits)))


def _format_element(field: Field, e: int) -> str:
    if field.m == 1:
        return str(e)
    return ".".join(str(d) for d in field.coeffs(e))


def _parse_header(stream: _TokenStream, kind: str):
    """Read `key=value` pairs, each key at most once.

    An slp header ends with its line and may set mode=; every other header
    ends at ':'.
    """
    end = None if kind == "slp" else ":"
    keys = {}
    while True:
        tok, line, col = stream.next()
        if tok == end or tok is None:
            if tok is None and end == ":":
                raise ParseError("header not terminated by ':'", line, col)
            break
        stream.expect("=")
        if tok in keys:
            raise ParseError(f"repeated header key {tok!r}", line, col)
        if tok in ("p", "m"):
            val, vline, vcol = stream.next()
            keys[tok] = _parse_int(val, vline, vcol)
        elif tok == "mod":
            coeffs = []
            while True:
                val, vline, vcol = stream.next()
                coeffs.append(_parse_int(val, vline, vcol))
                if stream.peek()[0] != ",":
                    break
                stream.next()
            keys["mod"] = coeffs
        elif tok == "mode" and kind == "slp":
            val, vline, vcol = stream.next()
            if val not in (SLP_STRICT, SLP_EXTENDED):
                raise ParseError(f"expected a mode ({SLP_STRICT} or {SLP_EXTENDED}), "
                                 f"found {_found(val)}", vline, vcol)
            keys["mode"] = val
        elif tok == "mode":
            raise ParseError("mode= is only allowed in slp headers", line, col)
        else:
            raise ParseError(f"unknown header key {tok!r}", line, col)
    if "p" not in keys:  # an slp header is its whole line: point at its start
        where = stream.peek()[1:] if end else (line, 1)
        raise ParseError("header is missing p=<prime>", *where)
    return keys


def _field_from_header(keys) -> Field:
    """The header's field.  A prime p with p^m above ENUMERATION_CAP is
    refused before make_field searches for a modulus, since no count can
    enumerate that field; p^m >= 2^m, so m >= ENUMERATION_CAP.bit_length()
    is above the cap without computing p^m."""
    p, m = keys["p"], keys.get("m", 1)
    if is_prime(p) and (m >= ENUMERATION_CAP.bit_length() or p ** m > ENUMERATION_CAP):
        raise OrderTooLargeError(f"q = {p}^{m} exceeds the enumeration cap 2^26")
    try:
        return make_field(p, m, modulus=keys.get("mod"))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_poly(text: str):
    """Parse the one-polynomial text format into a representation."""
    lines = _tokenize(text)
    # Outside slp, line breaks are whitespace; running out of tokens is
    # reported just past the last token.
    stream = _TokenStream([tok for tokens, _ in lines for tok in tokens],
                          lines[-1][1] if lines else (1, 1))
    kind, line, col = stream.next()
    if kind == "dense":
        field = _field_from_header(_parse_header(stream, kind))
        coeffs = []
        while not stream.at_end():
            coeffs.append(_parse_element(field, *stream.next()))
        return DensePoly(field, tuple(coeffs))
    if kind == "sparse":
        field = _field_from_header(_parse_header(stream, kind))
        terms = []
        while not stream.at_end():
            if terms:
                stream.expect("+")
            c = _parse_element(field, *stream.next())
            stream.expect("*")
            stream.expect("x")
            stream.expect("^")
            terms.append((c, _parse_int(*stream.next())))
        return SparsePoly(field, tuple(terms))
    if kind == "shift":
        field = _field_from_header(_parse_header(stream, kind))
        triples = []
        constant = 0
        first = True
        while not stream.at_end():
            if not first:
                stream.expect("+")
            first = False
            if stream.peek()[0] == "const":
                stream.next()
                constant = field.add(constant, _parse_element(field, *stream.next()))
                continue
            a = _parse_element(field, *stream.next())
            stream.expect("*")
            stream.expect("(")
            stream.expect("x")
            stream.expect("+")
            b = _parse_element(field, *stream.next())
            stream.expect(")")
            stream.expect("^")
            triples.append((a, b, _parse_int(*stream.next())))
        return SparseShiftPoly(field, tuple(triples), constant)
    if kind == "slp":
        return _parse_slp(lines)
    raise ParseError(f"expected a polynomial kind (dense, sparse, shift or slp), "
                     f"found {_found(kind)}", line, col)


def _parse_slp(lines) -> Slp:
    """The header line, then one instruction per line, then `out r<i>`."""
    header = _TokenStream(*lines[0])
    header.expect("slp")
    keys = _parse_header(header, "slp")
    field = _field_from_header(keys)
    mode = keys.get("mode", SLP_STRICT)

    def reg_index(tok, line, col, limit):
        if tok is None or not re.fullmatch(r"r\d+", tok):
            raise ParseError(f"expected a register, found {_found(tok)}", line, col)
        idx = int(check_digits(tok[1:], line, col))
        if not 1 <= idx <= limit:
            raise ParseError(f"register {tok} out of range", line, col)
        return idx

    instructions: list[tuple] = []
    output = None
    for tokens, end in lines[1:]:
        lineno = tokens[0][1]
        if output is not None:
            raise ParseError("instructions after 'out'", lineno, 1)
        ls = _TokenStream(tokens, end)
        if ls.peek()[0] == "out":
            ls.next()
            output = reg_index(*ls.next(), len(instructions))
        else:
            idx = reg_index(*ls.next(), len(instructions) + 1)
            if idx != len(instructions) + 1:
                raise ParseError(
                    f"expected r{len(instructions) + 1}, found r{idx}", lineno, 1)
            ls.expect(":=")
            op, oline, ocol = ls.next()
            if op in _SLP_NULLARY:
                instructions.append((op,))
            elif op == "const":
                instructions.append(("const", _parse_int(*ls.next())))
            elif op in ("add", "sub", "mul"):
                j = reg_index(*ls.next(), len(instructions))
                k = reg_index(*ls.next(), len(instructions))
                instructions.append((op, j, k))
            else:
                raise ParseError(f"expected an instruction, found {_found(op)}", oline, ocol)
        rest = ls.peek()
        if rest[0] is not None:
            raise ParseError(f"trailing token {rest[0]!r}", rest[1], rest[2])
    if output is None:
        raise ParseError("missing 'out r<i>' line")
    try:
        return Slp(field, tuple(instructions), output, mode)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _header_text(kind: str, field: Field, mode: str | None = None) -> str:
    parts = [kind, f"p={field.p}"]
    if field.m > 1:
        parts.append(f"m={field.m}")
        parts.append("mod=" + ",".join(str(c) for c in field.modulus))
    if mode is not None:
        parts.append(f"mode={mode}")
    return " ".join(parts)


def serialize_poly(f) -> str:
    """Canonical text form; parse(serialize(f)) reproduces f structurally."""
    field = f.field
    if isinstance(f, DensePoly):
        body = " ".join(_format_element(field, c) for c in f.coeffs) or "0"
        return f"{_header_text('dense', field)}: {body}"
    if isinstance(f, SparsePoly):
        body = " + ".join(
            f"{_format_element(field, c)}*x^{e}" for c, e in f.terms)
        return f"{_header_text('sparse', field)}: {body}".rstrip()
    if isinstance(f, SparseShiftPoly):
        parts = [
            f"{_format_element(field, a)}*(x+{_format_element(field, b)})^{e}"
            for a, b, e in f.triples]
        if f.constant or not parts:
            parts.append(f"const {_format_element(field, f.constant)}")
        return f"{_header_text('shift', field)}: " + " + ".join(parts)
    if isinstance(f, Slp):
        lines = [_header_text("slp", field, f.mode)]
        for i, ins in enumerate(f.instructions, start=1):
            op = ins[0]
            if op in _SLP_NULLARY:
                rhs = op
            elif op == "const":
                rhs = f"const {ins[1]}"
            else:
                rhs = f"{op} r{ins[1]} r{ins[2]}"
            lines.append(f"r{i} := {rhs}")
        lines.append(f"out r{f.output}")
        return "\n".join(lines)
    raise TypeError(f"not a polynomial representation: {type(f).__name__}")
