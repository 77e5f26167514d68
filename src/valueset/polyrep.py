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
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

from .errors import (
    DegreeCapExceededError,
    FieldMismatchError,
    ParseError,
)
from .ffield import (
    Field,
    _dense_add,
    _dense_gcd,
    _dense_mod,
    _dense_mul,
    _dense_pow,
    _dense_powmod,
    _dense_sub,
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


def block_values(f):
    """f's values at all q points of its field, one list per block.

    Every point contributes one value to one list, in no fixed order.
    Over an extension field the compiled evaluator is mapped over each
    block of points.  Over F_p each representation has a list kernel.
    Dense: Horner's rule over a block of points.  Sparse: x = g^j walks
    F_p^* for a primitive root g, term c*x^e reads
    exp[(log c + e*j) mod (p-1)], and x = 0 takes the constant term.
    Shift: the map y -> a*y^e is tabulated once per triple through the
    log table and rotated by b.  Slp: the program's registers are lists.
    The log/exp tables are built per call, for sparse and shift inputs only.
    """
    field = f.field
    if field.m != 1:
        ev, q = evaluator(f), field.q
        for lo in range(0, q, BLOCK):
            yield list(map(ev, range(lo, min(lo + BLOCK, q))))
        return
    p = field.p
    if isinstance(f, DensePoly):
        top, *rest = f.coeffs[::-1] or (0,)
        for lo in range(0, p, BLOCK):
            xs = range(lo, min(lo + BLOCK, p))
            acc = [top] * len(xs)
            for c in rest:
                acc = [(a * x + c) % p for a, x in zip(acc, xs)]
            yield acc
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
        const = f.constant
        shifted = []
        for a, b, e in f.triples:
            if not e:  # a*(x+b)^0 = a everywhere, 0^0 = 1 included
                const += a
                continue
            e = 1 + (e - 1) % n
            k = log[a]
            power = [0] + [exp[(k + e * j) % n] for j in log[1:]]  # y -> a*y^e
            shifted.append(power[b:] + power[:b])  # x -> a*(x+b)^e
        for lo in range(0, p, BLOCK):
            acc = [const] * (min(lo + BLOCK, p) - lo)
            for table in shifted:
                acc = list(map(operator.add, acc, table[lo:lo + BLOCK]))
            yield [a % p for a in acc]
    elif isinstance(f, Slp):
        def add(u, v):
            return [(a + b) % p for a, b in zip(u, v)]

        def sub(u, v):
            return [(a - b) % p for a, b in zip(u, v)]

        def mul(u, v):
            return [a * b % p for a, b in zip(u, v)]

        # A constant register is one full block; zip cuts it to the points.
        run = _compile_slp(f, add, sub, mul, lambda c: [c] * BLOCK)
        for lo in range(0, p, BLOCK):
            xs = range(lo, min(lo + BLOCK, p))
            yield run(xs)[:len(xs)]
    else:
        raise TypeError(f"not a polynomial representation: {type(f).__name__}")


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


def dense_mul(g: DensePoly, h: DensePoly) -> DensePoly:
    f = _same_field(g, h)
    return DensePoly(f, tuple(_dense_mul(f, list(g.coeffs), list(h.coeffs))))


def dense_mod(g: DensePoly, h: DensePoly) -> DensePoly:
    f = _same_field(g, h)
    return DensePoly(f, tuple(_dense_mod(f, list(g.coeffs), list(h.coeffs))))


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
            term = _dense_pow(field, [b, 1], e)
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


def _parse_int(tok, line, col) -> int:
    if tok is None or not tok.isdigit():
        raise ParseError(f"expected an integer, found {_found(tok)}", line, col)
    return int(tok)


def _parse_element(field: Field, tok, line, col) -> int:
    if tok is None or not re.fullmatch(r"\d+(?:\.\d+)*", tok):
        raise ParseError(f"expected a field element, found {_found(tok)}", line, col)
    digits = [int(d) for d in tok.split(".")]
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
    try:
        return make_field(keys["p"], keys.get("m", 1), modulus=keys.get("mod"))
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
        idx = int(tok[1:])
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
