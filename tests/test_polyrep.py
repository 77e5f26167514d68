"""Representations, parsing, evaluation, degree accounting, dense arithmetic."""

import random

import pytest
from samples import sample_polys

from valueset.errors import (
    DegreeCapExceededError,
    FieldMismatchError,
    ParseError,
)
from valueset.ffield import _dense_mod, _dense_mul, make_field
from valueset.polyrep import (
    DensePoly,
    SlpBuilder,
    SparsePoly,
    SparseShiftPoly,
    Slp,
    degree_bound,
    dense_add,
    dense_gcd,
    dense_powmod,
    evaluate,
    evaluator,
    parse_poly,
    reduce_exponents,
    serialize_poly,
    to_dense,
)

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
F8 = make_field(2, 3)
F9 = make_field(3, 2)
F67 = make_field(67)


def test_parse_alpha_gadget():
    f = parse_poly("sparse p=67: 34*x^33 + 34*x^66")
    assert isinstance(f, SparsePoly)
    assert f.terms == ((34, 33), (34, 66))
    assert f.field.p == 67


def test_parse_dense_little_endian():
    f = parse_poly("dense p=5: 1 0 1")
    assert f.coeffs == (1, 0, 1)
    assert evaluate(f, 2) == 0  # 4 + 1 = 5


def test_parse_trims_trailing_zeros():
    assert parse_poly("dense p=5: 1 0 1 0").coeffs == (1, 0, 1)


def test_parse_rejects_out_of_range_coefficient():
    with pytest.raises(FieldMismatchError):
        parse_poly("dense p=5: 7 0 1")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_poly("dense p=5: 1 $ 1")
    assert err.value.line == 1 and err.value.column is not None
    with pytest.raises(ParseError):
        parse_poly("cubic p=5: 1 2")
    with pytest.raises(ParseError):
        parse_poly("dense q=5: 1")
    with pytest.raises(ParseError) as err:  # mode= belongs to slp headers
        parse_poly("dense p=5 mode=strict: 1 2")
    assert err.value.column == 11
    with pytest.raises(ParseError) as err:  # each header key at most once
        parse_poly("dense p=5 p=7: 1 2")
    assert err.value.column == 11
    # input that runs out of tokens is reported just past its last token
    for text, where, message in [
            ("sparse p=7: 3*x^2 + 5", (1, 22), "expected '*', found end of input"),
            ("sparse p=7: 3*x^2 +  # comment", (1, 20), "found end of input"),
            ("shift p=11: 3*(x+1)^2 + const", (1, 30), "found end of input"),
            ("shift p=11:\n3*(x+1\n\n", (2, 7), "expected ')', found end of input"),
            ("dense p=5", (1, 10), "header not terminated by ':'"),
            ("", (1, 1), "expected a polynomial kind (dense, sparse, shift or slp), "
                         "found end of input"),
            ("slp p=5 mode=", (1, 14), "expected a mode (strict or extended), "
                                      "found end of input"),
            ("slp p=5\nr1 :=\nout r1", (2, 6), "expected an instruction, found end of input")]:
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert (err.value.line, err.value.column) == where, text
        assert message in str(err.value), text


def test_parse_comments_and_whitespace():
    f = parse_poly("# header comment\ndense p=5:   1 0 1   # body comment\n")
    assert f.coeffs == (1, 0, 1)


def test_parse_extension_elements():
    f = parse_poly("dense p=2 m=2 mod=1,1,1: 1.0 0.1")
    assert f.coeffs == (1, 2)
    assert f.field.modulus == (1, 1, 1)
    with pytest.raises(FieldMismatchError):
        parse_poly("dense p=2 m=2 mod=1,1,1: 2.0")


def test_parse_sparse_duplicate_exponents_combine():
    f = parse_poly("sparse p=5: 3*x^2 + 4*x^2")
    assert f.terms == ((2, 2),)
    g = parse_poly("sparse p=5: 3*x^2 + 2*x^2")
    assert g.is_zero()


def test_parse_shift_with_constant():
    f = parse_poly("shift p=11: 3*(x+1)^2 + const 9")
    assert f.triples == ((3, 1, 2),) and f.constant == 9


def test_slp_parse_and_eval():
    text = ("slp p=5 mode=strict\n"
            "r1 := one\nr2 := x\nr3 := mul r2 r2\nr4 := add r3 r1\nout r4")
    f = parse_poly(text)
    assert evaluate(f, 2) == 0  # x^2 + 1 at 2 over F_5


def test_slp_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("slp p=5 mode=strict\nr1 := one\nr2 := x\nout r9")
    with pytest.raises(ParseError):
        parse_poly("slp p=5 mode=strict\nr1 := one\nr2 := x\nr3 := add r3 r1\nout r3")
    with pytest.raises(ParseError):
        parse_poly("slp p=5 mode=strict\nr1 := one\nr2 := x")
    with pytest.raises(ParseError):  # const forbidden in strict mode
        parse_poly("slp p=5 mode=strict\nr1 := one\nr2 := x\nr3 := const 2\nout r3")
    with pytest.raises(ParseError):  # strict programs start one, x
        parse_poly("slp p=5 mode=strict\nr1 := x\nr2 := one\nout r1")
    with pytest.raises(ParseError):  # each header key at most once
        parse_poly("slp p=5 mode=strict mode=extended\nr1 := one\nr2 := x\nout r2")


@pytest.mark.parametrize("text", [
    "dense p=5: 1 0 1",
    "dense p=5: 0",
    "sparse p=67: 34*x^33 + 34*x^66",
    "sparse p=67:",
    "shift p=11: 3*(x+1)^2 + const 9",
    "shift p=11: 3*(x+1)^2 + 5*(x+0)^1",
    "dense p=2 m=2 mod=1,1,1: 1.0 0.1",
    "sparse p=3 m=2 mod=1,0,1: 2.1*x^7",
    "slp p=5 mode=strict\nr1 := one\nr2 := x\nr3 := mul r2 r2\nout r3",
    "slp p=7 mode=extended\nr1 := x\nr2 := const 3\nr3 := sub r1 r2\nout r3",
    "slp p=3 m=2 mod=1,0,1 mode=extended\nr1 := gen\nr2 := x\nr3 := mul r1 r2\nout r3",
    "# comment\ndense p=5\n: 1 0\n\n  # indented comment\n1 4 # tail\n",
    "sparse p=67:\n34*x^33 +\n# between terms\n34*x^66",
    "shift p=11: 3*(x+1)^2\n+ const 9\n",
    "# c\nslp p=5 mode=extended # c\n\nr1 := x # c\n# c\nr2 := const 2\n"
    "r3 := mul r1 r2\n\nout r3\n# c\n",
])
def test_serialize_parse_roundtrip(text):
    f = parse_poly(text)
    assert parse_poly(serialize_poly(f)) == f


def test_serialize_parse_roundtrip_seeded():
    for field in (F5, F67, F8, F9):
        rng = random.Random(field.q)
        for f in sample_polys(field, rng):
            g = parse_poly(serialize_poly(f))
            assert g == f, serialize_poly(f)
            ev_f, ev_g = evaluator(f), evaluator(g)
            assert all(ev_g(x0) == ev_f(x0) for x0 in range(field.q))


def test_evaluate_spec_examples():
    alpha = parse_poly("sparse p=67: 34*x^33 + 34*x^66")
    assert evaluate(alpha, 1) == 1
    slp = Slp(F5, (("one",), ("x",), ("mul", 2, 2), ("add", 3, 1)), 4, "strict")
    assert evaluate(slp, 2) == 0


def test_cross_representation_agreement_exhaustive():
    # x^2 + 1 in all four representations over F_5 and F_9
    for field in (F5, F9):
        dense = DensePoly(field, (1, 0, 1))
        sparse = SparsePoly(field, ((1, 0), (1, 2)))
        shift = SparseShiftPoly(field, ((1, 0, 2),), 1)
        builder = SlpBuilder(field, "extended")
        x = builder.x()
        slp = builder.build(builder.add(builder.mul(x, x), builder.const(1)))
        for x0 in range(field.q):
            want = evaluate(dense, x0)
            assert evaluate(sparse, x0) == want
            assert evaluate(shift, x0) == want
            assert evaluate(slp, x0) == want


def test_cross_representation_random():
    rng = random.Random(5)
    for field in (F7, F9):
        for _ in range(20):
            d = rng.randrange(1, 6)
            coeffs = [rng.randrange(field.q) for _ in range(d)]
            coeffs.append(rng.randrange(1, field.q))
            dense = DensePoly(field, tuple(coeffs))
            sparse = SparsePoly(
                field, tuple((c, e) for e, c in enumerate(coeffs) if c))
            assert to_dense(sparse, 10) == dense
            for x0 in range(field.q):
                assert evaluate(dense, x0) == evaluate(sparse, x0)


def test_degree_bounds():
    assert degree_bound(parse_poly("dense p=5: 1 0 1")) == (2, True)
    assert degree_bound(DensePoly(F5, ())) == (None, True)
    assert degree_bound(SparsePoly(F5, ((3, 10 ** 30),))) == (10 ** 30, True)

    builder = SlpBuilder(F5, "strict")
    reg = builder.x()
    for _ in range(10):
        reg = builder.mul(reg, reg)
    assert degree_bound(builder.build(reg)) == (1024, False)

    cancel = SparseShiftPoly(F7, ((1, 1, 3), (6, 0, 3)))  # (x+1)^3 - x^3
    assert degree_bound(cancel) == (3, False)
    assert to_dense(cancel, 10).degree == 2
    no_cancel = SparseShiftPoly(F7, ((1, 1, 3), (2, 0, 3)))
    assert degree_bound(no_cancel) == (3, True)
    assert degree_bound(SparseShiftPoly(F7, (), 4)) == (0, True)
    assert degree_bound(SparseShiftPoly(F7, (), 0)) == (None, True)


def test_reduce_exponents():
    assert reduce_exponents(SparsePoly(F5, ((1, 5),))).terms == ((1, 1),)
    assert reduce_exponents(SparsePoly(F67, ((1, 66),))).terms == ((1, 66),)
    assert reduce_exponents(SparsePoly(F67, ((1, 67),))).terms == ((1, 1),)


@pytest.mark.parametrize("field", [F9, make_field(5, 2)])
def test_reduce_exponents_preserves_function(field):
    rng = random.Random(field.q)
    for _ in range(15):
        terms = tuple((rng.randrange(1, field.q), rng.randrange(0, 5 * field.q))
                      for _ in range(4))
        f = SparsePoly(field, terms)
        g = reduce_exponents(f)
        assert g.degree is None or g.degree < field.q
        for x in range(field.q):
            assert evaluate(f, x) == evaluate(g, x)


def test_dense_gcd():
    a = DensePoly(F7, (6, 0, 1))  # x^2 - 1
    b = DensePoly(F7, (6, 1))     # x - 1
    g = dense_gcd(a, b)
    assert g.coeffs == (6, 1)
    # gcd divides both and is monic
    assert _dense_mod(F7, list(a.coeffs), list(g.coeffs)) == []
    assert _dense_mod(F7, list(b.coeffs), list(g.coeffs)) == []
    assert g.coeffs[-1] == 1
    with pytest.raises(ZeroDivisionError):
        dense_gcd(DensePoly(F7, ()), DensePoly(F7, ()))


def test_dense_powmod():
    x = DensePoly(F5, (0, 1))
    mod = DensePoly(F5, (1, 0, 1))
    assert dense_powmod(x, 5, mod).coeffs == (0, 1)  # x^5 = x mod x^2+1 over F_5
    assert _dense_mod(F5, [0, 0, 0, 1], [0, 1]) == []
    with pytest.raises(ZeroDivisionError):
        _dense_mod(F5, [0, 1], [])


def test_dense_powmod_vs_naive():
    rng = random.Random(31)
    for _ in range(25):
        field = rng.choice((F5, F7))
        g = DensePoly(field, tuple([rng.randrange(field.q) for _ in range(3)] + [1]))
        base = DensePoly(field, tuple(rng.randrange(field.q) for _ in range(3)))
        e = rng.randrange(0, 65)
        naive = [1]
        for _ in range(e):
            naive = _dense_mod(field, _dense_mul(field, naive, list(base.coeffs)),
                               list(g.coeffs))
        assert dense_powmod(base, e, g).coeffs == tuple(naive)


def test_dense_add_mul():
    a = DensePoly(F5, (1, 2))
    b = DensePoly(F5, (4, 3))
    assert dense_add(a, b).is_zero()  # (1+4, 2+3) vanishes mod 5
    assert _dense_mul(F5, list(a.coeffs), list(b.coeffs)) == [4, 1, 1]


def test_to_dense():
    assert to_dense(SparsePoly(F5, ((1, 2), (1, 0))), 10).coeffs == (1, 0, 1)
    assert to_dense(SparseShiftPoly(F5, ((1, 1, 2),)), 10).coeffs == (1, 2, 1)
    # 2*(x+3)^0 = 2 everywhere
    assert to_dense(SparseShiftPoly(F5, ((2, 3, 0), (1, 1, 2))), 10).coeffs == (3, 2, 1)
    builder = SlpBuilder(F5, "extended")
    reg = builder.power(builder.x(), 2 ** 40)
    with pytest.raises(DegreeCapExceededError):
        to_dense(builder.build(reg), 10 ** 6)


def test_to_dense_slp_matches_eval():
    builder = SlpBuilder(F7, "strict")
    x = builder.x()
    c3 = builder.const(3)
    reg = builder.sub(builder.mul(builder.mul(x, x), x), builder.mul(c3, x))
    slp = builder.build(reg)
    dense = to_dense(slp, 100)
    for x0 in range(7):
        assert evaluate(dense, x0) == evaluate(slp, x0)
    # The samples share one builder per mode, so each program carries the
    # registers of the programs built before it.
    rng = random.Random(7)
    for field in (F5, F67, F9, F8):
        for f in sample_polys(field, rng):
            if not isinstance(f, Slp):
                continue
            dense = to_dense(f, 10 ** 4)
            bound = degree_bound(f).bound
            assert dense.degree is None or bound >= dense.degree
            ev = evaluator(f)
            for x0 in range(field.q):
                acc = 0
                for c in reversed(dense.coeffs):
                    acc = field.add(field.mul(acc, x0), c)
                assert ev(x0) == acc


def test_slp_dead_registers_are_not_computed():
    field = make_field(7)
    calls = []
    mul = field.mul
    object.__setattr__(field, "mul", lambda a, b: calls.append(1) or mul(a, b))
    builder = SlpBuilder(field, "extended")
    x = builder.x()
    builder.power(x, 2 ** 20)  # dead: the output never reads it
    prog = builder.build(builder.add(x, builder.one()))
    assert [evaluate(prog, x0) for x0 in range(7)] == [1, 2, 3, 4, 5, 6, 0]
    assert len(calls) == 0


def test_strict_const_chains():
    rng = random.Random(67)
    for field in (F67, F9):  # over F_9 the chain starts from gen^8 = 1
        for c in [0, 1, field.p - 1] + [rng.randrange(0, 67) for _ in range(20)]:
            builder = SlpBuilder(field, "strict")
            prog = builder.build(builder.const(c))
            values = {evaluate(prog, x0) for x0 in range(field.q)}
            assert values == {c % field.p}
    # One builder, many constants: gen^(q-1) is emitted once and reused.
    builder = SlpBuilder(F9, "strict")
    one = builder.one()
    size = len(builder._instrs)
    assert builder.one() == one and len(builder._instrs) == size
    regs = [(c, builder.const(c)) for c in (0, 1, 2, 2, 1)]
    assert len(builder._instrs) == size + 3  # sub 1 1, then add one one twice
    for c, reg in regs:
        prog = builder.build(reg)
        assert [evaluate(prog, x0) for x0 in range(9)] == [c] * 9


def test_strict_one_in_extension_field():
    # strict programs over F_9 have no ONE; it is built as gen^(q-1)
    builder = SlpBuilder(F9, "strict")
    prog = builder.build(builder.one())
    assert [evaluate(prog, x0) for x0 in range(9)] == [1] * 9
    assert parse_poly(serialize_poly(prog)) == prog
    builder = SlpBuilder(F9, "strict")
    prog = builder.build(builder.power(builder.x(), 0))
    assert [evaluate(prog, x0) for x0 in range(9)] == [1] * 9


def test_builder_power_chain():
    builder = SlpBuilder(F67, "extended")
    prog = builder.build(builder.power(builder.x(), 33))
    for x0 in (0, 1, 2, 63):
        assert evaluate(prog, x0) == pow(x0, 33, 67)


def test_slp_validation():
    with pytest.raises(ValueError):
        Slp(F5, (("x",), ("one",)), 1, "strict")  # wrong strict prefix
    with pytest.raises(ValueError):
        Slp(F5, (("one",), ("x",), ("const", 2)), 3, "strict")
    with pytest.raises(ValueError):
        Slp(F5, (("one",), ("x",), ("add", 3, 1)), 3, "extended")
    with pytest.raises(ValueError):
        Slp(F5, (("gen",),), 1, "extended")  # no generator in a prime field


def test_evaluator_matches_evaluate():
    rng = random.Random(9)
    f = SparsePoly(F9, tuple((rng.randrange(1, 9), rng.randrange(30)) for _ in range(3)))
    ev = evaluator(f)
    for x0 in range(9):
        assert ev(x0) == evaluate(f, x0)


def test_field_mismatch_errors():
    with pytest.raises(FieldMismatchError):
        dense_add(DensePoly(F5, (1,)), DensePoly(F7, (1,)))
    with pytest.raises(FieldMismatchError):
        evaluate(DensePoly(F5, (1, 1)), 9)  # point index outside F_5


def test_fixture_files_roundtrip():
    import pathlib

    fixtures = sorted(pathlib.Path(__file__).parent.glob("fixtures/*.poly"))
    assert len(fixtures) >= 5
    for path in fixtures:
        f = parse_poly(path.read_text())
        assert parse_poly(serialize_poly(f)) == f, path.name
