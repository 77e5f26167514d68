"""Sample inputs: seeded polynomials over every representation, and the
identity circuit."""

from valueset.polyrep import DensePoly, SlpBuilder, SparsePoly, SparseShiftPoly
from valueset.reductions import Nc05Circuit


def sample_polys(field, rng):
    """Zero, a constant, and random members of each representation (strict
    and extended SLPs alike) of degree below q and of degree up to 3q."""
    q = field.q
    yield DensePoly(field, ())
    yield DensePoly(field, (rng.randrange(1, q),))
    yield SparsePoly(field, ())
    yield SparsePoly(field, ((rng.randrange(1, q), 0),))
    yield SparseShiftPoly(field, ())
    yield SparseShiftPoly(field, (), rng.randrange(1, q))
    for top in (q, 3 * q):
        coeffs = [rng.randrange(q) for _ in range(rng.randrange(1, top))]
        yield DensePoly(field, tuple(coeffs) + (rng.randrange(1, q),))
        yield SparsePoly(field, tuple(
            (rng.randrange(q), rng.randrange(top)) for _ in range(4)))
        yield SparseShiftPoly(field, tuple(
            (rng.randrange(q), rng.randrange(q), rng.randrange(top)) for _ in range(3)),
            rng.randrange(q))
    for mode in ("strict", "extended"):
        builder = SlpBuilder(field, mode)
        x = builder.x()
        unit_reg = builder.gen() if field.m > 1 else builder.one()
        zero, c = builder.const(0), builder.const(rng.randrange(1, field.p + 1))
        yield builder.build(zero)
        yield builder.build(c)
        for top in (q, 3 * q):
            term = builder.mul(builder.power(x, rng.randrange(1, top)), c)
            yield builder.build(builder.add(term, unit_reg))


def identity_circuit(n: int) -> Nc05Circuit:
    """The clause-free circuit z_i = x_i (m = 0); its map is the identity."""
    return Nc05Circuit(n=n, m=0,
                       outputs=tuple(frozenset({1 << i}) for i in range(n)))
