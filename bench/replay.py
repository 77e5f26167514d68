"""Layer rates from replaying a workload's own fields and polynomials.

Per-element field operations and per-point evaluation are too hot to wrap
in spans, so the traced run records which fields, polynomials and codomain
inputs the workload touched, then times them here through the public APIs:
Field.add/mul/pow, polyrep.evaluator, counting.has_root,
polyrep.dense_powmod and polyrep.dense_gcd.  Each rate is calls per second,
timed by repeating a fixed seeded item list until a small time budget is
spent; a class the workload never touched reports 0.
"""

from __future__ import annotations

import random
import time

BUDGET_S = 0.25
ITEMS = 128
POINTS_PER_POLY = 16
KEEP_PER_CLASS = 6


class Registry:
    """What the traced passes touched, a few instances per class."""

    def __init__(self):
        self.fields: dict = {}
        self.polys: dict[str, list] = {}
        self.codomain: dict[str, list] = {}

    def add_field(self, field) -> None:
        self.fields.setdefault((field.p, field.m, field.modulus), field)

    def _keep(self, table, key, obj) -> None:
        kept = table.setdefault(key, [])
        if len(kept) < KEEP_PER_CLASS and all(o is not obj for o in kept):
            kept.append(obj)

    def add_poly(self, vs, f) -> None:
        self.add_field(f.field)
        pr = vs.polyrep
        if isinstance(f, pr.DensePoly):
            key = "dense_prime" if f.field.m == 1 else "dense_ext"
        elif isinstance(f, pr.SparsePoly):
            key = "sparse"
        elif isinstance(f, pr.SparseShiftPoly):
            key = "shift"
        else:
            key = "slp"
        self._keep(self.polys, key, f)

    def add_codomain(self, f) -> None:
        self.add_field(f.field)
        self._keep(self.codomain, "prime" if f.field.m == 1 else "ext", f)


def _rate(calls) -> float:
    """Calls per second of a list of zero-argument callables, repeated."""
    if not calls:
        return 0.0
    done = 0
    start = time.perf_counter()
    while True:
        for call in calls:
            call()
        done += len(calls)
        elapsed = time.perf_counter() - start
        if elapsed >= BUDGET_S:
            return done / elapsed


def _op_calls(fields, op, rng, exponent):
    calls = []
    for field in fields:
        fn = getattr(field, op)
        for _ in range(ITEMS // len(fields) or 1):
            a = rng.randrange(1, field.q)
            b = rng.randrange(field.q) if exponent else rng.randrange(1, field.q)
            calls.append(lambda fn=fn, a=a, b=b: fn(a, b))
    return calls


def field_rates(vs, registry: Registry, seed: int) -> dict:
    cap = vs.ffield._TABLE_CAP
    by_add = {"prime": [], "ext_odd": [], "char2": []}
    by_mul = {"prime": [], "ext_table": [], "ext_poly": []}
    for field in registry.fields.values():
        if field.m == 1:
            by_add["prime"].append(field)
            by_mul["prime"].append(field)
            continue
        by_add["char2" if field.p == 2 else "ext_odd"].append(field)
        by_mul["ext_table" if field.q <= cap else "ext_poly"].append(field)
        field.mul(1, 1)  # builds missing log/exp tables before timing
    rng = random.Random(f"{seed}:field-replay")
    out = {}
    for cls, fields in by_add.items():
        out[f"ffield.add_per_s.{cls}"] = _rate(_op_calls(fields, "add", rng, False))
    for cls, fields in by_mul.items():
        out[f"ffield.mul_per_s.{cls}"] = _rate(_op_calls(fields, "mul", rng, False))
    for cls in ("ext_table", "ext_poly"):
        out[f"ffield.pow_per_s.{cls}"] = _rate(
            _op_calls(by_mul[cls], "pow", rng, True))
    return out


def eval_rates(vs, registry: Registry, seed: int) -> dict:
    rng = random.Random(f"{seed}:eval-replay")
    out = {}
    for cls in ("dense_prime", "dense_ext", "sparse", "shift", "slp"):
        calls = []
        for f in registry.polys.get(cls, ()):
            ev = vs.polyrep.evaluator(f)
            calls += [lambda ev=ev, x=rng.randrange(f.field.q): ev(x)
                      for _ in range(POINTS_PER_POLY)]
        out[f"polyrep.eval_points_per_s.{cls}"] = _rate(calls)
    return out


def kernel_rates(vs, registry: Registry, seed: int) -> dict:
    """Root tests gcd(x^q - x mod g, g) on the workload's own g = f - a."""
    rng = random.Random(f"{seed}:kernel-replay")
    pr, counting = vs.polyrep, vs.counting
    out = {}
    pow_s = gcd_s = 0.0
    for cls in ("prime", "ext"):
        gs = []
        for f in registry.codomain.get(cls, ()):
            field = f.field
            for _ in range(POINTS_PER_POLY):
                a = rng.randrange(field.q)
                coeffs = (field.sub(f.coeffs[0], a),) + f.coeffs[1:]
                gs.append(pr.DensePoly(field, coeffs))
        out[f"polyrep.kernel.root_tests_per_s.{cls}"] = _rate(
            [lambda g=g: counting.has_root(g) for g in gs])
        for g in gs:
            field = g.field
            x = pr.DensePoly(field, (0, 1))
            start = time.perf_counter()
            xq = pr.dense_powmod(x, field.q, g)
            mid = time.perf_counter()
            r = pr.dense_add(xq, pr.DensePoly(field, (0, field.sub(0, 1))))
            if not r.is_zero():
                mid2 = time.perf_counter()
                pr.dense_gcd(g, r)
                gcd_s += time.perf_counter() - mid2
            pow_s += mid - start
    out["polyrep.kernel.powmod_share"] = (
        pow_s / (pow_s + gcd_s) if pow_s + gcd_s else 0.0)
    return out
