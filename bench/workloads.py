"""The three seeded workloads and their correctness gates.

A workload is a fixed job list generated from the seed; the client runs it
in a closed loop (one job at a time, the next only after the previous one
returned).  Jobs are grouped: a group's gate runs after its last job, outside
every timed span, and a failing gate fails every job of the group.  The
field/degree/size structure of each list is fixed and only the drawn
coefficients, clauses and instances depend on the seed, so job costs (and
with them the end-to-end figures) move little from seed to seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random

# Worker count each workload passes to valueset in its timed passes.  All
# are 1: the chunk map runs its workers as threads under one interpreter
# lock, and on a shared 2-CPU machine two threads handing that lock back and
# forth made evaluate's walls ~30% slower and several times noisier between
# runs than one thread.  The traced run of evaluate adds one pass at the
# CLI default os.cpu_count() = 2 for the parallel layer's metrics.
WORKERS = {"methods": 1, "evaluate": 1, "reductions": 1}
PARALLEL_WORKERS = {"evaluate": 2}


@dataclasses.dataclass
class Group:
    jobs: list        # zero-argument callables returning (text, extra)
    check: object     # check(outs, full) -> error string or None


class Context:
    """What jobs share: the imported package, the work directory, hooks."""

    def __init__(self, vs, workdir, workers):
        self.vs = vs
        self.workdir = workdir
        self.workers = workers
        # Histograms returned by counting.count_direct during the current
        # job; filled by a hook run.py installs, read by the gates.
        self.histograms: list = []


def _cli_job(ctx: Context, argv: list[str]):
    def run():
        ctx.histograms.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.vs.cli.main(argv + ["--workers", str(ctx.workers)])
        return f"{code}\n{out.getvalue()}", (code, list(ctx.histograms))
    return run


def _write_poly(ctx: Context, name: str, f) -> str:
    path = ctx.workdir / name
    path.write_text(ctx.vs.polyrep.serialize_poly(f) + "\n")
    return str(path)


def _payload(out) -> dict:
    text, (code, _) = out
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text.split("\n", 1)[1])


def _random_dense(vs, rng, field, d):
    coeffs = [rng.randrange(field.q) for _ in range(d)]
    coeffs.append(rng.randrange(1, field.q))
    return vs.polyrep.DensePoly(field, tuple(coeffs))


# ---------------------------------------------------------------------------
# methods: the three counting routes over small fields, via the CLI
# ---------------------------------------------------------------------------

# (p, m) -> degrees.  The agreement-suite fields of `valueset verify`, then a
# few with q up to ~2e3, d from 2 to 9.  Codomain does almost all of the
# work; degrees shrink as q grows to keep one pass near 4-5 s.  About one
# job in seven is a codomain call of 0.1-0.5 s, so the 90th latency
# percentile falls inside that band rather than on the edge below it.
METHODS_GRID = (
    ((5, 1), (2, 3, 4)),
    ((7, 1), (2, 3, 4, 5)),
    ((3, 2), (3, 6, 9)),
    ((3, 3), (3, 6, 9)),
    ((7, 2), (3, 6, 9)),
    ((5, 3), (3, 6, 9)),
    ((7, 3), (3, 5, 7, 9)),
    ((3, 6), (2, 3)),
    ((31, 2), (2, 3)),
    ((1009, 1), (2, 3, 4)),
    ((2003, 1), (2, 3)),
)
METHODS_TINY = (((5, 1), (2, 3)), ((3, 2), (2, 5)), ((101, 1), (3,)))

# The hypersurface N_k source enumerates q^k tuples for k <= d; it is run
# where q <= 7, with the METHODS_GRID degrees kept under its enumeration cap.
HYPERSURFACE_MAX_Q = 7


def methods(ctx: Context, seed: int, tiny: bool) -> list[Group]:
    vs = ctx.vs
    rng = random.Random(f"{seed}:methods")
    groups = []
    for (p, m), degrees in (METHODS_TINY if tiny else METHODS_GRID):
        field = vs.ffield.make_field(p, m)
        for d in degrees:
            f = _random_dense(vs, rng, field, d)
            path = _write_poly(ctx, f"m{len(groups)}.poly", f)
            argvs = [["count", path, "--method", "direct"],
                     ["count", path, "--method", "codomain"],
                     ["count", path, "--method", "symmetric", "--nk", "histogram"]]
            if field.q <= HYPERSURFACE_MAX_Q:
                argvs.append(["count", path, "--method", "symmetric",
                              "--nk", "hypersurface"])
            groups.append(Group([_cli_job(ctx, a) for a in argvs],
                                _methods_check(vs, f)))
    return groups


def _methods_check(vs, f):
    poly_text = vs.polyrep.serialize_poly(f)
    q = f.field.q

    def check(outs, full):
        payloads = [_payload(o) for o in outs]
        cards = {pl["cardinality"] for pl in payloads}
        if len(cards) != 1:
            return f"methods disagree: {sorted(cards)}"
        if any(pl["poly"] != poly_text for pl in payloads):
            return "report names another polynomial"
        hists = outs[0][1][1]
        if len(hists) != 1 or hists[0].total() != q:
            return "direct histogram does not total q"
        nks = [pl["Nk"] for pl in payloads[2:]]
        if nks[0][0] != str(q) or any(nk != nks[0] for nk in nks):
            return f"N_k sources disagree: {nks}"
        return None

    return check


# ---------------------------------------------------------------------------
# evaluate: direct counts over q ~ 2^13..2^17, all four representations
# ---------------------------------------------------------------------------

REPS = ("dense", "sparse", "shift", "slp")

# (p, m, representations), a representation listed twice giving two
# polynomials.  Prime fields; extensions below ffield._TABLE_CAP (log/exp
# tables, rebuilt by every command: F_2^13, F_5^6, F_3^9); one above it
# (F_257^2, element-by-element polynomial products).  The counts place both
# percentiles inside a band of similar jobs, not on an edge between bands:
# the median among the ~60 ms prime-field sparse and slp jobs, the 90th
# percentile among the six ~0.7 s F_257^2 jobs, which sit above the
# 0.3-0.55 s F_5^6 jobs and below the ~0.75 s F_3^9 one.  There are 43
# jobs, a pass of 7-8.5 s, so a 40 s run has about 200 latency samples.
EVALUATE_GRID = (
    (8191, 1, REPS * 4),
    (16381, 1, REPS * 2),
    (32749, 1, ("dense", "shift", "slp")),
    (65521, 1, ("dense",)),
    (131071, 1, ("dense",)),
    (2, 13, REPS),
    (5, 6, ("dense", "shift", "slp")),
    (3, 9, ("sparse",)),
    (257, 2, ("slp",) * 6),
)
EVALUATE_TINY = ((8191, 1, REPS), (2, 8, ("dense", "sparse")))

DENSE_DEGREE = 4
SLP_OPS = ("mul", "add", "sub", "mul", "add", "mul", "sub", "add")
SAMPLE_POINTS = 3


def _random_poly(vs, rng, field, rep):
    pr = vs.polyrep
    if rep == "dense":
        return _random_dense(vs, rng, field, DENSE_DEGREE)
    if rep == "sparse":
        # Exponents up to 2q, so some are folded through x^q = x.
        terms = [(rng.randrange(1, field.q), rng.randrange(1, 2 * field.q))
                 for _ in range(4)]
        return pr.SparsePoly(field, tuple(terms))
    if rep == "shift":
        triples = [(rng.randrange(1, field.q), rng.randrange(field.q),
                    rng.randrange(2, 41)) for _ in range(3)]
        return pr.SparseShiftPoly(field, tuple(triples), rng.randrange(field.q))
    c = rng.randrange(1, field.p)
    if field.q > vs.ffield._TABLE_CAP:
        # Above the cap each product costs a polynomial multiplication and
        # reduction, so the program is x*x + c: one product per point.
        return pr.Slp(field, (("x",), ("mul", 1, 1), ("const", c), ("add", 2, 3)), 4)
    ins = [("x",), ("const", c), ("const", rng.randrange(1, field.p))]
    if field.m > 1:
        ins.append(("gen",))
    # A fixed instruction sequence on seeded operands keeps the cost per
    # point nearly the same for every seed; three products keep degree <= 8.
    for op in SLP_OPS:
        ins.append((op, rng.randrange(1, len(ins) + 1), rng.randrange(1, len(ins) + 1)))
    return pr.Slp(field, tuple(ins), len(ins))


def evaluate(ctx: Context, seed: int, tiny: bool) -> list[Group]:
    vs = ctx.vs
    rng = random.Random(f"{seed}:evaluate")
    groups = []
    for p, m, reps in (EVALUATE_TINY if tiny else EVALUATE_GRID):
        field = vs.ffield.make_field(p, m)
        for rep in reps:
            f = _random_poly(vs, rng, field, rep)
            path = _write_poly(ctx, f"e{len(groups)}.poly", f)
            points = [rng.randrange(field.q) for _ in range(SAMPLE_POINTS)]
            groups.append(Group(
                [_cli_job(ctx, ["count", path, "--method", "direct"])],
                _evaluate_check(vs, f, points)))
    return groups


def _evaluate_check(vs, f, points):
    poly_text = vs.polyrep.serialize_poly(f)
    q = f.field.q

    def check(outs, full):
        payload = _payload(outs[0])
        hists = outs[0][1][1]
        if payload["poly"] != poly_text:
            return "report names another polynomial"
        if len(hists) != 1:
            return f"expected one histogram, got {len(hists)}"
        hist = hists[0]
        if hist.total() != q:
            return f"histogram totals {hist.total()}, not q = {q}"
        summary = payload["histogram_summary"]
        if (int(payload["cardinality"]) != hist.num_values()
                or summary["num_values"] != hist.num_values()
                or summary["max_preimage"] != hist.max_preimage()):
            return "report disagrees with the histogram it counted"
        if full:
            # Re-evaluate sampled points by dense expansion and Horner's rule
            # (independent of the compiled evaluator the count used), on the
            # count's own field object so its tables are reused.
            g = dataclasses.replace(f, field=hist.field)
            if isinstance(g, vs.polyrep.SparsePoly):
                g = vs.polyrep.reduce_exponents(g)
            dense = vs.polyrep.to_dense(g, q)
            for x in points:
                y = vs.polyrep.evaluate(dense, x)
                if y != vs.polyrep.evaluate(g, x) or hist.entries.get(y, 0) < 1:
                    return f"point {x}: value {y} disagrees with the count"
        return None

    return check


# ---------------------------------------------------------------------------
# reductions: library calls shaped like `valueset verify reductions`
# ---------------------------------------------------------------------------

# Instances per t; the counting sample is dominated by t = 4 (p = 4099).
DECIDE_PER_T = {1: 50, 2: 150, 3: 300, 4: 500}
COUNT_PER_T = {1: 20, 2: 40, 3: 80, 4: 600}
DECIDE_MAX_A = 20
COUNT_MAX_A = 12
# (n, m) of the random 3CNFs, n + m from 8 to 12.
GAMMA_SHAPES = ((4, 4), (5, 4), (5, 5), (6, 5), (6, 6))

DECIDE_TINY = {1: 5, 2: 5, 3: 5, 4: 5}
COUNT_TINY = {1: 3, 2: 3, 3: 3, 4: 3}
GAMMA_TINY = ((3, 2), (4, 4))


def _ssp_sample(vs, rng, per_t, max_a, extra_b):
    for t, count in per_t.items():
        for _ in range(count):
            a = tuple(sorted(rng.randint(1, max_a) for _ in range(t)))
            yield vs.reductions.SubsetSumInstance(a, rng.randint(0, sum(a) + extra_b))


def _random_cnf(vs, rng, n, m):
    # Three distinct variables per clause: a clause drawn with repeats can be
    # a tautology (x or not x), and a formula of tautologies collapses gamma
    # to a dozen terms, making that seed's largest job ~20x cheaper.
    clauses = tuple(
        tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m))
    return vs.reductions.Cnf3(n, clauses)


def _model_count(cnf) -> int:
    count = 0
    for bits in range(1 << cnf.n):
        if all(any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1) for lit in clause)
               for clause in cnf.clauses):
            count += 1
    return count


def reductions(ctx: Context, seed: int, tiny: bool) -> list[Group]:
    vs = ctx.vs
    red = vs.reductions
    rng = random.Random(f"{seed}:reductions")
    groups = []
    for inst in _ssp_sample(vs, rng, DECIDE_TINY if tiny else DECIDE_PER_T,
                            DECIDE_MAX_A, 0):
        def decide(inst=inst):
            r = red.decide_ssp_via_root(inst)
            return f"D {inst.a} {inst.b} {r.answer} {r.witness} {r.p}\n", r
        groups.append(Group([decide], _decide_check(vs, inst)))
    for inst in _ssp_sample(vs, rng, COUNT_TINY if tiny else COUNT_PER_T,
                            COUNT_MAX_A, 1):
        def count(inst=inst):
            r = red.count_ssp_via_valueset(inst, workers=ctx.workers)
            return f"C {inst.a} {inst.b} {r.count} {r.p}\n", r
        groups.append(Group([count], _count_check(vs, inst)))
    for n, m in (GAMMA_TINY if tiny else GAMMA_SHAPES):
        cnf = _random_cnf(vs, rng, n, m)

        def gamma(cnf=cnf):
            r, construction = red.gamma_image_check(cnf, workers=ctx.workers)
            return (f"G {cnf.clauses} {r.sat_assignments} {r.circuit_image} "
                    f"{r.gamma_valueset} {len(construction.gamma.terms)}\n", r)
        groups.append(Group([gamma], _gamma_check(cnf)))
    return groups


def _decide_check(vs, inst):
    def check(outs, full):
        r = outs[0][1]
        if r.answer != vs.reductions.brute_subset_decision(inst):
            return "decision disagrees with the 2^t oracle"
        if full and r.answer:
            beta = vs.reductions.build_beta(inst, r.p)
            if vs.polyrep.evaluate(beta, r.witness) != 0:
                return f"witness {r.witness} is not a root of beta"
        return None
    return check


def _count_check(vs, inst):
    def check(outs, full):
        if outs[0][1].count != vs.reductions.brute_subset_count(inst):
            return "count disagrees with the 2^t oracle"
        return None
    return check


def _gamma_check(cnf):
    n, m = cnf.n, cnf.m

    def check(outs, full):
        r = outs[0][1]
        expected = 2 ** (n + m) - 2 ** (m - 1) * _model_count(cnf)
        if not r.gamma_valueset == r.circuit_image == expected:
            return (f"|V_gamma| = {r.gamma_valueset}, image = {r.circuit_image}, "
                    f"formula = {expected}")
        return None
    return check


WORKLOADS = {"methods": methods, "evaluate": evaluate, "reductions": reductions}
