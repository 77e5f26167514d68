"""Benchmark for valueset: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload methods|evaluate|reductions \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (see BENCHMARK.json); with --trace 1 they are the per-layer
ones, from spans recorded around calls into each module.  Earlier stdout
lines carry provenance, the per-workload output SHA-256, fail_frac and the
latency sample count.  Details (per-pass walls, cache counters, and the
spans of a traced run) go to .bench_out/ in the checkout.  See
bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import replay
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "ffield", "polyrep", "counting", "charsum", "reductions",
           "parallel")
CHARSUM_CACHES = ("charsum.alpha_table", "charsum.pattern_table",
                  "charsum.pattern_index_table")
SETUP_REPS = 5
# Set-ups timed again after each timed pass, so that the setup_s median
# samples the machine over the whole run, not over its first second.
SETUP_REPS_PER_PASS = 2
# job_p90_ms needs at least ten samples beyond it.
MIN_SAMPLES = 100


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _is_valueset(module_name: str) -> bool:
    return module_name == "valueset" or module_name.startswith("valueset.")


def import_valueset():
    """A fresh import of the package, so every set-up pays the import."""
    for name in [n for n in sys.modules if _is_valueset(n)]:
        del sys.modules[name]
    vs = SimpleNamespace(**{m: importlib.import_module(f"valueset.{m}") for m in MODULES})
    if not Path(vs.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"valueset imported from {vs.cli.__file__}, not {SRC}")
    return vs


def lru_caches(vs) -> dict:
    """Every functools cache in the package, by module-qualified name."""
    out = {}
    for mod_name in MODULES:
        mod = getattr(vs, mod_name)
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                out[f"{mod_name}.{name}"] = obj
    return out


def setup(workload: str, seed: int, workdir: Path, tiny: bool):
    start = time.perf_counter()
    vs = import_valueset()
    ctx = workloads.Context(vs, workdir, workloads.WORKERS[workload])
    groups = workloads.WORKLOADS[workload](ctx, seed, tiny)
    return time.perf_counter() - start, ctx, groups


def retime_setup(workload: str, seed: int, workdir: Path, tiny: bool) -> float:
    """Time one more set-up, then put back the package the passes run on."""
    saved = {n: m for n, m in sys.modules.items() if _is_valueset(n)}
    try:
        return setup(workload, seed, workdir, tiny)[0]
    finally:
        for name in [n for n in sys.modules if _is_valueset(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def install_capture(ctx) -> None:
    """Hand each histogram count_direct returns to the gates (no timing)."""
    original = ctx.vs.counting.count_direct

    def count_direct(*args, **kwargs):
        result = original(*args, **kwargs)
        ctx.histograms.append(result[1])
        return result

    spans.Patcher(getattr(ctx.vs, m) for m in MODULES).replace(original, count_direct)


# ---------------------------------------------------------------------------
# the client: one pass over the job list, closed loop
# ---------------------------------------------------------------------------


class PassResult:
    def __init__(self):
        self.latencies_ns: list[int] = []
        self.texts: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.caches: dict = {}

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_ns) / 1e9


def run_pass(ctx, groups, caches, reference=None, tracer=None) -> PassResult:
    """Run every job once from cold caches; gates run between timed spans."""
    for cache in caches.values():
        cache.cache_clear()
    gc.collect()  # each pass starts from a collected heap, as a fresh command does
    res = PassResult()
    for group in groups:
        outs = []
        ok = True
        for job in group.jobs:
            idx = len(res.texts)
            if tracer is not None:
                tracer.job = idx
            start = time.perf_counter_ns()
            try:
                out = job()
            except Exception:  # a job that raises is a failed job
                out = None
                res.errors.append(f"job {idx}: {traceback.format_exc(limit=3)}")
            res.latencies_ns.append(time.perf_counter_ns() - start)
            outs.append(out)
            res.texts.append("" if out is None else out[0])
            if out is None:
                ok = False
            elif reference is not None and out[0] != reference[idx]:
                res.errors.append(f"job {idx}: output differs from the first pass")
                ok = False
        if ok:
            try:
                err = group.check(outs, reference is None)
            except Exception:
                err = traceback.format_exc(limit=3)
            if err:
                res.errors.append(f"job {len(res.texts) - 1}: {err}")
                ok = False
        res.attempted += len(group.jobs)
        if not ok:
            res.failed += len(group.jobs)
    if tracer is not None:
        tracer.job = None
    res.caches = {name: cache.cache_info()._asdict() for name, cache in caches.items()}
    return res


def run_for(seconds, run_one, min_passes=1):
    """Start passes while the last one would still end within the budget."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_one(len(results)))
        last = time.perf_counter() - t0
        if len(results) >= min_passes and time.perf_counter() - start + last > seconds:
            return results


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


class TraceRun:
    """Spans and counters around calls into each module, for traced passes."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.tracer = spans.Tracer()
        self.registry = replay.Registry()
        self.counters = {"points": 0, "root_tests": 0, "chunks": 0, "gamma_terms": 0}

    def install(self, parallel_only=False) -> spans.Patcher:
        """Wrap every layer, or with parallel_only just the parallel module."""
        vs, tr, cnt = self.ctx.vs, self.tracer, self.counters
        patcher = spans.Patcher(getattr(vs, m) for m in MODULES)

        def wrap(fn, name, on_result=None):
            patcher.replace(fn, tr.wrap(name, fn, on_result))

        if not parallel_only:
            self._install_layers(patcher, wrap)
        map_chunks, merge = vs.parallel.map_chunks, vs.parallel.merge_counters
        traced_merge = tr.wrap("parallel.merge", merge)

        def counted_map_chunks(fn, n, workers):
            parts = map_chunks(fn, n, workers)
            if workers > 1:
                cnt["chunks"] += len(parts)
            return parts

        def merge_counters(parts):
            return traced_merge(parts) if len(parts) > 1 else merge(parts)

        patcher.replace(map_chunks, counted_map_chunks)
        patcher.replace(merge, merge_counters)
        return patcher

    def _install_layers(self, patcher, wrap) -> None:
        vs, reg, cnt = self.ctx.vs, self.registry, self.counters

        def on_direct(args, kwargs, result):
            cnt["points"] += result[0].q
            reg.add_field(result[1].field)

        def on_codomain(args, kwargs, result):
            cnt["root_tests"] += result.q
            reg.add_codomain(args[0])

        def on_gamma(args, kwargs, result):
            cnt["gamma_terms"] += len(result.gamma.terms)

        wrap(vs.cli.main, "cli.main")
        wrap(vs.polyrep.parse_poly, "polyrep.parse")
        wrap(vs.polyrep.serialize_poly, "polyrep.serialize")
        wrap(vs.polyrep.evaluator, "polyrep.compile",
             lambda a, k, r: reg.add_poly(vs, a[0]))
        Field = vs.ffield.Field
        patcher.replace_attr(Field, "_build_logexp",
                             self.tracer.wrap("ffield.table_build", Field._build_logexp))
        wrap(vs.counting.count_direct, "counting.direct", on_direct)
        wrap(vs.counting.count_codomain, "counting.codomain", on_codomain)
        wrap(vs.counting.count_symmetric, "counting.symmetric")
        wrap(vs.counting.count_hypersurface_points, "counting.nk.hypersurface")
        for name in ("alpha_table", "pattern_table", "pattern_index_table", "coverage"):
            wrap(getattr(vs.charsum, name), f"charsum.{name}")
        red = vs.reductions
        wrap(red.decide_ssp_via_root, "reductions.decide")
        wrap(red.count_ssp_via_valueset, "reductions.count")
        wrap(red.gamma_image_check, "reductions.gamma")
        wrap(red.build_circuit, "reductions.gamma.build")
        wrap(red.build_gamma, "reductions.gamma.build", on_gamma)
        wrap(red.sat_count, "reductions.gamma.oracle")
        wrap(red.circuit_image_count, "reductions.gamma.oracle")

    def metrics(self, traced_passes: int) -> dict:
        sp = self.tracer.spans
        own = spans.self_times(sp)
        n = traced_passes

        def select(pred):
            return [i for i, s in enumerate(sp) if pred(s)]

        def named(name):
            return select(lambda s: s[0] == name)

        def self_s(idx):
            return sum(own[i] for i in idx) / 1e9 / n

        def wall_s(idx):
            # concurrent spans (one per worker thread) count once
            return spans.union_ns((sp[i][1], sp[i][2]) for i in idx) / 1e9 / n

        def mean_ms(idx):
            return sum(own[i] for i in idx) / len(idx) / 1e6 if idx else 0.0

        def under(child, parent):
            return select(lambda s: s[0] == child and s[3] is not None
                          and sp[s[3]][0] == parent)

        count_spans = named("reductions.count")
        count_busy = wall_s(count_spans)
        builds = named("ffield.table_build")
        cnt = self.counters
        return {
            "cli.self_ms": mean_ms(named("cli.main")),
            "polyrep.parse_ms": mean_ms(named("polyrep.parse")),
            "polyrep.compile_ms": mean_ms(named("polyrep.compile")),
            "ffield.table_build_s": wall_s(builds),
            "ffield.table_builds": len(builds) / n,
            "counting.direct.busy_s": self_s(named("counting.direct")),
            "counting.codomain.busy_s": self_s(named("counting.codomain")),
            "counting.symmetric.busy_s": self_s(named("counting.symmetric")),
            "counting.nk.hypersurface.busy_s": self_s(named("counting.nk.hypersurface")),
            "counting.direct.points": cnt["points"] / n,
            "counting.codomain.root_tests": cnt["root_tests"] / n,
            "charsum.table_build_s": self_s(select(lambda s: s[0].startswith("charsum."))),
            "reductions.decide.busy_s": self_s(named("reductions.decide")),
            "reductions.decide.instances": len(named("reductions.decide")) / n,
            "reductions.count.busy_s": self_s(count_spans),
            "reductions.count.instances": len(count_spans) / n,
            "reductions.count.direct_share": (
                wall_s(under("counting.direct", "reductions.count")) / count_busy
                if count_busy else 0.0),
            "reductions.gamma.build_s": wall_s(named("reductions.gamma.build")),
            "reductions.gamma.count_s": wall_s(
                under("counting.direct", "reductions.gamma")),
            "reductions.gamma.oracle_s": wall_s(named("reductions.gamma.oracle")),
            "reductions.gamma.terms": cnt["gamma_terms"] / n,
            "parallel.chunks": cnt["chunks"] / n,
            "parallel.merge_s": wall_s(named("parallel.merge")),
        }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def provenance(workload, seed, seconds, trace, workers) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "valueset").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            git_sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workers": workers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small jobs per workload (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "valueset" / "__init__.py").is_file():
        print(f"error: {SRC}/valueset not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


class Runner:
    """One workload's job list, run pass after pass in this process."""

    def __init__(self, ctx, groups):
        self.ctx = ctx
        self.groups = groups
        self.caches = lru_caches(ctx.vs)
        self.reference = None  # the first pass's output texts
        self.passes: list[PassResult] = []

    def run(self, tracer=None) -> PassResult:
        res = run_pass(self.ctx, self.groups, self.caches, self.reference, tracer)
        self.reference = self.reference or res.texts
        self.passes.append(res)
        return res


def end_to_end(runner, seconds, setups, retime) -> dict:
    """Timed passes; retime() set-ups after each one add to setups."""

    def one(i):
        res = runner.run()
        setups.extend(retime() for _ in range(SETUP_REPS_PER_PASS))
        return res

    jobs = sum(len(g.jobs) for g in runner.groups)
    passes = run_for(seconds, one, -(-MIN_SAMPLES // jobs))
    latencies = [ns / 1e6 for p in passes for ns in p.latencies_ns]
    print(f"job_samples {len(latencies)}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "job_p50_ms": statistics.median(latencies),
        "job_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(runner, seconds, seed, parallel_workers):
    """Untraced and traced passes in turn, plus one pass at parallel_workers.

    The parallel pass (evaluate only) wraps just the parallel module, so its
    wall is comparable with the untraced workers = 1 passes.
    """
    ctx = runner.ctx
    workers = ctx.workers
    trace, par_trace = TraceRun(ctx), TraceRun(ctx)
    plain, traced, par = [], [], []

    def one(i):
        if i == 2 and parallel_workers:
            ctx.workers = parallel_workers
            patcher = par_trace.install(parallel_only=True)
            try:
                par.append(runner.run())
            finally:
                patcher.restore()
                ctx.workers = workers
            return par[-1]
        if i % 2 == 0:
            plain.append(runner.run())
            return plain[-1]
        patcher = trace.install()
        try:
            traced.append(runner.run(trace.tracer))
        finally:
            patcher.restore()
        return traced[-1]

    run_for(seconds, one, min_passes=3 if parallel_workers else 2)
    layer = trace.metrics(len(traced))
    if par:
        par_layer = par_trace.metrics(len(par))
        for key in ("parallel.chunks", "parallel.merge_s"):
            layer[key] = par_layer[key]
    for key in ("hits", "misses"):
        layer[f"charsum.cache_{key}"] = statistics.fmean(
            sum(p.caches[name][key] for name in CHARSUM_CACHES) for p in traced)
    plain_wall = statistics.median(p.wall_s for p in plain)
    layer["parallel.efficiency"] = (
        plain_wall / (parallel_workers * par[0].wall_s) if par else 0.0)
    layer["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / plain_wall - 1)
    layer.update(replay.field_rates(ctx.vs, trace.registry, seed))
    layer.update(replay.eval_rates(ctx.vs, trace.registry, seed))
    layer.update(replay.kernel_rates(ctx.vs, trace.registry, seed))
    return layer, trace.tracer.spans + par_trace.tracer.spans


def measure(args, workdir: Path, out_dir: Path) -> int:
    setups = []
    for _ in range(SETUP_REPS):
        seconds, ctx, groups = setup(args.workload, args.seed, workdir, args.tiny)
        setups.append(seconds)
    install_capture(ctx)
    runner = Runner(ctx, groups)
    prov = provenance(args.workload, args.seed, args.seconds, args.trace, ctx.workers)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    details = {"provenance": prov, "setup_s": setups}
    if args.trace:
        values, span_list = per_layer(runner, args.seconds, args.seed,
                                      workloads.PARALLEL_WORKERS.get(args.workload))
        details["spans"] = [
            {"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3],
             "job": s[4], "thread": s[5]} for s in span_list]
    else:
        # a side directory, so the job inputs are not rewritten mid-run
        side = workdir / "setup"
        side.mkdir()
        values = end_to_end(runner, args.seconds, setups, lambda: retime_setup(
            args.workload, args.seed, side, args.tiny))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise AssertionError(f"metrics {sorted(set(values) ^ set(units))} "
                             "are not both computed and declared in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    passes = runner.passes
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    sha = hashlib.sha256("".join(runner.reference).encode()).hexdigest()
    for p in passes:
        for err in p.errors[:5]:
            print(f"FAIL {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(f"output_sha256 {args.workload} {sha}")
    print(f"fail_frac {failed / attempted} ({failed}/{attempted})")
    details.update({
        "output_sha256": sha,
        "passes": [{"wall_s": p.wall_s, "latencies_ns": p.latencies_ns,
                    "failed": p.failed, "caches": p.caches} for p in passes],
        "metrics": metrics,
    })
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(details) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
