"""The names the benchmark in bench/ imports, patches or calls still exist.

bench/run.py wraps module attributes in spans at run time and
bench/replay.py and bench/workloads.py call the package directly, so a
rename here would otherwise show only when the benchmark runs.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valueset
from valueset import charsum, cli, counting, ffield, parallel, polyrep, reductions

BOUND = {
    cli: ("main",),
    polyrep: ("parse_poly", "serialize_poly", "evaluator", "evaluate",
              "dense_add", "dense_powmod", "dense_gcd", "to_dense",
              "reduce_exponents", "DensePoly", "SparsePoly", "SparseShiftPoly",
              "Slp"),
    ffield: ("make_field", "Field"),
    counting: ("count_direct", "count_codomain", "count_symmetric",
               "count_hypersurface_points", "has_root"),
    charsum: ("alpha_table", "pattern_table", "pattern_index_table", "coverage"),
    reductions: ("decide_ssp_via_root", "count_ssp_via_valueset",
                 "gamma_image_check", "build_circuit", "build_gamma", "build_beta",
                 "sat_count", "circuit_image_count", "brute_subset_count",
                 "brute_subset_decision", "Cnf3", "SubsetSumInstance"),
    parallel: ("map_chunks", "merge_counters"),
}


@pytest.mark.parametrize("module,name", [(mod, name) for mod, names in BOUND.items()
                                         for name in names],
                         ids=lambda v: getattr(v, "__name__", v))
def test_bound_name_is_callable(module, name):
    assert callable(getattr(module, name))


def test_field_table_build_hook():
    # The traced run replaces Field._build_logexp on the class; field.mul
    # must reach the tables through it.
    assert inspect.isfunction(ffield.Field.__dict__["_build_logexp"])
    assert isinstance(ffield._TABLE_CAP, int)


@pytest.mark.parametrize("p,m", [(7, 1), (3, 4), (257, 2)],
                         ids=["prime", "table", "above-cap"])
def test_field_ops_are_bound_callables(p, m):
    # bench/replay.py times getattr(field, op) on the workload's fields
    field = ffield.make_field(p, m)
    for op in ("add", "mul", "pow"):
        assert callable(getattr(field, op))


def test_first_product_calls_patched_table_build(monkeypatch):
    # bench/run.py patches the class after some fields already exist
    field = ffield.make_field(3, 4)
    calls = []
    build = ffield.Field._build_logexp

    def traced(self):
        calls.append(self.q)
        return build(self)

    monkeypatch.setattr(ffield.Field, "_build_logexp", traced)
    field.mul(1, 1)
    field.mul(2, 3)
    assert calls == [81]


def test_has_root_and_count_codomain_share_the_root_test(monkeypatch):
    # bench/replay.py replays counting.has_root as the kernel rate of a
    # workload whose time is spent in count_codomain: both run one test.
    assert counting.root_test is ffield.root_test
    degrees = []
    build = counting.root_test

    def traced(field, d):
        test = build(field, d)

        def counted(g):
            degrees.append(len(g) - 1)
            return test(g)

        return counted

    monkeypatch.setattr(counting, "root_test", traced)
    f = polyrep.DensePoly(ffield.make_field(7), (3, 0, 0, 2))
    assert not counting.has_root(f)
    assert degrees == [3]
    assert counting.count_codomain(f).cardinality == 3
    assert degrees == [3] * 8


def test_charsum_tables_are_caches():
    # Each pass starts from cold caches and reads hits and misses back.
    for name in ("alpha_table", "pattern_table", "pattern_index_table"):
        table = getattr(charsum, name)
        assert callable(table.cache_clear) and callable(table.cache_info)


@pytest.mark.parametrize("fn", [reductions.count_ssp_via_valueset,
                                reductions.gamma_image_check],
                         ids=lambda fn: fn.__name__)
def test_reduction_entry_points_take_workers(fn):
    assert "workers" in inspect.signature(fn).parameters


def test_map_chunks_signature():
    assert list(inspect.signature(parallel.map_chunks).parameters)[:3] == ["fn", "n", "workers"]


def test_package_does_not_import_parallel():
    # parallel is kept for the benchmark alone: every counter runs one loop
    src = str(Path(valueset.__file__).resolve().parent.parent)
    code = ("import sys, valueset, valueset.cli, valueset.verify; "
            "sys.exit('valueset.parallel' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert proc.returncode == 0
