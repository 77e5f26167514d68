"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Most criteria are exact-equality properties over fixed grids or seeded
random families; they are exercised through the same verification suites
the `valueset verify` command runs (seed 0), plus a byte-level determinism
check of the CLI itself.  Run with `pytest tests/test_acceptance.py -s` to
see the per-criterion lines.
"""

import hashlib
import json
import time

import pytest

from valueset import cli, verify

SEED = 0
# SHA-256 of `valueset verify all --seed 0` stdout: a change that moves any
# report value, or the layout of the report, changes it.
VERIFY_ALL_SHA256 = "026beed7f928e3c3b357b2fbfbd8456df63926dc9221b0b550854ee03e6cb7bb"


@pytest.fixture(scope="module")
def checks():
    start = time.perf_counter()
    results = {r.name: r for r in verify.run_suites("all", seed=SEED)}
    print(f"\n[acceptance] verification suites completed in "
          f"{time.perf_counter() - start:.1f}s")
    return results


def _criterion(num, description, checks, names):
    missing = [n for n in names if n not in checks]
    assert not missing, f"missing checks: {missing}"
    failed = [checks[n] for n in names if not checks[n].passed]
    cases = sum(checks[n].cases for n in names)
    status = "FAIL" if failed else "PASS"
    print(f"ACCEPTANCE {num:2d} {status}: {description} (cases={cases})")
    assert not failed, [f.line() for f in failed]


def test_criterion_01_three_method_agreement(checks):
    _criterion(1, "direct = codomain = symmetric on 200 seeded polynomials, "
                  "q in {5,7,9,27,49,125,343}, d <= 6",
               checks, ["three_method_agreement_200"])


def test_criterion_02_hypersurface_pipeline(checks):
    _criterion(2, "hypersurface point counts recover N_k (vs brute force and "
                  "histogram) and drive the symmetric count, incl. the "
                  "|F_2| = 19 worked instance",
               checks, ["nk_three_sources_agree",
                        "symmetric_hypersurface_vs_direct",
                        "hypersurface_literal_oracle",
                        "worked_instance_x2_over_F3"])


def test_criterion_03_proof_identities(checks):
    _criterion(3, "omega identity equals 1 for all 1 <= k <= d <= 50; "
                  "Newton and product sigma agree exactly for d <= 200",
               checks, ["omega_identity_d<=50",
                        "sigma_newton_vs_product_d<=200"])


def test_criterion_04_trivial_bounds(checks):
    _criterion(4, "ceil(q/d) <= |V_f| <= q on every report; monomial "
                  "permutation law gcd(k, q-1) = 1 for q <= 64, k <= 20",
               checks, ["trivial_bounds", "monomial_permutation_law_q<=64"])


def test_criterion_05_character_gadget(checks):
    _criterion(5, "all four patterns occur and counts sit inside the Weil "
                  "interval for p in {67,131,257,521,1031}, t = 2; alpha is "
                  "{0,1}-valued on sample primes up to 10^4",
               checks, ["weil_pattern_counts_t=2", "alpha_in_01_and_matches_chi"])


def test_criterion_06_root_reduction(checks):
    _criterion(6, "root-existence reduction agrees with the 2^t oracle on "
                  "the exhaustive t <= 4, a_i <= 20 grid (all b <= sum)",
               checks, ["ssp_decision_grid_t<=4_a<=20"])


def test_criterion_07_counting_reduction(checks):
    _criterion(7, "value-set counting reduction equals the 2^t oracle on the "
                  "t <= 4, a_i <= 12 grid, incl. S={1,2}, b=3 with "
                  "V_f = {0,3} over F_67",
               checks, ["ssp_counting_grid_t<=4_a<=12",
                        "ssp_valueset_structure",
                        "worked_instance_S12_b3"])


def test_criterion_08_bounded_fanin_circuits(checks):
    _criterion(8, "circuit image = 2^(n+m) - 2^(m-1) M for 100 random 3CNFs "
                  "with n, m <= 6; unsatisfiable fixtures permute",
               checks, ["image_formula_100_random_cnfs",
                        "unsat_formulas_give_permutations"])


def test_criterion_09_sparse_gamma(checks):
    _criterion(9, "gamma tracks the circuit coordinatewise on all of "
                  "F_(2^(n+m)) and |V_gamma| hits the image formula, incl. "
                  "the (9,9,9) and (8,8,8) worked triples",
               checks, ["gamma_fidelity_and_image_triple",
                        "gamma_worked_triples"])


def test_criterion_10_determinism(capsys):
    start = time.perf_counter()
    outputs = []
    for workers in (1, 4):
        code = cli.main(["verify", "all", "--seed", str(SEED),
                         "--workers", str(workers)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        outputs.append(captured.out)
    identical = outputs[0] == outputs[1]
    status = "PASS" if identical else "FAIL"
    print(f"ACCEPTANCE 10 {status}: verify-all output byte-identical across "
          f"workers {{1, 4}} at fixed seed "
          f"({time.perf_counter() - start:.1f}s)")
    assert identical
    assert hashlib.sha256(outputs[0].encode()).hexdigest() == VERIFY_ALL_SHA256
    payload = json.loads(outputs[0])
    assert payload["passed"] is True
