"""Command-line surface: count, permtest, char, reduce, verify.

stdout carries exactly one machine-readable report; diagnostics go to
stderr.  Exit codes: 0 success, 1 failed verification, 2 malformed input,
3 desk-scale limits exceeded, 4 internal assertion.  A fixed seed makes
every randomized choice reproducible.  --workers is accepted and checked
to be at least 1 but has no effect: every enumeration runs as one serial
loop.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import charsum, counting, polyrep, reductions, verify
from .errors import (
    ClauseTooLongError,
    DegreeCapExceededError,
    DeskScaleExceededError,
    EvenCharacteristicError,
    FieldMismatchError,
    NonIntegralResultError,
    NotMonicError,
    NotPrimeError,
    OrderTooLargeError,
    ParseError,
    PrimeTooSmallError,
    ZeroPolynomialError,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SCALE = 3
EXIT_INTERNAL = 4

_BAD_INPUT = (ParseError, NotPrimeError, FieldMismatchError, NotMonicError,
              ClauseTooLongError, PrimeTooSmallError, ZeroPolynomialError,
              EvenCharacteristicError, ValueError, OSError)
_SCALE = (OrderTooLargeError, DeskScaleExceededError, DegreeCapExceededError)
_INTERNAL = (NonIntegralResultError, AssertionError)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="valueset",
        description="Exact value-set cardinality over finite fields, "
                    "character-pattern statistics, and executable "
                    "subset-sum / 3SAT reductions.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized choices "
                             "(env VALUESET_SEED overrides)")
    common.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="accepted for compatibility and checked to be "
                             ">= 1; has no effect")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--output", default="-",
                        help="output path, '-' for stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common],
                       help="compute |V_f| for a polynomial file")
    p.add_argument("polyfile")
    p.add_argument("--method", choices=counting.METHODS, default="direct")
    p.add_argument("--nk", choices=counting.NK_SOURCES, default="histogram",
                   help="N_k source for the symmetric method")

    p = sub.add_parser("permtest", parents=[common],
                       help="test whether a polynomial permutes F_q")
    p.add_argument("polyfile")
    p.add_argument("--method", choices=counting.METHODS, default="direct")

    p = sub.add_parser("char", parents=[common],
                       help="quadratic-character pattern coverage")
    p.add_argument("action", nargs="?", choices=("coverage", "onto"),
                   default="coverage")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--t", type=int, default=2)

    p = sub.add_parser("reduce", parents=[common],
                       help="run a hardness reduction with its oracle")
    p.add_argument("kind", choices=("ssp-decide", "ssp-count", "sat3"))
    p.add_argument("input")
    p.add_argument("--prime", choices=("smallest", "random"),
                   default="smallest")

    p = sub.add_parser("verify", parents=[common],
                       help="run the property suites")
    p.add_argument("suite", nargs="?",
                   choices=verify.SUITE_NAMES + ("all",), default="all")
    return parser


def _cmd_count(args) -> tuple[dict, int]:
    f = polyrep.parse_poly(Path(args.polyfile).read_text(encoding="utf-8-sig"))
    report = counting.count_value_set(
        f, method=args.method, nk_source=args.nk)
    return report.to_json_dict(f.field, polyrep.serialize_poly(f)), EXIT_OK


def _cmd_permtest(args) -> tuple[dict, int]:
    f = polyrep.parse_poly(Path(args.polyfile).read_text(encoding="utf-8-sig"))
    report = counting.count_value_set(f, method=args.method)
    payload = report.to_json_dict(f.field, polyrep.serialize_poly(f))
    payload["is_permutation"] = report.cardinality == report.q
    return payload, EXIT_OK


def _cmd_char(args) -> tuple[dict, int]:
    cov = charsum.coverage(args.p, args.t)
    if args.action == "onto":
        return {"p": cov.p, "t": cov.t, "onto": cov.onto}, EXIT_OK
    return cov.to_json_dict(), EXIT_OK


def _cmd_reduce(args) -> tuple[dict, int]:
    text = Path(args.input).read_text(encoding="utf-8-sig")
    if args.kind == "sat3":
        cnf = reductions.parse_dimacs(text)
        report, construction = reductions.gamma_image_check(cnf)
        payload = report.to_json_dict(construction.field)
        payload["gamma_terms"] = len(construction.gamma.terms)
        return payload, EXIT_OK
    inst = reductions.parse_ssp(text)
    if args.kind == "ssp-decide":
        decision = reductions.decide_ssp_via_root(
            inst, prime_policy=args.prime, seed=args.seed)
        oracle = reductions.brute_subset_decision(inst)
        payload = {
            "kind": "ssp-decide",
            "instance": {"a": list(inst.a), "b": str(inst.b)},
            "p": None,
            "beta": None,
            "f_slp": None,
            "answer": decision.answer,
            "witness": None if decision.witness is None else str(decision.witness),
            "oracle": oracle,
            "agree": decision.answer == oracle,
        }
        if decision.p is not None:
            payload["p"] = str(decision.p)
            payload["beta"] = polyrep.serialize_poly(
                reductions.build_beta(inst, decision.p))
            payload["f_slp"] = polyrep.serialize_poly(
                reductions.beta_slp(inst, decision.p))
        return payload, EXIT_OK
    result = reductions.count_ssp_via_valueset(
        inst, prime_policy=args.prime, seed=args.seed)
    oracle = reductions.brute_subset_count(inst)
    payload = {
        "kind": "ssp-count",
        "instance": {"a": list(inst.a), "b": str(inst.b)},
        "p": None if result.p is None else str(result.p),
        "beta": None,
        "f_slp": None,
        "answer": str(result.count),
        "oracle": str(oracle),
        "agree": result.count == oracle,
    }
    if result.fpoly is not None:
        payload["beta"] = polyrep.serialize_poly(reductions.build_beta(inst, result.p))
        payload["f_slp"] = polyrep.serialize_poly(result.fpoly.slp())
    return payload, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    results = verify.run_suites(args.suite, seed=args.seed)
    passed = all(r.passed for r in results)
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": passed,
        "results": [
            {"name": r.name, "passed": r.passed, "cases": r.cases,
             "detail": r.detail}
            for r in results
        ],
    }
    return payload, EXIT_OK if passed else EXIT_VERIFY_FAILED


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if "results" in payload:  # verify summary
        lines = [
            verify.CheckResult(r["name"], r["passed"], r["cases"],
                               r["detail"]).line()
            for r in payload["results"]
        ]
        lines.append("OVERALL " + ("PASS" if payload["passed"] else "FAIL"))
        return "\n".join(lines) + "\n"
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "count": _cmd_count,
    "permtest": _cmd_permtest,
    "char": _cmd_char,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("VALUESET_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: VALUESET_SEED={env_seed!r} is not an integer",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
    if args.workers < 1:
        print("error: --workers must be positive", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        payload, code = _HANDLERS[args.command](args)
    except _SCALE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except _INTERNAL as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    text = _render(payload, args.format)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
