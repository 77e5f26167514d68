"""Command-line interface: subcommands, exit codes, determinism."""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest
from samples import sample_polys

from valueset import cli
from valueset.errors import NonIntegralResultError
from valueset.ffield import make_field
from valueset.polyrep import serialize_poly


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_count_direct(tmp_path, capsys):
    poly = write(tmp_path, "f.poly", "dense p=3: 0 0 1\n")
    code, out, _ = run_cli(capsys, "count", poly, "--method", "direct")
    assert code == 0
    payload = json.loads(out)
    assert payload["cardinality"] == "2"
    assert payload["method"] == "direct"
    assert payload["histogram_summary"] == {"num_values": 2, "max_preimage": 2}


def test_count_symmetric_hypersurface(tmp_path, capsys):
    poly = write(tmp_path, "f.poly", "dense p=3: 0 0 1\n")
    code, out, _ = run_cli(capsys, "count", poly,
                           "--method", "symmetric", "--nk", "hypersurface")
    assert code == 0
    payload = json.loads(out)
    assert payload["cardinality"] == "2"
    assert payload["Nk"] == ["3", "5"]


def test_count_codomain_permutation(tmp_path, capsys):
    poly = write(tmp_path, "f.poly", "dense p=5: 0 0 0 1\n")
    code, out, _ = run_cli(capsys, "count", poly, "--method", "codomain")
    assert code == 0
    assert json.loads(out)["cardinality"] == "5"


def test_permtest(tmp_path, capsys):
    poly = write(tmp_path, "f.poly", "dense p=5: 0 0 0 1\n")
    code, out, _ = run_cli(capsys, "permtest", poly)
    assert code == 0 and json.loads(out)["is_permutation"] is True
    poly = write(tmp_path, "g.poly", "dense p=7: 0 0 0 1\n")
    code, out, _ = run_cli(capsys, "permtest", poly)
    assert code == 0 and json.loads(out)["is_permutation"] is False


def test_char_coverage_and_onto(capsys):
    code, out, _ = run_cli(capsys, "char", "--p", "67", "--t", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["onto"] is True and sum(payload["counts"]) == 67
    code, out, _ = run_cli(capsys, "char", "onto", "--p", "5", "--t", "1")
    assert code == 0 and json.loads(out) == {"p": 5, "t": 1, "onto": True}
    # windows longer than p + 1 wrap F_p more than once
    code, out, _ = run_cli(capsys, "char", "--p", "3", "--t", "5")
    assert code == 0 and sum(json.loads(out)["counts"]) == 3


def test_char_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "char", "--p", "4", "--t", "1")
    assert code == 2
    assert "prime" in err


def test_parse_error_exit_code(tmp_path, capsys):
    poly = write(tmp_path, "bad.poly", "dense p=5: 9 junk\n")
    code, out, err = run_cli(capsys, "count", poly)
    assert code == 2 and out == "" and err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "/nonexistent/f.poly")
    assert code == 2 and err


def test_scale_error_exit_code(tmp_path, capsys):
    poly = write(tmp_path, "big.poly", "sparse p=67108879: 1*x^2\n")
    code, _, err = run_cli(capsys, "count", poly)
    assert code == 3
    assert "cap" in err
    # a valid polynomial whose degree 1005 exceeds the symmetric-weight cap
    poly = write(tmp_path, "deg.poly", "dense p=1009: " + "0 " * 1005 + "1\n")
    code, out, err = run_cli(capsys, "count", poly, "--method", "symmetric")
    assert code == 3 and out == ""
    assert "cap" in err


@pytest.mark.parametrize("header", ["dense p=2 m=512", "dense p=3 m=200"])
def test_field_above_cap_exits_before_modulus_search(tmp_path, capsys, header):
    # no modulus of degree m is searched for: a field whose count could
    # never run is refused from its header
    poly = write(tmp_path, "big.poly", header + ": 1 1\n")
    for command in ("count", "permtest"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, poly)
        assert code == 3 and out == "" and "cap" in err
        assert time.perf_counter() - start < 5


@pytest.mark.parametrize("kind,text", [
    ("ssp-decide", "ssp b=1\n1" + "0" * 1500 + "\n"),
    ("ssp-count", "ssp b=1\n1" + "0" * 1500 + "\n"),
    ("sat3", "p cnf 60000 1\n1 2 3 0\n"),
])
def test_reduce_above_desk_scale_exits_before_work(tmp_path, capsys, kind, text):
    # no prime above 10^1500 is searched for, and no 60002-output circuit built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "reduce", kind, write(tmp_path, "big.in", text))
    assert code == 3 and out == "" and "cap" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("command,text", [
    (["reduce", "ssp-decide"], "ssp b=1\n1" + "0" * 5000 + "\n"),
    (["reduce", "ssp-count"], "ssp b=1" + "0" * 4300 + "\n3 5\n"),
    (["count"], "dense p=1" + "0" * 4999 + ": 1 1\n"),
    (["count"], "sparse p=2 m=3: 1*x^" + "0" * 4300 + "1\n"),
    (["count"], "dense p=3 m=2: 1.1" + "0" * 4300 + "\n"),
    (["count"], "slp p=5 mode=extended\nr1 := x\nout r" + "1" * 4301 + "\n"),
    (["reduce", "sat3"], "p cnf 3 1" + "0" * 4300 + "\n1 2 3 0\n"),
])
def test_integer_above_digit_cap_exits_3(tmp_path, capsys, command, text):
    # CPython's int() refuses more than 4300 digits; the parsers refuse
    # such a number as above desk scale first, in one stderr line
    code, out, err = run_cli(capsys, *command, write(tmp_path, "huge.in", text))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "4300-digit cap" in err


def test_consecutive_calls_print_what_lone_calls_print(tmp_path, capsys):
    # the parser is built once per process; a call must not see another
    # call's subcommand, options or defaults
    poly = write(tmp_path, "f.poly", "dense p=7: 1 0 0 1\n")
    ssp = write(tmp_path, "i.ssp", "ssp b=5\n2 3 4\n")
    calls = [
        ["count", poly, "--method", "codomain", "--format", "text"],
        ["count", poly],
        ["char", "onto", "--p", "7", "--t", "3"],
        ["char", "--p", "11"],
        ["verify", "identities", "--workers", "0"],
        ["reduce", "ssp-decide", ssp, "--prime", "random", "--seed", "3"],
        ["reduce", "ssp-decide", ssp],
        ["permtest", poly, "--method", "symmetric"],
        ["count", poly, "--nk", "hypersurface", "--method", "symmetric"],
        ["count", poly],
    ]
    lone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        lone.append(run_cli(capsys, *argv))
    assert [run_cli(capsys, *argv) for argv in calls] == lone
    assert lone[1] == lone[-1] and lone[0] != lone[1] and lone[5] != lone[6]


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NonIntegralResultError("forced")

    monkeypatch.setattr(cli.counting, "count_value_set", boom)
    poly = write(tmp_path, "f.poly", "dense p=3: 0 0 1\n")
    code, _, err = run_cli(capsys, "count", poly)
    assert code == 4 and "forced" in err


def test_reduce_ssp_decide(tmp_path, capsys):
    inst = write(tmp_path, "i.ssp", "ssp b=4\n2 3\n")
    code, out, _ = run_cli(capsys, "reduce", "ssp-decide", inst)
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is False and payload["oracle"] is False
    assert payload["agree"] is True
    assert payload["beta"].startswith("shift p=67:")
    assert payload["f_slp"].startswith("slp p=67")


def test_reduce_ssp_count(tmp_path, capsys):
    inst = write(tmp_path, "i.ssp", "ssp b=3\n1 2\n")
    code, out, _ = run_cli(capsys, "reduce", "ssp-count", inst)
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == "1" and payload["oracle"] == "1"
    assert payload["agree"] is True and payload["p"] == "67"


def test_reduce_ssp_count_shortcircuit(tmp_path, capsys):
    inst = write(tmp_path, "i.ssp", "ssp b=9\n2 3\n")
    code, out, _ = run_cli(capsys, "reduce", "ssp-count", inst)
    payload = json.loads(out)
    assert code == 0 and payload["answer"] == "0"
    assert payload["p"] is None and payload["beta"] is None


def test_reduce_ssp_decide_target_above_sum(tmp_path, capsys):
    # 12 = 1 (mod 11) = a_1 (mod p), but no subset of {1} sums to 12
    inst = write(tmp_path, "i.ssp", "ssp b=12\n1\n")
    code, out, _ = run_cli(capsys, "reduce", "ssp-decide", inst)
    payload = json.loads(out)
    assert code == 0
    assert payload["answer"] is False and payload["oracle"] is False
    assert payload["agree"] is True and payload["witness"] is None
    assert payload["p"] is None and payload["beta"] is None
    assert payload["f_slp"] is None


# SHA-256 of the stdout of both subset-sum reductions, both prime policies
# and both formats, over the seeded b <= sum(a) instances of the test below.
SSP_OUTPUTS_SHA256 = "bb52b7871e59e15b81c926aa0be989109c732a1d1ffde2cbdd0e5bba797832bd"


def test_reduce_ssp_outputs_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("VALUESET_SEED", raising=False)
    rng = random.Random(9)
    digest = hashlib.sha256()
    runs = 0
    for t in (1, 1, 2, 2, 3, 3, 4, 4):
        a = [rng.randint(1, 12) for _ in range(t)]
        for b in (0, 1, rng.randint(0, sum(a)), sum(a)):
            inst = write(tmp_path, "i.ssp", f"ssp b={b}\n{' '.join(map(str, a))}\n")
            for kind in ("ssp-decide", "ssp-count"):
                for prime in (("--prime", "smallest"),
                              ("--prime", "random", "--seed", "7")):
                    for fmt in ("json", "text"):
                        code, out, _ = run_cli(capsys, "reduce", kind, inst,
                                               *prime, "--format", fmt)
                        assert code == 0
                        digest.update(out.encode())
                        runs += 1
    assert runs == 256
    assert digest.hexdigest() == SSP_OUTPUTS_SHA256


def test_reduce_sat3(tmp_path, capsys):
    cnf = write(tmp_path, "one.cnf", "p cnf 3 1\n1 2 3 0\n")
    code, out, _ = run_cli(capsys, "reduce", "sat3", cnf)
    assert code == 0
    payload = json.loads(out)
    assert (payload["gamma_valueset"], payload["circuit_image"],
            payload["expected_image"]) == ("9", "9", "9")
    assert payload["agree"] is True
    # the same formula with a SATLIB "%" / "0" trailer
    cnf = write(tmp_path, "uf.cnf", "c SATLIB\np cnf 3 1\n1 2 3 0\n%\n0\n")
    code, satlib_out, _ = run_cli(capsys, "reduce", "sat3", cnf)
    assert code == 0 and json.loads(satlib_out) == payload


def test_reduce_random_prime_policy_seeded(tmp_path, capsys):
    inst = write(tmp_path, "i.ssp", "ssp b=3\n1 2\n")
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "reduce", "ssp-decide", inst,
                               "--prime", "random", "--seed", "9")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["agree"] is True


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {r["name"] for r in payload["results"]} == {
        "omega_identity_d<=50", "sigma_newton_vs_product_d<=200"}


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--format", "text")
    assert code == 0
    assert out.splitlines()[-1] == "OVERALL PASS"
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])


def test_verify_worker_determinism(capsys):
    _, out1, _ = run_cli(capsys, "verify", "identities", "--workers", "1")
    _, out4, _ = run_cli(capsys, "verify", "identities", "--workers", "4")
    assert out1 == out4


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VALUESET_SEED", "1234")
    code, out, _ = run_cli(capsys, "verify", "identities")
    assert code == 0 and json.loads(out)["seed"] == 1234
    monkeypatch.setenv("VALUESET_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "verify", "identities")
    assert code == 2 and "VALUESET_SEED" in err


def test_output_file(tmp_path, capsys):
    poly = write(tmp_path, "f.poly", "dense p=3: 0 0 1\n")
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "count", poly, "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["cardinality"] == "2"


def test_text_format_count(tmp_path, capsys):
    poly = write(tmp_path, "f.poly", "dense p=3: 0 0 1\n")
    code, out, _ = run_cli(capsys, "count", poly, "--format", "text")
    assert code == 0
    assert "cardinality: 2" in out


def test_bad_workers(capsys):
    code, _, err = run_cli(capsys, "verify", "identities", "--workers", "0")
    assert code == 2 and "workers" in err


@pytest.mark.parametrize("p,m", [(5, 1), (13, 1), (3, 2), (2, 3), (2, 2)],
                         ids=lambda v: str(v))
def test_count_samples_exit_zero_and_methods_agree(tmp_path, capsys, p, m):
    field = make_field(p, m)
    for i, f in enumerate(sample_polys(field, random.Random(f"cli-sweep:{p}:{m}"))):
        poly = write(tmp_path, f"f{i}.poly", serialize_poly(f) + "\n")
        cards = set()
        for method in ("direct", "codomain", "symmetric"):
            code, out, err = run_cli(capsys, "count", poly, "--method", method)
            assert code == 0, (serialize_poly(f), method, err)
            cards.add(json.loads(out)["cardinality"])
        assert len(cards) == 1, (serialize_poly(f), cards)


FIXTURES = Path(__file__).parent / "fixtures"
FUZZ_SAMPLES = [  # (argv before the input path, text)
    *((["count"], path.read_text()) for path in sorted(FIXTURES.glob("*.poly"))),
    (["reduce", "ssp-decide"], "ssp b=5\n2 3 4\n"),
    (["reduce", "ssp-count"], "ssp b=3\n1 2\n"),
    (["reduce", "sat3"], "p cnf 3 1\n1 2 3 0\n"),
    (["reduce", "sat3"], "c SATLIB\np cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n"),
]
FUZZ_BYTES = "0123456789 \n\t:=,.+-*^()#xrcpmgonstdeuf"


def mutate(rng, text):
    """text with one or two seeded edits: a character deleted, doubled,
    replaced or inserted, two neighbours swapped, or a line dropped or
    doubled."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) or 1)
        kind = rng.randrange(6)
        if kind == 0:
            text = text[:i] + text[i + 1:]
        elif kind == 1:
            text = text[:i] + text[i:i + 1] + text[i:]
        elif kind in (2, 3):
            text = text[:i] + rng.choice(FUZZ_BYTES) + text[i + (kind == 2):]
        elif kind == 4:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
        else:
            lines = text.splitlines(keepends=True) or [""]
            j = rng.randrange(len(lines))
            lines[j:j + 1] = [] if rng.random() < 0.5 else [lines[j]] * 2
            text = "".join(lines)
    return text


def test_cli_input_fuzz(tmp_path, capsys):
    # seeded mutations of the fixtures and of ssp/cnf samples: every run
    # exits 0, 2 (malformed) or 3 (desk scale); an error is one stderr
    # line with nothing on stdout
    rng = random.Random("cli-fuzz")
    start = time.perf_counter()
    for i in range(300):
        argv, text = rng.choice(FUZZ_SAMPLES)
        text = mutate(rng, text)
        path = write(tmp_path, f"in{i}", text)
        code, out, err = run_cli(capsys, *argv, path)
        assert code in (0, 2, 3), (argv, text, code, err)
        if code:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (text, err)
        else:
            json.loads(out)
    assert time.perf_counter() - start < 5


def test_utf8_bom_reads_as_without(tmp_path, capsys):
    # a leading UTF-8 byte order mark changes neither stdout nor the exit
    # code of count, permtest or reduce
    cases = [([command], path.read_text()) for command in ("count", "permtest")
             for path in sorted(FIXTURES.glob("*.poly"))]
    cases += [(["reduce", "ssp-count"], "ssp b=3\n1 2\n"),
              (["reduce", "sat3"], "c SATLIB\np cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n")]
    for i, (argv, text) in enumerate(cases):
        plain = tmp_path / f"plain{i}"
        plain.write_bytes(text.encode())
        marked = tmp_path / f"bom{i}"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = run_cli(capsys, *argv, str(plain))
        assert want[0] == 0, (argv, text, want)
        assert run_cli(capsys, *argv, str(marked))[:2] == want[:2], (argv, text)
