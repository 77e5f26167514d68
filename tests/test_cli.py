"""Command-line interface: subcommands, exit codes, determinism."""

import hashlib
import json
import random

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
