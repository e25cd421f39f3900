import argparse
import hashlib
import json
import os
import runpy
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from apnforge.cli import _build_parser, run
from apnforge.field import create_field
from apnforge.poly import UniPoly, parse_unipoly
from apnforge.screen import replay_trace, screen_exceptional


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _verb_parsers() -> dict:
    (verbs,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return verbs.choices


def assert_usage_error(code, out, err, verb, refused):
    # an option the verb does not take is refused by the verb's own parser,
    # which names it and prints the verb's example
    assert code == 2
    assert out == ""
    assert f"apnforge {verb}: error: unrecognized arguments: {refused}\n" in err
    assert err.endswith(f"example: {_verb_parsers()[verb].example}\n")


def test_phi_monomial_plain(capsys):
    code, out, _ = invoke(capsys, "phi", "--j", "5")
    assert code == 0
    assert out == "x^2+x*y+x*z+y^2+y*z+z^2\n"


def test_phi_json(capsys):
    code, out, _ = invoke(capsys, "phi", "--j", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"j": 3, "surface": "1"}


def test_phi_requires_exactly_one_source(capsys):
    code, _, err = invoke(capsys, "phi", "--j", "5", "--poly", "x^3")
    assert code == 3
    assert "exactly one" in err
    code, _, _ = invoke(capsys, "phi")
    assert code == 3


def test_apn_json(capsys):
    code, out, _ = invoke(capsys, "apn", "--n", "10", "--poly", "x^3")
    assert code == 0
    payload = json.loads(out)
    assert payload["apn"] is True
    assert payload["uniformity"] == 2


def test_coprime_verb(capsys):
    code, out, _ = invoke(capsys, "coprime", "--k", "4", "--d", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "k": 4,
        "d": 5,
        "formula": False,
        "bruteforce": False,
        "agree": True,
    }


def test_coprime_even_d_has_null_formula(capsys):
    code, out, _ = invoke(capsys, "coprime", "--k", "2", "--d", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["formula"] is None
    assert payload["agree"] is None
    assert payload["bruteforce"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--k", "0", "--d", "5"],
        ["--k", "25", "--d", "5"],
        ["--k", "4", "--d", "2"],
        ["--k", "4", "--d", "65537"],
        ["--k", "2", "--d", "5", "--n", "3"],
    ],
)
def test_coprime_out_of_range_exits_3(capsys, argv):
    code, out, err = invoke(capsys, "coprime", *argv)
    if "--n" in argv:  # coprime builds no field, so it takes no --n to check against k
        assert_usage_error(code, out, err, "coprime", "--n 3")
        return
    assert code == 3
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "k, d, formula, brute",
    [(4, 257, False, False), (4, 512, None, False), (24, 65535, True, True)],
)
def test_coprime_answers_up_to_degree_cap(capsys, k, d, formula, brute):
    code, out, _ = invoke(capsys, "coprime", "--k", str(k), "--d", str(d))
    assert code == 0
    payload = json.loads(out)
    assert (payload["formula"], payload["bruteforce"]) == (formula, brute)


@pytest.mark.parametrize(
    "argv",
    [
        ["coprime", "--k", "2", "--d", "5", "--n", "4"],
        ["gold", "--k", "3", "--n", "6"],
        ["gold", "--k", "3", "--modulus", "0xb"],
        ["phi", "--n", "5", "--poly", "x^9+0x3*x^5+0x6*x^3", "--modulus", "0x25"],
    ],
    ids=["coprime-n", "gold-n", "gold-modulus", "phi-modulus"],
)
def test_field_free_verbs_refuse_field_options(capsys, argv):
    # coprime's gcd builds no field, the Gold product has GF(2) coefficients
    # and phi_f's are XOR sums of f's: no output could depend on these values
    code, out, err = invoke(capsys, *argv)
    assert_usage_error(code, out, err, argv[0], " ".join(argv[-2:]))


@pytest.mark.parametrize("verb", sorted(_verb_parsers()))
def test_usage_example_runs(capsys, verb):
    # the example printed after a usage error must itself be a working command
    argv = shlex.split(_verb_parsers()[verb].example)
    assert argv[:2] == ["apnforge", verb]
    code, _, err = invoke(capsys, *argv[1:])
    assert code == 0, err


def test_python_m_apnforge_runs_the_cli(capsys):
    argv = ["coprime", "--k", "4", "--d", "5"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "apnforge", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    code, out, _ = invoke(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out


@pytest.mark.parametrize(
    "argv",
    [["--k", "0", "--n", "4"], ["--k", "-1", "--n", "4"], ["--k", "0"], ["--k", "25"]],
)
def test_audit_k_out_of_range_exits_3(capsys, argv):
    code, out, err = invoke(capsys, "audit", *argv, "--m", "7")
    assert code == 3
    assert out == ""
    assert err == f"error: k must be in 1..24, got {argv[1]}\n"


def test_python_m_apnforge_answers_k24_at_once(capsys):
    # the audit walks GF(2^ord_g(2)), here GF(2), not GF(2^24); the Gold-form
    # gcd reduces t^(2^24) modulo the folded gcd, not modulo Q_d
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv, want in (
        (
            ["audit", "--k", "24", "--m", "7"],
            '{"clean": true, "entrants": [], "gold_case": false, "i": 1, "k": 24, '
            '"l": 3, "m": 7, "violations": []}\n',
        ),
        (["coprime", "--k", "24", "--d", "62225"], None),
    ):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "apnforge", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        if want is None:
            code, want, _ = invoke(capsys, *argv)
            assert code == 0
        assert proc.stdout == want


def test_gold_verb(capsys):
    code, out, _ = invoke(capsys, "gold", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 5
    assert payload["matches_monomial_surface"] is True
    assert payload["surface"] == "x^2+x*y+x*z+y^2+y*z+z^2"


@pytest.mark.parametrize("k", ["0", "25", "-1"])
def test_gold_k_out_of_range_exits_3(capsys, k):
    code, out, err = invoke(capsys, "gold", "--k", k)
    assert code == 3
    assert out == ""
    assert err == f"error: k must be in 1..24, got {k}\n"


def test_gold_refuses_over_budget_before_multiplying(capsys, monkeypatch):
    # the product equals phi_1025, about 5*10^5 terms, above PHI_WORK_BUDGET
    def unreachable(*args, **kwargs):
        raise AssertionError("gold multiplied a linear form")

    monkeypatch.setattr("apnforge.phi.tri_mul", unreachable)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "gold", "--k", "10")
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_ddt_csv_lf_endings(capsys):
    code, out, _ = invoke(capsys, "ddt", "--n", "4", "--poly", "x^3", "--format", "csv")
    assert code == 0
    assert out == "count,frequency\n0,120\n2,120\n"
    assert "\r" not in out


def test_ddt_json_full_table(capsys):
    code, out, _ = invoke(
        capsys, "ddt", "--n", "3", "--poly", "x^3", "--full", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["apn"] is True
    assert len(payload["table"]) == 7
    row = payload["table"]["1"]
    assert sum(row.values()) == 8


def test_ddt_json_quadratic_bytes(capsys):
    poly = "0x3*x^5+x^3+x+0x6*x^0"  # weight <= 2: the rank path, unless --full
    histogram = (
        '"histogram": [{"count": 0, "frequency": 34}, {"count": 2, "frequency": 16}, '
        '{"count": 4, "frequency": 6}], "modulus": "0xb", "n": 3, "poly": "0x3*x^5+x^3+x+0x6*x^0"'
    )
    table = (
        '"table": {"1": {"0": 2, "1": 2, "2": 2, "3": 2}, "2": {"0": 2, "1": 2, "2": 2, "3": 2}, '
        '"3": {"0": 4, "1": 4}, "4": {"4": 2, "5": 2, "6": 2, "7": 2}, "5": {"4": 4, "7": 4}, '
        '"6": {"5": 4, "7": 4}, "7": {"4": 2, "5": 2, "6": 2, "7": 2}}'
    )
    code, out, _ = invoke(capsys, "ddt", "--n", "3", "--poly", poly, "--full", "--format", "json")
    assert code == 0
    assert out == '{"apn": false, ' + histogram + ", " + table + ', "uniformity": 4}\n'
    code, out, _ = invoke(capsys, "ddt", "--n", "3", "--poly", poly, "--format", "json")
    assert code == 0
    assert out == '{"apn": false, ' + histogram + ', "uniformity": 4}\n'


@pytest.mark.parametrize("poly", ["x^57", "x^3+0x5*x^12"])
def test_ddt_power_and_quadratic_reach_n16(capsys, poly):
    code, out, _ = invoke(capsys, "ddt", "--n", "16", "--poly", poly, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["apn"] is True
    assert payload["histogram"] == [
        {"count": 0, "frequency": (2**16 - 1) * 2**15},
        {"count": 2, "frequency": (2**16 - 1) * 2**15},
    ]


@pytest.mark.parametrize("extra", [[], ["--full"]])
def test_ddt_scan_cap_exits_3_at_once(capsys, extra):
    poly = "x^7+x^3" if not extra else "x^3"
    start = time.perf_counter()
    code, out, err = invoke(capsys, "ddt", "--n", "15", "--poly", poly, *extra)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "capped at n <= 14" in err


def test_ddt_full_table_cap_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "ddt", "--n", "12", "--poly", "x^9+x^7", "--full")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "a full table" in err and "capped at n <= 11" in err


def test_points_scan_cap_exits_3_before_any_table(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("built a value table above the scan cap")

    monkeypatch.setattr(UniPoly, "value_table", no_table)
    code, out, err = invoke(capsys, "points", "--n", "15", "--poly", "x^9+x^7")
    assert code == 3
    assert out == ""
    assert "capped at n <= 14" in err


@pytest.mark.parametrize("j", ["65535", "32769"])
def test_phi_work_budget_exits_3_at_once(capsys, j):
    # 3^16 exponent triples for 65535; a quotient of about 5*10^8 terms for 32769
    start = time.perf_counter()
    code, out, err = invoke(capsys, "phi", "--j", j)
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_screen_verb_matches_library(capsys):
    code, out, _ = invoke(capsys, "screen", "--n", "5", "--poly", "x^9+x^7")
    assert code == 0
    f = parse_unipoly("x^9+x^7", create_field(5))
    assert out.strip() == screen_exceptional(f).to_json()


def test_screen_records_found_cubic_divisors(capsys):
    # over GF(2) the Thm 4 search runs, and a cubic divisor of phi_f leaves
    # the input undecided; the entry that records it must replay
    code, out, _ = invoke(capsys, "screen", "--n", "1", "--poly", "x^12+x^3")
    assert code == 0
    f = parse_unipoly("x^12+x^3", create_field(1))
    verdict = screen_exceptional(f)
    assert out.strip() == verdict.to_json()
    assert verdict.status == "Informational"
    assert verdict.trace[0] == {
        "test": "cubic_divisor_search",
        "inputs": {"degree": 12, "e": 3, "q": 2},
        "outcome": "1 cubic divisor(s) found",
    }
    assert replay_trace(f, verdict)


def test_points_verb(capsys):
    code, out, _ = invoke(capsys, "points", "--n", "5", "--poly", "x^9+x^7")
    assert code == 0
    payload = json.loads(out)
    assert payload["projective_points"] == 1058
    assert payload["bound"] == 772
    assert payload["within_bound"] is False


def test_audit_verb(capsys):
    code, out, _ = invoke(capsys, "audit", "--k", "2", "--m", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["clean"] is True
    assert payload["l"] == 3 and payload["i"] == 2


def test_families_csv(capsys):
    code, out, _ = invoke(capsys, "families", "--n", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,n,r,s,function"
    assert "welch,5,2,0,x^7" in lines
    assert "dobbertin,5,1,0,x^29" in lines


def test_families_json_round_trips(capsys):
    code, out, _ = invoke(capsys, "families", "--n", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    ctx = create_field(4)
    for row in rows:
        assert parse_unipoly(row["function"], ctx).render() == row["function"]


# sha256 of `families --n N` stdout for each N whose listing had no exponent
# above DEGREE_CAP; refusing over-cap exponents must leave these bytes alone
FAMILIES_STDOUT_SHA256 = {
    1: "c0db1ec1e3116153ec4fc8084a237f17275df8a52207a9d3588083fe3313f137",
    2: "2e0a663eec9331b589c5621209a020f446f6b52b5d4b4c942a7002c7131f2031",
    3: "3df349d2ea33de2f3bed974c1393ffc2fc80ab8b4db846b64cb6cea304afbedc",
    4: "2b086ed8a6407e3333a69165237ad33304b2585f3185d301a985557d066c3297",
    5: "9c82432b6c60187108575b9c4f51e11d22b271c9d2724deb641dc4048eb00202",
    6: "06d344de755a2f063f880aea88da4a1136714606817040ffd01b8dbefb7cfd2d",
    7: "f6e8aac640ee41974906ef9323fca318a0739342c462e5ac75ebf867b726af19",
    8: "292bba9b281fd9f93add4ef01713f8a597d90bb26c0cad26ed179a908b37a1e3",
    9: "151ca6f78e082ca106ac96183e662150558457e91e9b9b839fcdf14b4cb6e8f0",
    10: "b1e3e67034af522ac29b03b0ccf82adf00561cf366f41a4e8e917a90a7489d9d",
    12: "0e8f9b84aeb4c439943ad28eace831887d11927dc39be46344db39b7d8359387",
    14: "e54deeccff17e2b8b5ce7e78a7c11c9a7d022d26c7db6a1186a93a4f59e40067",
    16: "f38c4c5882a758a5f464d9620dc74a13cf63216f05e308a590423e9a30b70cd1",
}


@pytest.mark.parametrize("n", range(1, 25))
def test_families_lists_every_n(capsys, n):
    # an exponent above DEGREE_CAP (Kasami-Welch r = 9 at n = 11 is 261633)
    # is refused like any other inadmissible parameter, and skipped
    code, out, _ = invoke(capsys, "families", "--n", str(n))
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "family  n  r  s  function"
    assert rows
    ctx = create_field(n)
    for row in rows:
        function = row.split("  ")[4]
        assert parse_unipoly(function, ctx).render() == function
    if n in FAMILIES_STDOUT_SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == FAMILIES_STDOUT_SHA256[n]


def test_usage_error_exit_2_with_example(capsys):
    code, _, err = invoke(capsys, "ddt", "--n", "4")
    assert code == 2
    assert "example:" in err
    code, _, _ = invoke(capsys, "nosuchverb")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--k", "2", "--m", "7"],
        ["coprime", "--k", "2", "--d", "5"],
        ["gold", "--k", "2"],
        ["phi", "--j", "5"],
        ["families"],
    ],
    ids=["audit", "coprime", "gold", "phi", "families"],
)
def test_n_zero_is_domain_error(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--n", "0")
    if argv[0] in ("coprime", "gold"):  # no output depends on a field, so neither takes --n
        assert_usage_error(code, out, err, argv[0], "--n 0")
        return
    assert code == 3
    assert out == ""
    assert "n must be in 1..24, got 0" in err


def test_domain_error_exit_3(capsys):
    code, _, err = invoke(capsys, "ddt", "--n", "4", "--poly", "x^^2")
    assert code == 3
    assert "error:" in err
    code, _, _ = invoke(capsys, "apn", "--n", "30", "--poly", "x^3")
    assert code == 3
    code, _, _ = invoke(capsys, "audit", "--k", "2", "--m", "8")
    assert code == 3


def test_bad_format_choice_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "apn", "--n", "4", "--poly", "x^3", "--format", "csv")
    assert code == 2


def test_output_determinism(capsys):
    first = invoke(capsys, "screen", "--n", "5", "--poly", "x^17+x^10")
    second = invoke(capsys, "screen", "--n", "5", "--poly", "x^17+x^10")
    assert first == second


def test_jobs_do_not_change_output(capsys):
    serial = invoke(capsys, "ddt", "--n", "7", "--poly", "x^9", "--format", "json")
    parallel = invoke(
        capsys, "ddt", "--n", "7", "--poly", "x^9", "--jobs", "3", "--format", "json"
    )
    assert serial == parallel


@pytest.mark.parametrize("verb", ["ddt", "apn"])
@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_below_one_is_usage_error(capsys, verb, jobs):
    code, out, err = invoke(capsys, verb, "--n", "4", "--poly", "x^3", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "--jobs" in err and "example:" in err


def test_ekp_scan_full_run(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "ekp_u_scan.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 62
    assert all(line.endswith("  ok") for line in lines)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_ekp_scan_jobs_below_one_is_usage_error(monkeypatch, capsys, jobs):
    # The scan is quadratic and never uses a worker pool, so --jobs is not an
    # option at all: any value is refused by argparse before the scan starts.
    script = Path(__file__).resolve().parents[1] / "scripts" / "ekp_u_scan.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--jobs", jobs])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --jobs" in err


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_ekp_scan_sample_below_one_is_usage_error(monkeypatch, capsys, sample):
    script = Path(__file__).resolve().parents[1] / "scripts" / "ekp_u_scan.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--sample", sample])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--sample: must be at least 1, got {sample}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--coeffs", "zz"], "--coeffs: invalid"),
        (["--coeffs", "0x40", "--n", "5"], "0x40 is not a nonzero element of GF(2^5)"),
        (["--n", "0"], "--n: n must be in 1..24, got 0"),
        (["--coeffs", "0"], "0x0 is not a nonzero element of GF(2^5)"),
    ],
    ids=["not_hex", "outside_field", "n_zero", "zero_coeff"],
)
def test_screen_binomials_bad_arguments_are_usage_errors(monkeypatch, capsys, argv, message):
    script = Path(__file__).resolve().parents[1] / "scripts" / "screen_binomials.py"
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_verify_lucas_suite(capsys):
    code, out, err = invoke(capsys, "verify", "--suite", "lucas")
    assert code == 0
    assert out.count("[PASS]") == 2
    assert "[FAIL]" not in out
    assert "finished in" in err  # timings stay on stderr
    assert "finished in" not in out


def test_verify_gold_suite(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "gold-factorization")
    assert code == 0
    assert out.count("[PASS]") == 4


def test_verify_unknown_suite(capsys):
    code, _, _ = invoke(capsys, "verify", "--suite", "nosuch")
    assert code == 2
