"""Literal stdout of every verb, in each format it offers.

The plain reports, `screen --format plain`, `phi --poly`, `families --check`
and a `--modulus` are pinned here byte for byte; `verify --suite all` runs
every bundled suite.
"""

import hashlib

import pytest

from apnforge.cli import run

GOLDEN_STDOUT = {
    "ddt-plain": (
        ["ddt", "--n", "5", "--poly", "x^9+x^7"],
        "n = 5  modulus = 0x25  poly = x^9+x^7\n"
        "uniformity = 8  apn = false\n"
        "count  frequency\n"
        "    0  596\n"
        "    2  311\n"
        "    4  75\n"
        "    6  5\n"
        "    8  5\n"
    ),
    "ddt-json": (
        ["ddt", "--n", "5", "--poly", "x^9+x^7", "--format", "json"],
        '{"apn": false, "histogram": [{"count": 0, "frequency": 596}, {"count": 2, '
        '"frequency": 311}, {"count": 4, "frequency": 75}, {"count": 6, "frequency": 5}, '
        '{"count": 8, "frequency": 5}], "modulus": "0x25", "n": 5, "poly": "x^9+x^7", '
        '"uniformity": 8}\n'
    ),
    "ddt-csv": (
        ["ddt", "--n", "5", "--poly", "x^9+x^7", "--format", "csv"],
        "count,frequency\n"
        "0,596\n"
        "2,311\n"
        "4,75\n"
        "6,5\n"
        "8,5\n"
    ),
    "ddt-modulus-plain": (
        ["ddt", "--n", "8", "--modulus", "0x11d", "--poly", "0x3*x^13+x^7+x"],
        "n = 8  modulus = 0x11d  poly = 0x3*x^13+x^7+x\n"
        "uniformity = 10  apn = false\n"
        "count  frequency\n"
        "    0  39639\n"
        "    2  19599\n"
        "    4  5199\n"
        "    6  735\n"
        "    8  102\n"
        "   10  6\n"
    ),
    "ddt-modulus-json": (
        ["ddt", "--n", "8", "--modulus", "0x11d", "--poly", "0x3*x^13+x^7+x", "--format", "json"],
        '{"apn": false, "histogram": [{"count": 0, "frequency": 39639}, {"count": 2, '
        '"frequency": 19599}, {"count": 4, "frequency": 5199}, {"count": 6, "frequency": '
        '735}, {"count": 8, "frequency": 102}, {"count": 10, "frequency": 6}], "modulus": '
        '"0x11d", "n": 8, "poly": "0x3*x^13+x^7+x", "uniformity": 10}\n'
    ),
    "ddt-modulus-csv": (
        ["ddt", "--n", "8", "--modulus", "0x11d", "--poly", "0x3*x^13+x^7+x", "--format", "csv"],
        "count,frequency\n"
        "0,39639\n"
        "2,19599\n"
        "4,5199\n"
        "6,735\n"
        "8,102\n"
        "10,6\n"
    ),
    "apn-plain": (
        ["apn", "--n", "5", "--poly", "x^9+x^7", "--format", "plain"],
        "n: 5\n"
        "poly: x^9+x^7\n"
        "apn: false\n"
        "uniformity: 8\n"
    ),
    "apn-json": (
        ["apn", "--n", "5", "--poly", "x^9+x^7"],
        '{"apn": false, "n": 5, "poly": "x^9+x^7", "uniformity": 8}\n'
    ),
    "gold-plain": (
        ["gold", "--k", "3", "--format", "plain"],
        "k: 3\n"
        "d: 9\n"
        "surface: x^6+x^5*y+x^5*z+x^4*y^2+x^4*y*z+x^4*z^2+x^3*y^3+x^3*y^2*z+x^3*y*z^2+"
        "x^3*z^3+x^2*y^4+x^2*y^3*z+x^2*y^2*z^2+x^2*y*z^3+x^2*z^4+x*y^5+x*y^4*z+x*y^3*z^2+"
        "x*y^2*z^3+x*y*z^4+x*z^5+y^6+y^5*z+y^4*z^2+y^3*z^3+y^2*z^4+y*z^5+z^6\n"
        "matches_monomial_surface: true\n"
    ),
    "gold-json": (
        ["gold", "--k", "3"],
        '{"d": 9, "k": 3, "matches_monomial_surface": true, "surface": "x^6+x^5*y+x^5*z+'
        "x^4*y^2+x^4*y*z+x^4*z^2+x^3*y^3+x^3*y^2*z+x^3*y*z^2+x^3*z^3+x^2*y^4+x^2*y^3*z+"
        "x^2*y^2*z^2+x^2*y*z^3+x^2*z^4+x*y^5+x*y^4*z+x*y^3*z^2+x*y^2*z^3+x*y*z^4+x*z^5+y^6+"
        'y^5*z+y^4*z^2+y^3*z^3+y^2*z^4+y*z^5+z^6"}\n'
    ),
    "coprime-odd-plain": (
        ["coprime", "--k", "3", "--d", "9", "--format", "plain"],
        "k: 3\n"
        "d: 9\n"
        "formula: false\n"
        "bruteforce: false\n"
        "agree: true\n"
    ),
    "coprime-odd-json": (
        ["coprime", "--k", "3", "--d", "9"],
        '{"agree": true, "bruteforce": false, "d": 9, "formula": false, "k": 3}\n'
    ),
    "coprime-even-plain": (
        ["coprime", "--k", "2", "--d", "6", "--format", "plain"],
        "k: 2\n"
        "d: 6\n"
        "formula: None\n"
        "bruteforce: true\n"
        "agree: None\n"
    ),
    "coprime-even-json": (
        ["coprime", "--k", "2", "--d", "6"],
        '{"agree": null, "bruteforce": true, "d": 6, "formula": null, "k": 2}\n'
    ),
    "points-plain": (
        ["points", "--n", "5", "--poly", "x^9+x^7", "--format", "plain"],
        "n: 5\n"
        "poly: x^9+x^7\n"
        "degree: 9\n"
        "projective_points: 1058\n"
        "bound: 772\n"
        "within_bound: false\n"
    ),
    "points-json": (
        ["points", "--n", "5", "--poly", "x^9+x^7"],
        '{"bound": 772, "degree": 9, "n": 5, "poly": "x^9+x^7", "projective_points": 1058, '
        '"within_bound": false}\n'
    ),
    "audit-plain": (
        ["audit", "--k", "2", "--m", "15", "--format", "plain"],
        "k: 2\n"
        "m: 15\n"
        "i: 1\n"
        "l: 7\n"
        "gold_case: false\n"
        "entrants: [2, 3]\n"
        "violations: []\n"
        "clean: true\n"
    ),
    "audit-json": (
        ["audit", "--k", "2", "--m", "15"],
        '{"clean": true, "entrants": [2, 3], "gold_case": false, "i": 1, "k": 2, "l": 7, '
        '"m": 15, "violations": []}\n'
    ),
    "audit-n-plain": (
        ["audit", "--k", "2", "--m", "15", "--n", "4", "--format", "plain"],
        "k: 2\n"
        "m: 15\n"
        "i: 1\n"
        "l: 7\n"
        "gold_case: false\n"
        "entrants: [6, 7]\n"
        "violations: []\n"
        "clean: true\n"
    ),
    "audit-n-json": (
        ["audit", "--k", "2", "--m", "15", "--n", "4"],
        '{"clean": true, "entrants": [6, 7], "gold_case": false, "i": 1, "k": 2, "l": 7, '
        '"m": 15, "violations": []}\n'
    ),
    "screen-plain": (
        ["screen", "--n", "5", "--poly", "x^17+x^10", "--format", "plain"],
        "status: Inconclusive\n"
        "theorem: None\n"
        "heuristic: false\n"
        "  gold_decomposition: x^17 + h with deg h = 10\n"
        "  coprimality_formula: not applicable; deg h is even or below 3\n"
        "  per_term_coprimality: 10: shared factor; no term coprime to the leading product\n"
        "  boundary_shape: deg h at the boundary 2^(k-1)+2 but k is even\n"
        "  even_boundary_shape: deg f = 2^4+1 and deg h = 2^3+2 match the even boundary; no "
        "term passed the coprimality scan\n"
        "  boundary_term_obstruction: phi_10 = D*phi_5^2 and phi_5 shares linear factors "
        "with the leading product over GF(2^2); the coprimality hypothesis cannot hold for "
        "the boundary term\n"
        "  fallback: no applicable criterion\n"
    ),
    "phi-poly-plain": (
        ["phi", "--n", "5", "--poly", "x^9+0x3*x^5+0x6*x^3"],
        "x^6+x^5*y+x^5*z+x^4*y^2+x^4*y*z+x^4*z^2+x^3*y^3+x^3*y^2*z+x^3*y*z^2+x^3*z^3+x^2*y^4+"
        "x^2*y^3*z+x^2*y^2*z^2+x^2*y*z^3+x^2*z^4+x*y^5+x*y^4*z+x*y^3*z^2+x*y^2*z^3+x*y*z^4+"
        "x*z^5+y^6+y^5*z+y^4*z^2+y^3*z^3+y^2*z^4+y*z^5+z^6+0x3*x^2+0x3*x*y+0x3*x*z+0x3*y^2+"
        "0x3*y*z+0x3*z^2+0x6\n"
    ),
    "phi-poly-json": (
        ["phi", "--n", "5", "--poly", "x^9+0x3*x^5+0x6*x^3", "--format", "json"],
        '{"poly": "x^9+0x3*x^5+0x6*x^3", "surface": "x^6+x^5*y+x^5*z+x^4*y^2+x^4*y*z+x^4*z^2+'
        "x^3*y^3+x^3*y^2*z+x^3*y*z^2+x^3*z^3+x^2*y^4+x^2*y^3*z+x^2*y^2*z^2+x^2*y*z^3+x^2*z^4+"
        "x*y^5+x*y^4*z+x*y^3*z^2+x*y^2*z^3+x*y*z^4+x*z^5+y^6+y^5*z+y^4*z^2+y^3*z^3+y^2*z^4+"
        'y*z^5+z^6+0x3*x^2+0x3*x*y+0x3*x*z+0x3*y^2+0x3*y*z+0x3*z^2+0x6"}\n'
    ),
    "families-check-plain": (
        ["families", "--n", "9", "--check"],
        "family  n  r  s  function  uniformity  apn\n"
        "gold  9  1  0  x^3  2  True\n"
        "gold  9  2  0  x^5  2  True\n"
        "gold  9  4  0  x^17  2  True\n"
        "gold  9  5  0  x^33  2  True\n"
        "gold  9  7  0  x^129  2  True\n"
        "gold  9  8  0  x^257  2  True\n"
        "kasami-welch  9  1  0  x^3  2  True\n"
        "kasami-welch  9  2  0  x^13  2  True\n"
        "kasami-welch  9  4  0  x^241  2  True\n"
        "kasami-welch  9  5  0  x^993  2  True\n"
        "kasami-welch  9  7  0  x^16257  2  True\n"
        "kasami-welch  9  8  0  x^65281  2  True\n"
        "welch  9  4  0  x^19  2  True\n"
        "niho  9  4  0  x^19  2  True\n"
        "inverse  9  4  0  x^255  2  True\n"
    ),
    "families-check-json": (
        ["families", "--n", "9", "--check", "--format", "json"],
        '[{"apn": true, "family": "gold", "function": "x^3", "n": 9, "r": 1, "s": 0, '
        '"uniformity": 2}, {"apn": true, "family": "gold", "function": "x^5", "n": 9, "r": '
        '2, "s": 0, "uniformity": 2}, {"apn": true, "family": "gold", "function": "x^17", '
        '"n": 9, "r": 4, "s": 0, "uniformity": 2}, {"apn": true, "family": "gold", '
        '"function": "x^33", "n": 9, "r": 5, "s": 0, "uniformity": 2}, {"apn": true, '
        '"family": "gold", "function": "x^129", "n": 9, "r": 7, "s": 0, "uniformity": 2}, '
        '{"apn": true, "family": "gold", "function": "x^257", "n": 9, "r": 8, "s": 0, '
        '"uniformity": 2}, {"apn": true, "family": "kasami-welch", "function": "x^3", "n": '
        '9, "r": 1, "s": 0, "uniformity": 2}, {"apn": true, "family": "kasami-welch", '
        '"function": "x^13", "n": 9, "r": 2, "s": 0, "uniformity": 2}, {"apn": true, '
        '"family": "kasami-welch", "function": "x^241", "n": 9, "r": 4, "s": 0, '
        '"uniformity": 2}, {"apn": true, "family": "kasami-welch", "function": "x^993", "n": '
        '9, "r": 5, "s": 0, "uniformity": 2}, {"apn": true, "family": "kasami-welch", '
        '"function": "x^16257", "n": 9, "r": 7, "s": 0, "uniformity": 2}, {"apn": true, '
        '"family": "kasami-welch", "function": "x^65281", "n": 9, "r": 8, "s": 0, '
        '"uniformity": 2}, {"apn": true, "family": "welch", "function": "x^19", "n": 9, "r": '
        '4, "s": 0, "uniformity": 2}, {"apn": true, "family": "niho", "function": "x^19", '
        '"n": 9, "r": 4, "s": 0, "uniformity": 2}, {"apn": true, "family": "inverse", '
        '"function": "x^255", "n": 9, "r": 4, "s": 0, "uniformity": 2}]\n'
    ),
    "families-check-csv": (
        ["families", "--n", "9", "--check", "--format", "csv"],
        "family,n,r,s,function,uniformity,apn\n"
        "gold,9,1,0,x^3,2,True\n"
        "gold,9,2,0,x^5,2,True\n"
        "gold,9,4,0,x^17,2,True\n"
        "gold,9,5,0,x^33,2,True\n"
        "gold,9,7,0,x^129,2,True\n"
        "gold,9,8,0,x^257,2,True\n"
        "kasami-welch,9,1,0,x^3,2,True\n"
        "kasami-welch,9,2,0,x^13,2,True\n"
        "kasami-welch,9,4,0,x^241,2,True\n"
        "kasami-welch,9,5,0,x^993,2,True\n"
        "kasami-welch,9,7,0,x^16257,2,True\n"
        "kasami-welch,9,8,0,x^65281,2,True\n"
        "welch,9,4,0,x^19,2,True\n"
        "niho,9,4,0,x^19,2,True\n"
        "inverse,9,4,0,x^255,2,True\n"
    ),
}


VERIFY_ALL_SHA256 = 'cd2c0b1a02e8ee8c320c213e9d019473f4414451503be72e51fb07891ec68bc5'


@pytest.mark.parametrize("argv, want", GOLDEN_STDOUT.values(), ids=GOLDEN_STDOUT.keys())
def test_stdout_is_pinned(capsys, argv, want):
    assert run(argv) == 0
    assert capsys.readouterr().out == want


def test_verify_all_suites_pass(capsys):
    assert run(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("summary: 64 checks, 0 failures\n")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256
