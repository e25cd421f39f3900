import json
from collections import Counter
from functools import lru_cache, reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apnforge.screen as screen_module
from apnforge.cli import run
from apnforge.field import create_field
from apnforge.phi import build_phi, build_phi_j, denominator_surface
from apnforge.poly import ConstraintViolated, UniPoly, _submasks, embed_tripoly
from apnforge.screen import (
    Verdict,
    _linear_factor_witness,
    _numerator_vanishes,
    _substitution_vanishes,
    coprime_bruteforce,
    coprime_gold_formula,
    cubic_divisor_check,
    exhaustive_cubic_search,
    gold_param,
    heuristic_phi_certificate,
    kasami_param,
    linear_form_divides,
    lucas_mod2,
    replay_trace,
    root_of_unity_audit,
    screen_exceptional,
    theorem1_min_field,
)

F2 = create_field(1)
F32 = create_field(5)


# --- binomial parity ---------------------------------------------------------


def test_lucas_small_values():
    assert lucas_mod2(5, 2) == 0
    assert lucas_mod2(5, 4) == 1
    assert lucas_mod2(7, 3) == 1
    assert lucas_mod2(4, 2) == 0
    assert lucas_mod2(0, 0) == 1
    assert lucas_mod2(3, 5) == 0  # b > a


def test_lucas_rejects_negatives():
    with pytest.raises(ConstraintViolated):
        lucas_mod2(-1, 0)
    with pytest.raises(ConstraintViolated):
        lucas_mod2(3, -2)


@given(a=st.integers(0, 1 << 16), b=st.integers(0, 1 << 16))
def test_lucas_subset_bit_law(a, b):
    assert lucas_mod2(a, b) == (1 if (a & b) == b else 0)


def test_lucas_matches_pascal_recursion():
    row = [1]
    for a in range(1, 300):
        row = [1] + [(row[i - 1] + row[i]) % 2 for i in range(1, a)] + [1]
        for b, want in enumerate(row):
            assert lucas_mod2(a, b) == want


# --- exponent recognizers ----------------------------------------------------


@pytest.mark.parametrize(
    "d,l", [(3, 1), (5, 2), (9, 3), (17, 4), (33, 5), (65, 6)]
)
def test_gold_param_recognizes(d, l):
    assert gold_param(d) == l


@pytest.mark.parametrize("d", [7, 11, 13, 15, 21, 57, 2, 1])
def test_gold_param_rejects(d):
    assert gold_param(d) is None


@pytest.mark.parametrize("d,k", [(13, 2), (57, 3), (241, 4)])
def test_kasami_param_recognizes(d, k):
    assert kasami_param(d) == k


@pytest.mark.parametrize("d", [3, 5, 9, 11, 15, 17, 21])
def test_kasami_param_rejects(d):
    assert kasami_param(d) is None


# --- coprimality, formula vs scan -------------------------------------------


def test_formula_needs_odd_d():
    with pytest.raises(ConstraintViolated):
        coprime_gold_formula(3, 10)
    with pytest.raises(ConstraintViolated):
        coprime_gold_formula(3, 1)


def test_formula_known_values():
    assert coprime_gold_formula(2, 9) is True  # 9 = 2^3+1, gcd(3,2)=1
    assert coprime_gold_formula(4, 5) is False  # 5 = 2^2+1, gcd(2,4)=2
    assert coprime_gold_formula(3, 9) is False  # gcd(3,3)=3
    assert coprime_gold_formula(3, 7) is True  # 7 is not a Gold number
    assert coprime_gold_formula(5, 33) is False  # d = 2^5+1 itself


def test_bruteforce_spot_checks():
    assert coprime_bruteforce(2, 9) is True
    assert coprime_bruteforce(4, 5) is False
    assert coprime_bruteforce(3, 9) is False
    assert coprime_bruteforce(2, 7) is True


def test_bruteforce_handles_even_d():
    # surface of x^10 is D * (surface of x^5)^2; shares forms with k = 2
    assert coprime_bruteforce(2, 10) is False
    # surface of x^6 is D alone, and D is coprime to every product of forms
    assert coprime_bruteforce(2, 6) is True
    assert coprime_bruteforce(3, 6) is True


def test_bruteforce_power_of_two_degrees():
    # the surface vanishes identically: nothing is coprime to zero
    assert coprime_bruteforce(2, 4) is False
    assert coprime_bruteforce(3, 16) is False


def test_bruteforce_degree_cap():
    with pytest.raises(ConstraintViolated):
        coprime_bruteforce(2, 1 << 9)


@pytest.mark.parametrize("k", [2, 3])
def test_oracle_agreement_small(k):
    for d in range(3, 34, 2):
        assert coprime_gold_formula(k, d) == coprime_bruteforce(k, d), (k, d)


# --- divisor scans -----------------------------------------------------------


def test_gold_factors_divide_gold_surface():
    for k in (2, 3):
        ctx = create_field(k)
        surface = build_phi_j((1 << k) + 1, ctx)
        for alpha in range(ctx.order):
            divides = linear_form_divides(surface, alpha)
            assert divides == (alpha not in (0, 1)), (k, alpha)


def test_linear_form_divides_rejects_garbage():
    surface = build_phi_j(5, create_field(2))
    assert linear_form_divides(surface, 0) is False


@pytest.mark.parametrize("k", [2, 3, 4])
def test_divisor_scan_symmetry_alpha_to_alpha_plus_one(k):
    ctx = create_field(k)
    for j in (5, 7, 9, 11, 13, 17):
        surface = embed_tripoly(build_phi_j(j, F2), ctx)
        for alpha in range(ctx.order):
            assert linear_form_divides(surface, alpha) == linear_form_divides(
                surface, alpha ^ 1
            ), (k, j, alpha)


# --- submask test on N_j against substitution into phi_j ----------------------
#
# _numerator_vanishes reads x + a*y + b*z | N_j off N_j's submask
# coefficients.  The oracle below substitutes into phi_j itself, as
# _substitution_vanishes does, but keeps a and b as indeterminates, so one
# expansion per j serves every field and pair.

PLANES = ((1, 0), (0, 1))  # x + y and x + z divide D, hence every N_j


@lru_cache(maxsize=None)
def phi_rows(j):
    """phi_j(a*y + b*z, y, z) over GF(2)[a, b]: one row per power of y.

    phi_j is homogeneous with coefficients 1, so the term x^e y^c z^w
    contributes a^s b^(e-s) to the row of y^(s+c) for each submask s of e.
    A row is the set of exponent pairs (s, e - s) that survive mod 2.
    """
    rows: dict[int, set] = {}
    for (e, c, _w), coeff in build_phi_j(j, F2).terms.items():
        assert coeff == 1
        for s in _submasks(e):
            rows.setdefault(s + c, set()).symmetric_difference_update({(s, e - s)})
    return tuple(tuple(row) for row in rows.values() if row)


@lru_cache(maxsize=None)
def field_powers(fld):
    """(a, b) -> (powers of a, powers of b), exponents below 70."""
    table = [[fld.pow(v, e) for e in range(70)] for v in range(fld.order)]
    return {(a, b): (table[a], table[b]) for a in range(fld.order) for b in range(fld.order)}


def phi_vanishes(fld, j, pa, pb):
    """x + a*y + b*z divides phi_j, with pa/pb the powers of a and b."""
    for row in phi_rows(j):
        acc = 0
        for s, t in row:
            acc ^= fld.mul(pa[s], pb[t])
        if acc:
            return False
    return True


def test_phi_rows_agree_with_substitution_vanishes():
    # pins the oracle to the library's substitution into phi_j
    fld = create_field(2)
    for j in range(3, 26):
        surface = embed_tripoly(build_phi_j(j, F2), fld)
        for alpha in range(fld.order):
            for beta in range(fld.order):
                expected = _substitution_vanishes(surface, alpha, beta)
                got = phi_vanishes(fld, j, *field_powers(fld)[alpha, beta])
                assert got == expected, (j, alpha, beta)
    fld = create_field(3)
    pa, pb = field_powers(fld)[2, 3]
    for j in range(3, 71):
        expected = linear_form_divides(embed_tripoly(build_phi_j(j, F2), fld), 2)
        assert phi_vanishes(fld, j, pa, pb) == expected, j


@pytest.mark.parametrize("m", [1, 2, 3])
def test_numerator_vanishes_matches_phi_substitution(m):
    fld = create_field(m)
    hits = 0
    for alpha in range(fld.order):
        for beta in range(fld.order):
            if (alpha, beta) in PLANES:
                continue
            for j in range(3, 71):
                expected = phi_vanishes(fld, j, *field_powers(fld)[alpha, beta])
                assert _numerator_vanishes(fld, j, alpha, beta) == expected, (j, alpha, beta)
                hits += expected
    assert hits > 0


def coprime_via_phi(k, d):
    """coprime_bruteforce as it was: substitute each Gold form into phi_m.

    Even d = 2^t * m is stripped to its odd core m, since
    phi_d = D^(2^t-1) * phi_m^(2^t) (tests/test_phi.py) and no Gold form
    divides D.
    """
    ambient = create_field(k)
    if d & (d - 1) == 0:
        return False
    alphas = [a for a in ambient.subfield_elements(k) if a > 1]
    m = d
    if d % 2 == 0:
        m = d // (d & -d)
        assert not any(linear_form_divides(denominator_surface(ambient), a) for a in alphas)
    return all(not phi_vanishes(ambient, m, *field_powers(ambient)[a, a ^ 1]) for a in alphas)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_coprime_bruteforce_matches_phi_version(k):
    # k = 1 has no forms: only the zero surfaces of d = 2^t are not coprime
    for d in range(3, 66):
        assert coprime_bruteforce(k, d) == coprime_via_phi(k, d), (k, d)


def linear_factor_witness_via_phi(j, max_m):
    """_linear_factor_witness as it was: slice filters, then full substitution
    (read from phi_rows).

    Over each GF(2^m): forms x + a*y + b*z whose a kills the z = 0 slice and
    b the y = 0 slice of phi_j, in lexicographic order; then the x-free
    forms y + g*z; the form z before any field.
    """
    base = build_phi_j(j, F2)
    if all(c >= 1 for (_a, _b, c) in base.terms):
        return (1, "z")
    z_slice = [a for (a, _b, c) in base.terms if c == 0]
    y_slice = [a for (a, b, _c) in base.terms if b == 0]
    for m in range(1, max_m + 1):
        fld = create_field(m)
        table = [[fld.pow(v, e) for e in range(j)] for v in range(fld.order)]

        def kills(exps, v):
            acc = 0
            for e in exps:
                acc ^= table[v][e]
            return acc == 0

        za = [v for v in range(fld.order) if kills(z_slice, v)]
        yb = [v for v in range(fld.order) if kills(y_slice, v)]
        for alpha in za:
            for beta in yb:
                if phi_vanishes(fld, j, table[alpha], table[beta]):
                    return (m, f"x + {alpha}*y + {beta}*z")
        for gamma in range(fld.order):
            acc: dict[tuple[int, int], int] = {}
            for a, b, c in base.terms:
                key = (a, b + c)
                acc[key] = acc.get(key, 0) ^ table[gamma][b]
            if not any(acc.values()):
                return (m, f"y + {gamma}*z")
    return None


@pytest.mark.parametrize("top,max_m", [(45, 5), (17, 8)])
def test_linear_factor_witness_matches_phi_version(top, max_m):
    for j in range(5, top + 1, 2):
        expected = linear_factor_witness_via_phi(j, max_m)
        assert _linear_factor_witness(j, max_m) == expected, j


def test_planes_x_free_forms_and_z_never_divide_odd_phi():
    # the forms _linear_factor_witness leaves out, for odd j <= 129 over GF(4),
    # which contains GF(2); phi_j is homogeneous with coefficients 1
    fld = create_field(2)
    for j in range(5, 130, 2):
        terms = build_phi_j(j, F2).terms
        assert any(c == 0 for _a, _b, c in terms), (j, "z")
        # x = y leaves one term count per power of z, x = z one per power of y
        assert any(n % 2 for n in Counter(c for _a, _b, c in terms).values()), (j, "x + y")
        assert any(n % 2 for n in Counter(b for _a, b, _c in terms).values()), (j, "x + z")
        # y = g*z leaves sum of g^b over the terms x^a y^b z^c, per power a of x
        by_x: dict[int, list[int]] = {}
        for a, b, _c in terms:
            by_x.setdefault(a, []).append(b)
        for gamma in range(fld.order):
            assert any(
                reduce(xor, (fld.pow(gamma, b) for b in bs)) for bs in by_x.values()
            ), (j, f"y + {gamma}*z")


# --- root-of-unity audit -----------------------------------------------------


def test_audit_gold_case_marker():
    report = root_of_unity_audit(3, 9)  # m = 9 = 2^3 + 1: l = 1
    assert report.gold_case
    assert report.l == 1 and report.i == 3
    assert report.clean


@pytest.mark.parametrize("k,m", [(2, 7), (2, 11), (3, 7), (3, 11), (3, 13), (4, 21)])
def test_audit_clean_on_odd_non_gold(k, m):
    report = root_of_unity_audit(k, m)
    assert not report.gold_case
    assert report.clean, report.violations
    assert report.m == m and (m - 1) == (1 << report.i) * report.l


def test_audit_entrants_satisfy_both_equations():
    # over F_16, m = 13: entrants are the alpha surviving both top components
    report = root_of_unity_audit(4, 13)
    ctx = create_field(4)
    i, l = report.i, report.l
    for alpha in report.entrants:
        lhs1 = ctx.pow(alpha, l) ^ ctx.pow(alpha ^ 1, l)
        lhs2 = ctx.pow(alpha, l + 1) ^ ctx.pow(alpha ^ 1, l + 1)
        assert lhs1 == 1 and lhs2 == 1
    assert report.clean


def test_audit_requires_odd_m():
    with pytest.raises(ConstraintViolated):
        root_of_unity_audit(2, 8)


# --- cubic divisors ----------------------------------------------------------


def golden_phi(terms):
    return build_phi(UniPoly(F2, terms))


def test_cubic_search_goldens():
    assert exhaustive_cubic_search(golden_phi({12: 1, 3: 1})) == [(0, 0, 0, 1)]
    assert exhaustive_cubic_search(golden_phi({12: 1, 6: 1})) == [
        (0, 0, 0, 0),
        (0, 0, 0, 1),
    ]
    assert exhaustive_cubic_search(golden_phi({12: 1, 10: 1})) == [
        (0, 0, 0, 0),
        (1, 1, 0, 0),
    ]
    assert exhaustive_cubic_search(golden_phi({12: 1, 5: 1})) == []


def test_cubic_search_rejects_large_fields():
    phi = build_phi(UniPoly(F32, {12: 1, 3: 1}))
    with pytest.raises(ConstraintViolated):
        exhaustive_cubic_search(phi)


def test_cubic_divisor_check_agrees_with_search():
    phi = golden_phi({12: 1, 6: 1})
    assert cubic_divisor_check(phi, (0, 0, 0, 0))  # D itself divides
    assert cubic_divisor_check(phi, (0, 0, 0, 1))
    assert not cubic_divisor_check(phi, (1, 0, 0, 0))


def test_cubic_divisor_check_low_degree():
    assert not cubic_divisor_check(build_phi_j(5, F2), (0, 0, 0, 0))


def test_cubic_search_on_homogeneous_phi_finds_only_d():
    # phi_j is homogeneous, so a cubic divisor is too, and D is the only
    # homogeneous candidate; it divides phi_j for even j and never for odd j
    for j in range(5, 46, 2):
        assert exhaustive_cubic_search(build_phi_j(j, F2)) == [], j
    for j in (6, 10, 12, 14):
        assert exhaustive_cubic_search(build_phi_j(j, F2)) == [(0, 0, 0, 0)], j


# --- minimum field bound -----------------------------------------------------


def test_theorem1_min_field_values():
    assert theorem1_min_field(9) == 17
    assert theorem1_min_field(13) == 20


def test_theorem1_min_field_boundary_sharp():
    for d in (9, 11, 13, 21, 33):
        n = theorem1_min_field(d)
        assert (20 * d - 10) ** 4 < 6561 * (1 << n)
        assert (20 * d - 10) ** 4 >= 6561 * (1 << (n - 1))


def test_theorem1_min_field_requires_degree_9():
    with pytest.raises(ConstraintViolated):
        theorem1_min_field(7)


# --- heuristic irreducibility certificate ------------------------------------


def test_certificate_accepts_7():
    ok, summary = heuristic_phi_certificate(7)
    assert ok
    assert "no linear factors" in summary


def test_certificate_rejects_gold_surfaces():
    ok, summary = heuristic_phi_certificate(5)
    assert not ok
    assert "linear factor" in summary


def test_certificate_rejects_even_and_degenerate():
    assert heuristic_phi_certificate(10) == (
        False,
        "phi_10 factors through the plane product (even exponent); not absolutely irreducible",
    )
    assert not heuristic_phi_certificate(4)[0]
    assert not heuristic_phi_certificate(3)[0]


def test_certificate_builds_no_surface(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the certificate built a surface or searched cubics")

    accepted = (
        "no linear factors over GF(2^m) for m <= 8 and no cubic divisors of "
        "the screened shape; certified heuristically"
    )
    expected = {j: (True, f"phi_{j}: {accepted}") for j in (7, 13, 15, 1001)}
    expected[9] = (
        False,
        "phi_9 has linear factor x + 2*y + 3*z over GF(2^3); not absolutely irreducible",
    )
    heuristic_phi_certificate.cache_clear()
    monkeypatch.setattr(screen_module, "build_phi_j", unreachable)
    monkeypatch.setattr(screen_module, "exhaustive_cubic_search", unreachable)
    try:
        for j, want in expected.items():
            assert heuristic_phi_certificate(j) == want
    finally:
        heuristic_phi_certificate.cache_clear()


def test_screen_cli_kasami_term_above_surface_budget(capsys):
    # phi_1001 is far above PHI_WORK_BUDGET; the certificate never builds it
    code = run(["screen", "--n", "5", "--poly", "x^4033+x^1001"])
    out = capsys.readouterr().out
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "NotExceptional"
    assert verdict["theorem"] == "Thm 9"
    assert verdict["heuristic"] is True


# --- screening ---------------------------------------------------------------


@pytest.mark.parametrize(
    "terms,status,theorem",
    [
        ({3: 1}, "ConjecturedExceptional", None),
        ({13: 1}, "ConjecturedExceptional", None),
        ({7: 1, 5: 1}, "NotExceptional", "Thm 2"),
        ({6: 1, 3: 1}, "NotExceptional", "Thm 3"),
        ({9: 1, 7: 1}, "NotExceptional", "Thm 11"),
        ({9: 1, 5: 1}, "NotExceptional", "Thm 11"),
        ({17: 1, 5: 1}, "Inconclusive", None),
        ({17: 1, 10: 1}, "Inconclusive", None),
        ({12: 1, 3: 1}, "Informational", None),
        ({20: 1, 3: 1}, "Informational", None),
    ],
)
def test_screen_statuses_gf32(terms, status, theorem):
    verdict = screen_exceptional(UniPoly(F32, terms))
    assert verdict.status == status
    assert verdict.theorem == theorem


def test_screen_thm4_over_gf2():
    verdict = screen_exceptional(UniPoly(F2, {12: 1, 5: 1}))
    assert verdict.status == "NotExceptional"
    assert verdict.theorem == "Thm 4"
    assert any(e["test"] == "cubic_divisor_search" for e in verdict.trace)


def test_screen_thm9_heuristic():
    verdict = screen_exceptional(UniPoly(F32, {13: 1, 7: 1}))
    assert verdict.status == "NotExceptional"
    assert verdict.theorem == "Thm 9"
    assert verdict.heuristic is True


@pytest.mark.parametrize(
    "n,status,theorem", [(5, "NotExceptional", "Thm 6"), (9, "Inconclusive", None)]
)
def test_screen_thm6_boundary_shape(n, status, theorem):
    # k = 9: the boundary term x^258 lies above the scan cap, so only the
    # boundary shape can decide, and it needs gcd(k, n) = 1
    f = UniPoly(create_field(n), {513: 1, 258: 1})
    verdict = screen_exceptional(f)
    assert (verdict.status, verdict.theorem) == (status, theorem)
    assert [e["test"] for e in verdict.trace].count("boundary_shape") == 1
    assert replay_trace(f, verdict)


def test_screen_boundary_obstruction_entry():
    verdict = screen_exceptional(UniPoly(F32, {17: 1, 10: 1}))
    tests = [e["test"] for e in verdict.trace]
    assert "boundary_term_obstruction" in tests
    assert "even_boundary_shape" in tests


def test_screen_monic_normalization():
    verdict = screen_exceptional(UniPoly(F32, {9: 3, 7: 3}))
    assert verdict.trace[0]["test"] == "monic_normalization"
    assert verdict.status == "NotExceptional"
    assert verdict.theorem == "Thm 11"


def test_screen_rejects_degenerate_input():
    with pytest.raises(ConstraintViolated):
        screen_exceptional(UniPoly.zero(F32))
    with pytest.raises(ConstraintViolated):
        screen_exceptional(UniPoly(F32, {0: 1}))


def test_verdict_json_shape():
    verdict = screen_exceptional(UniPoly(F32, {9: 1, 7: 1}))
    payload = json.loads(verdict.to_json())
    assert set(payload) == {"status", "theorem", "heuristic", "trace"}
    for entry in payload["trace"]:
        assert set(entry) == {"test", "inputs", "outcome"}


REGRESSION_TERMS = (
    {3: 1},
    {7: 1, 5: 1},
    {6: 1, 3: 1},
    {9: 1, 7: 1},
    {9: 1, 5: 1},
    {17: 1, 5: 1},
    {17: 1, 10: 1},
    {12: 1, 3: 1},
    {13: 1, 7: 1},
    {33: 1, 9: 1},
    {9: 3, 7: 3},
)


@pytest.mark.parametrize("terms", REGRESSION_TERMS)
def test_replay_reproduces_every_trace_entry(terms):
    f = UniPoly(F32, terms)
    assert replay_trace(f, screen_exceptional(f))


@pytest.mark.parametrize("terms", REGRESSION_TERMS)
def test_replay_accepts_json_round_trip(terms):
    f = UniPoly(F32, terms)
    verdict = screen_exceptional(f)
    assert replay_trace(f, Verdict(**json.loads(verdict.to_json())))


# Forged verdicts for x^17 + x^5, which screens Inconclusive.  Each keeps
# every entry's outcome consistent with that entry's own inputs, so only a
# replay tied to f and to the verdict rejects it.
@pytest.mark.parametrize(
    "forge",
    [
        lambda v: Verdict("ConjecturedExceptional", None, False, v.trace),
        lambda v: Verdict("NotExceptional", "Thm 2", False, []),
        lambda v: Verdict(
            "NotExceptional",
            "Thm 5",
            False,
            v.trace[:2]
            + [
                {
                    "test": "per_term_coprimality",
                    "inputs": {"k": 4, "term_degrees": [7]},
                    "outcome": "7: coprime; term 7 certifies",
                }
            ],
        ),
    ],
    ids=["relabelled", "empty_trace", "rewritten_scan_inputs"],
)
def test_replay_rejects_forged_verdict(forge):
    f = UniPoly(F32, {17: 1, 5: 1})
    verdict = screen_exceptional(f)
    assert verdict.status == "Inconclusive"
    assert [e["test"] for e in verdict.trace[:3]] == [
        "gold_decomposition",
        "coprimality_formula",
        "per_term_coprimality",
    ]
    assert not replay_trace(f, forge(verdict))


def test_replay_rejects_screens_own_k2_obstruction():
    """Replay's precondition check is live: it rejects the screen's own trace.

    For x^5 + x^4 over GF(2^5) (k = 2) the screen records a
    boundary_term_obstruction entry with odd_core 2, which is not an odd Gold
    exponent (phi of the boundary term x^4 is zero).  The k = 2 boundary fix,
    ROADMAP item 1, drops that entry from the screen and flips this
    expectation to True.
    """
    f = UniPoly(F32, {5: 1, 4: 1})
    verdict = screen_exceptional(f)
    obstruction = [e for e in verdict.trace if e["test"] == "boundary_term_obstruction"]
    assert [e["inputs"] for e in obstruction] == [{"top_degree": 4, "odd_core": 2}]
    assert not replay_trace(f, verdict)


@settings(max_examples=40, deadline=None)
@given(
    terms=st.dictionaries(
        st.integers(3, 40), st.integers(1, 31), min_size=1, max_size=3
    )
)
def test_replay_randomized_gf32(terms):
    f = UniPoly(F32, terms)
    verdict = screen_exceptional(f)
    assert verdict.status in {
        "NotExceptional",
        "ConjecturedExceptional",
        "Inconclusive",
        "Informational",
    }
    assert replay_trace(f, verdict)
    if verdict.status != "NotExceptional":
        assert verdict.theorem is None
    if verdict.heuristic:
        assert verdict.theorem == "Thm 9"
