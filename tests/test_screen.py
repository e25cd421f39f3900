import json
import random
import time
from collections import Counter
from functools import lru_cache, reduce
from math import gcd
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apnforge.screen as screen_module
from apnforge.cli import run
from apnforge.field import MAX_DEGREE, FieldCtx, _pgcd, _pmod, _x_pow_2e_mod, create_field
from apnforge.phi import build_phi, build_phi_j, denominator_surface
from apnforge.poly import (
    DEGREE_CAP,
    ConstraintViolated,
    NotDivisible,
    TriPoly,
    UniPoly,
    _submasks,
    embed_tripoly,
    exact_div_linear,
    linear_form,
    shift_xy,
    tri_mul,
)
from apnforge.screen import (
    AuditReport,
    Verdict,
    _boundary_shape,
    _linear_factor_witness,
    _numerator_vanishes,
    _plus_one_power,
    _trial_division_divides,
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
    shifted_form_divides,
    theorem1_min_field,
)

F2 = create_field(1)
F4 = create_field(2)
F32 = create_field(5)


def scaled(f, c):
    """c*f, built term by term on the test side."""
    return UniPoly(f.ctx, {e: f.ctx.mul(a, c) for e, a in f.terms.items()})


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


def kasami_param_by_search(d):
    """kasami_param as it was: walk k = 2, 3, ... until 2^(2k) - 2^k + 1 >= d."""
    k = 2
    while True:
        val = (1 << (2 * k)) - (1 << k) + 1
        if val == d:
            return k
        if val > d:
            return None
        k += 1


def test_kasami_param_matches_search():
    for d in range(-4, 1 << 17):
        assert kasami_param(d) == kasami_param_by_search(d), d


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
    # poly.DEGREE_CAP is the one degree cap; k ranges over the shipped fields
    assert coprime_bruteforce(2, DEGREE_CAP) is False  # a power of two
    for k, d in ((2, DEGREE_CAP + 1), (2, 2), (0, 5), (MAX_DEGREE + 1, 5)):
        with pytest.raises(ConstraintViolated):
            coprime_bruteforce(k, d)


@pytest.mark.parametrize("d", [255, 65535])
def test_bruteforce_is_fast_at_k24(d):
    # the replaced scan over GF(2^24) took about 26 minutes for d = 255
    start = time.perf_counter()
    assert coprime_bruteforce(24, d) is True
    assert time.perf_counter() - start < 5.0


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


def test_shifted_form_divides_matches_unshifted_form():
    # the shift x -> x+1, y -> y+1, z -> 1 sends x + a*y + (a+1)*z to x + a*y
    for k in (2, 3):
        ctx = create_field(k)
        surface = build_phi_j((1 << k) + 1, ctx)
        shifted = shift_xy(surface)
        for alpha in range(ctx.order):
            assert shifted_form_divides(shifted, alpha) == linear_form_divides(surface, alpha)
    with pytest.raises(ConstraintViolated):
        shifted_form_divides(surface, 2)


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
# coefficients.  The oracle below substitutes into phi_j itself but keeps
# a and b as indeterminates, so one expansion per j serves every field and
# pair.

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
    # pins the oracle to the library's exact division of phi_j by the form
    fld = create_field(2)
    for j in range(3, 26):
        surface = embed_tripoly(build_phi_j(j, F2), fld)
        for alpha in range(fld.order):
            for beta in range(fld.order):
                try:
                    exact_div_linear(surface, (1, alpha, beta))
                    expected = True
                except NotDivisible:
                    expected = False
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


def coprime_via_alpha_scan(k, d):
    """coprime_bruteforce as it was: test every Gold form x + a*y + (a+1)*z,
    a in GF(2^k) minus GF(2), on N_d's submask coefficients."""
    if d & (d - 1) == 0:
        return False
    fld = create_field(k)
    return all(not _numerator_vanishes(fld, d, a, a ^ 1) for a in range(2, fld.order))


@pytest.mark.parametrize("k", range(1, 9))
def test_coprime_bruteforce_matches_alpha_scan(k):
    for d in range(3, 257):
        assert coprime_bruteforce(k, d) == coprime_via_alpha_scan(k, d), (k, d)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_coprime_bruteforce_matches_phi_version(k):
    # k = 1 has no forms: only the zero surfaces of d = 2^t are not coprime
    for d in range(3, 66):
        assert coprime_bruteforce(k, d) == coprime_via_phi(k, d), (k, d)


def coprime_via_frobenius_first(k, d):
    """coprime_bruteforce as it was: reduce t^(2^k) + t modulo the full Q_d
    first, then fold in each later Q_s."""
    if d & (d - 1) == 0:
        return False
    g = None
    for s in _submasks(d):
        q = (_plus_one_power(d - s) << s) ^ (_plus_one_power(s) << (d - s)) ^ (s == d) ^ (s == 0)
        if g is None:
            g = _pgcd(q, _x_pow_2e_mod(k, q) ^ 0b10)
        else:
            g = _pgcd(g, _pmod(q, g))
        if g == 0b110:
            return True
    return False


def test_coprime_bruteforce_matches_frobenius_first():
    for k in range(1, MAX_DEGREE + 1):
        for d in range(3, 300):
            assert coprime_bruteforce(k, d) == coprime_via_frobenius_first(k, d), (k, d)


def test_coprime_bruteforce_matches_frobenius_first_up_to_degree_cap():
    rng = random.Random(17)
    for _ in range(60):
        k, d = rng.randint(1, MAX_DEGREE), rng.randint(3, DEGREE_CAP)
        assert coprime_bruteforce(k, d) == coprime_via_frobenius_first(k, d), (k, d)


def test_coprime_frobenius_step_sees_only_the_folded_gcd(monkeypatch):
    # Q_d has degree d minus its lowest bit; the folded gcd is far smaller
    moduli = []

    def spy(e, m):
        moduli.append(m)
        return _x_pow_2e_mod(e, m)

    monkeypatch.setattr(screen_module, "_x_pow_2e_mod", spy)
    for d in (62225, 63717, 65236):
        moduli.clear()
        assert coprime_bruteforce(24, d) is True
        assert moduli and max(m.bit_length() for m in moduli) < d // 2, d


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


def test_linear_factor_witness_is_the_gold_rule():
    """Only Gold j = 2^l + 1 give phi_j a linear factor, first over GF(2^p),
    p the least prime factor of l.

    Proof, for odd j >= 5 and a form x + a*y + b*z (the planes, x-free forms
    and z are ruled out in _linear_factor_witness's docstring).  The form
    divides N_j = D * phi_j exactly when every submask coefficient of
    _numerator_vanishes is zero.  For a proper submask s (0 < s < j, and s = 1
    is one) that reads a^s b^(j-s) = (a+1)^s (b+1)^(j-s).  If a or b is in
    GF(2), s = 1 forces (a, b) = (0, 1) or (1, 0): only the planes x + z and
    x + y.  Otherwise write rho = a/(a+1) and sigma = (b+1)/b; each proper
    submask s asks rho^s = sigma^(j-s), that is tau^s = sigma^j for
    tau = rho*sigma.

    Binary weight >= 3: take two bits u, v of j; u, v and u + v are proper
    submasks, so sigma^(2j) = tau^u tau^v = tau^(u+v) = sigma^j and
    sigma^j = 1.  Then tau^u = 1 for a power of two u, so tau = 1, that is
    rho*sigma = 1, which gives a = b and rho^j = 1, a^j = (a+1)^j.  The
    s = j coefficient a^j + (a+1)^j + 1 is then 1, not 0: no form.

    Weight 2, j = 2^l + 1: the s = j coefficient is a^(2^l) + a, so a is in
    GF(2^l), and b likewise.  Then sigma^(2^l) = sigma, and s = 1 asks
    rho = sigma, that is b = a + 1; s = 2^l asks the same.  So the forms
    are x + a*y + (a+1)*z, a in GF(2^l) minus GF(2), and GF(2^m) holds one
    exactly when gcd(m, l) > 1.  The least such m is p; over GF(2^p) every
    element satisfies the end conditions, so the lexicographic walk meets
    (a, b) = (2, 3) first.
    """

    def least_prime_factor(l):
        return next(p for p in range(2, l + 1) if l % p == 0)

    for j in range(5, 130, 2):
        l = (j - 1).bit_length() - 1
        gold = j == (1 << l) + 1
        want = None
        if gold and least_prime_factor(l) <= 8:
            want = (least_prime_factor(l), "x + 2*y + 3*z")
        assert _linear_factor_witness(j) == want, j


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


def audit_via_surface(k, m, ambient):
    """root_of_unity_audit as it was: build phi_m, shift it, multiply by
    x*y*(x+y) and evaluate the component of degree m - 2^i - 1 at (a, 1)."""
    i = ((m - 1) & -(m - 1)).bit_length() - 1
    l = (m - 1) >> i
    if l == 1:
        return AuditReport(k, m, i, l, True, (), ())
    wrap = tri_mul(linear_form(ambient, 1, 0, 0), linear_form(ambient, 0, 1, 0))
    wrap = tri_mul(wrap, linear_form(ambient, 1, 1, 0))
    shifted = tri_mul(shift_xy(build_phi_j(m, ambient)), wrap)
    low = shifted.homogeneous_parts().get(m - (1 << i) - 1)
    entrants, violations = [], []
    for alpha in ambient.subfield_elements(k):
        if alpha < 2:
            continue
        other = alpha ^ 1
        if ambient.pow(alpha, l) ^ ambient.pow(other, l) != 1:
            continue
        if ambient.pow(alpha, l + 1) ^ ambient.pow(other, l + 1) != 1:
            continue
        entrants.append(alpha)
        if ambient.pow(alpha, l - 1) != 1:
            violations.append((alpha, "alpha not an (l-1)-th root of unity"))
        elif ambient.pow(other, l - 1) != 1:
            violations.append((alpha, "alpha+1 not an (l-1)-th root of unity"))
        elif low is None:
            violations.append((alpha, "low component missing"))
        else:
            val = 0
            for (a, _b, _c), coeff in low.terms.items():
                val ^= ambient.mul(coeff, ambient.pow(alpha, a))
            if val != 1:
                violations.append((alpha, "low component vanished"))
    return AuditReport(k, m, i, l, False, tuple(entrants), tuple(violations))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_audit_matches_surface_version(k):
    for ambient in (create_field(k), create_field(2 * k)):
        for m in range(3, 66, 2):
            want = audit_via_surface(k, m, ambient)
            assert root_of_unity_audit(k, m, ambient) == want, (k, ambient.n, m)


def audit_via_full_walk(k, m, ambient):
    """root_of_unity_audit as it was: walk all of GF(2^k) with exponent l - 1."""
    i = ((m - 1) & -(m - 1)).bit_length() - 1
    l = (m - 1) >> i
    if l == 1:
        return AuditReport(k, m, i, l, True, (), ())
    entrants = tuple(
        a
        for a in ambient.subfield_elements(k)
        if a > 1 and ambient.pow(a, l - 1) == 1 == ambient.pow(a ^ 1, l - 1)
    )
    return AuditReport(k, m, i, l, False, entrants, ())


@pytest.mark.parametrize("k", range(1, 9))
def test_audit_matches_full_walk(k):
    for ambient in (create_field(k), create_field(2 * k)):
        for m in range(3, 400, 2):
            want = audit_via_full_walk(k, m, ambient)
            assert root_of_unity_audit(k, m, ambient) == want, (k, ambient.n, m)


def test_audit_walks_only_the_root_of_unity_subfield(monkeypatch):
    # (k, m, r) with g = gcd(l - 1, 2^k - 1) and r = ord_g(2): l - 1 is 2, 64,
    # 20 and 6, so g is 1, 1, 5 and 3
    walked = []
    real = FieldCtx.subfield_elements

    def spy(self, r):
        walked.append(r)
        return real(self, r)

    monkeypatch.setattr(FieldCtx, "subfield_elements", spy)
    for k, m, r in ((24, 7, 1), (12, 131, 1), (12, 43, 4), (24, 15, 2)):
        walked.clear()
        assert root_of_unity_audit(k, m).clean
        assert walked == [r], (k, m)


def test_audit_whole_subfield_takes_no_power(monkeypatch):
    # m = 2^18 - 1: l = 2^17 - 1 and g = gcd(l - 1, 2^16 - 1) = 2^16 - 1, so
    # every element of GF(2^16) minus GF(2) is an entrant
    def no_pow(self, a, e):
        raise AssertionError("an entrant of the whole subfield took a power")

    ambient = create_field(16)
    everything = tuple(range(2, 1 << 16))
    monkeypatch.setattr(FieldCtx, "pow", no_pow)
    start = time.perf_counter()
    report = root_of_unity_audit(16, (1 << 18) - 1, ambient)
    assert time.perf_counter() - start < 2
    assert report.entrants == everything
    assert len(report.entrants) == 65534 and report.clean


def test_shifted_surface_components_follow_binomial_identity():
    # shift_xy(phi_m) * x*y*(x+y) = N_m(x+1, y+1, 1): its degree-r component
    # is C(m, r) * (x^r + y^r + (x+y)^r), the identity root_of_unity_audit reads
    wrap = tri_mul(linear_form(F2, 1, 0, 0), linear_form(F2, 0, 1, 0))
    wrap = tri_mul(wrap, linear_form(F2, 1, 1, 0))
    for m in range(3, 66):
        parts = tri_mul(shift_xy(build_phi_j(m, F2)), wrap).homogeneous_parts()
        for r in range(m + 1):
            want = Counter({(r, 0, 0): 1, (0, r, 0): 1})
            want.update((s, r - s, 0) for s in _submasks(r))  # (x+y)^r by Lucas
            want = {mono for mono, n in want.items() if n % 2} if lucas_mod2(m, r) else set()
            assert set(parts.get(r, TriPoly.zero(F2)).terms) == want, (m, r)


def test_audit_cli_builds_no_surface(monkeypatch, capsys):
    # phi_1027 is above PHI_WORK_BUDGET, so building it exited 3
    def unreachable(*args, **kwargs):
        raise AssertionError("the audit built a surface")

    monkeypatch.setattr("apnforge.phi.numerator_surface", unreachable)
    assert run(["audit", "--k", "3", "--m", "1027"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert (payload["i"], payload["l"]) == (1, 513)


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


@pytest.mark.parametrize("terms", [{12: 1, 6: 2}, {12: 1, 10: 3, 3: 1}, {12: 1, 5: 2}])
def test_scaled_f_has_scaled_phi_and_the_same_cubic_divisors(terms):
    # C divides c*phi_f exactly when C divides phi_f, so the Thm 4 search on
    # a non-monic f finds the divisors of its monic copy
    f = UniPoly(F4, terms)
    params = [(0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0), (1, 0, 0, 0), (5, 9, 33, 2)]
    for c in (2, 3):
        assert build_phi(scaled(f, c)) == build_phi(f).scale(c)
        for quad in params:
            want = cubic_divisor_check(build_phi(f), quad)
            assert cubic_divisor_check(build_phi(scaled(f, c)), quad) == want, (c, quad)


def test_cubic_divisor_check_low_degree():
    assert not cubic_divisor_check(build_phi_j(5, F2), (0, 0, 0, 0))


def test_cubic_search_on_homogeneous_phi_finds_only_d():
    # phi_j is homogeneous, so a cubic divisor is too, and D is the only
    # homogeneous candidate; it divides phi_j for even j and never for odd j
    for j in range(5, 46, 2):
        assert exhaustive_cubic_search(build_phi_j(j, F2)) == [], j
    for j in (6, 10, 12, 14):
        assert exhaustive_cubic_search(build_phi_j(j, F2)) == [(0, 0, 0, 0)], j


def _random_tripoly(ctx, rng, max_exp=4, max_terms=12):
    return TriPoly(
        ctx,
        {
            tuple(rng.randrange(max_exp + 1) for _ in range(3)): rng.randrange(1, ctx.order)
            for _ in range(rng.randrange(1, max_terms))
        },
    )


@pytest.mark.parametrize("m", [3, 4])
def test_trial_division_and_exact_division_agree(m):
    # the cubic search's trial division and the planes' exact division are
    # two kernels for one question; on linear forms they must agree
    ctx = create_field(m)
    rng = random.Random(m)
    one = TriPoly.const(ctx, 1)
    for lead in range(3):
        for _ in range(15):
            form = [0, 0, 0]
            form[lead] = rng.randrange(2, ctx.order)  # a non-unit leading coefficient
            for w in range(lead + 1, 3):
                form[w] = rng.randrange(ctx.order)
            form = tuple(form)
            ell = linear_form(ctx, *form)
            q = _random_tripoly(ctx, rng)
            p = tri_mul(q, ell)
            assert _trial_division_divides(p, ell), form
            assert exact_div_linear(p, form) == q, form
            assert not _trial_division_divides(p + one, ell), form
            with pytest.raises(NotDivisible):
                exact_div_linear(p + one, form)
    # x + y^2 and x*z + y^3 lead with x and x*z in tuple order, with y^2 and
    # y^3 in graded order: either order decides divisibility by one divisor
    for g in (
        TriPoly(ctx, {(1, 0, 0): 1, (0, 2, 0): 1}),
        TriPoly(ctx, {(1, 0, 1): 1, (0, 3, 0): 1}),
    ):
        for _ in range(10):
            p = tri_mul(_random_tripoly(ctx, rng), g)
            assert _trial_division_divides(p, g)
            assert not _trial_division_divides(p + one, g)


# --- minimum field bound -----------------------------------------------------


def test_theorem1_min_field_values():
    assert theorem1_min_field(9) == 17
    assert theorem1_min_field(13) == 20


def test_theorem1_min_field_boundary_sharp():
    for d in (9, 11, 13, 21, 33):
        n = theorem1_min_field(d)
        assert (20 * d - 10) ** 4 < 6561 * (1 << n)
        assert (20 * d - 10) ** 4 >= 6561 * (1 << (n - 1))


def theorem1_min_field_by_search(d):
    """theorem1_min_field as it was: count n up from 1."""
    lhs = (20 * d - 10) ** 4
    n = 1
    while 6561 * (1 << n) <= lhs:
        n += 1
    return n


def test_theorem1_min_field_matches_search():
    for d in [*range(9, 200_000), 10**6, 10**9, 2**40 + 7]:
        assert theorem1_min_field(d) == theorem1_min_field_by_search(d), d


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
    monkeypatch.setattr(screen_module, "build_phi", unreachable)
    monkeypatch.setattr("apnforge.phi.numerator_surface", unreachable)
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


def test_screen_reads_non_monic_f_without_inverse_or_copy(monkeypatch):
    # every non-monic binomial a*x^d + c*x^e over GF(2^5) with d <= 33, for
    # a few (a, c): neither the screen nor replay inverts a field element or
    # builds a polynomial from f.  a*x^5 + c*x^4 keeps the known k = 2
    # replay rejection (test_replay_rejects_screens_own_k2_obstruction).
    inputs = [
        ((d, e), UniPoly(F32, {d: a, e: c}))
        for d in range(3, 34)
        for e in range(1, d)
        for a in (2, 0x13, 0x1F)
        for c in (1, 0xA)
    ]

    def unreachable(*args, **kwargs):
        raise AssertionError("the screen inverted an element or copied f")

    monkeypatch.setattr(FieldCtx, "inv", unreachable)
    monkeypatch.setattr(UniPoly, "__init__", unreachable)
    for de, f in inputs:
        verdict = screen_exceptional(f)
        assert verdict.trace[0]["test"] == "monic_normalization"
        assert replay_trace(f, verdict) == (de != (5, 4)), f


def test_screen_of_scaled_f_adds_only_the_normalization_entry():
    # screen(c*f) is screen(f) with one leading monic_normalization entry;
    # the Thm 4 cubic search at q = 4 runs for about 40 minutes, so those
    # inputs are left out
    rng = random.Random(9)
    cases = [(UniPoly(F32, {513: 1, 258: a}), c) for a, c in ((1, 2), (5, 7), (0x1F, 0x1F))]
    cases += [(UniPoly(F32, {13: 1, 7: 3}), 5), (UniPoly(F32, {57: 1, 13: 9, 7: 1}), 0x11)]
    for n in range(2, 8):
        ctx = create_field(n)
        while len(cases) < 40 * (n - 1) + 5:
            exps = rng.sample(range(1, 66), rng.randint(1, 5))
            top = max(exps)
            if ctx.order <= 4 and top % 4 == 0 and (top // 4) % 4 == 3:
                continue
            terms = {e: rng.randrange(1, ctx.order) for e in exps}
            terms[top] = 1
            cases.append((UniPoly(ctx, terms), rng.randrange(2, ctx.order)))
    theorems = set()
    for f, c in cases:
        g = scaled(f, c)
        want, got = screen_exceptional(f), screen_exceptional(g)
        assert got.trace[0] == {
            "test": "monic_normalization",
            "inputs": {"leading_coeff": c},
            "outcome": "scaled to a monic representative",
        }
        assert got == Verdict(want.status, want.theorem, want.heuristic, got.trace[:1] + want.trace)
        assert replay_trace(g, got)
        theorems.add(got.theorem)
    assert theorems == {None, "Thm 2", "Thm 3", "Thm 5", "Thm 6", "Thm 9", "Thm 11"}


def boundary_shape_via_monic(f, k):
    """_boundary_shape as it was: test the shape on h of the monic copy f/c."""
    ctx = f.ctx
    d = max(f.terms)
    inv = ctx.inv(f.terms[d])
    h = {e: ctx.mul(a, inv) for e, a in f.terms.items() if e != d}
    head = "deg h at the boundary 2^(k-1)+2"
    if k % 2 == 0:
        return False, f"{head} but k is even"
    if gcd(k, ctx.n) != 1:
        return False, f"{head} but gcd(k, n) > 1"
    boundary = (1 << (k - 1)) + 2
    lead = h.get(boundary, 0)
    if lead and set(h) == {boundary, 3} and h[3] == ctx.sqr(lead):
        return False, f"{head}; h matches the excluded two-term shape a*x^(2^(k-1)+2) + a^2*x^3"
    return True, f"{head}; k odd and coprime to n; h avoids the excluded two-term shape"


@pytest.mark.parametrize("n,k", [(5, 3), (5, 5), (5, 7), (3, 5)])
def test_boundary_shape_matches_monic_rule(n, k):
    # every c*x^(2^k+1) + a*x^(2^(k-1)+2) + e*x^3; GF(2^3) adds a k = 5 case
    # with gcd(k, n) = 1
    ctx = create_field(n)
    d, boundary = (1 << k) + 1, (1 << (k - 1)) + 2
    excluded = 0
    for c in range(1, ctx.order):
        for a in range(ctx.order):
            for e in range(ctx.order):
                f = UniPoly(ctx, {d: c, boundary: a, 3: e})
                got = _boundary_shape(f, k)
                assert got == boundary_shape_via_monic(f, k), (c, a, e)
                excluded += "excluded" in got[1] and "matches" in got[1]
    assert excluded == (0 if gcd(k, n) > 1 else (ctx.order - 1) ** 2)


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
