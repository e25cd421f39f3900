"""Acceptance suite: one test per headline criterion, each with its time budget.

Expected values fall in two classes: identities checked exactly against an
independent construction (factorizations, recursions, oracle agreement), and
frozen goldens recorded from a first computation that was cross-checked by
hand or by a second code path (the projective count, the verdict JSON bytes).
"""

import time

import pytest

from apnforge.ddt import (
    FamilySpec,
    corollary_bound,
    diff_spectrum,
    ekp_admissible_u,
    family_poly,
    is_apn,
    projective_point_count,
    prop1_check,
)
from apnforge.field import create_field
from apnforge.phi import build_phi_j, denominator_surface, gold_product
from apnforge.poly import UniPoly, tri_mul
from apnforge.screen import (
    coprime_bruteforce,
    coprime_gold_formula,
    lucas_mod2,
    screen_exceptional,
    theorem1_min_field,
)

F2 = create_field(1)


class budget:
    """Context manager asserting the block stays under its time budget."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"budget exceeded: {elapsed:.1f}s >= {self.limit}s"
        return False


def test_criterion_01_gold_factorization():
    with budget(10):
        for k in (2, 3, 4, 5):
            ctx = create_field(k)
            assert gold_product(k, ctx) == build_phi_j((1 << k) + 1, ctx), k


def test_criterion_02_homogeneity_and_degree():
    with budget(10):
        for j in range(3, 66):
            p = build_phi_j(j, F2)
            assert p.is_homogeneous(), j
            if p.is_zero():
                assert j < 3 or (j & (j - 1)) == 0, j
            else:
                assert p.total_degree() == j - 3, j


def test_criterion_03_even_identity():
    with budget(30):
        d = denominator_surface(F2)
        for m in range(1, 33):
            assert build_phi_j(2 * m, F2) == tri_mul(d, build_phi_j(m, F2).square()), m


def test_criterion_04_coprimality_oracle_agreement():
    with budget(120):
        cases = 0
        for k in range(1, 25):
            for d in range(3, 256, 2):
                assert coprime_gold_formula(k, d) == coprime_bruteforce(k, d), (k, d)
                cases += 1
            # even d = 2^s*m: phi_d = D^(2^s-1) * phi_m^(2^s), and D shares no
            # factor with the Gold forms; m = 1 leaves the zero surface
            for d in range(4, 256, 2):
                m = d // (d & -d)
                expected = m > 1 and coprime_gold_formula(k, m)
                assert coprime_bruteforce(k, d) == expected, (k, d)
                cases += 1
        assert cases == 24 * (127 + 126)
        assert coprime_bruteforce(2, 9) is True
        assert coprime_bruteforce(4, 5) is False
        assert coprime_bruteforce(3, 9) is False


def test_criterion_05_family_table():
    with budget(120):
        uniform_two = (
            FamilySpec("gold", 4, 1),
            FamilySpec("gold", 10, 3),
            FamilySpec("kasami-welch", 5, 2),
            FamilySpec("welch", 5, 2),
            FamilySpec("niho", 5, 2),
            FamilySpec("inverse", 5, 2),
            FamilySpec("dobbertin", 5, 1),
        )
        for spec in uniform_two:
            assert diff_spectrum(family_poly(spec)).uniformity == 2, spec
        assert diff_spectrum(UniPoly(create_field(4), {5: 1})).uniformity >= 4
        assert diff_spectrum(UniPoly(create_field(6), {9: 1})).uniformity >= 4


def test_criterion_06_ekp_binomial():
    with budget(300):
        ctx = create_field(10)
        us = ekp_admissible_u(ctx)
        sampled = [us[0], us[len(us) // 3], us[2 * len(us) // 3], us[-1]]
        assert len(set(sampled)) == 4
        for u in sampled:
            f = UniPoly(ctx, {36: u, 3: 1})
            assert diff_spectrum(f).uniformity == 2, hex(u)


def test_criterion_07_prop1_equivalence():
    with budget(120):
        shapes = ({3: 1}, {5: 1}, {7: 1}, {9: 1, 7: 1}, {13: 1})
        for n in (4, 5):
            ctx = create_field(n)
            for terms in shapes:
                f = UniPoly(ctx, terms)
                holds, witness = prop1_check(f)
                assert holds == is_apn(f), (n, terms)
                assert (witness is None) == holds


def test_criterion_08_evenness_of_solution_counts():
    specs = [
        (4, {3: 1}),
        (4, {5: 1}),
        (5, {9: 1, 7: 1}),
        (5, {13: 1}),
        (6, {9: 1}),
        (6, {3: 1, 2: 1}),
        (7, {5: 1, 3: 1}),
    ]
    for n, terms in specs:
        spectrum = diff_spectrum(UniPoly(create_field(n), terms))
        assert sum(spectrum.rows.values()) == (1 << n) - 1, (n, terms)
        for hist in spectrum.rows:
            assert all(count % 2 == 0 for count, _ in hist), (n, terms)


def test_criterion_09_lucas():
    with budget(5):
        row = [1]
        for a in range(1, 513):
            row = [1] + [(row[b - 1] + row[b]) % 2 for b in range(1, a)] + [1]
            for b, want in enumerate(row):
                assert lucas_mod2(a, b) == want, (a, b)
        for i in range(1, 5):
            for l in range(1, 32, 2):
                assert lucas_mod2((1 << i) * l + 1, (1 << i) + 1) == 1, (i, l)


def test_criterion_10_corollary_bound_implication():
    with budget(180):
        for n in (5, 7):
            ctx = create_field(n)
            f = UniPoly(ctx, {9: 1, 7: 1})
            verdict = screen_exceptional(f)
            assert verdict.theorem == "Thm 11"
            if is_apn(f):
                count = projective_point_count(f)
                assert count <= corollary_bound(9, ctx.order), n
        # premise is false on both fields; pin the n=5 count as a golden anyway
        assert projective_point_count(UniPoly(create_field(5), {9: 1, 7: 1})) == 1058


GOLDEN_VERDICTS = {
    "x^3": '{"heuristic": false, "status": "ConjecturedExceptional", "theorem": null, "trace": [{"inputs": {"degree": 3}, "outcome": "Gold exponent 2^1+1", "test": "monomial_family"}]}',
    "x^7+x^5": '{"heuristic": false, "status": "NotExceptional", "theorem": "Thm 2", "trace": [{"inputs": {"degree": 7}, "outcome": "odd, not a Gold number, not a Kasami-Welch number", "test": "odd_degree_family_check"}]}',
    "x^6+x^3": '{"heuristic": false, "status": "NotExceptional", "theorem": "Thm 3", "trace": [{"inputs": {"degree": 6, "e": 3}, "outcome": "odd-degree term of degree 3 present", "test": "even_degree_odd_term"}]}',
    "x^9+x^7": '{"heuristic": false, "status": "NotExceptional", "theorem": "Thm 11", "trace": [{"inputs": {"degree": 9, "h_degree": 7, "k": 3}, "outcome": "x^9 + h with deg h = 7", "test": "gold_decomposition"}, {"inputs": {"d": 7, "k": 3}, "outcome": "coprime (7 is not a Gold number)", "test": "coprimality_formula"}]}',
    "x^9+x^5": '{"heuristic": false, "status": "NotExceptional", "theorem": "Thm 11", "trace": [{"inputs": {"degree": 9, "h_degree": 5, "k": 3}, "outcome": "x^9 + h with deg h = 5", "test": "gold_decomposition"}, {"inputs": {"d": 5, "k": 3}, "outcome": "coprime (5 = 2^2+1, gcd(2, 3) = 1)", "test": "coprimality_formula"}]}',
    "x^17+x^5": '{"heuristic": false, "status": "Inconclusive", "theorem": null, "trace": [{"inputs": {"degree": 17, "h_degree": 5, "k": 4}, "outcome": "x^17 + h with deg h = 5", "test": "gold_decomposition"}, {"inputs": {"d": 5, "k": 4}, "outcome": "shared factor (5 = 2^2+1, gcd(2, 4) = 2)", "test": "coprimality_formula"}, {"inputs": {"k": 4, "term_degrees": [5]}, "outcome": "5: shared factor; no term coprime to the leading product", "test": "per_term_coprimality"}, {"inputs": {"degree": 17}, "outcome": "no applicable criterion", "test": "fallback"}]}',
    "x^17+x^10": '{"heuristic": false, "status": "Inconclusive", "theorem": null, "trace": [{"inputs": {"degree": 17, "h_degree": 10, "k": 4}, "outcome": "x^17 + h with deg h = 10", "test": "gold_decomposition"}, {"inputs": {"h_degree": 10, "k": 4}, "outcome": "not applicable; deg h is even or below 3", "test": "coprimality_formula"}, {"inputs": {"k": 4, "term_degrees": [10]}, "outcome": "10: shared factor; no term coprime to the leading product", "test": "per_term_coprimality"}, {"inputs": {"h_degree": 10, "k": 4, "n": 5}, "outcome": "deg h at the boundary 2^(k-1)+2 but k is even", "test": "boundary_shape"}, {"inputs": {"h_degree": 10, "k2": 2}, "outcome": "deg f = 2^4+1 and deg h = 2^3+2 match the even boundary; no term passed the coprimality scan", "test": "even_boundary_shape"}, {"inputs": {"odd_core": 5, "top_degree": 10}, "outcome": "phi_10 = D*phi_5^2 and phi_5 shares linear factors with the leading product over GF(2^2); the coprimality hypothesis cannot hold for the boundary term", "test": "boundary_term_obstruction"}, {"inputs": {"degree": 17}, "outcome": "no applicable criterion", "test": "fallback"}]}',
    "x^12+x^3": '{"heuristic": false, "status": "Informational", "theorem": null, "trace": [{"inputs": {"degree": 12, "e": 3, "q": 32}, "outcome": "skipped; exhaustive search requires q <= 4", "test": "cubic_divisor_search"}, {"inputs": {"degree": 12}, "outcome": "functions of degree 12 are not exceptional or are CCZ equivalent to x^3", "test": "degree_catalog"}]}',
}


def test_criterion_11_screen_regression_byte_exact():
    with budget(60):
        from apnforge.poly import parse_unipoly

        ctx = create_field(5)
        for text, want in GOLDEN_VERDICTS.items():
            verdict = screen_exceptional(parse_unipoly(text, ctx))
            assert verdict.to_json() == want, text


def test_criterion_12_min_field_bound():
    with budget(1):
        assert theorem1_min_field(9) == 17
        assert theorem1_min_field(13) == 20
        for d, n in ((9, 17), (13, 20)):
            assert (20 * d - 10) ** 4 < 6561 * (1 << n)
            assert not (20 * d - 10) ** 4 < 6561 * (1 << (n - 1))
