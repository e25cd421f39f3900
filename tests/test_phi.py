import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apnforge.phi as phi_module
from apnforge.field import create_field
from apnforge.phi import (
    PHI_WORK_BUDGET,
    build_phi,
    build_phi_j,
    denominator_surface,
    even_reduction,
    gold_product,
    numerator_surface,
    phi_work,
)
from apnforge.poly import ConstraintViolated, TriPoly, UniPoly, tri_mul

F2 = create_field(1)
F32 = create_field(5)


def test_denominator_surface_expansion():
    d = denominator_surface(F2)
    assert d.terms == {
        (2, 1, 0): 1,
        (2, 0, 1): 1,
        (1, 2, 0): 1,
        (1, 0, 2): 1,
        (0, 2, 1): 1,
        (0, 1, 2): 1,
    }


def test_numerator_vanishes_on_diagonal():
    f = UniPoly(F32, {9: 1, 7: 1})
    num = numerator_surface(f)
    for x in range(32):
        for z in range(0, 32, 5):
            assert num.eval(x, x, z) == 0


def test_phi_small_cases():
    assert build_phi_j(3, F2) == TriPoly.const(F2, 1)
    assert build_phi_j(5, F2).render() == "x^2+x*y+x*z+y^2+y*z+z^2"
    assert build_phi_j(1, F2).is_zero()
    assert build_phi_j(2, F2).is_zero()
    assert build_phi_j(4, F2).is_zero()
    assert build_phi_j(64, F2).is_zero()


@pytest.mark.parametrize("j", range(3, 66))
def test_phi_homogeneous_of_degree_j_minus_3(j):
    p = build_phi_j(j, F2)
    assert p.is_homogeneous()
    if not p.is_zero():
        assert p.total_degree() == j - 3


def test_phi_times_denominator_is_numerator():
    for j in (5, 9, 11, 17):
        f = UniPoly(F2, {j: 1})
        assert tri_mul(denominator_surface(F2), build_phi_j(j, F2)) == numerator_surface(f)


@settings(max_examples=30, deadline=None)
@given(
    a=st.dictionaries(st.integers(1, 24), st.integers(1, 31), max_size=4),
    b=st.dictionaries(st.integers(1, 24), st.integers(1, 31), max_size=4),
)
def test_build_phi_is_linear(a, b):
    f = UniPoly(F32, a)
    g = UniPoly(F32, b)
    assert build_phi(f + g) == build_phi(f) + build_phi(g)


def test_build_phi_matches_monomial_builder():
    f = UniPoly(F32, {9: 7, 5: 1})
    from apnforge.poly import embed_tripoly

    want = embed_tripoly(build_phi_j(9, F2), F32).scale(7) + embed_tripoly(
        build_phi_j(5, F2), F32
    )
    assert build_phi(f) == want


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gold_product_equals_phi(k):
    ctx = create_field(k)
    assert gold_product(k, ctx) == build_phi_j((1 << k) + 1, ctx)


def test_gold_product_requires_room_for_subfield():
    with pytest.raises(ValueError):
        gold_product(3, create_field(5))


@pytest.mark.parametrize("j", range(4, 65, 2))
def test_even_reduction_identity(j):
    mult, m, t = even_reduction(j, F2)
    assert j == (1 << t) * m and m % 2 == 1
    # multiplier must be D^(2^t - 1); re-derive by plain repeated product
    d = denominator_surface(F2)
    dpow = TriPoly.const(F2, 1)
    for _ in range((1 << t) - 1):
        dpow = tri_mul(dpow, d)
    assert mult == dpow
    phim_pow = build_phi_j(m, F2)
    for _ in range(t):
        phim_pow = phim_pow.square()
    assert build_phi_j(j, F2) == tri_mul(dpow, phim_pow)


def test_even_reduction_rejects_odd():
    with pytest.raises(ConstraintViolated):
        even_reduction(9, F2)


def test_phi_10_is_d_times_phi_5_squared():
    d = denominator_surface(F2)
    assert build_phi_j(10, F2) == tri_mul(d, build_phi_j(5, F2).square())


def test_phi_6_is_d():
    assert build_phi_j(6, F2) == denominator_surface(F2)


def test_phi_work_estimate():
    # 3^popcount(j) exponent triples per term against the (deg-1)(deg-2)/2
    # terms of the quotient
    assert phi_work(UniPoly(F2, {65535: 1})) == max(3**16, 65534 * 65533 // 2)
    assert phi_work(UniPoly(F2, {255: 1, 7: 1})) == 254 * 253 // 2
    assert phi_work(UniPoly(F2, {15: 1, 7: 1})) == 81 + 27
    assert phi_work(UniPoly(F2, {3: 1, 2: 1})) == 9 + 3
    assert phi_work(UniPoly(F2, {})) == 0


def test_phi_work_budget_refuses_before_building(monkeypatch):
    def no_expansion(j):
        raise AssertionError("expanded an input over the budget")

    monkeypatch.setattr(phi_module, "_sym_power_triples", no_expansion)
    # x^513 is the largest monomial inside the budget, x^514 the smallest outside
    assert phi_work(UniPoly(F2, {513: 1})) <= PHI_WORK_BUDGET < phi_work(UniPoly(F2, {514: 1}))
    for terms in ({514: 1}, {65535: 1}, {32769: 1, 3: 1}):
        with pytest.raises(ConstraintViolated, match="budget"):
            build_phi(UniPoly(F32, terms))
        with pytest.raises(ConstraintViolated, match="budget"):
            numerator_surface(UniPoly(F32, terms))
