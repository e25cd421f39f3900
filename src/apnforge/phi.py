"""Surface polynomials attached to univariate polynomials over GF(2^n).

For f over L = GF(2^n) the fourfold symmetric sum
    N_f(x, y, z) = f(x) + f(y) + f(z) + f(x+y+z)
vanishes on the three planes x = y, x = z, y = z, hence is exactly divisible
by D = (x+y)(x+z)(y+z).  The quotient phi_f = N_f / D is the object the
screening and coprimality machinery works on.  For a monomial x^j the quotient
phi_j is homogeneous of degree j - 3 (zero when j is a power of two or < 3),
and phi_f is the coefficient-weighted sum of the phi_j.
"""

from __future__ import annotations

from functools import lru_cache

from .field import FieldCtx
from .poly import (
    ConstraintViolated,
    NotDivisible,
    TriPoly,
    UniPoly,
    exact_div_linear,
    linear_form,
    tri_mul,
)

_PLANE_FORMS = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
PHI_WORK_BUDGET = 1 << 17  # x^513: about 0.4 s and 40 MB


@lru_cache(maxsize=None)
def denominator_surface(ctx: FieldCtx) -> TriPoly:
    """D = (x+y)(x+z)(y+z), the union-of-planes surface."""
    d = linear_form(ctx, 1, 1, 0)
    d = tri_mul(d, linear_form(ctx, 1, 0, 1))
    return tri_mul(d, linear_form(ctx, 0, 1, 1))


def _sym_power_triples(j: int) -> list[tuple[int, int, int]]:
    # exponent triples of (x+y+z)^j; mod 2 each bit of j lands on one variable
    triples = [(0, 0, 0)]
    b = 1
    while b <= j:
        if j & b:
            triples = [
                t
                for (i, jj, k) in triples
                for t in ((i + b, jj, k), (i, jj + b, k), (i, jj, k + b))
            ]
        b <<= 1
    return triples


def phi_work(f: UniPoly) -> int:
    """Terms phi_f costs: max(sum of 3^popcount(j) over f's terms, (deg-1)(deg-2)/2).

    The first is the expansion of N_f, the second the size of the quotient,
    a form of degree deg - 3 in three variables.
    """
    deg = f.degree()
    quotient = (deg - 1) * (deg - 2) // 2 if deg >= 3 else 0
    return max(sum(3 ** j.bit_count() for j in f.terms), quotient)


def _refuse_over_budget(f: UniPoly) -> None:
    work = phi_work(f)
    if work > PHI_WORK_BUDGET:
        raise ConstraintViolated(
            f"the surface of a degree-{f.degree()} polynomial needs about {work} "
            f"terms, above the budget of {PHI_WORK_BUDGET}"
        )


def numerator_surface(f: UniPoly) -> TriPoly:
    """N_f(x,y,z) = f(x) + f(y) + f(z) + f(x+y+z).

    Refuses, before building anything, an f whose phi_work is above
    PHI_WORK_BUDGET.
    """
    _refuse_over_budget(f)
    out: dict[tuple[int, int, int], int] = {}
    for j, c in f.terms.items():
        for key in _sym_power_triples(j) + [(j, 0, 0), (0, j, 0), (0, 0, j)]:
            out[key] = out.get(key, 0) ^ c
    return TriPoly(f.ctx, out)


def _divide_by_planes(p: TriPoly) -> TriPoly:
    try:
        for form in _PLANE_FORMS:
            p = exact_div_linear(p, form)
    except NotDivisible as exc:  # pragma: no cover - guards an internal bug
        raise RuntimeError(
            "symmetric numerator was not divisible by the plane product"
        ) from exc
    return p


def build_phi(f: UniPoly) -> TriPoly:
    """phi_f = N_f / D; zero when deg(f) < 3."""
    return _divide_by_planes(numerator_surface(f))


@lru_cache(maxsize=None)
def build_phi_j(j: int, ctx: FieldCtx) -> TriPoly:
    """phi_j for the monomial x^j; homogeneous of degree j - 3 when nonzero."""
    if j < 0:
        raise ConstraintViolated(f"monomial degree must be nonnegative, got {j}")
    return build_phi(UniPoly(ctx, {j: 1}))


def gold_product(k: int, ctx: FieldCtx) -> TriPoly:
    """Product of x + a*y + (a+1)*z over a in GF(2^k) minus GF(2).

    Requires k | ctx.n so the subfield is available; the result equals
    phi_(2^k+1) term for term, with all coefficients landing in GF(2).  So
    it costs what that surface costs, and is refused, before any form is
    multiplied, under the same PHI_WORK_BUDGET.
    """
    _refuse_over_budget(UniPoly(ctx, {(1 << k) + 1: 1}))
    alphas = [a for a in ctx.subfield_elements(k) if a > 1]
    prod = TriPoly.const(ctx, 1)
    for a in alphas:
        prod = tri_mul(prod, linear_form(ctx, 1, a, a ^ 1))
    return prod


def even_reduction(j: int, ctx: FieldCtx) -> tuple[TriPoly, int, int]:
    """Decompose phi_j = D^(2^t - 1) * phi_m^(2^t) for j = 2^t * m, m odd.

    Returns (multiplier, m, t) with multiplier = D^(2^t - 1).  The identity is
    re-derived by explicit construction of both sides; a mismatch aborts, as it
    would mean the construction itself is broken.
    """
    if j < 4 or j % 2:
        raise ConstraintViolated(f"even reduction needs an even j >= 4, got {j}")
    m, t = j, 0
    while m % 2 == 0:
        m //= 2
        t += 1

    d = denominator_surface(ctx)
    multiplier = TriPoly.const(ctx, 1)
    sq = d
    for _ in range(t):
        multiplier = tri_mul(multiplier, sq)
        sq = sq.square()

    rhs = build_phi_j(m, ctx)
    for _ in range(t):
        rhs = rhs.square()
    rhs = tri_mul(multiplier, rhs)
    if rhs != build_phi_j(j, ctx):
        raise AssertionError(f"even reduction identity failed for j={j}")
    return multiplier, m, t
