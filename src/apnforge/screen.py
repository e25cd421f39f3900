"""Exceptional-APN screening: coprimality tests, divisor oracles, verdicts.

The central question for a polynomial f over GF(2^n) is whether its surface
phi_f can be certified absolutely irreducible (or reducible in a structured
way), because that decides whether f can stay APN over infinitely many
extension fields.  This module provides the arithmetic criteria as checkable
operations plus a fixed-order decision tree that applies them and records a
replayable trace.

Theorem identifiers ("Thm 2" .. "Thm 12") name entries of the rule catalog in
the package README; each rule is an arithmetic statement about degrees and
surface coprimality.  replay_trace checks each trace entry's claim about f's
degrees and re-derives the whole verdict from f.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .field import (
    MAX_DEGREE,
    FieldCtx,
    _pgcd,
    _x_pow_2e_mod,
    create_field,
    subfield_embedding,
)
from .phi import build_phi, denominator_surface
from .poly import (
    DEGREE_CAP,
    ConstraintViolated,
    NotDivisible,
    TriPoly,
    UniPoly,
    _submasks,
    embed_tripoly,
    exact_div_linear,
)

# Tail terms above this degree are left out of the screen's per-term
# coprimality scan.  coprime_bruteforce itself reaches DEGREE_CAP; the filter
# stays until Thm 5 gets its bound on deg h, which decides which terms may
# certify, so that screen verdicts do not change before then.
PER_TERM_SCAN_MAX_DEGREE = 1 << 8
LINEAR_SCAN_MAX_M = 8


def lucas_mod2(a: int, b: int) -> int:
    """C(a, b) mod 2 via the base-2 digit rule: odd iff bits(b) is a subset of bits(a)."""
    if a < 0 or b < 0:
        raise ConstraintViolated("binomial arguments must be nonnegative")
    return 1 if a & b == b else 0


def gold_param(d: int) -> int | None:
    """l with d = 2^l + 1, or None; d = 2 is excluded (l would be 0)."""
    if d >= 3 and (d - 1) & (d - 2) == 0:
        return (d - 1).bit_length() - 1
    return None


def kasami_param(d: int) -> int | None:
    """k >= 2 with d = 2^(2k) - 2^k + 1, or None; k = 1 would give 3, already Gold.

    d - 1 = 2^k * (2^k - 1) with 2^k - 1 odd: k is the 2-adic valuation of d - 1.
    """
    k = ((d - 1) & -(d - 1)).bit_length() - 1
    return k if k >= 2 and (d - 1) >> k == (1 << k) - 1 else None


def _form_divides(p: TriPoly, form: tuple[int, int, int]) -> bool:
    try:
        exact_div_linear(p, form)
    except NotDivisible:
        return False
    return True


def linear_form_divides(p: TriPoly, alpha: int) -> bool:
    """True iff (x + alpha*y + (alpha+1)*z) divides p.

    Decided by exact division (poly.exact_div_linear): synthetic division in
    x leaves a zero remainder exactly when the form divides p.
    """
    return _form_divides(p, (1, alpha, alpha ^ 1))


def shifted_form_divides(p: TriPoly, alpha: int) -> bool:
    """True iff (x + alpha*y) divides the z-free polynomial p (an image of
    shift_xy), decided by exact division like linear_form_divides."""
    if any(c for (_a, _b, c) in p.terms):
        raise ConstraintViolated("the bivariate test needs a z-free polynomial")
    return _form_divides(p, (1, alpha, 0))


def coprime_gold_formula(k: int, d: int) -> bool:
    """Closed form: phi_(2^k+1) and phi_d share a factor iff d = 2^l+1 with gcd(l, k) > 1."""
    if k < 1:
        raise ConstraintViolated(f"k must be positive, got {k}")
    if d < 3 or d % 2 == 0:
        raise ConstraintViolated(
            f"the closed form needs odd d >= 3, got {d}; strip even parts first"
        )
    l = gold_param(d)
    return l is None or gcd(l, k) == 1


def _numerator_vanishes(ctx: FieldCtx, j: int, alpha: int, beta: int) -> bool:
    # N_j(alpha*y + beta*z, y, z) == 0 for N_j = x^j + y^j + z^j + (x+y+z)^j;
    # by Lucas the coefficient of y^s z^(j-s), s a submask of j, is
    # alpha^s beta^(j-s) + (alpha+1)^s (beta+1)^(j-s) + [s = j] + [s = 0]
    alpha1, beta1 = alpha ^ 1, beta ^ 1
    for s in _submasks(j):
        c = ctx.mul(ctx.pow(alpha, s), ctx.pow(beta, j - s))
        c ^= ctx.mul(ctx.pow(alpha1, s), ctx.pow(beta1, j - s))
        c ^= (s == j) ^ (s == 0)
        if c:
            return False
    return True


def _plus_one_power(m: int) -> int:
    # (t+1)^m in GF(2)[t]: the product of t^(2^b) + 1 over the set bits b of m
    r, step = 1, 1
    while m:
        if m & 1:
            r ^= r << step
        m >>= 1
        step <<= 1
    return r


def coprime_bruteforce(k: int, d: int) -> bool:
    """Whether phi_(2^k+1) and phi_d share no factor, decided by one gcd in GF(2)[t].

    phi_(2^k+1) is a product of the forms x + a*y + (a+1)*z over a in
    GF(2^k) minus GF(2), so a shared factor must be one of those forms.  No
    such form divides D = (x+y)(x+z)(y+z), so it divides phi_d exactly when
    it divides N_d = D * phi_d, for every d, even d included.  Substituting
    x = a*y + (a+1)*z into N_d leaves one coefficient per submask s of d
    (Lucas), and each is a fixed polynomial over GF(2) evaluated at a:

        Q_s(t) = t^s (t+1)^(d-s) + (t+1)^s t^(d-s) + [s = d] + [s = 0].

    So the dividing forms are the roots a != 0, 1 of
    G = gcd(t^(2^k) + t, Q_s for every submask s).  Every Q_s vanishes at 0
    and 1, and t^(2^k) + t is squarefree, so phi_d is coprime to the Gold
    product exactly when G = t(t+1).  The walk folds g = gcd(Q_d, Q_s, ...)
    from s = d on (Q_d != 0 unless d is a power of two), and from the second
    submask on reduces t^(2^k) + t modulo g (deg g >= 2), never modulo Q_d of
    degree near d; it stops as soon as G = t(t+1).  No field is built.
    """
    if not 1 <= k <= MAX_DEGREE:
        raise ConstraintViolated(f"k must be in 1..{MAX_DEGREE}, got {k}")
    if not 3 <= d <= DEGREE_CAP:
        raise ConstraintViolated(f"d must be in 3..{DEGREE_CAP}, got {d}")
    if d & (d - 1) == 0:
        return False  # phi_d is zero and nothing is coprime to zero
    g = 0
    for s in _submasks(d):
        q = (_plus_one_power(d - s) << s) ^ (_plus_one_power(s) << (d - s)) ^ (s == d) ^ (s == 0)
        folded, g = g != 0, _pgcd(g, q)
        if folded and _pgcd(g, _x_pow_2e_mod(k, g) ^ 0b10) == 0b110:
            return True  # t(t+1): no root outside GF(2)
    return False


@dataclass(frozen=True)
class AuditReport:
    """Outcome of the root-of-unity chain behind the coprimality proof."""

    k: int
    m: int
    i: int
    l: int
    gold_case: bool
    entrants: tuple[int, ...]
    violations: tuple[tuple[int, str], ...]

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "i": self.i,
            "l": self.l,
            "gold_case": self.gold_case,
            "entrants": list(self.entrants),
            "violations": [{"alpha": a, "stage": s} for a, s in self.violations],
        }


def root_of_unity_audit(k: int, m: int, ambient: FieldCtx | None = None) -> AuditReport:
    """Audit the chain that rules out shared forms for odd m = 2^i*l + 1.

    If x + a*y divides the shifted surface of phi_m then, writing
    f(x, y) = shifted(phi_m) * x * y * (x+y) = N_m(x+1, y+1, 1), every
    homogeneous component F_c = C(m, c) * (x^c + y^c + (x+y)^c) must vanish
    at (a, 1).  The two top components ask a^l + b^l = 1 and
    a^(l+1) + b^(l+1) = 1 with b = a + 1; the entrants are the a in GF(2^k)
    minus GF(2) that satisfy both.

    Since a + b = 1, the second equation minus (a + b) times the first is
    a*b*(a^(l-1) + b^(l-1)) = 0, and a*b != 0; with a^(l-1) = b^(l-1) the
    first becomes (a + b)*a^(l-1) = 1.  So the two hold together exactly
    when a^(l-1) = b^(l-1) = 1, that is a^g = b^g = 1 for
    g = gcd(l - 1, 2^k - 1); such a lie in GF(2^r), r = ord_g(2) the least r
    with g | 2^r - 1, and only GF(2^r) is walked.  When g = 2^r - 1 every
    element of GF(2^r) minus GF(2) is an entrant, with no power taken.
    That settles the rest of the chain for every entrant:
    c = m - 2^i - 1 = 2^i*(l-1) is a multiple
    of l - 1 whose bits lie inside m's, so C(m, c) is odd and
    F_c(a, 1) = a^c + b^c + 1 = 1 does not vanish.  No entrant can break the
    chain, so violations is always empty.
    """
    if not 1 <= k <= MAX_DEGREE:
        raise ConstraintViolated(f"k must be in 1..{MAX_DEGREE}, got {k}")
    if m < 3 or m % 2 == 0:
        raise ConstraintViolated(f"m must be odd and at least 3, got {m}")
    if ambient is None:
        ambient = create_field(k)
    if ambient.n % k:
        raise ConstraintViolated(f"ambient GF(2^{ambient.n}) does not contain GF(2^{k})")
    i = ((m - 1) & -(m - 1)).bit_length() - 1
    l = (m - 1) >> i
    if l == 1:
        return AuditReport(k, m, i, l, True, (), ())
    g = gcd(l - 1, (1 << k) - 1)
    r = next(r for r in range(1, k + 1) if ((1 << r) - 1) % g == 0)
    sub = ambient.subfield_elements(r)
    if g == (1 << r) - 1:  # every a in GF(2^r)* has a^g = 1
        entrants = tuple(sub[2:])
    else:
        entrants = tuple(
            a for a in sub if a > 1 and ambient.pow(a, g) == 1 == ambient.pow(a ^ 1, g)
        )
    return AuditReport(k, m, i, l, False, entrants, ())


def _cubic_candidate(ext: FieldCtx, params: tuple[int, int, int, int]) -> TriPoly:
    c1, c4, b1, d = (ext.validate(v) for v in params)
    terms = {(2, 0, 0): c1, (0, 2, 0): c1, (0, 0, 2): c1}
    terms.update({(1, 1, 0): c4, (1, 0, 1): c4, (0, 1, 1): c4})
    terms.update({(1, 0, 0): b1, (0, 1, 0): b1, (0, 0, 1): b1, (0, 0, 0): d})
    return denominator_surface(ext) + TriPoly(ext, terms)


def _trial_division_divides(p: TriPoly, divisor: TriPoly) -> bool:
    # Division by one divisor, leading terms taken in plain tuple order (lex,
    # x > y > z).  Any monomial order works for a single divisor: the order
    # is multiplicative, so each step cancels the current leading term and
    # adds only smaller ones, and the remainder, zero exactly when divisor | p,
    # is unique.  Abort at the first leading term the divisor's does not divide.
    ctx = p.ctx
    lead = max(divisor.terms)
    inv_lead = ctx.inv(divisor.terms[lead])
    rest = [(mono, coeff) for mono, coeff in divisor.terms.items() if mono != lead]
    work = dict(p.terms)
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        da, db, dc = mono[0] - lead[0], mono[1] - lead[1], mono[2] - lead[2]
        if da < 0 or db < 0 or dc < 0:
            return False
        q = ctx.mul(coeff, inv_lead)
        for (a, b, c), dcoeff in rest:
            key = (a + da, b + db, c + dc)
            r = work.get(key, 0) ^ ctx.mul(q, dcoeff)
            if r:
                work[key] = r
            elif key in work:
                del work[key]
    return True


def _lift_to_cubic_extension(phi: TriPoly) -> TriPoly:
    ext = create_field(3 * phi.ctx.n)  # houses the cubic-divisor parameters
    return embed_tripoly(phi, ext, subfield_embedding(phi.ctx, ext))


def cubic_divisor_check(phi: TriPoly, params: tuple[int, int, int, int]) -> bool:
    """True iff (x+y)(y+z)(z+x) + P divides phi, with P the symmetric
    polynomial c1*(x^2+y^2+z^2) + c4*(xy+xz+yz) + b1*(x+y+z) + d built from
    params over the cubic extension of phi's field."""
    if phi.total_degree() < 3:
        return False
    lifted = _lift_to_cubic_extension(phi)
    return _trial_division_divides(lifted, _cubic_candidate(lifted.ctx, params))


def exhaustive_cubic_search(phi: TriPoly) -> list[tuple[int, int, int, int]]:
    """All parameter quadruples whose cubic divides phi, in sorted order.

    Restricted to base fields with q <= 4: the q = 4 case already walks 64^4
    candidates.  Candidates are first rejected through evaluation: a divisor
    cannot vanish where phi does not.  A probe's terms in c1 and c4 are
    added once per slice, and for each (c1, c4, b1) one pass over the probes
    collects the d at which the candidate vanishes on some probe, stopping
    once every d is ruled out; only the d left are trial-divided.  On
    x^12 + x^3 over GF(4) one c1 slice took 0.5-1.2 s and the whole search
    76 s (2-core x86_64, CPython 3.11, shared host).
    """
    if phi.ctx.order > 4:
        raise ConstraintViolated("exhaustive cubic search is limited to q <= 4")
    lifted = _lift_to_cubic_extension(phi)
    if lifted.total_degree() < 3:
        return []
    ext = lifted.ctx

    # affine-chart samples (x, y, 1) with phi != 0; for those points a
    # dividing cubic can never vanish
    probes: list[tuple[int, int, int, int]] = []
    for x in range(ext.order):
        for y in range(ext.order):
            if lifted.eval(x, y, 1) == 0:
                continue
            dval = ext.mul(ext.mul(x ^ y, x ^ 1), y ^ 1)
            s2 = ext.sqr(x) ^ ext.sqr(y) ^ 1
            s11 = ext.mul(x, y) ^ x ^ y
            s1 = x ^ y ^ 1
            probes.append((dval, s2, s11, s1))

    found: list[tuple[int, int, int, int]] = []
    order = ext.order
    mul = ext.mul
    for c1 in range(order):
        by_c1 = [(dval ^ mul(c1, s2), s11, s1) for dval, s2, s11, s1 in probes]
        for c4 in range(order):
            by_c4 = [(v ^ mul(c4, s11), s1) for v, s11, s1 in by_c1]
            for b1 in range(order):
                ruled_out = set()  # the d at which the candidate vanishes on a probe
                for v, s1 in by_c4:
                    ruled_out.add(v ^ mul(b1, s1))
                    if len(ruled_out) == order:
                        break
                for d in range(order):
                    if d not in ruled_out and _trial_division_divides(
                        lifted, _cubic_candidate(ext, (c1, c4, b1, d))
                    ):
                        found.append((c1, c4, b1, d))
    return sorted(found)


def theorem1_min_field(d: int) -> int:
    """Smallest n >= 1 with d - 1/2 < 0.45 * 2^(n/4), decided in exact integers.

    With 0.45 = 9/20, scale by 20 and raise to the 4th power:
    (20d - 10)^4 < 9^4 * 2^n = 6561 * 2^n, that is 2^n > (20d - 10)^4 // 6561,
    whose least solution n is that quotient's bit length.
    """
    if d < 9:
        raise ConstraintViolated(f"the point-count bound applies for d >= 9, got {d}")
    return max(1, ((20 * d - 10) ** 4 // 6561).bit_length())


def _linear_factor_witness(j: int, max_m: int = LINEAR_SCAN_MAX_M):
    """(m, form description) for a linear factor of phi_j over GF(2^m), else None.

    Meant for odd j >= 5, where only forms x + alpha*y + beta*z other than
    the planes x + y and x + z can divide phi_j.  No plane does: (x+y)^2
    does not divide N_j, as dN_j/dx at x = y is y^(j-1) + z^(j-1), and N_j
    is symmetric.  A form y + gamma*z with gamma != 1 leaves the coefficient
    (gamma+1)^(j-s) of x^s z^(j-s) in N_j(x, gamma*z, z).  And z does not,
    as N_j(x, y, 0) is not zero.  The s = j and s = 0 coefficients of
    _numerator_vanishes ask alpha^j + (alpha+1)^j = 1 and the same of beta;
    the remaining pairs are walked in lexicographic order, smallest m first.
    Only Gold j = 2^l + 1 give a witness, x + 2*y + 3*z over GF(2^p) for p
    the least prime factor of l, if p <= max_m (proof in tests/test_screen.py).
    """
    for m in range(1, max_m + 1):
        fld = create_field(m)
        ends = [a for a in range(fld.order) if fld.pow(a, j) ^ fld.pow(a ^ 1, j) == 1]
        for alpha in ends:
            for beta in ends:
                if (alpha, beta) in ((1, 0), (0, 1)):
                    continue  # the planes x + y and x + z divide D, not phi_j
                if _numerator_vanishes(fld, j, alpha, beta):
                    return (m, f"x + {alpha}*y + {beta}*z")
    return None


@lru_cache(maxsize=None)
def heuristic_phi_certificate(j: int) -> tuple[bool, str]:
    """Evidence, not proof, that phi_j is absolutely irreducible.

    Checks absence of linear factors over GF(2^m), m <= LINEAR_SCAN_MAX_M,
    and absence of cubic divisors of the screened shape; verdicts built on this
    certificate carry heuristic = True.  A linear factor is a form
    x + alpha*y + beta*z that divides N_j = D * phi_j without being a plane
    of D, decided from N_j's submask coefficients (_numerator_vanishes)
    without building phi_j.  The cubic stage needs no search: phi_j is
    homogeneous, so every factor of it is, and of the screened cubics D + P
    (cubic_divisor_check) only D itself is homogeneous.  D does not divide
    phi_j for odd j, since x + y does not (see _linear_factor_witness);
    exhaustive_cubic_search checks this in the tests.  Only Gold j = 2^l + 1
    can have a linear-factor witness (_linear_factor_witness).
    """
    if j < 3 or j & (j - 1) == 0:
        return False, f"phi_{j} is zero; not absolutely irreducible"
    if j == 3:
        return False, f"phi_{j} is constant; not absolutely irreducible"
    if j % 2 == 0:
        return False, (
            f"phi_{j} factors through the plane product (even exponent); "
            "not absolutely irreducible"
        )
    witness = _linear_factor_witness(j)
    if witness is not None:
        m, form = witness
        return False, f"phi_{j} has linear factor {form} over GF(2^{m}); not absolutely irreducible"
    return True, (
        f"phi_{j}: no linear factors over GF(2^m) for m <= {LINEAR_SCAN_MAX_M} and no cubic "
        "divisors of the screened shape; certified heuristically"
    )


@dataclass
class Verdict:
    """Screening outcome plus the ordered evidence that produced it."""

    status: str
    theorem: str | None
    heuristic: bool
    trace: list[dict]

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "theorem": self.theorem,
            "heuristic": self.heuristic,
            "trace": [dict(entry) for entry in self.trace],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def _family_label(d: int) -> str:
    l = gold_param(d)
    if l is not None:
        return f"Gold exponent 2^{l}+1"
    k = kasami_param(d)
    if k is not None:
        return f"Kasami-Welch exponent 2^{2 * k}-2^{k}+1"
    return "neither a Gold nor a Kasami-Welch exponent"


def _formula_label(k: int, d: int) -> str:
    l = gold_param(d)
    if l is None:
        return f"coprime ({d} is not a Gold number)"
    g = gcd(l, k)
    if g == 1:
        return f"coprime ({d} = 2^{l}+1, gcd({l}, {k}) = 1)"
    return f"shared factor ({d} = 2^{l}+1, gcd({l}, {k}) = {g})"


def _scan_terms(k: int, degrees: list[int]) -> tuple[int | None, str]:
    if not degrees:
        return None, "no terms of degree 3 or higher to test"
    results = []
    hit = None
    for j in degrees:
        ok = coprime_bruteforce(k, j)
        results.append(f"{j}: {'coprime' if ok else 'shared factor'}")
        if ok and hit is None:
            hit = j
    tail = (
        f"term {hit} certifies"
        if hit is not None
        else "no term coprime to the leading product"
    )
    return hit, "; ".join(results) + "; " + tail


def _boundary_shape(f: UniPoly, k: int) -> tuple[bool, str]:
    """(whether Thm 6 applies to f = c*x^(2^k+1) + h: k odd, gcd(k, n) = 1,
    h not the excluded shape; label).

    The shape is stated for the monic f/c, where it reads h_3/c = (h_b/c)^2
    for b = 2^(k-1)+2; multiplied out that is h_3*c = h_b^2, which needs no
    inverse.
    """
    head = "deg h at the boundary 2^(k-1)+2"
    if k % 2 == 0:
        return False, f"{head} but k is even"
    if gcd(k, f.ctx.n) != 1:
        return False, f"{head} but gcd(k, n) > 1"
    d, boundary = (1 << k) + 1, (1 << (k - 1)) + 2
    t = f.terms
    excluded = set(t) == {d, boundary, 3} and f.ctx.mul(t[3], t[d]) == f.ctx.sqr(t[boundary])
    if excluded:
        return False, f"{head}; h matches the excluded two-term shape a*x^(2^(k-1)+2) + a^2*x^3"
    return True, f"{head}; k odd and coprime to n; h avoids the excluded two-term shape"


def screen_exceptional(f: UniPoly) -> Verdict:
    """Apply the rule catalog to f in fixed order and return a traced verdict.

    Branches, most general first: exceptional monomial families; odd degree
    outside the families; degree 2e with e odd; degree 4e with e = 3 mod 4
    (cubic-divisor search, only for q <= 4); Gold degree with a tail
    (closed-form coprimality, per-term scans, boundary shapes); Kasami-Welch
    degree with a tail (heuristic certificate); catalogued degrees 12 and 20.
    Inconclusive is the fallback, never an error.

    The rules are stated for the monic f/c, c the leading coefficient, and
    a non-monic f is recorded with a monic_normalization entry, but f is
    read as given: every rule except two looks only at f's exponents, the
    cubic search finds the same divisors of phi_f = c*phi_(f/c), and the
    Thm 6 shape is tested in a form free of c's inverse (_boundary_shape).
    """
    if f.degree() < 1:
        raise ConstraintViolated("screening requires a nonconstant polynomial")
    trace: list[dict] = []

    def note(test: str, inputs: dict, outcome: str) -> None:
        trace.append({"test": test, "inputs": inputs, "outcome": outcome})

    *tail, d = sorted(f.terms)
    if f.terms[d] != 1:
        note(
            "monic_normalization",
            {"leading_coeff": f.terms[d]},
            "scaled to a monic representative",
        )

    ctx = f.ctx
    gl = gold_param(d)
    kw = kasami_param(d)

    if not tail and (gl is not None or kw is not None):
        note("monomial_family", {"degree": d}, _family_label(d))
        return Verdict("ConjecturedExceptional", None, False, trace)

    if d % 2 and gl is None and kw is None:
        note(
            "odd_degree_family_check",
            {"degree": d},
            "odd, not a Gold number, not a Kasami-Welch number",
        )
        return Verdict("NotExceptional", "Thm 2", False, trace)

    if d % 4 == 2:
        e = d // 2
        odd_terms = [j for j in tail if j % 2]
        if odd_terms:
            note(
                "even_degree_odd_term",
                {"degree": d, "e": e},
                f"odd-degree term of degree {odd_terms[-1]} present",
            )
            return Verdict("NotExceptional", "Thm 3", False, trace)
        note("even_degree_odd_term", {"degree": d, "e": e}, "no odd-degree term present")

    if d % 4 == 0 and (d // 4) % 4 == 3:
        inputs = {"degree": d, "e": d // 4, "q": ctx.order}
        if ctx.order > 4:
            note("cubic_divisor_search", inputs, "skipped; exhaustive search requires q <= 4")
        elif found := exhaustive_cubic_search(build_phi(f)):
            note("cubic_divisor_search", inputs, f"{len(found)} cubic divisor(s) found")
        else:
            note("cubic_divisor_search", inputs, "no divisor of the cubic shape")
            return Verdict("NotExceptional", "Thm 4", False, trace)

    if gl is not None and tail:
        k = gl
        dh = tail[-1]
        note(
            "gold_decomposition",
            {"k": k, "degree": d, "h_degree": dh},
            f"x^{d} + h with deg h = {dh}",
        )
        if dh >= 3 and dh % 2:
            label = _formula_label(k, dh)
            note("coprimality_formula", {"k": k, "d": dh}, label)
            if coprime_gold_formula(k, dh):
                return Verdict("NotExceptional", "Thm 11", False, trace)
        else:
            note(
                "coprimality_formula",
                {"k": k, "h_degree": dh},
                "not applicable; deg h is even or below 3",
            )
        eligible = [j for j in tail if 3 <= j <= PER_TERM_SCAN_MAX_DEGREE]
        hit, detail = _scan_terms(k, eligible)
        note("per_term_coprimality", {"k": k, "term_degrees": eligible}, detail)
        if hit is not None:
            return Verdict("NotExceptional", "Thm 5", False, trace)
        boundary = (1 << (k - 1)) + 2
        if dh == boundary:
            avoids, label = _boundary_shape(f, k)
            note("boundary_shape", {"k": k, "h_degree": dh, "n": ctx.n}, label)
            if avoids:
                return Verdict("NotExceptional", "Thm 6", False, trace)
            if k % 2 == 0:
                note(
                    "even_boundary_shape",
                    {"k2": k // 2, "h_degree": dh},
                    f"deg f = 2^{k}+1 and deg h = 2^{k - 1}+2 match the even boundary; "
                    "no term passed the coprimality scan",
                )
                core = dh // 2
                note(
                    "boundary_term_obstruction",
                    {"top_degree": dh, "odd_core": core},
                    f"phi_{dh} = D*phi_{core}^2 and phi_{core} shares linear factors with "
                    "the leading product over GF(2^2); the coprimality hypothesis cannot "
                    "hold for the boundary term",
                )

    if kw is not None and tail:
        dg = tail[-1]
        bound = (1 << (2 * kw - 1)) - (1 << (kw - 1)) + 1
        within = dg <= bound
        note(
            "kasami_decomposition",
            {"k": kw, "degree": d, "g_degree": dg, "bound": bound},
            "deg g within the bound" if within else "deg g exceeds the bound",
        )
        if within:
            for j in tail:
                if j < 3:
                    continue
                ok, summary = heuristic_phi_certificate(j)
                note("irreducibility_certificate", {"j": j}, summary)
                if ok:
                    return Verdict("NotExceptional", "Thm 9", True, trace)

    if d in (12, 20):
        monomial = "x^3" if d == 12 else "x^5"
        note(
            "degree_catalog",
            {"degree": d},
            f"functions of degree {d} are not exceptional or are CCZ equivalent to {monomial}",
        )
        return Verdict("Informational", None, False, trace)
    note("fallback", {"degree": d}, "no applicable criterion")
    return Verdict("Inconclusive", None, False, trace)


def _in_family(d: int) -> bool:
    return gold_param(d) is not None or kasami_param(d) is not None


# The claim each trace entry makes about its inputs, checked against f alone
# and independently of screen_exceptional: d = deg f, and t = deg h for
# f = c*x^d + h (-1 for a monomial).  This rejects an entry the screen itself
# records wrongly: for a*x^5 + c*x^4, boundary_term_obstruction names core 2,
# which is not a Gold exponent.
_PRECONDITIONS = {
    "monic_normalization": lambda f, d, t, i: i["leading_coeff"] == f.terms[d] != 1,
    "monomial_family": lambda f, d, t, i: t < 0 and i["degree"] == d and _in_family(d),
    "odd_degree_family_check": lambda f, d, t, i: (
        i["degree"] == d and d % 2 == 1 and not _in_family(d)
    ),
    "even_degree_odd_term": lambda f, d, t, i: i["degree"] == d == 2 * i["e"] and i["e"] % 2 == 1,
    "cubic_divisor_search": lambda f, d, t, i: (
        i["degree"] == d == 4 * i["e"] and i["e"] % 4 == 3 and i["q"] == f.ctx.order
    ),
    "gold_decomposition": lambda f, d, t, i: (
        i["degree"] == d and gold_param(d) == i["k"] and i["h_degree"] == t
    ),
    "coprimality_formula": lambda f, d, t, i: (
        gold_param(d) == i["k"]
        and (i["d"] if "d" in i else i["h_degree"]) == t
        and ("d" in i) == (t >= 3 and t % 2 == 1)
    ),
    "per_term_coprimality": lambda f, d, t, i: (
        gold_param(d) == i["k"]
        and i["term_degrees"]
        == [j for j in sorted(f.terms) if j != d and 3 <= j <= PER_TERM_SCAN_MAX_DEGREE]
    ),
    "boundary_shape": lambda f, d, t, i: (
        gold_param(d) == i["k"]
        and i["h_degree"] == t == (1 << (i["k"] - 1)) + 2
        and i["n"] == f.ctx.n
    ),
    "even_boundary_shape": lambda f, d, t, i: (
        d == (1 << (2 * i["k2"])) + 1 and i["h_degree"] == t == (1 << (2 * i["k2"] - 1)) + 2
    ),
    "boundary_term_obstruction": lambda f, d, t, i: (
        i["top_degree"] == t == 2 * i["odd_core"] and gold_param(i["odd_core"]) is not None
    ),
    "kasami_decomposition": lambda f, d, t, i: (
        i["degree"] == d
        and kasami_param(d) == i["k"]
        and i["g_degree"] == t
        and i["bound"] == (1 << (2 * i["k"] - 1)) - (1 << (i["k"] - 1)) + 1
    ),
    "irreducibility_certificate": lambda f, d, t, i: i["j"] in f.terms and 3 <= i["j"] < d,
    "degree_catalog": lambda f, d, t, i: i["degree"] == d in (12, 20),
    "fallback": lambda f, d, t, i: i["degree"] == d,
}


def replay_trace(f: UniPoly, verdict: Verdict) -> bool:
    """True iff the verdict follows from f.

    Each trace entry's precondition must hold for f (_PRECONDITIONS), and
    screen_exceptional(f) must re-derive the verdict exactly: status,
    theorem, heuristic flag and every trace entry.  So a verdict cannot be
    relabelled, stripped of its trace or given other inputs, and a
    NotExceptional verdict is a certificate checkable from f alone.
    """
    if screen_exceptional(f) != verdict:
        return False
    *rest, d = sorted(f.terms)
    t = rest[-1] if rest else -1
    return all(_PRECONDITIONS[e["test"]](f, d, t, e["inputs"]) for e in verdict.trace)
