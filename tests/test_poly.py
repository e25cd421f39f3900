import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apnforge.field import create_field, log_tables, prime_factors
from apnforge.phi import numerator_surface
from apnforge.poly import (
    DEGREE_CAP,
    _exp_progression,
    _walk_reach,
    NotDivisible,
    PolyParseError,
    TriPoly,
    UniPoly,
    embed_tripoly,
    exact_div_linear,
    linear_form,
    parse_unipoly,
    shift_xy,
    tri_mul,
)

F2 = create_field(1)
F8 = create_field(3)
F256 = create_field(8)


def tripoly(ctx, n_terms=6, max_e=4):
    coeff = st.integers(1, ctx.order - 1)
    expo = st.tuples(*(st.integers(0, max_e),) * 3)
    return st.dictionaries(expo, coeff, max_size=n_terms).map(
        lambda t: TriPoly(ctx, t)
    )


def unipoly(ctx, n_terms=6, max_e=40):
    coeff = st.integers(1, ctx.order - 1)
    return st.dictionaries(st.integers(0, max_e), coeff, max_size=n_terms).map(
        lambda t: UniPoly(ctx, t)
    )


def assert_zero_free(p):
    assert 0 not in p.terms.values()


def test_unipoly_strips_zero_coeffs():
    f = UniPoly(F8, {3: 1, 5: 0})
    assert f.terms == {3: 1}
    assert (f + f).is_zero()
    assert UniPoly.zero(F8).degree() == -1


def test_unipoly_add_cancels_in_char_2():
    f = UniPoly(F8, {2: 1})
    assert (f + f).terms == {}


def test_unipoly_evaluate_matches_pow_sum():
    f = UniPoly(F256, {9: 0x3, 7: 1, 0: 0x11})
    for x in (0, 1, 0x53, 0xca):
        want = F256.mul(0x3, F256.pow(x, 9)) ^ F256.pow(x, 7) ^ 0x11
        assert f.evaluate(x) == want


@pytest.mark.parametrize(
    "text,terms",
    [
        ("x^3", {3: 1}),
        ("x^17 + 0x3*x^10 + x^5", {17: 1, 10: 0x3, 5: 1}),
        ("x^2 + x^2", {}),
        ("x", {1: 1}),
        ("0x1*x^0", {0: 1}),
        ("x^00003", {3: 1}),
        ("x^3+x^3+x^3", {3: 1}),
        pytest.param("x^" + "0" * 5000 + "3", {3: 1}, id="x^000...0003"),
    ],
)
def test_parse_unipoly(text, terms):
    assert parse_unipoly(text, F256).terms == terms


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "x^",
        "y^3",
        "x^3 +",
        "0x*x",
        "x^-2",
        "3x",
        "x^\u00b2",  # superscript two
        "x^\u0663",  # Arabic-Indic three
        pytest.param("x^" + "9" * 5000, id="x^999...9999"),
    ],
)
def test_parse_unipoly_rejects_bad_syntax(bad):
    with pytest.raises(PolyParseError):
        parse_unipoly(bad, F256)


def test_parse_unipoly_coefficient_range():
    with pytest.raises(PolyParseError):
        parse_unipoly("0x9*x^2", F8)  # 0x9 needs four bits


@pytest.mark.parametrize(
    "text,message",
    [
        ("x^3 + 0x3 x", r"expected a term \[0xC\*\]x\[\^E\], got '0x3 x' at position 6"),
        ("x^3 +", r"got '' at position 5"),
        ("x +\t0x1ff * x^2", r"coefficient 0x1ff not .* in '0x1ff \* x\^2' at position 4"),
        ("x^7+x^65537", r"exponent exceeds cap 65536, in 'x\^65537' at position 4"),
    ],
)
def test_parse_errors_name_the_term_and_its_position(text, message):
    with pytest.raises(PolyParseError, match=message):
        parse_unipoly(text, F256)


# every character str.isspace accepts; none lies above U+3000
SPACES = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
space = st.text(SPACES, max_size=2)


@st.composite
def grammar_term(draw):
    """A term [0xC*]x[^E] over F256 as named text fields, with its (exponent, coefficient)."""
    c = draw(st.none() | st.integers(0, 255))
    e = draw(st.none() | st.integers(0, 9) | st.integers(0, DEGREE_CAP))
    fields = {"prefix": "", "hex": "", "star": "", "x": "x", "caret": "", "exp": ""}
    if c is not None:
        fields["prefix"] = draw(st.sampled_from(["0x", "0X"]))
        fields["hex"] = "0" * draw(st.integers(0, 3)) + "".join(
            draw(st.sampled_from([d.lower(), d.upper()])) for d in f"{c:x}"
        )
        fields["star"] = draw(space) + "*" + draw(space)
    if e is not None:
        fields["caret"] = draw(space) + "^" + draw(space)
        fields["exp"] = "0" * draw(st.integers(0, 3)) + str(e)
    return fields, (1 if e is None else e, 1 if c is None else c)


def render_terms(terms, seps, ends):
    pieces = ["".join(fields.values()) for fields in terms]
    return ends[0] + pieces[0] + "".join(s + p for s, p in zip(seps, pieces[1:])) + ends[1]


@settings(max_examples=300)
@given(drawn=st.lists(grammar_term(), min_size=1, max_size=6), data=st.data())
def test_parse_unipoly_follows_the_grammar(drawn, data):
    terms = [fields for fields, _ in drawn]
    seps = [data.draw(space) + "+" + data.draw(space) for _ in terms[1:]]
    ends = (data.draw(space), data.draw(space))
    want: dict[int, int] = {}
    for e, c in (pair for _, pair in drawn):
        want[e] = want.get(e, 0) ^ c
    text = render_terms(terms, seps, ends)
    assert parse_unipoly(text, F256) == UniPoly(F256, want)

    # one edit that leaves the grammar, in term k or around it
    k = data.draw(st.integers(0, len(terms) - 1))
    fields = terms[k]

    def with_term_k(**edit):
        return render_terms([dict(t, **edit) if i == k else t for i, t in enumerate(terms)], seps, ends)

    broken = [with_term_k(x="X"), text + "+"]
    if fields["star"]:
        broken.append(with_term_k(star=fields["star"].replace("*", "")))
        broken.append(with_term_k(prefix=fields["prefix"] + data.draw(st.sampled_from(SPACES))))
    if fields["exp"]:
        # superscript two is no decimal digit, Arabic-Indic three is one but not ASCII
        digit = data.draw(st.sampled_from(["\u00b2", "\u0663"]))
        i = data.draw(st.integers(0, len(fields["exp"])))
        broken.append(with_term_k(exp=fields["exp"][:i] + digit + fields["exp"][i:]))
    if seps:
        j = data.draw(st.integers(0, len(seps) - 1))
        doubled = [s.replace("+", "++") if i == j else s for i, s in enumerate(seps)]
        broken.append(render_terms(terms, doubled, ends))
    with pytest.raises(PolyParseError):
        parse_unipoly(data.draw(st.sampled_from(broken)), F256)


@given(
    terms=st.dictionaries(st.integers(0, 40), st.integers(1, 255), max_size=8)
)
def test_render_parse_round_trip(terms):
    f = UniPoly(F256, terms)
    assert parse_unipoly(f.render(), F256) == f


def test_tri_mul_known_products():
    x = linear_form(F2, 1, 0, 0)
    y = linear_form(F2, 0, 1, 0)
    z = linear_form(F2, 0, 0, 1)
    xy = x + y
    # the xy key cancels and leaves no term behind
    assert tri_mul(xy, xy).terms == {(2, 0, 0): 1, (0, 2, 0): 1}
    d = tri_mul(tri_mul(xy, x + z), y + z)
    assert d.terms == {
        (2, 1, 0): 1,
        (2, 0, 1): 1,
        (1, 2, 0): 1,
        (1, 0, 2): 1,
        (0, 2, 1): 1,
        (0, 1, 2): 1,
    }
    one = TriPoly.const(F2, 1)
    assert tri_mul(d, one) == d


def test_unipoly_never_equals_tripoly():
    assert UniPoly.zero(F8) != TriPoly.zero(F8)
    assert UniPoly(F8, {0: 1}) != TriPoly.const(F8, 1)


@settings(max_examples=60)
@given(f=unipoly(F8), g=unipoly(F8), p=tripoly(F8), q=tripoly(F8))
def test_no_zero_coefficient_survives(f, g, p, q):
    for r in (f + g, f + f, p + q, p + p, tri_mul(p, q), p.square(), shift_xy(p)):
        assert_zero_free(r)
    assert_zero_free(numerator_surface(f))


@settings(max_examples=60)
@given(
    q=tripoly(F8),
    form=st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)).filter(
        lambda f: any(f)
    ),
)
def test_exact_div_quotient_is_zero_free(q, form):
    assert_zero_free(exact_div_linear(tri_mul(q, linear_form(F8, *form)), form))


@given(
    pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 255)), min_size=1)
)
def test_parse_unipoly_accumulates_repeats(pairs):
    want: dict[int, int] = {}
    for e, c in pairs:
        want[e] = want.get(e, 0) ^ c
    f = parse_unipoly("+".join(f"0x{c:x}*x^{e}" for e, c in pairs), F256)
    assert_zero_free(f)
    assert f == UniPoly(F256, want)


@settings(max_examples=60)
@given(f=unipoly(F8), p=tripoly(F8), q=tripoly(F8))
def test_insertion_order_does_not_matter(f, p, q):
    g = UniPoly(F8, dict(reversed(list(f.terms.items()))))
    r = TriPoly(F8, dict(reversed(list(p.terms.items()))))
    assert g == f and hash(g) == hash(f)
    assert r == p and hash(r) == hash(p)
    assert p + q == q + p and hash(p + q) == hash(q + p)


def test_tri_mul_rejects_mixed_contexts():
    with pytest.raises(ValueError):
        tri_mul(TriPoly.const(F2, 1), TriPoly.const(F8, 1))


@settings(max_examples=60)
@given(p=tripoly(F8), q=tripoly(F8), r=tripoly(F8))
def test_tri_mul_distributes(p, q, r):
    assert tri_mul(p, q + r) == tri_mul(p, q) + tri_mul(p, r)


@settings(max_examples=60)
@given(p=tripoly(F8), q=tripoly(F8))
def test_tri_mul_commutes(p, q):
    assert tri_mul(p, q) == tri_mul(q, p)


def test_tri_eval_degenerate_cases():
    d = tri_mul(
        tri_mul(linear_form(F8, 1, 1, 0), linear_form(F8, 1, 0, 1)),
        linear_form(F8, 0, 1, 1),
    )
    for x in range(8):
        for z in range(8):
            assert d.eval(x, x, z) == 0
    assert d.eval(0, 0, 0) == 0


@settings(max_examples=40)
@given(p=tripoly(F8), x=st.integers(0, 7), y=st.integers(0, 7), z=st.integers(0, 7))
def test_tri_eval_matches_term_sum(p, x, y, z):
    want = 0
    for (i, j, k), c in p.terms.items():
        t = F8.mul(F8.pow(x, i), F8.mul(F8.pow(y, j), F8.pow(z, k)))
        want ^= F8.mul(c, t)
    assert p.eval(x, y, z) == want


def test_exact_div_linear_known_quotients():
    d = tri_mul(
        tri_mul(linear_form(F2, 1, 1, 0), linear_form(F2, 1, 0, 1)),
        linear_form(F2, 0, 1, 1),
    )
    q = exact_div_linear(d, (1, 1, 0))
    assert q.terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1}
    sq = TriPoly(F2, {(2, 0, 0): 1, (0, 2, 0): 1})
    assert exact_div_linear(sq, (1, 1, 0)).terms == {(1, 0, 0): 1, (0, 1, 0): 1}


def test_exact_div_linear_not_divisible():
    p = TriPoly(F2, {(2, 0, 0): 1, (0, 0, 1): 1})
    with pytest.raises(NotDivisible):
        exact_div_linear(p, (1, 1, 0))
    with pytest.raises(ValueError):
        exact_div_linear(p, (0, 0, 0))


@settings(max_examples=200)
@given(
    q=tripoly(F8),
    form=st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)).filter(
        lambda f: any(f)
    ),
)
def test_exact_div_inverts_mul(q, form):
    prod = tri_mul(q, linear_form(F8, *form))
    assert exact_div_linear(prod, form) == q


def test_homogeneous_parts_bucketing():
    p = TriPoly(F8, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 0, 1): 3, (0, 0, 0): 1})
    parts = p.homogeneous_parts()
    assert sorted(parts) == [0, 1, 2]
    assert parts[1].terms == {(0, 0, 1): 3}
    assert all(part.is_homogeneous() for part in parts.values())


def test_homogeneous_parts_of_zero_is_empty():
    assert TriPoly.zero(F8).homogeneous_parts() == {}


@settings(max_examples=60)
@given(p=tripoly(F8))
def test_homogeneous_parts_sum_to_identity(p):
    parts = p.homogeneous_parts()
    total = TriPoly.zero(F8)
    for part in parts.values():
        total = total + part
    assert total == p


def test_shift_xy_drops_z_and_matches_evaluation():
    p = TriPoly(F8, {(1, 0, 2): 1, (0, 2, 1): 5, (1, 1, 1): 1})
    s = shift_xy(p)
    assert all(k == 0 for (_, _, k) in s.terms)
    for x in range(8):
        for y in range(8):
            assert s.eval(x, y, 0) == p.eval(x ^ 1, y ^ 1, 1)


def test_shift_xy_fixed_points():
    xy = linear_form(F2, 1, 1, 0)
    assert shift_xy(xy) == xy
    assert shift_xy(TriPoly.const(F2, 1)) == TriPoly.const(F2, 1)


@settings(max_examples=60)
@given(p=tripoly(F8, max_e=3), q=tripoly(F8, max_e=3))
def test_shift_xy_is_multiplicative(p, q):
    assert shift_xy(tri_mul(p, q)) == tri_mul(shift_xy(p), shift_xy(q))


def test_embed_tripoly_preserves_evaluation():
    p = TriPoly(F2, {(2, 1, 0): 1, (0, 1, 2): 1})
    big = embed_tripoly(p, F256)
    assert big.ctx == F256
    for x in range(2):
        for y in range(2):
            assert big.eval(x, y, 1) == p.eval(x, y, 1)


@pytest.mark.parametrize(
    "key",
    [(), (1, 2), (1, 2, 3, 4), "abc", ("1", 0, 0), (1.0, 0, 0), (None, 0, 0),
     (-1, 0, 0), (0, 0, -2), (DEGREE_CAP, 1, 0), (0, 0, DEGREE_CAP + 1)],
)
def test_tripoly_refuses_bad_keys(key):
    with pytest.raises(ValueError):
        TriPoly(F8, {key: 1})


def test_tripoly_accepts_bool_and_capped_keys():
    assert TriPoly(F8, {(True, False, 1): 1}).terms == {(1, 0, 1): 1}
    assert TriPoly(F8, {(0, DEGREE_CAP, 0): 1}).total_degree() == DEGREE_CAP


def test_tripoly_render_graded_lex():
    p = TriPoly(F8, {(0, 0, 2): 1, (1, 1, 0): 1, (2, 0, 0): 1, (0, 0, 0): 1})
    assert p.render() == "x^2+x*y+z^2+1"


def test_value_table_walks_match_evaluate():
    # every walk regime against bit-serial evaluate: s = e mod (q - 1) at
    # 0, +-1, small, on both sides of (q - 1) / 2 and near (q - 1) / 3, e
    # sharing a factor with q - 1, e >= q, constants, and terms that walk
    # mixed with terms read per element; the whole field up to n = 7,
    # sampled x above (plus every x, against the progression, for the walk)
    rng = random.Random(23)
    seen: Counter = Counter()
    for n in range(1, 13):
        ctx = create_field(n)
        q, m = ctx.order, ctx.order - 1
        exp, log = log_tables(ctx)
        reach = _walk_reach(m)
        half, third = m // 2, m // 3
        steps = {0, 1, 2, 3, m - 1, m - 2, half - 1, half, half + 1, half + 2, third, third + 1}
        steps |= {max(reach, 0), max(reach, 0) + 1, m - max(reach, 0), m - max(reach, 0) - 1}
        steps = sorted({s % m for s in steps})
        exponents = [s + k * m for s in steps for k in (0, 2)]
        exponents += [p * k for p in prime_factors(m) for k in (1, 7)]
        exponents = [e for e in exponents if e <= DEGREE_CAP]
        xs = range(q) if n <= 7 else [0, 1, q - 1] + rng.sample(range(2, q - 1), 120)
        for s in filter(None, steps):
            lc = rng.randrange(m)
            walked = _exp_progression(exp, lc, s)
            assert walked == [exp[(lc + s * i) % m] for i in range(m)], (n, s)
        cases = [{e: rng.randrange(1, q)} for e in exponents]
        for _ in range(10):
            terms = {e: rng.randrange(1, q) for e in rng.sample(exponents, min(3, len(exponents)))}
            if rng.random() < 0.5:
                terms[0] = rng.randrange(1, q)
            cases.append(terms)
        for terms in cases:
            f = UniPoly(ctx, terms)
            table = f.value_table()
            assert len(table) == q
            assert [table[x] for x in xs] == [f.evaluate(x) for x in xs], (n, terms)
            kinds = {
                "walk" if 0 < min(e % m, m - e % m) <= reach else "per element"
                for e in terms if e % m
            }
            seen["walk"] += "walk" in kinds
            seen["per element"] += "per element" in kinds
            seen["walk and per element"] += len(kinds) == 2
            seen["walk down"] += any(0 < m - e % m <= reach < e % m for e in terms)
            seen["gcd(e, q - 1) > 1"] += any(e and math.gcd(e, m) > 1 for e in terms) and m > 1
            seen["e >= q"] += max(terms, default=0) >= q
            seen["constant"] += 0 in terms
            seen["e = 0 mod q - 1, e > 0"] += any(e and e % m == 0 for e in terms)
    assert min(seen.values()) >= 10 and len(seen) == 8, seen
