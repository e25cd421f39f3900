"""Sparse polynomials over a FieldCtx.

UniPoly maps degree -> coefficient, TriPoly maps (i, j, k) exponent triples of
x, y, z -> coefficient.  Zero coefficients are never stored and instances are
treated as immutable values: every operation returns a fresh polynomial.
Coefficient addition in characteristic 2 is XOR.  Operations XOR terms into
a plain dict, where a cancelled key may linger as a zero; the constructor is
the one place that drops zeros.
"""

from __future__ import annotations

from .field import FieldCtx, log_tables

DEGREE_CAP = 1 << 16


class NotDivisible(ValueError):
    """Exact division was requested but a nonzero remainder appeared."""


class PolyParseError(ValueError):
    """Polynomial text does not match the accepted grammar."""


class ConstraintViolated(ValueError):
    """Inputs violate a documented domain constraint."""


def _validated_terms(ctx: FieldCtx, terms) -> dict:
    out = {}
    for key, c in terms.items():
        ctx.validate(c)
        if c:
            out[key] = c
    return out


class _SparsePoly:
    """Exponent key -> coefficient over ctx; subclasses check the keys."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms: dict):
        self._check_keys(terms)
        self.ctx = ctx
        self.terms = _validated_terms(ctx, terms)

    @classmethod
    def zero(cls, ctx: FieldCtx):
        return cls(ctx, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")
        t = dict(self.terms)
        for key, c in other.terms.items():
            t[key] = t.get(key, 0) ^ c
        return type(self)(self.ctx, t)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(GF(2^{self.ctx.n}), {self.render()})"


class UniPoly(_SparsePoly):
    """Univariate polynomial; terms maps degree to nonzero coefficient."""

    __slots__ = ()

    @staticmethod
    def _check_keys(terms) -> None:
        for e in terms:
            if not isinstance(e, int) or e < 0 or e > DEGREE_CAP:
                raise ValueError(f"bad exponent {e!r} (cap {DEGREE_CAP})")

    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return max(self.terms) if self.terms else -1

    def evaluate(self, x: int) -> int:
        self.ctx.validate(x)
        acc = 0
        for e, c in self.terms.items():
            acc ^= self.ctx.mul(c, self.ctx.pow(x, e))
        return acc

    def value_table(self) -> list[int]:
        """[f(0), f(1), ..., f(q - 1)], the values at every element.

        Each term c x^e is exp[(log c + e log x) mod (q - 1)] at x != 0, from
        the field's log/antilog tables (n <= LOG_TABLE_MAX_N, or ValueError),
        and 0^0 = 1 keeps the constant term at x = 0.
        """
        ctx = self.ctx
        exp, log = log_tables(ctx)
        m = ctx.order - 1
        logs = log[1:]  # log x for x = 1 .. q - 1
        const = self.terms.get(0, 0)
        values = [const] * m
        for e, c in self.terms.items():
            if e:
                lc, step = log[c], e % m
                values = [v ^ exp[(lc + step * lx) % m] for v, lx in zip(values, logs)]
        return [const] + values

    def render(self) -> str:
        """Canonical text, descending degree; round-trips through the parser."""
        if not self.terms:
            return "0x0*x^0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                parts.append(f"0x{c:x}*x^0")
            else:
                var = "x" if e == 1 else f"x^{e}"
                parts.append(var if c == 1 else f"0x{c:x}*{var}")
        return "+".join(parts)


def parse_unipoly(text: str, ctx: FieldCtx) -> UniPoly:
    """Parse `term (+ term)*`, term `[0xC*]x[^e]`; whitespace insignificant.

    Coefficients are hex with mandatory 0x prefix and must be representable in
    ctx; exponents are decimal.  Repeated exponents accumulate (XOR).
    """
    i = 0
    n = len(text)

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def fail(msg):
        raise PolyParseError(f"{msg} at position {i}")

    terms: dict[int, int] = {}
    skip_ws()
    if i >= n:
        raise PolyParseError("empty polynomial text")
    while True:
        coeff = 1
        if text.startswith("0x", i) or text.startswith("0X", i):
            j = i + 2
            while j < n and text[j] in "0123456789abcdefABCDEF":
                j += 1
            if j == i + 2:
                fail("expected hex digits after 0x")
            coeff = int(text[i:j], 16)
            if coeff >= ctx.order:
                fail(f"coefficient 0x{coeff:x} not representable in GF(2^{ctx.n})")
            i = j
            skip_ws()
            if i >= n or text[i] != "*":
                fail("expected '*' after coefficient")
            i += 1
            skip_ws()
        if i >= n or text[i] != "x":
            fail("expected 'x'")
        i += 1
        exp = 1
        skip_ws()
        if i < n and text[i] == "^":
            i += 1
            skip_ws()
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            if j == i:
                fail("expected digits after '^'")
            digits = text[i:j].lstrip("0") or "0"
            if len(digits) > len(str(DEGREE_CAP)):
                fail(f"a {len(digits)}-digit exponent exceeds cap {DEGREE_CAP}")
            exp = int(digits)
            if exp > DEGREE_CAP:
                fail(f"exponent {exp} exceeds cap {DEGREE_CAP}")
            i = j
        terms[exp] = terms.get(exp, 0) ^ coeff
        skip_ws()
        if i >= n:
            break
        if text[i] != "+":
            fail(f"unexpected character {text[i]!r}")
        i += 1
        skip_ws()
    return UniPoly(ctx, terms)


class TriPoly(_SparsePoly):
    """Trivariate polynomial in x, y, z; terms maps (i, j, k) to coefficient."""

    __slots__ = ()

    @staticmethod
    def _check_keys(terms) -> None:
        for key in terms:
            if len(key) != 3:
                raise ValueError(f"bad exponent triple {key!r}")
            i, j, k = key
            if not (
                isinstance(i, int) and isinstance(j, int) and isinstance(k, int)
                and i >= 0 and j >= 0 and k >= 0
            ):
                raise ValueError(f"bad exponent triple {key!r}")
            if i + j + k > DEGREE_CAP:
                raise ValueError(f"total degree of {key!r} exceeds cap {DEGREE_CAP}")

    @classmethod
    def const(cls, ctx: FieldCtx, c: int) -> "TriPoly":
        return cls(ctx, {(0, 0, 0): c})

    def total_degree(self) -> int:
        """Total degree, with -1 standing in for the zero polynomial."""
        return max(sum(k) for k in self.terms) if self.terms else -1

    def is_homogeneous(self) -> bool:
        degs = {sum(k) for k in self.terms}
        return len(degs) <= 1

    def __mul__(self, other: "TriPoly") -> "TriPoly":
        return tri_mul(self, other)

    def scale(self, c: int) -> "TriPoly":
        self.ctx.validate(c)
        mul = self.ctx.mul
        return TriPoly(self.ctx, {k: mul(a, c) for k, a in self.terms.items()})

    def square(self) -> "TriPoly":
        # Frobenius: squaring doubles exponents and squares coefficients
        sqr = self.ctx.sqr
        return TriPoly(
            self.ctx,
            {(2 * i, 2 * j, 2 * k): sqr(c) for (i, j, k), c in self.terms.items()},
        )

    def eval(self, x: int, y: int, z: int) -> int:
        ctx = self.ctx
        for v in (x, y, z):
            ctx.validate(v)
        mul = ctx.mul
        pows: tuple[dict, dict, dict] = ({}, {}, {})

        def p(var_idx, base, e):
            memo = pows[var_idx]
            if e not in memo:
                memo[e] = ctx.pow(base, e)
            return memo[e]

        acc = 0
        for (i, j, k), c in self.terms.items():
            v = mul(c, p(0, x, i))
            v = mul(v, p(1, y, j))
            v = mul(v, p(2, z, k))
            acc ^= v
        return acc

    def homogeneous_parts(self) -> dict[int, "TriPoly"]:
        """Split by total degree; the parts sum back to the polynomial."""
        buckets: dict[int, dict] = {}
        for key, c in self.terms.items():
            buckets.setdefault(sum(key), {})[key] = c
        return {d: TriPoly(self.ctx, t) for d, t in sorted(buckets.items())}

    def render(self) -> str:
        """Canonical text in descending graded lexicographic order, x > y > z."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (sum(k), k), reverse=True)
        parts = []
        for key in keys:
            c = self.terms[key]
            names = []
            for name, e in zip("xyz", key):
                if e == 1:
                    names.append(name)
                elif e >= 2:
                    names.append(f"{name}^{e}")
            if not names:
                parts.append("1" if c == 1 else f"0x{c:x}")
            elif c == 1:
                parts.append("*".join(names))
            else:
                parts.append("*".join([f"0x{c:x}"] + names))
        return "+".join(parts)


def linear_form(ctx: FieldCtx, cx: int, cy: int, cz: int) -> TriPoly:
    """The form cx*x + cy*y + cz*z."""
    return TriPoly(ctx, {(1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz})


def tri_mul(p: TriPoly, q: TriPoly) -> TriPoly:
    if p.ctx != q.ctx:
        raise ValueError("context mismatch")
    if p.terms and q.terms and p.total_degree() + q.total_degree() > DEGREE_CAP:
        raise ValueError(f"product degree exceeds cap {DEGREE_CAP}")
    mul = p.ctx.mul
    out: dict[tuple[int, int, int], int] = {}
    for (i1, j1, k1), c1 in p.terms.items():
        for (i2, j2, k2), c2 in q.terms.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) ^ mul(c1, c2)
    return TriPoly(p.ctx, out)


def _form_leading_var(form: tuple[int, int, int]) -> int:
    for v, c in enumerate(form):
        if c:
            return v
    raise ValueError("zero form cannot divide")


def exact_div_linear(p: TriPoly, form: tuple[int, int, int]) -> TriPoly:
    """Exact quotient p / (cx*x + cy*y + cz*z); NotDivisible on any remainder.

    Synthetic division in the form's leading variable v over the polynomial
    ring in the remaining two variables: writing p = sum_i v^i p_i and the
    monic form as v + c, the quotient satisfies q_(D-1) = p_D and
    q_(i-1) = p_i + c*q_i, with remainder p_0 + c*q_0, which must vanish.
    """
    ctx = p.ctx
    for c in form:
        ctx.validate(c)
    v = _form_leading_var(form)
    inv_lead = ctx.inv(form[v])
    # tail of the monic form: coefficients on the other variables, v-slot zero
    tail = []
    for w in range(3):
        if w != v and form[w]:
            key = [0, 0, 0]
            key[w] = 1
            tail.append((tuple(key), ctx.mul(form[w], inv_lead)))

    if p.is_zero():
        return TriPoly.zero(ctx)

    levels: dict[int, dict] = {}
    for key, c in p.terms.items():
        e = key[v]
        flat = list(key)
        flat[v] = 0
        levels.setdefault(e, {})[tuple(flat)] = c

    def add_scaled(dst: dict, src: dict, delta, coeff):
        mul = ctx.mul
        for key, c in src.items():
            nk = (key[0] + delta[0], key[1] + delta[1], key[2] + delta[2])
            dst[nk] = dst.get(nk, 0) ^ mul(c, coeff)

    top = max(levels)
    quotient: dict[tuple[int, int, int], int] = {}
    carry = levels.get(top, {})
    for e in range(top - 1, -1, -1):
        # carry holds q_e
        for key, c in carry.items():
            nk = list(key)
            nk[v] = e
            quotient[tuple(nk)] = c
        nxt = dict(levels.get(e, {}))
        for delta, coeff in tail:
            add_scaled(nxt, carry, delta, coeff)
        carry = {k: c for k, c in nxt.items() if c}
    if carry:
        names = "xyz"
        sub = "+".join(
            (f"0x{c:x}*{names[w]}" if c != 1 else names[w])
            for w, c in enumerate(form)
            if c and w != v
        )
        raise NotDivisible(
            f"not divisible by {linear_form(ctx, *form).render()}: substituting "
            f"{names[v]} <- {sub or '0'} leaves a nonzero remainder "
            f"({TriPoly(ctx, carry).render()})"
        )
    if inv_lead != 1:
        quotient = {k: ctx.mul(c, inv_lead) for k, c in quotient.items()}
    return TriPoly(ctx, quotient)


def _submasks(m: int):
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


def shift_xy(p: TriPoly) -> TriPoly:
    """Image of p under x -> x+1, y -> y+1, z -> 1.

    Binomial coefficients mod 2 follow the subset rule, so (x+1)^i expands to
    the sum of x^s over submasks s of i; likewise for y.  The result lives in
    the x, y plane (all z exponents are zero).
    """
    out: dict[tuple[int, int, int], int] = {}
    for (i, j, _k), c in p.terms.items():
        for s in _submasks(i):
            for t in _submasks(j):
                key = (s, t, 0)
                out[key] = out.get(key, 0) ^ c
    return TriPoly(p.ctx, out)


def embed_tripoly(p: TriPoly, dst: FieldCtx, embedding=None) -> TriPoly:
    """Re-home p in another context, mapping coefficients through embedding.

    Without an embedding only subfield-of-GF(2) coefficients (0 and 1) are
    accepted, which transfer bit-identically into any context.
    """
    if embedding is None:
        if any(c > 1 for c in p.terms.values()):
            raise ValueError("general coefficients need an explicit embedding")
        return TriPoly(dst, dict(p.terms))
    return TriPoly(dst, {k: embedding(c) for k, c in p.terms.items()})
