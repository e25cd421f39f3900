"""Sparse polynomials over a FieldCtx.

UniPoly maps degree -> coefficient, TriPoly maps (i, j, k) exponent triples of
x, y, z -> coefficient.  Zero coefficients are never stored and instances are
treated as immutable values: every operation returns a fresh polynomial.
Coefficient addition in characteristic 2 is XOR.  Operations XOR terms into
a plain dict, where a cancelled key may linger as a zero; the constructor is
the one place that drops zeros.
"""

from __future__ import annotations

import re
from operator import xor

from .field import FieldCtx, log_tables

DEGREE_CAP = 1 << 16
# one term of polynomial text: an optional hex coefficient, then x^E
_TERM = re.compile(r"(?:0[xX]([0-9a-fA-F]+)\s*\*\s*)?x(?:\s*\^\s*([0-9]+))?")


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


def _exp_progression(exp: list[int], start: int, step: int) -> list[int]:
    """[exp[(start + step i) mod m] for i in range(m)], m = len(exp), 0 < step < m.

    One strided slice per wrap past an end of exp: about step of them
    walking up, or about m - step walking down by m - step when that is
    fewer.
    """
    m = len(exp)
    if 2 * step > m:
        step -= m  # walk down
    out: list[int] = []
    while len(out) < m:
        run = exp[start::step]
        out += run
        start = (start + step * len(run)) % m
    del out[m:]
    return out


def _walk_reach(m: int) -> int:
    """The largest min(s, m - s) whose term value_table walks, m = q - 1.

    A walk costs about one strided slice per wrap plus a pass over the list,
    against one indexed multiply per element on the per-element path.  On
    CPython 3.11 (x86_64) the two break even near min(s, m - s) = m / 4 for
    n >= 9 and nearer m / 6 at n = 7, 8, and the walk never wins at n <= 6,
    where the per-call overhead dominates.  (m - 64) / 8 keeps every walked
    term at least 10% faster and walks none below n = 7.
    """
    return (m - 64) // 8


def _xor_at_logs(
    values: list[int] | None, terms, logs: list[int], tables: tuple[list[int], list[int]]
) -> list[int] | None:
    """values XOR the terms c x^e, e > 0, at the x with log x in logs, in that
    order: exp[(log c + e log x) mod (q - 1)] per point.  The first term fills
    the list when values is None, and every later one is XORed into it; a
    constant (e = 0) in terms is skipped."""
    exp, log = tables
    m = len(exp)
    for e, c in terms:
        if e:
            lc, step = log[c], e % m
            if values is None:
                values = [exp[(lc + step * lx) % m] for lx in logs]
            else:
                values = [v ^ exp[(lc + step * lx) % m] for v, lx in zip(values, logs)]
    return values


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

        0^0 = 1 keeps the constant term at x = 0.  At x = g^i, g the
        generator of the log tables (n <= LOG_TABLE_MAX_N, or ValueError), a
        term c x^e is exp[(log c + s i) mod (q - 1)], s = e mod (q - 1): in
        log order an arithmetic progression of indices into exp, which
        _exp_progression reads in about min(s, q - 1 - s) strided slices.
        The terms with min(s, q - 1 - s) <= _walk_reach(q - 1), whose walk is
        short, are XORed in log order and put in x order once; terms with
        s = 0 are the constant they take at every x != 0; every other term
        is read per element in x order (_xor_at_logs, the kernel of
        _values_at_logs) and XORed in after.
        """
        tables = exp, log = log_tables(self.ctx)
        m = len(exp)
        reach = _walk_reach(m)
        const, walked, slow = 0, None, []
        for e, c in self.terms.items():
            s = e % m
            if not s:
                const ^= c  # x^e = 1 at every x != 0
            elif s <= reach or m - s <= reach:
                term = _exp_progression(exp, log[c], s)
                walked = term if walked is None else list(map(xor, walked, term))
            else:
                slow.append((e, c))
        logs = log[1:]
        values = [const] * m if const else None
        if walked is not None:
            ordered = map(walked.__getitem__, logs)
            values = list(ordered) if values is None else list(map(xor, values, ordered))
        values = _xor_at_logs(values, slow, logs, tables)
        return [self.terms.get(0, 0)] + (values or [0] * m)

    def _values_at_logs(self, logs: list[int], tables: tuple[list[int], list[int]]) -> list[int]:
        """f at the nonzero points x with log x in logs, in that order.

        Each term c x^e is exp[(log c + e log x) mod (q - 1)], from the
        field's (exp, log) tables (field.log_tables).
        """
        const = self.terms.get(0, 0)
        values = [const] * len(logs) if const else None
        values = _xor_at_logs(values, self.terms.items(), logs, tables)
        return [0] * len(logs) if values is None else values

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
    """Parse `term (+ term)*`, each term a full match of _TERM: `[0xC*]x[^E]`.

    Whitespace (str.isspace) may surround `+`, `*` and `^`, but not split a
    number or `0x` from its digits.  Coefficients are hex and must be
    representable in ctx; exponents are ASCII decimal, at most DEGREE_CAP.
    Repeated exponents accumulate (XOR).  An error names the offending term
    and the position where it starts.
    """
    if not text.strip():
        raise PolyParseError("empty polynomial text")
    terms: dict[int, int] = {}
    start = 0  # where the current piece begins in text
    for piece in text.split("+"):
        term = piece.strip()
        where = f"{term!r} at position {start + len(piece) - len(piece.lstrip())}"
        start += len(piece) + 1
        match = _TERM.fullmatch(term)
        if match is None:
            raise PolyParseError(f"expected a term [0xC*]x[^E], got {where}")
        coeff = int(match[1], 16) if match[1] else 1
        if coeff >= ctx.order:
            raise PolyParseError(
                f"coefficient 0x{coeff:x} not representable in GF(2^{ctx.n}), in {where}"
            )
        digits = (match[2] or "1").lstrip("0") or "0"
        # the length test comes first: int() refuses strings over 4300 digits
        if len(digits) > len(str(DEGREE_CAP)) or (exp := int(digits)) > DEGREE_CAP:
            raise PolyParseError(f"exponent exceeds cap {DEGREE_CAP}, in {where}")
        terms[exp] = terms.get(exp, 0) ^ coeff
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


def exact_div_linear(p: TriPoly, form: tuple[int, int, int]) -> TriPoly:
    """Exact quotient p / (cx*x + cy*y + cz*z); NotDivisible on any remainder.

    One walk down the powers of the form's leading variable v, its first
    nonzero coefficient.  p's terms are bucketed by their v-exponent, full
    keys kept.  For the monic form v + sum t_w*w, a term c*v^e*m at level e
    puts c*v^(e-1)*m in the quotient and c*t_w*v^(e-1)*m*w into level e - 1;
    what is left at level 0 is the remainder, which must vanish.
    """
    ctx = p.ctx
    for c in form:
        ctx.validate(c)
    v = next((w for w, c in enumerate(form) if c), None)
    if v is None:
        raise ValueError("zero form cannot divide")
    inv_lead = ctx.inv(form[v])
    mul = ctx.mul
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    d0, d1, d2 = units[v]  # a term's key minus its quotient term's key
    # (key shift from a term to its t_w*w term at the level below, t_w)
    tail = [
        ((d0 - u0, d1 - u1, d2 - u2), mul(form[w], inv_lead))
        for w, (u0, u1, u2) in enumerate(units)
        if form[w] and w != v
    ]
    levels: dict[int, dict] = {}
    for key, c in p.terms.items():
        levels.setdefault(key[v], {})[key] = c
    quotient: dict[tuple[int, int, int], int] = {}
    for e in range(max(levels, default=0), 0, -1):
        below = levels.setdefault(e - 1, {})
        for (k0, k1, k2), c in levels.pop(e, {}).items():
            if c:
                quotient[(k0 - d0, k1 - d1, k2 - d2)] = c
                for (a0, a1, a2), t in tail:
                    key = (k0 - a0, k1 - a1, k2 - a2)
                    below[key] = below.get(key, 0) ^ mul(c, t)
    remainder = levels.get(0, {})
    if any(remainder.values()):
        names = "xyz"
        sub = "+".join(
            (f"0x{c:x}*{names[w]}" if c != 1 else names[w])
            for w, c in enumerate(form)
            if c and w != v
        )
        raise NotDivisible(
            f"not divisible by {linear_form(ctx, *form).render()}: substituting "
            f"{names[v]} <- {sub or '0'} leaves a nonzero remainder "
            f"({TriPoly(ctx, remainder).render()})"
        )
    if inv_lead != 1:
        quotient = {k: mul(c, inv_lead) for k, c in quotient.items()}
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
