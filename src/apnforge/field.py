"""Arithmetic contexts for binary fields GF(2^n), 1 <= n <= 24.

Field elements are plain ints: bit i holds the coefficient of x^i, so the
integer 0b110 is x^2 + x.  Addition is XOR and is not wrapped; multiplication,
inversion and friends live on FieldCtx so every result is reduced by the
context's modulus.  Contexts are immutable and cheap to create.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MAX_DEGREE = 24

# Lexicographically smallest irreducible polynomial of each degree with the
# constant bit set; verified at import time below, not trusted.
DEFAULT_MODULI = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
}


def _pmod(a: int, m: int) -> int:
    """Remainder of a modulo m in GF(2)[x]."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def _pdeg(a: int) -> int:
    return a.bit_length() - 1


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _x_pow_2e_mod(e: int, m: int) -> int:
    # x^(2^e) mod m by e squarings of x; a square over GF(2) moves bit i to
    # bit 2i, which joining the binary digits with "0" does in one pass
    r = _pmod(2, m)
    for _ in range(e):
        r = _pmod(int("0".join(format(r, "b")), 2), m)
    return r


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending."""
    fs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            fs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        fs.append(n)
    return tuple(fs)


def is_irreducible(modulus: int, n: int) -> bool:
    """Irreducibility of a degree-n polynomial over GF(2).

    Frobenius criterion: x^(2^n) = x mod m, and for every prime p | n the
    polynomial x^(2^(n/p)) - x is coprime to m.
    """
    if _pdeg(modulus) != n:
        return False
    if _x_pow_2e_mod(n, modulus) != _pmod(2, modulus):
        return False
    for p in prime_factors(n):
        h = _x_pow_2e_mod(n // p, modulus) ^ _pmod(2, modulus)
        if _pgcd(modulus, h) != 1:
            return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """GF(2^n) with a fixed irreducible modulus; elements are ints < 2^n."""

    n: int
    modulus: int

    @property
    def order(self) -> int:
        return 1 << self.n

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < (1 << self.n):
            raise ValueError(f"{a!r} is not an element of GF(2^{self.n})")
        return a

    def mul(self, a: int, b: int) -> int:
        m = self.modulus
        top = 1 << self.n
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= m
        return r

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, e: int) -> int:
        """a^e with e >= 0; 0^0 = 1 by convention."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, (1 << self.n) - 2)

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative order")
        g = (1 << self.n) - 1
        t = g
        for p in prime_factors(g):
            while t % p == 0 and self.pow(a, t // p) == 1:
                t //= p
        return t

    def frobenius(self, a: int, k: int = 1) -> int:
        """a^(2^k), the k-fold Frobenius image."""
        for _ in range(k):
            a = self.mul(a, a)
        return a

    def subfield_elements(self, k: int) -> list[int]:
        """Sorted elements of the subfield GF(2^k), k | n.

        The subfield is the fixed space of the k-fold Frobenius, a GF(2)-linear
        map; its kernel basis is found by elimination and spanned explicitly.
        """
        if k < 1 or self.n % k != 0:
            raise ValueError(f"GF(2^{k}) is not a subfield of GF(2^{self.n})")
        rows = [self.frobenius(1 << i, k) ^ (1 << i) for i in range(self.n)]
        # nullspace of v -> v^(2^k) + v; combination masks are field elements
        pivots: dict[int, tuple[int, int]] = {}
        kernel = []
        for i, v in enumerate(rows):
            c = 1 << i
            while v:
                lead = v.bit_length() - 1
                if lead not in pivots:
                    pivots[lead] = (v, c)
                    break
                bv, bc = pivots[lead]
                v ^= bv
                c ^= bc
            else:
                kernel.append(c)
        if len(kernel) != k:
            raise AssertionError("Frobenius fixed space has wrong dimension")
        elems = [0]
        for b in kernel:
            elems += [e ^ b for e in elems]
        return sorted(elems)


def create_field(n: int, modulus: int | None = None) -> FieldCtx:
    """Context for GF(2^n); modulus defaults to the shipped table entry."""
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"n must be in 1..{MAX_DEGREE}, got {n}")
    if modulus is None:
        modulus = DEFAULT_MODULI[n]
    if _pdeg(modulus) != n:
        raise ValueError(f"modulus 0x{modulus:x} does not have degree {n}")
    if not modulus & 1:
        raise ValueError(f"modulus 0x{modulus:x} has zero constant term")
    if not is_irreducible(modulus, n):
        raise ValueError(f"modulus 0x{modulus:x} is reducible over GF(2)")
    return FieldCtx(n=n, modulus=modulus)


@lru_cache(maxsize=None)
def subfield_embedding(src: FieldCtx, dst: FieldCtx):
    """Injective homomorphism GF(2^src.n) -> GF(2^dst.n) as a callable.

    Maps the generator of src to the smallest root of src's modulus inside
    dst, which exists exactly when src.n divides dst.n; the choice of the
    smallest root makes the embedding deterministic.
    """
    if dst.n % src.n != 0:
        raise ValueError(
            f"GF(2^{src.n}) does not embed in GF(2^{dst.n}): {src.n} does not divide {dst.n}"
        )
    root = None
    for cand in dst.subfield_elements(src.n):
        acc = 0
        for i in range(src.n + 1):
            if (src.modulus >> i) & 1:
                acc ^= dst.pow(cand, i)
        if acc == 0:
            root = cand
            break
    if root is None:
        raise AssertionError("modulus has no root in the extension subfield")
    powers = [dst.pow(root, i) for i in range(src.n)]

    def embed(a: int) -> int:
        src.validate(a)
        img = 0
        i = 0
        while a:
            if a & 1:
                img ^= powers[i]
            a >>= 1
            i += 1
        return img

    return embed


LOG_TABLE_MAX_N = 20


@lru_cache(maxsize=16)
def log_tables(ctx: FieldCtx) -> tuple[list[int], list[int]]:
    """(exp, log) for GF(2^n), n <= LOG_TABLE_MAX_N, built on first use.

    exp[i] = g^i for 0 <= i < q - 1 and log[exp[i]] = i, g the smallest
    generator of the multiplicative group; log[0] is a placeholder, since 0
    has no logarithm.  Cached per context (the 16 most recent), so a field
    pays for its tables once and only if asked; callers must not modify them.
    Larger fields raise ValueError: every library caller refuses them first.
    """
    if ctx.n > LOG_TABLE_MAX_N:
        raise ValueError(f"log tables are built for n <= {LOG_TABLE_MAX_N}, got {ctx.n}")
    m = ctx.order - 1
    g = next(a for a in range(1, ctx.order) if ctx.element_order(a) == m)
    exp = [1] * m
    for i in range(1, m):
        exp[i] = ctx.mul(exp[i - 1], g)
    log = [0] * ctx.order
    for i, v in enumerate(exp):
        log[v] = i
    return exp, log


def _verify_default_moduli() -> None:
    for n, m in DEFAULT_MODULI.items():
        if not (m & 1 and is_irreducible(m, n)):
            raise AssertionError(f"shipped modulus table is corrupt at degree {n}")


_verify_default_moduli()
