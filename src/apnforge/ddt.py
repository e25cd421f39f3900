"""Differential spectra, APN predicates, named exponent families, points.

A function f on GF(2^n) is APN exactly when f(x+a) + f(x) = b has at most two
solutions x for every nonzero a and every b.  Solutions pair up as {x, x+a},
so every solution count is even; diff_spectrum asserts that invariant on
everything it produces.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby, repeat
from operator import lshift, mul, xor

from .field import LOG_TABLE_MAX_N, FieldCtx, create_field
from .poly import DEGREE_CAP, ConstraintViolated, UniPoly

SPECTRUM_MAX_N = LOG_TABLE_MAX_N  # every spectrum reads f's value table
SCAN_MAX_N = 14  # a general input at n = 14 scans in about 24 s on a 2-core x86_64 host
FULL_MAX_N = 11  # the (a, b) table of x^9+x^7 peaks at 132 MB for n = 11
PROP1_MAX_N = 7


@dataclass
class DiffSpectrum:
    """Solution-count statistics of f(x+a) + f(x) = b over all a != 0, b.

    rows holds one entry per distinct row histogram: the histogram, an
    ascending tuple of (solution count, #b with that count) pairs, maps to
    the number of differences a != 0 whose row has it.  A power map has one
    entry and a quadratic map at most n + 1, whatever q is.
    """

    ctx: FieldCtx
    poly: UniPoly
    rows: Counter  # ((solution count, #b with it), ...) -> #a with that row
    table: dict[int, dict[int, int]] | None = None  # a -> {b -> count}, --full

    def __post_init__(self):
        q = self.ctx.order
        if sum(self.rows.values()) != q - 1:
            raise AssertionError("every difference a != 0 must have a row")
        for hist in self.rows:
            if any(c % 2 for c, _ in hist):
                raise AssertionError("odd solution count: pairing invariant broken")
            if sum(c * m for c, m in hist) != q:
                raise AssertionError("per-difference counts must sum to the field size")

    @property
    def uniformity(self) -> int:
        return max(hist[-1][0] for hist in self.rows)

    def is_apn(self) -> bool:
        return self.uniformity == 2

    def histogram(self) -> list[tuple[int, int]]:
        """Aggregated (count, frequency) pairs over all (a, b), ascending."""
        agg: Counter = Counter()
        for hist, shared in self.rows.items():
            for c, m in hist:
                agg[c] += m * shared
        return sorted(agg.items())

    def to_json(self) -> dict:
        return {
            "n": self.ctx.n,
            "modulus": f"0x{self.ctx.modulus:x}",
            "poly": self.poly.render(),
            "uniformity": self.uniformity,
            "histogram": [
                {"count": c, "frequency": m} for c, m in self.histogram()
            ],
            "apn": self.is_apn(),
        }


def _group_halves(fv: list[int], t: int) -> tuple[list[int], list[int]]:
    """fv at the q/2 elements x with bit t clear, and fv at x + t.

    Position p of both halves stands for the x whose bits below t are those
    of p and whose bits above t are p's bits from t up.  For t <= a < 2t the
    pair {x, x + a} then joins position p of the low half to position
    p ^ (a - t) of the high half.  Built from t strided slice copies, one per
    value of x mod t.
    """
    half, span = len(fv) >> 1, 2 * t
    low, high = [0] * half, [0] * half
    for r in range(t):
        low[r::t] = fv[r::span]
        high[r::t] = fv[r + t::span]
    return low, high


def _xor_reindex(seq: list[int], m: int, block: int) -> list[int]:
    """[seq[p ^ m] for p in range(len(seq))], in O(block + len/block) slices.

    block is a power of two: the bits of m below it permute the residues
    mod block (one strided slice each), the bits above it permute whole
    blocks (one slice each).
    """
    size = len(seq)
    inner, outer = m & (block - 1), m & -block
    if inner:
        out = [0] * size
        for j in range(block):
            out[j::block] = seq[j ^ inner::block]
        seq = out
    if outer:
        out = [0] * size
        for h in range(0, size, block):
            g = h ^ outer
            out[h:h + block] = seq[g:g + block]
        seq = out
    return seq


def _pair_differences(fv: list[int], a_list):
    """Yield (a, values) for each a in a_list: row a of the difference table.

    The solutions of f(x+a) + f(x) = b pair up as {x, x + a}, and exactly
    one x of each pair has the top bit t of a clear, so values holds the
    q/2 numbers fv[x + a] ^ fv[x] for those x, each pair once: delta_f(a, b)
    is twice the number of values equal to b.  Each run of consecutive a
    with the same t shares the two halves of fv that _group_halves builds
    when its first row is drawn, so an early exit builds no later run.
    A caller that tags fv[x] with x << n gets values tagged with a << n.
    """
    q = len(fv)
    block = 1 << ((q.bit_length() - 1) // 2)  # about sqrt(q/2)
    for bits, run in groupby(a_list, int.bit_length):
        t = 1 << (bits - 1)
        low, high = _group_halves(fv, t)
        for a in run:
            yield a, map(xor, low, _xor_reindex(high, a - t, min(t, block)))


def _pair_histogram(pairs: Counter, q: int) -> tuple[tuple[int, int], ...]:
    """One row's histogram, ((count, #b with that count), ...) ascending, for
    the row given as value -> #pairs.  At most q/2 values occur, so count 0
    always has some b."""
    hist = sorted((2 * c, m) for c, m in Counter(pairs.values()).items())
    return ((0, q - len(pairs)), *hist)


def _monomial_row(ctx: FieldCtx, d: int) -> Counter:
    """Row a = 1 of the difference table of x^d, as b -> #pairs {x, x + 1}.

    Row a of c x^d + c0 is this row with b -> c a^d b (substitute x = a y),
    so its histogram is the histogram of every row a != 0.
    """
    fv = UniPoly(ctx, {d: 1}).value_table()
    return Counter(map(xor, fv[1::2], fv[0::2]))


@lru_cache(maxsize=None)
def _bit_masks(n: int) -> tuple[int, ...]:
    """X_0 .. X_(n-1) as q-bit ints: bit a of X_j is bit j of a, 0 <= a < q.

    Each is a repeated byte pattern (bits 0..2 inside one byte, bit j >= 3
    as runs of 2^(j-3) zero and 0xff bytes), read in one from_bytes.
    """
    q = 1 << n
    size = max(q >> 3, 1)
    masks = []
    for j in range(n):
        if j < 3:
            pattern = bytes([(0xAA, 0xCC, 0xF0)[j]]) * size
        else:
            run = 1 << (j - 3)
            pattern = (bytes(run) + b"\xff" * run) * (size // (2 * run))
        masks.append(int.from_bytes(pattern, "little") & ((1 << q) - 1))
    return tuple(masks)


def _quadratic_ranks(f: UniPoly) -> bytes:
    """Ranks of x -> B(x, a) = f(x+a) + f(x) + f(a) + f(0): byte a - 1 for a = 1 .. q - 1.

    B is GF(2)-bilinear when every exponent of f has binary weight <= 2.  So
    bit k of B(e_i, a), e_i = 2^i, is the parity of a & w_ik, w_ik the set
    of j with bit k of B(e_i, e_j) set, and the a where that bit is set form
    one q-bit int: the XOR of the masks X_j (_bit_masks) over j in w_ik.

    Row a's rank is that of the n images B(e_i, a).  They go into an XOR
    basis keyed by leading bit, for every a at once, each "which a" held as
    a q-bit int:
      - pivots[k]: the a that have a basis vector led by bit k;
      - basis[k][j]: bit j of that vector, read only on pivots[k];
      - alive: the a where the vector being inserted is not yet placed, the
        only a where it is read.
    rank(a) is the number of pivot masks that contain a, summed in byte
    lanes.  O(n^3) big-int operations; the value table is read only at the
    n(n+1)/2 + 1 points 0, e_i and e_i + e_j.
    """
    n, q = f.ctx.n, f.ctx.order
    fv = f.value_table()
    masks = _bit_masks(n)
    shift = [fv[1 << i] ^ fv[0] for i in range(n)]
    form = [[0] * n for _ in range(n)]  # form[i][j] = B(e_i, e_j); B(x, x) = 0
    for i, j in combinations(range(n), 2):
        form[i][j] = form[j][i] = fv[(1 << i) | (1 << j)] ^ shift[i] ^ shift[j] ^ fv[0]
    pivots = [0] * n
    basis: list[list[int]] = [[] for _ in range(n)]
    for row in form:
        v = [0] * n  # v[k]: the a where bit k of B(e_i, a) is set
        for mask, b in zip(masks, row):
            while b:
                low = b & -b
                v[low.bit_length() - 1] ^= mask
                b ^= low
        alive = (1 << q) - 1
        for k in range(n - 1, -1, -1):
            lead = v[k] & alive  # the a where v is led by bit k
            if not lead:
                continue
            if not pivots[k]:
                basis[k] = v[:k]
                pivots[k] = lead
                alive ^= lead
                continue
            for j, w in enumerate(basis[k]):
                v[j] ^= w & lead
            new = lead & ~pivots[k]
            if new:
                # basis[k] is unset on new, where the loop above added it to
                # v, so adding v there leaves v's own bits
                basis[k] = [w ^ (u & new) for w, u in zip(basis[k], v)]
                pivots[k] |= new
                alive ^= new
    lanes = sum(int.from_bytes(format(p, f"0{q}b").encode(), "big") for p in pivots)
    zeros = int.from_bytes(b"0" * q, "big")  # one "0" (0x30) per lane and mask
    return (lanes - n * zeros).to_bytes(q, "little")[1:]


def _spectrum_path(f: UniPoly, full: bool = False) -> str:
    """Which identity gives f's rows: "power", "quadratic" or "scan".

    Checks the caps first, so an input over them costs nothing.
    """
    n = f.ctx.n
    if n > SPECTRUM_MAX_N:
        raise ConstraintViolated(
            f"spectrum enumeration is capped at n <= {SPECTRUM_MAX_N}, got {n}"
        )
    positive = [e for e in f.terms if e]
    if not full and len(positive) == 1:
        return "power"
    if not full and all(e.bit_count() <= 2 for e in positive):
        return "quadratic"
    if n > SCAN_MAX_N:
        reason = "a full table" if full else "an input that is neither a power map nor quadratic"
        raise ConstraintViolated(
            f"the exhaustive difference scan for {reason} is capped at "
            f"n <= {SCAN_MAX_N}, got {n}"
        )
    if full and n > FULL_MAX_N:
        raise ConstraintViolated(
            f"a full table keeps q^2 counts in memory and is capped at n <= {FULL_MAX_N}, got {n}"
        )
    return "scan"


def _spectrum_rows(args):
    n, modulus, terms, a_list, full = args
    ctx = create_field(n, modulus)
    q = ctx.order
    rows: Counter = Counter()
    table: dict[int, dict[int, int]] = {}
    for a, values in _pair_differences(UniPoly(ctx, terms).value_table(), a_list):
        pairs = Counter(values)
        rows[_pair_histogram(pairs, q)] += 1
        if full:
            table[a] = {b: 2 * c for b, c in pairs.items()}
    return rows, table


def diff_spectrum(f: UniPoly, full: bool = False, jobs: int = 1) -> DiffSpectrum:
    """Differential spectrum of f; full also keeps the (a, b) table.

    The rows come from one of three paths:
      - power (one term of exponent >= 1, plus any constant): row a is row 1
        with b relabelled, so row 1 alone gives every histogram, in O(q);
      - quadratic (every exponent of binary weight <= 2): row a has 2^(n-r)
        solutions for each of 2^r values b, r the GF(2)-rank of the linear
        map x -> f(x+a) + f(x) + f(a) + f(0); one elimination over q-bit
        masks ranks every a at once (_quadratic_ranks), in O(n^3) big-int
        operations after the value table;
      - scan (any other f, and every full table): every row a != 0 from its
        q/2 pairs {x, x + a}, each counted once (_pair_differences), capped
        at n <= SCAN_MAX_N, and a full table at n <= FULL_MAX_N; the other
        paths go up to SPECTRUM_MAX_N.
    Each path counts the rows of each distinct histogram, so the spectrum
    holds one entry per histogram, never one per difference a.
    jobs > 1 splits the scan's nonzero differences across processes, at most
    one per CPU and one per row; the workers' counts are added, so the merge
    cannot depend on worker order.  The other paths run serially.
    """
    ctx = f.ctx
    q = ctx.order
    path = _spectrum_path(f, full)
    if path == "power":
        hist = _pair_histogram(_monomial_row(ctx, max(f.terms)), q)
        return DiffSpectrum(ctx=ctx, poly=f, rows=Counter({hist: q - 1}))
    if path == "quadratic":
        # rank r: 2^(n-r) solutions for each of the 2^r values of the coset
        ranks = _quadratic_ranks(f)
        rows = Counter({
            ((0, q - (1 << r)), (1 << (ctx.n - r), 1 << r)): ranks.count(r)
            for r in range(ctx.n + 1)
            if r in ranks
        })
        return DiffSpectrum(ctx=ctx, poly=f, rows=rows)
    all_a = list(range(1, q))
    workers = min(jobs, os.cpu_count() or 1, q - 1)
    if workers <= 1 or q < 64:
        rows, table = _spectrum_rows((ctx.n, ctx.modulus, f.terms, all_a, full))
    else:
        import multiprocessing

        chunks = [
            (ctx.n, ctx.modulus, f.terms, all_a[i::workers], full)
            for i in range(workers)
        ]
        rows, table = Counter(), {}
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            for part_rows, part_table in pool.map(_spectrum_rows, chunks):
                rows.update(part_rows)
                table.update(part_table)
    return DiffSpectrum(ctx=ctx, poly=f, rows=rows, table=table if full else None)


def is_apn(f: UniPoly) -> bool:
    """Early-exit APN test; agrees with diff_spectrum(f).uniformity == 2.

    Takes diff_spectrum's path: a power map checks row 1 only, a quadratic
    map needs rank n - 1 (a kernel of dimension 1) on every row, and any
    other f scans row by row, up to SCAN_MAX_N, stopping at the first row
    whose q/2 pair values are not all distinct (a count above 2).  The
    quadratic path has no early exit: it ranks every row at once
    (_quadratic_ranks), so a non-APN quadratic map costs as much as an APN
    one, where a row-by-row rank could stop at the first row of lower rank.
    """
    half = f.ctx.order // 2
    path = _spectrum_path(f)
    if path == "power":
        return len(_monomial_row(f.ctx, max(f.terms))) == half
    if path == "quadratic":
        return _quadratic_ranks(f).count(f.ctx.n - 1) == f.ctx.order - 1
    rows = _pair_differences(f.value_table(), range(1, f.ctx.order))
    return all(len(set(values)) == half for _, values in rows)


def prop1_check(f: UniPoly) -> tuple[bool, tuple[int, int, int] | None]:
    """Surface criterion: every zero of N_f lies on the plane union D = 0.

    Scans all of GF(2^n)^3 (hence the n cap) and returns (holds, witness) with
    the lexicographically first violating triple if any.  The outcome is
    asserted against the differential APN test, the two being equivalent.
    """
    ctx = f.ctx
    if ctx.n > PROP1_MAX_N:
        raise ConstraintViolated(
            f"surface scan is capped at n <= {PROP1_MAX_N}, got {ctx.n}"
        )
    q = ctx.order
    fv = f.value_table()

    def scan():
        for x in range(q):
            fx = fv[x]
            for y in range(q):
                fxy = fx ^ fv[y]
                s = x ^ y
                for z in range(q):
                    if fxy ^ fv[z] ^ fv[s ^ z] == 0:
                        if x != y and x != z and y != z:
                            return (x, y, z)
        return None

    witness = scan()
    holds = witness is None
    if holds != is_apn(f):
        raise AssertionError(
            "surface criterion disagrees with the differential test: internal bug"
        )
    return holds, witness


def corollary_bound(d: int, q: int) -> int:
    """Projective rational-point budget 4((d-3)q + 1) for an APN f of degree d."""
    return 4 * ((d - 3) * q + 1)


def _sum_of_squares(pairs: Counter) -> int:
    return sum(map(mul, pairs.values(), pairs.values()))


def _square_sum(g: UniPoly) -> int:
    """sum of delta_g(a, b)^2 over a != 0 and every b, along diff_spectrum's path.

    A row's square sum is 4 sum_b c_b^2, c_b the number of pairs {x, x + a}
    with value b.  The power path takes q - 1 times row 1's; the quadratic
    path 2^(2n - r) for each row of rank r, counting the rows of each rank
    in the bytes _quadratic_ranks returns.  The scan tags g(x) with x << n, so
    every value carries its row, and counts the values of many rows in one
    Counter, summing and emptying it once it holds q values, so it stays
    O(q) and no row builds a histogram of its own.
    """
    ctx = g.ctx
    q = ctx.order
    path = _spectrum_path(g)
    if path == "power":
        return (q - 1) * 4 * _sum_of_squares(_monomial_row(ctx, max(g.terms)))
    if path == "quadratic":
        ranks = _quadratic_ranks(g)
        return sum(ranks.count(r) << (2 * ctx.n - r) for r in range(ctx.n + 1))
    tagged = list(map(xor, g.value_table(), map(lshift, range(q), repeat(ctx.n))))
    total = 0
    pairs = Counter()
    for _, values in _pair_differences(tagged, range(1, q)):
        pairs.update(values)
        if len(pairs) >= q:
            total += _sum_of_squares(pairs)
            pairs.clear()
    return 4 * (total + _sum_of_squares(pairs))


def _affine_zero_count(g: UniPoly) -> int:
    """Zeros of phi_g in GF(q)^3.

    The rows a != 0 of g's difference table give sum delta_g(a, b)^2
    (_square_sum), the a = 0 row adds q^2, and every point of the three
    planes is a zero of N_g.
    """
    ctx, terms = g.ctx, g.terms
    q = ctx.order
    off_planes = _square_sum(g) + q * q - (3 * q * q - 2 * q)
    line = UniPoly(ctx, {j - 3: c for j, c in terms.items() if j % 4 == 3}).value_table().count(0)
    # g', the formal derivative: in characteristic 2 only odd exponents survive
    derivative = UniPoly(ctx, {j - 1: c for j, c in terms.items() if j % 2})
    fibres = Counter(derivative.value_table()).values()
    plane = sum(m * (m - 1) for m in fibres) + line
    return off_planes + 3 * plane - 2 * line


def projective_point_count(f: UniPoly) -> int:
    """Rational points of the projective closure of phi_f = 0.

    Every count comes from value tables of univariate polynomials, with
    delta_g(a, b) = #{x : g(x+a) + g(x) = b} and q = 2^n:
      - off the planes (D != 0) phi_g = 0 exactly where N_g = 0, and the zeros
        of N_g number sum_{a,b} delta_g(a, b)^2; the planes hold 3q^2 - 2q of
        them;
      - on the plane x = y, phi_g(t, t, z) = (g'(t) + g'(z)) / (t + z)^2, so it
        holds sum_v m_v (m_v - 1) zeros with t != z, m_v = #{t : g'(t) = v};
      - on the line x = y = z, phi_g(t, t, t) = sum_{j = 3 mod 4} c_j t^(j-3);
      - the affine count is off + 3 * plane - 2 * line.
    The top homogeneous part of phi_f is c_e phi_e, e the largest exponent of
    f that is >= 3 and not a power of two.  Its zeros form a cone through the
    origin, so the points at infinity number (affine(x^e) - 1) / (q - 1),
    none when e = 3 (phi_3 = 1).  The square sums follow diff_spectrum's
    paths (_square_sum), so x^e costs one row, a scanned g counts each pair
    {x, x + a} once and builds no per-row histogram, and the paths' caps are
    the count's caps: an f over them is refused before any table is built.
    If f is additive (every exponent 0 or a power of two), phi_f = 0 and every
    point counts.
    """
    ctx = f.ctx
    q = ctx.order
    e = max((j for j in f.terms if j >= 3 and j & (j - 1)), default=None)
    if e is None:
        # the whole space plus the projective plane at infinity
        return q**3 + q * q + q + 1

    affine = _affine_zero_count(f)
    if e == 3:
        return affine

    cone = _affine_zero_count(UniPoly(ctx, {e: 1}))
    infinity, rest = divmod(cone - 1, q - 1)
    if rest:
        raise AssertionError("zeros of the top homogeneous part do not form a cone")
    return affine + infinity


@dataclass(frozen=True)
class FamilySpec:
    """A named APN family instance: tag, field degree n, parameters r, s."""

    family: str
    n: int
    r: int = 0
    s: int = 0


FAMILY_TAGS = (
    "gold",
    "kasami-welch",
    "welch",
    "niho",
    "inverse",
    "dobbertin",
    "ekp",
    "bcl",
)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConstraintViolated(msg)


def ekp_admissible_u(ctx: FieldCtx) -> list[int]:
    """The coefficient set w*GF(2^5)* union w^2*GF(2^5)*, w of order 3."""
    _require(ctx.n == 10, "the degree-36 binomial family lives in GF(2^10)")
    w = ctx.subfield_elements(2)[2]  # GF(4) minus GF(2) holds the two elements of order 3
    w2 = ctx.sqr(w)
    sub = [v for v in ctx.subfield_elements(5) if v]
    us = {ctx.mul(w, v) for v in sub} | {ctx.mul(w2, v) for v in sub}
    return sorted(us)


def _capped(tag: str, e: int) -> int:
    """e, refused if it is above the exponent cap that UniPoly enforces."""
    _require(e <= DEGREE_CAP, f"{tag} exponent {e} exceeds cap {DEGREE_CAP}")
    return e


def family_exponent(spec: FamilySpec) -> int | UniPoly:
    """Exponent of a monomial family, or the binomial itself for ekp / bcl.

    Constraints are enforced, so every value this returns is an APN instance
    on its declared field; an exponent above DEGREE_CAP is refused too.
    Binomials are built over the default modulus.
    """
    tag = spec.family.lower()
    n, r, s = spec.n, spec.r, spec.s
    _require(tag in FAMILY_TAGS, f"unknown family {spec.family!r}; known: {', '.join(FAMILY_TAGS)}")
    _require(n >= 1, "field degree n must be positive")
    if tag == "gold":
        _require(r >= 1, "gold needs r >= 1")
        _require(math.gcd(r, n) == 1, f"gold needs gcd(r, n) = 1, got gcd({r}, {n}) = {math.gcd(r, n)}")
        return _capped(tag, 2**r + 1)
    if tag == "kasami-welch":
        _require(r >= 1, "kasami-welch needs r >= 1")
        _require(math.gcd(r, n) == 1, f"kasami-welch needs gcd(r, n) = 1, got gcd({r}, {n}) = {math.gcd(r, n)}")
        _require(n % 2 == 1, "kasami-welch needs odd n")
        return _capped(tag, 2 ** (2 * r) - 2**r + 1)
    if tag == "welch":
        _require(r >= 1 and n == 2 * r + 1, f"welch needs n = 2r + 1, got n={n}, r={r}")
        return _capped(tag, 2**r + 3)
    if tag == "niho":
        _require(r >= 1 and n == 2 * r + 1, f"niho needs n = 2r + 1, got n={n}, r={r}")
        if r % 2 == 0:
            return _capped(tag, 2**r + 2 ** (r // 2) - 1)
        return _capped(tag, 2**r + 2 ** ((3 * r + 1) // 2) - 1)
    if tag == "inverse":
        _require(r >= 1 and n == 2 * r + 1, f"inverse needs n = 2r + 1, got n={n}, r={r}")
        return _capped(tag, 2 ** (2 * r) - 1)
    if tag == "dobbertin":
        _require(r >= 1 and n == 5 * r, f"dobbertin needs n = 5r, got n={n}, r={r}")
        return _capped(tag, 2 ** (4 * r) + 2 ** (3 * r) + 2 ** (2 * r) + 2**r - 1)
    if tag == "ekp":
        _require(n == 10, "the degree-36 binomial family lives in GF(2^10)")
        ctx = create_field(10)
        u = ekp_admissible_u(ctx)[0]
        return UniPoly(ctx, {3: 1, 36: u})
    # bcl
    _require(n % 3 == 0 and n // 3 >= 4, f"bcl needs n = 3k with k >= 4, got n={n}")
    k = n // 3
    _require(math.gcd(k, 3) == 1, f"bcl needs gcd(k, 3) = 1, got k={k}")
    _require(s >= 1 and math.gcd(s, 3 * k) == 1, f"bcl needs gcd(s, 3k) = 1, got s={s}, k={k}")
    i = (s * k) % 3
    m = 3 - i
    shifted = _capped(tag, 2 ** (i * k) + 2 ** (m * k + s))  # above 2^s + 1
    ctx = create_field(n)
    t = 2 ** (2 * k) + 2**k + 1
    w = next(a for a in range(1, ctx.order) if ctx.element_order(a) == t)
    return UniPoly(ctx, {2**s + 1: 1, shifted: w})


def family_poly(spec: FamilySpec) -> UniPoly:
    """The family instance as a polynomial over the default GF(2^n)."""
    exp = family_exponent(spec)
    if isinstance(exp, UniPoly):
        return exp
    return UniPoly(create_field(spec.n), {exp: 1})
