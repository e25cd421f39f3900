"""Differential spectra, APN predicates, named exponent families, points.

A function f on GF(2^n) is APN exactly when f(x+a) + f(x) = b has at most two
solutions x for every nonzero a and every b.  Solutions pair up as {x, x+a},
so every solution count is even; diff_spectrum asserts that invariant on
everything it produces.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, groupby
from operator import xor

from .field import LOG_TABLE_MAX_N, FieldCtx, _gf2_kernel, create_field, log_tables
from .poly import DEGREE_CAP, ConstraintViolated, UniPoly

SPECTRUM_MAX_N = LOG_TABLE_MAX_N  # every spectrum reads f through the log tables
SCAN_MAX_N = 14  # a generic input at n = 14 reads every row in about 13 s on a 2-core x86_64 host
FULL_MAX_N = 11  # the (a, b) table of x^9+x^7 peaks at 132 MB for n = 11
PROP1_MAX_N = 7


@dataclass
class DiffSpectrum:
    """Solution-count statistics of f(x+a) + f(x) = b over all a != 0, b.

    rows holds one entry per distinct row histogram: the histogram, an
    ascending tuple of (solution count, #b with that count) pairs, maps to
    the number of differences a != 0 whose row has it.  A power map has one
    entry and a quadratic map at most n + 1, whatever q is.  Row a of f has
    the histogram of row 1 of f(a y), so a scan reads one row per class of
    such a (_row_classes) and counts it once per member.
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


def _group_halves(lanes: array, t: int) -> tuple[int, int]:
    """lanes at the q/2 elements x with bit t clear, and at x + t, each half
    packed into one int in the lane width of lanes.

    Position p of both halves stands for the x whose bits below t are those
    of p and whose bits above t are p's bits from t up.  For t <= a < 2t the
    pair {x, x + a} then joins position p of the low half to position
    p ^ (a - t) of the high half.  Built from min(t, q/2t) slice copies:
    one strided slice per value of x mod t, or one block per run of t
    consecutive x with bit t clear.
    """
    half, span = len(lanes) >> 1, 2 * t
    zeros = bytes(half * lanes.itemsize)
    low, high = array(lanes.typecode, zeros), array(lanes.typecode, zeros)
    if t * t <= half:
        for r in range(t):
            low[r::t] = lanes[r::span]
            high[r::t] = lanes[r + t::span]
    else:
        for p in range(0, half, t):
            low[p:p + t] = lanes[2 * p:2 * p + t]
            high[p:p + t] = lanes[2 * p + t:2 * p + span]
    return int.from_bytes(low, "little"), int.from_bytes(high, "little")


@lru_cache(maxsize=None)
def _block_swaps(half: int, lane: int) -> tuple[tuple[int, int], ...]:
    """(M_j, s_j) for each bit j of a position below half, on half lanes of
    lane bytes packed into one int: M_j fills the lanes whose position has
    bit j clear and s_j = 2^j lanes in bits, so
    ((hi & M_j) << s_j) | ((hi >> s_j) & M_j) re-indexes hi by p -> p ^ 2^j.
    """
    swaps = []
    for j in range(half.bit_length() - 1):
        run = lane << j
        pattern = (b"\xff" * run + bytes(run)) * (half >> (j + 1))
        swaps.append((int.from_bytes(pattern, "little"), 8 * run))
    return tuple(swaps)


def _pair_differences(fv: list[int], a_list):
    """Yield (a, values) for each a in a_list: row a of the difference table.

    The solutions of f(x+a) + f(x) = b pair up as {x, x + a}, and exactly
    one x of each pair has the top bit t of a clear, so values holds the
    q/2 numbers fv[x + a] ^ fv[x] for those x, each pair once: delta_f(a, b)
    is twice the number of values equal to b.  Each run of consecutive a
    with the same t packs the two halves of fv that _group_halves builds
    into one int each, a lane of 8 bits per position for q <= 256 and of 16
    bits above, when its first row is drawn, so an early exit builds no
    later run.  Row a = t + m joins position p of the low half to position
    p ^ m of the high half: the high half is re-indexed by one block swap
    (_block_swaps) per bit in which m differs from the previous row's, and
    the row is one XOR of the two, read back as bytes or as 16-bit lanes
    through the same native array format that packed it.
    """
    lanes = array("B" if len(fv) <= 256 else "H", fv)
    half = len(fv) >> 1
    size = half * lanes.itemsize
    swaps = _block_swaps(half, lanes.itemsize)
    for bits, run in groupby(a_list, int.bit_length):
        t = 1 << (bits - 1)
        low, high = _group_halves(lanes, t)
        m = 0
        for a in run:
            moved, m = m ^ (a - t), a - t
            while moved:
                j = moved.bit_length() - 1
                mask, s = swaps[j]
                high = ((high & mask) << s) | ((high >> s) & mask)
                moved ^= 1 << j
            row = (low ^ high).to_bytes(size, "little")
            yield a, row if lanes.itemsize == 1 else memoryview(row).cast(lanes.typecode)


def _pair_histogram(pairs: Counter, q: int) -> tuple[tuple[int, int], ...]:
    """One row's histogram, ((count, #b with that count), ...) ascending, for
    the row given as value -> #pairs.  At most q/2 values occur, so count 0
    always has some b."""
    hist = sorted((2 * c, m) for c, m in Counter(pairs.values()).items())
    return ((0, q - len(pairs)), *hist)


@lru_cache(maxsize=None)
def _cyclotomic_canon(n: int) -> tuple[list[int], list[int] | None, dict[int, int], list[int]]:
    """(rep, shift, short, leaders) over the residues x mod m = 2^n - 1, built on first use.

    rep[x] is the least element of x's cyclotomic coset {x 2^k mod m} and
    shift[x] the least k with x 2^k = rep[x] mod m; short maps the rep of
    each coset shorter than n to its length, and leaders lists the rep of
    every other coset but {0}, ascending, so each coset's least element and
    size come from the one walk.  Walking x upward, the first x not yet seen
    is the least of its coset, and x 2^j in it needs k = -j mod the coset's
    length.  Only the scan (_row_classes) reads shift, so above SCAN_MAX_N
    it is None.
    """
    m = (1 << n) - 1
    rep, short, leaders = [-1] * m, {}, []
    shift = [0] * m if n <= SCAN_MAX_N else None
    for x in range(m):
        if rep[x] >= 0:
            continue
        coset, y = [x], 2 * x % m
        while y != x:
            coset.append(y)
            y = 2 * y % m
        if len(coset) < n:
            short[x] = len(coset)
        elif x:  # {0} has length n only when n = 1
            leaders.append(x)
        for j, y in enumerate(coset):
            rep[y] = x
            if shift is not None:
                shift[y] = -j % len(coset)
    return rep, shift, short, leaders


def _phi_exponents(f: UniPoly) -> list[int]:
    """f's exponents that reach phi_f, ascending: those neither 0 nor a power of two.

    A constant or c x^(2^i) adds nothing to N_f and c a^(2^i) to row a, which
    relabels b: row histograms and the zeros of phi_f ignore it (EA-invariance).
    """
    return sorted([e for e in f.terms if e & (e - 1)])


@lru_cache(maxsize=16)
def _orbit_pairs(ctx: FieldCtx) -> tuple[list[int], list[int], list[int]]:
    """(rs, ls, weights): one x != 0, 1 per orbit of x -> x^2 and x -> x + 1.

    The two maps commute, so the orbit of x is C(x) u C(x + 1), C(x) its
    Frobenius orbit: the cyclotomic coset of log x (_cyclotomic_canon), and
    C(x + 1) has the same size.  Each orbit is read at the coset with the
    smaller rep, and weighs |C(x)| when x + 1 lies in C(x), 2 |C(x)| when
    not.  rs and ls hold log x and log(x + 1), one per orbit: first the
    orbits of two cosets of length n, each of weight 2n, nearly all of them,
    then the others, short or self-paired, whose weights are the list
    weights.  Which cosets pair depends on the modulus, so this is cached
    per context like log_tables, built on first use.
    """
    exp, log = log_tables(ctx)
    rep, _, short, leaders = _cyclotomic_canon(ctx.n)
    rs, ls, rest = [], [], []
    for r in leaders + [r for r in short if r]:
        l1 = log[exp[r] ^ 1]
        if rep[l1] < r:
            continue  # the orbit is read at C(x + 1)
        size = short.get(r, ctx.n)
        if size == ctx.n and rep[l1] > r:
            rs.append(r)
            ls.append(l1)
        else:
            rest.append((r, l1, size if rep[l1] == r else 2 * size))
    rs += [r for r, _, _ in rest]
    ls += [l for _, l, _ in rest]
    return rs, ls, [weight for _, _, weight in rest]


def _power_row(ctx: FieldCtx, d: int) -> tuple[tuple[int, int], ...]:
    """Histogram of row 1 of x^d, d >= 1, from one x per orbit of x -> x^2, x -> x + 1.

    Row a of c x^d + c0 is row 1 with b -> c a^d b (substitute x = a y), so
    this is the histogram of every row a != 0, in _pair_histogram's form.
    F(x) = x^d + (x + 1)^d has F(x^2) = F(x)^2 (Blondeau-Canteaut-Charpin
    2010) and F(x + 1) = F(x), so F maps the orbit of x under both maps, of
    size s, onto the Frobenius orbit of F(x), of size t dividing s, and hits
    each of its t values s / t times: delta(1, b) is the sum of s over the
    orbits mapped onto b's orbit, divided by t.  The orbits of x != 0, 1 and
    their sizes come from _orbit_pairs, one x per pair of cyclotomic cosets
    {C(x), C(x + 1)}, so about q / 2n x are read.  A value orbit is keyed by
    rep[log b], and b = 0 by -1: F(x) = 0 when ((x + 1) / x)^d = 1, which
    has solutions once gcd(d, q - 1) > 1.
    """
    exp, log = log_tables(ctx)
    rep, _, short, _ = _cyclotomic_canon(ctx.n)
    rs, ls, weights = _orbit_pairs(ctx)
    n, m = ctx.n, ctx.order - 1
    # the orbit key of F(x) for x = exp[r], x + 1 = exp[l]
    bs = [exp[r * d % m] ^ exp[l * d % m] for r, l in zip(rs, ls)]
    keys = [rep[log[b]] if b else -1 for b in bs]
    split = len(keys) - len(weights)
    # value orbit -> #x mapped onto it; each orbit before split has 2n
    # elements.  Plain dicts: Counter's Python-level __init__ and
    # __missing__ make a call 20-30% slower at n <= 8.
    hits = {key: 2 * n * k for key, k in Counter(keys[:split]).items()}
    for key, weight in zip(keys[split:], weights):
        hits[key] = hits.get(key, 0) + weight
    hits[0] = hits.get(0, 0) + 2  # x = 0 and x = 1 (log 0, where x + 1 has no log): b = 1
    per_count: dict[int, int] = {}
    for key, total in hits.items():
        t = short.get(key, n) if key >= 0 else 1
        per_count[total // t] = per_count.get(total // t, 0) + t
    return ((0, ctx.order - sum(per_count.values())), *sorted(per_count.items()))


def _row_classes(f: UniPoly) -> list[tuple[int, int]]:
    """Differences a != 0 whose rows share a histogram, as (least a, #a) pairs, ascending.

    Put x = a y: row a of f has the histogram of row 1 of
    F_a(y) = sum c_e a^e y^e.  Scaling F_a, dropping the terms that miss
    phi_f, and squaring every coefficient (F^sigma(y^2) = F(y)^2) keep that
    histogram.  So with e_1 < e_2 < ... the exponents that reach phi_f
    (_phi_exponents), row a's histogram is fixed by the logarithms
    L_i(a) = log c_i - log c_1 + (e_i - e_1) log a mod q - 1, i >= 2, up to
    doubling every L_i at once.  The key of a is rep[L_2] with every other
    L_i multiplied by 2^shift[L_2] (_cyclotomic_canon).  When L_2's coset
    has a length l below n, the shifts by multiples of l also fix rep[L_2],
    so such an a takes the least of its n / l turns: then keys are equal
    exactly when the vectors are related by a power of 2.  Only those a are
    turned, one pass per coset length.  f is a scan-path input, so at least
    two of its exponents reach phi_f.
    """
    ctx = f.ctx
    m = ctx.order - 1
    terms = [(e, f.terms[e]) for e in _phi_exponents(f)]
    _, log = log_tables(ctx)
    rep, shift, short, _ = _cyclotomic_canon(ctx.n)
    logs = log[1:]  # log a for a = 1 .. q - 1
    (e1, c1), *rest = terms
    first, *others = [
        [(lc + step * t) % m for t in logs]
        for lc, step in ((log[c] - log[c1], (e - e1) % m) for e, c in rest)
    ]
    shifts = [shift[x] for x in first]
    heads = [rep[x] for x in first]
    tails = [[(x << s) % m for x, s in zip(col, shifts)] for col in others]
    # a binomial's key is rep[L_2] alone; otherwise an a whose L_2 has a
    # coset of length l < n takes the least of its tails turned by multiples of l
    picked = [i for i, head in enumerate(heads) if head in short] if tails else []
    for length in {short[heads[i]] for i in picked}:
        rows = [i for i in picked if short[heads[i]] == length]  # index i is a = i + 1
        turned = [
            zip(*([(col[i] << k) % m for i in rows] for col in tails))
            for k in range(0, ctx.n, length)
        ]
        for i, tail in zip(rows, map(min, *turned)):
            for col, x in zip(tails, tail):
                col[i] = x
    keys = list(zip(heads, *tails))
    least = dict(zip(reversed(keys), range(m, 0, -1)))  # the last write is the least a
    return sorted((least[key], size) for key, size in Counter(keys).items())


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


def _bilinear_form(f: UniPoly) -> list[list[int]]:
    """form[i][j] = B(e_i, e_j), B(x, a) = f(x+a) + f(x) + f(a) + f(0), e_i = 2^i.

    f is evaluated only at the n(n+1)/2 + 1 points 0, e_i and e_i + e_j,
    through the field's log tables (UniPoly._values_at_logs), so no q-entry
    value table is built.  B(x, x) = 0, so the diagonal is 0.
    """
    n = f.ctx.n
    tables = log_tables(f.ctx)
    _, log = tables
    pairs = list(combinations(range(n), 2))
    points = [1 << i for i in range(n)] + [(1 << i) | (1 << j) for i, j in pairs]
    values = f._values_at_logs([log[x] for x in points], tables)
    f0 = f.terms.get(0, 0)  # f(0), since 0^0 = 1
    shift = [v ^ f0 for v in values[:n]]
    form = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pairs, values[n:]):
        form[i][j] = form[j][i] = v ^ shift[i] ^ shift[j] ^ f0
    return form


def _quadratic_ranks(form: list[list[int]]) -> bytes:
    """Ranks of x -> B(x, a): byte a - 1 for a = 1 .. q - 1, form = _bilinear_form(f).

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
    lanes.  O(n^3) big-int operations.
    """
    n = len(form)
    q = 1 << n
    masks = _bit_masks(n)
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


def _row_1_rank(form: list[list[int]]) -> int:
    """Byte 0 of _quadratic_ranks(form), with no q-bit mask built.

    Row 1's images are B(e_i, 1) = form[i][0], and B(1, 1) = 0, so the rank
    is at most n - 1, and it is n - 1 exactly when the images have a
    one-vector kernel (field._gf2_kernel).
    """
    return len(form) - len(_gf2_kernel([row[0] for row in form]))


def _row_1_prefix_repeats(f: UniPoly) -> bool:
    """Whether F(x) = f(x) + f(x + 1) repeats over the first pairs {x, x + 1}.

    Each even x stands for its pair once, and a repeated value b puts two
    pairs on b: delta_f(1, b) >= 4, so f is not APN.  The values come from
    UniPoly._values_at_logs in blocks of pairs, the first of 2^ceil(n/2)
    and each next one twice as long, up to min(q/4, 2^(ceil(n/2) + 3))
    pairs in all; a non-APN row 1 usually repeats well inside that, by the
    birthday bound.  x = 0 is read as f(0), since log 0 is a placeholder.
    """
    n, q = f.ctx.n, f.ctx.order
    tables = log_tables(f.ctx)
    _, log = tables
    size = 1 << ((n + 1) // 2)
    cap = min(q >> 2, size << 3)
    seen: set[int] = set()
    done = 0  # pairs read
    while done < cap:
        stop = min(done + size, cap)
        values = f._values_at_logs(log[2 * done:2 * stop], tables)
        if not done:
            values[0] = f.terms.get(0, 0)  # f(0), since 0^0 = 1
        seen.update(map(xor, values[::2], values[1::2]))
        if len(seen) < stop:
            return True
        done, size = stop, 2 * size
    return False


def _spectrum_path(f: UniPoly, full: bool = False) -> str:
    """Which identity gives f's rows: "power", "quadratic" or "scan".

    Checks the caps first, so an input over them costs nothing.
    """
    n = f.ctx.n
    if n > SPECTRUM_MAX_N:
        raise ConstraintViolated(
            f"spectrum enumeration is capped at n <= {SPECTRUM_MAX_N}, got {n}"
        )
    exponents = _phi_exponents(f)
    if not full and len(exponents) == 1:
        return "power"
    if not full and all(e.bit_count() <= 2 for e in exponents):
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


def _spectrum_rows(f: UniPoly, classes: list[tuple[int, int]], full: bool):
    q = f.ctx.order
    weight = dict(classes)
    rows: Counter = Counter()
    table: dict[int, dict[int, int]] = {}
    for a, values in _pair_differences(f.value_table(), list(weight)):
        pairs = Counter(values)
        rows[_pair_histogram(pairs, q)] += weight[a]
        if full:
            table[a] = {b: 2 * c for b, c in pairs.items()}
    return rows, table


def diff_spectrum(f: UniPoly, full: bool = False, jobs: int = 1) -> DiffSpectrum:
    """Differential spectrum of f; full also keeps the (a, b) table.

    The rows come from one of three paths:
      - power (one exponent e reaches phi_f, _phi_exponents): row a is row
        1 of x^e with b relabelled, so row 1 gives every histogram, and row 1
        comes from one x per orbit of x -> x^2 and x -> x + 1 (_power_row),
        about q / 2n of them, with no value table;
      - quadratic (every exponent of binary weight <= 2): row a has 2^(n-r)
        solutions for each of 2^r values b, r the GF(2)-rank of the linear
        map x -> f(x+a) + f(x) + f(a) + f(0); one elimination over q-bit
        masks ranks every a at once (_quadratic_ranks), in O(n^3) big-int
        operations on f's values at the n(n+1)/2 + 1 points 0, e_i and
        e_i + e_j (_bilinear_form), with no value table;
      - scan (any other f, and every full table): a row from its q/2 pairs
        {x, x + a}, each counted once, as one XOR of two packed ints whose
        8- or 16-bit lanes hold f's values (_pair_differences), capped at
        n <= SCAN_MAX_N, and a full table at n <= FULL_MAX_N; the other
        paths go up to SPECTRUM_MAX_N.  Row a has the histogram of row 1 of
        f(a y), which scaling, additive terms and squaring every coefficient
        keep, so the scan reads one row per class of a (_row_classes) and
        weighs it by the class size: about q/n rows for a binomial, all
        q - 1 for a generic input.  A full table reads every row.  The value
        table the scan reads comes from UniPoly.value_table, which walks
        each term along its progression of exp indices.
    Each path counts the rows of each distinct histogram, so the spectrum
    holds one entry per histogram, never one per difference a.
    jobs > 1 splits the scanned rows across processes, at most one per CPU
    and one per row read; the workers' counts are added, so the merge
    cannot depend on worker order.  The other paths run serially.
    """
    ctx = f.ctx
    q = ctx.order
    path = _spectrum_path(f, full)
    if path == "power":
        hist = _power_row(ctx, *_phi_exponents(f))
        return DiffSpectrum(ctx=ctx, poly=f, rows=Counter({hist: q - 1}))
    if path == "quadratic":
        # rank r: 2^(n-r) solutions for each of the 2^r values of the coset
        ranks = _quadratic_ranks(_bilinear_form(f))
        rows = Counter({
            ((0, q - (1 << r)), (1 << (ctx.n - r), 1 << r)): ranks.count(r)
            for r in range(ctx.n + 1)
            if r in ranks
        })
        return DiffSpectrum(ctx=ctx, poly=f, rows=rows)
    classes = [(a, 1) for a in range(1, q)] if full else _row_classes(f)
    workers = min(jobs, os.cpu_count() or 1, len(classes))
    if workers <= 1 or q < 64:
        rows, table = _spectrum_rows(f, classes, full)
    else:
        import multiprocessing

        chunks = [(f, classes[i::workers], full) for i in range(workers)]
        rows, table = Counter(), {}
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            for part_rows, part_table in pool.starmap(_spectrum_rows, chunks):
                rows.update(part_rows)
                table.update(part_table)
    return DiffSpectrum(ctx=ctx, poly=f, rows=rows, table=table if full else None)


def is_apn(f: UniPoly) -> bool:
    """Early-exit APN test; agrees with diff_spectrum(f).uniformity == 2.

    Takes diff_spectrum's path:
      - a power map checks that row 1 of x^e, e its one exponent reaching
        phi_f, has largest count 2, reading one x per orbit of x -> x^2 and
        x -> x + 1 (_power_row);
      - a quadratic map needs rank n - 1 (a kernel of dimension 1) on every
        row.  It reads f only at the n(n+1)/2 + 1 points 0, e_i and
        e_i + e_j (_bilinear_form), and ranks row 1 first, from the images
        of e_i alone (_row_1_rank): a lower rank makes D_1 f at least
        4-to-1 and answers False with no q-bit mask built.  Only a row 1 of
        rank n - 1 goes on to rank every row at once (_quadratic_ranks);
      - any other f scans, up to SCAN_MAX_N, and stops at the first row
        whose q/2 pair values are not all distinct (a count above 2).
        Before any value table it reads row 1's values at a growing prefix
        of its pairs, at most min(q/4, 2^(ceil(n/2) + 3)) of them
        (_row_1_prefix_repeats), and a repeated value answers False.
        Otherwise it falls through to the full scan: the value table, row
        1, which leads its class, then one row per other class
        (_row_classes), as diff_spectrum does, not all q - 1, so a failing
        row 1 still builds no classes.
    The power and quadratic paths build no value table, and neither does a
    scan-path f that the prefix refutes.
    """
    half = f.ctx.order // 2
    path = _spectrum_path(f)
    if path == "power":
        return _power_row(f.ctx, *_phi_exponents(f))[-1][0] == 2
    if path == "quadratic":
        form, apn_rank = _bilinear_form(f), f.ctx.n - 1
        if _row_1_rank(form) < apn_rank:
            return False
        return _quadratic_ranks(form).count(apn_rank) == f.ctx.order - 1
    if _row_1_prefix_repeats(f):
        return False

    def leaders():
        yield 1
        yield from (a for a, _ in _row_classes(f)[1:])

    rows = _pair_differences(f.value_table(), leaders())
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


def _affine_zero_count(g: UniPoly) -> int:
    """Zeros of phi_g in GF(q)^3: off + 3 * plane - 2 * line, as in
    projective_point_count, with plane = fibres + line (_affine_parts)."""
    q = g.ctx.order
    squares, fibres, line = _affine_parts(g)
    return squares + q * q - (3 * q * q - 2 * q) + 3 * fibres + line


def _affine_parts(g: UniPoly) -> tuple[int, int, int]:
    """(square sum, plane fibres, line zeros) of g, along diff_spectrum's path.

    The square sum is sum delta_g(a, b)^2 over a != 0 and every b, the
    plane fibres sum_v m_v (m_v - 1), m_v = #{t : g'(t) = v}, g' =
    sum_(j odd) c_j t^(j-1) the formal derivative, and the line zeros those
    of the line polynomial sum_(j = 3 mod 4) c_j t^(j-3).  One path gives
    all three:
      - power, c x^e + c_1 x + ..., e the one exponent reaching phi_g: every
        row has the histogram of row 1 of x^e (_power_row, no value table).
        For odd e, g' = c t^(e-1) + c_1 takes c_1 only at t = 0 and is
        gcd(e - 1, q - 1)-to-1 on the rest; for even e, g' = c_1.  The
        line polynomial is c t^(e-3) when e = 3 mod 4, with no zero when
        e = 3 and only t = 0 when e > 3, and 0 otherwise;
      - quadratic: a row of rank r (_quadratic_ranks) adds 2^(2n - r).
        g' = c_1 + sum c_(2^i+1) t^(2^i) is a constant plus a GF(2)-linear
        map, so every value it takes has 2^k preimages, k the kernel
        dimension of its images of the n basis points; 3 is the only
        weight-2 exponent = 3 mod 4, so the line polynomial is c_3.  No
        value table;
      - scan: one row per class of a (_row_classes: row a of g has the
        histogram of row 1 of g(a y), so the same square sum), read from its
        q/2 pairs {x, x + a} (_pair_differences) and weighed by the class
        size; g' and the line polynomial from their value tables.
    """
    ctx, terms = g.ctx, g.terms
    n, q = ctx.n, ctx.order
    path = _spectrum_path(g)
    if path == "power":
        (e,) = _phi_exponents(g)
        squares = (q - 1) * sum(c * c * k for c, k in _power_row(ctx, e))
        fibres = (q - 1) * (math.gcd(e - 1, q - 1) - 1) if e % 2 else q * (q - 1)
        return squares, fibres, q if e % 4 != 3 else int(e > 3)
    if path == "quadratic":
        ranks = _quadratic_ranks(_bilinear_form(g))
        squares = sum(ranks.count(r) << (2 * n - r) for r in range(n + 1))
        _, log = tables = log_tables(ctx)
        linear = UniPoly(ctx, {j - 1: c for j, c in terms.items() if j % 2 and j > 1})
        images = linear._values_at_logs([log[1 << i] for i in range(n)], tables)
        return squares, q * ((1 << len(_gf2_kernel(images))) - 1), 0 if 3 in terms else q
    weight = dict(_row_classes(g))
    squares = 0  # delta_g(a, b) is twice c, the number of pairs {x, x + a} with value b
    for a, values in _pair_differences(g.value_table(), list(weight)):
        squares += 4 * weight[a] * sum(c * c for c in Counter(values).values())
    derivative = UniPoly(ctx, {j - 1: c for j, c in terms.items() if j % 2})
    fibres = sum(m * (m - 1) for m in Counter(derivative.value_table()).values())
    line = UniPoly(ctx, {j - 3: c for j, c in terms.items() if j % 4 == 3}).value_table().count(0)
    return squares, fibres, line


def projective_point_count(f: UniPoly) -> int:
    """Rational points of the projective closure of phi_f = 0.

    Every count comes from values of univariate polynomials, with
    delta_g(a, b) = #{x : g(x+a) + g(x) = b} and q = 2^n:
      - off the planes (D != 0) phi_g = 0 exactly where N_g = 0, and the zeros
        of N_g number sum_{a,b} delta_g(a, b)^2; the planes hold 3q^2 - 2q of
        them;
      - on the plane x = y, phi_g(t, t, z) = (g'(t) + g'(z)) / (t + z)^2, so it
        holds sum_v m_v (m_v - 1) zeros with t != z, m_v = #{t : g'(t) = v};
      - on the line x = y = z, phi_g(t, t, t) = sum_{j = 3 mod 4} c_j t^(j-3);
      - the affine count is off + 3 * plane - 2 * line.
    The top homogeneous part of phi_f is c_e phi_e, e the largest exponent
    reaching phi_f (_phi_exponents).  Its zeros form a cone through the
    origin, so the points at infinity number (affine(x^e) - 1) / (q - 1),
    none when e = 3 (phi_3 = 1); when e is the only such exponent,
    phi_f = c_e phi_e, so affine(x^e) is f's own affine count.  The square
    sum, plane and line counts come from _affine_parts, along one
    diff_spectrum path per affine count; their caps are the count's caps, so
    an f over them is refused before any table is built.
    If no exponent reaches phi_f (f is affine), phi_f = 0 and every point counts.
    """
    ctx = f.ctx
    q = ctx.order
    exponents = _phi_exponents(f)
    if not exponents:
        # the whole space plus the projective plane at infinity
        return q**3 + q * q + q + 1

    affine = _affine_zero_count(f)
    if exponents == [3]:
        return affine

    cone = affine if len(exponents) == 1 else _affine_zero_count(UniPoly(ctx, {exponents[-1]: 1}))
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
