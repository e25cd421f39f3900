import itertools
import math
import multiprocessing
import os
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apnforge.ddt as ddt_module
from apnforge.ddt import (
    FULL_MAX_N,
    SCAN_MAX_N,
    SPECTRUM_MAX_N,
    DiffSpectrum,
    FamilySpec,
    _spectrum_path,
    corollary_bound,
    diff_spectrum,
    ekp_admissible_u,
    family_exponent,
    family_poly,
    is_apn,
    projective_point_count,
    prop1_check,
)
from apnforge.field import FieldCtx, create_field
from apnforge.phi import build_phi
from apnforge.poly import DEGREE_CAP, ConstraintViolated, TriPoly, UniPoly


def test_gold_cube_is_apn_everywhere_small():
    for n in range(2, 9):
        f = UniPoly(create_field(n), {3: 1})
        assert diff_spectrum(f).uniformity == 2


def test_linearized_square_has_full_uniformity():
    ctx = create_field(3)
    assert diff_spectrum(UniPoly(ctx, {2: 1})).uniformity == 8


def test_x5_uniformity_4_on_gf16():
    ctx = create_field(4)
    spec = diff_spectrum(UniPoly(ctx, {5: 1}))
    assert spec.uniformity == 4
    assert not spec.is_apn()


def test_spectrum_histogram_accounts_for_all_pairs():
    ctx = create_field(5)
    spec = diff_spectrum(UniPoly(ctx, {9: 1, 7: 1}))
    q = ctx.order
    total = sum(c * freq for c, freq in spec.histogram())
    assert total == (q - 1) * q  # each (a, x) pair counted once


def test_full_table_consistent_with_histogram():
    ctx = create_field(4)
    spec = diff_spectrum(UniPoly(ctx, {3: 1, 2: 1}), full=True)
    assert spec.table is not None
    assert len(spec.table) == ctx.order - 1
    hists = Counter(_row_histogram(row, ctx.order) for row in spec.table.values())
    assert hists == spec.rows


def test_parallel_merge_matches_serial():
    ctx = create_field(7)
    f = UniPoly(ctx, {9: 1, 5: 1})
    a = diff_spectrum(f, full=True, jobs=1)
    b = diff_spectrum(f, full=True, jobs=3)
    assert a.rows == b.rows
    assert a.table == b.table


@pytest.fixture
def pool_sizes(monkeypatch):
    """Sizes of the process pools diff_spectrum asks for; none is started."""
    sizes = []

    class RecordingPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return [fn(chunk) for chunk in chunks]

    class StubContext:
        Pool = RecordingPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: StubContext)
    return sizes


@pytest.mark.parametrize(
    "jobs,cpus,n,workers",
    [
        (1000, 4, 7, 4),  # capped by the CPU count
        (3, 8, 7, 3),
        (1000, 1000, 6, 63),  # capped by the number of rows
        (0, 4, 7, None),  # below one runs serially
        (-5, 4, 7, None),
        (8, None, 7, None),  # unknown CPU count runs serially
    ],
)
def test_spectrum_workers_are_clamped(monkeypatch, pool_sizes, jobs, cpus, n, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    f = UniPoly(create_field(n), {9: 1, 5: 1})
    serial = diff_spectrum(f, full=True)
    clamped = diff_spectrum(f, full=True, jobs=jobs)
    assert pool_sizes == ([] if workers is None else [workers])
    assert (clamped.rows, clamped.table) == (serial.rows, serial.table)


def test_fast_paths_start_no_pool(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    ctx = create_field(7)
    for terms in ({9: 1}, {9: 1, 5: 3, 0: 1}):  # power, quadratic
        diff_spectrum(UniPoly(ctx, terms), jobs=4)
    assert pool_sizes == []
    diff_spectrum(UniPoly(ctx, {9: 1, 7: 1}), jobs=4)  # the scan still splits
    assert pool_sizes == [4]


@settings(max_examples=25, deadline=None)
@given(terms=st.dictionaries(st.integers(1, 20), st.integers(1, 15), min_size=1, max_size=4))
def test_every_solution_count_is_even(terms):
    spec = diff_spectrum(UniPoly(create_field(4), terms))
    assert sum(spec.rows.values()) == 15
    for hist in spec.rows:
        assert all(c % 2 == 0 for c, _ in hist)


def test_spectrum_cap():
    with pytest.raises(ConstraintViolated):
        diff_spectrum(UniPoly(create_field(21), {3: 1}))


def test_gold_uniformity_is_two_to_the_gcd():
    for r in range(1, 5):
        for n in range(2, 9):
            f = UniPoly(create_field(n), {(1 << r) + 1: 1})
            s = math.gcd(r, n)
            assert diff_spectrum(f).uniformity == 1 << s, (r, n)


def test_is_apn_agrees_with_spectrum():
    ctx = create_field(5)
    for terms in ({3: 1}, {5: 1}, {9: 1, 7: 1}, {13: 1}, {15: 1}):
        f = UniPoly(ctx, terms)
        assert is_apn(f) == diff_spectrum(f).is_apn()


def test_value_table_matches_evaluate():
    rng = random.Random(3)
    for n in range(1, 9):
        ctx = create_field(n)
        q = ctx.order
        cases = [{}, {0: 1}, {q - 1: 1}, {q: 1, 0: q - 1}, {3 * q + 5: 1, 1: 1}]
        for _ in range(12):
            terms = {rng.randint(0, 4 * q): rng.randrange(1, q) for _ in range(rng.randint(1, 5))}
            cases.append(terms)
        for terms in cases:
            f = UniPoly(ctx, terms)
            assert f.value_table() == [f.evaluate(x) for x in range(q)], (n, terms)


@pytest.mark.parametrize("n", [17, 20])
def test_value_table_matches_evaluate_on_sampled_x(n):
    # above the old table cap of 16; evaluate is sampled, since a whole
    # field of bit-serial evaluations is the cost the tables remove.  Here
    # q > DEGREE_CAP, so no exponent reaches q: the test above covers e >= q
    ctx = create_field(n)
    q = ctx.order
    rng = random.Random(n)
    xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(500)]
    cases = [{57: 1, 0: rng.randrange(1, q)}, {DEGREE_CAP: rng.randrange(1, q), 3: 1, 0: 1}]
    for terms in cases:
        f = UniPoly(ctx, terms)
        table = f.value_table()
        assert len(table) == q
        assert [table[x] for x in xs] == [f.evaluate(x) for x in xs], (n, terms)


def _check_against_scan(f: UniPoly, path: str):
    """The fast path agrees with the exhaustive scan on every row and on APN.

    Equal row classes on the power path mean every scanned row has row 1's
    histogram; on the quadratic path each scanned row a must also have the
    shape its own rank gives, largest count 2^(n - r) on 2^r values b."""
    assert _spectrum_path(f) == path
    scan = diff_spectrum(f, full=True)
    assert diff_spectrum(f).rows == scan.rows, (f, path)
    if path == "power":
        assert len(scan.rows) == 1, f
    if path == "quadratic":
        n, q = f.ctx.n, f.ctx.order
        ranks = ddt_module._quadratic_ranks(f)
        for a, row in scan.table.items():
            r = ranks[a - 1]
            assert max(row.values()) == 1 << (n - r), (f, a)
            assert _row_histogram(row, q) == ((0, q - (1 << r)), (1 << (n - r), 1 << r)), (f, a)
    assert is_apn(f) == scan.is_apn(), (f, path)


def test_power_path_matches_scan_every_monomial():
    for n in range(1, 8):
        ctx = create_field(n)
        for d in range(1, 71):
            _check_against_scan(UniPoly(ctx, {d: 1}), "power")
        # coefficients and a constant only relabel b
        _check_against_scan(UniPoly(ctx, {13: ctx.order - 1, 0: 1}), "power")


def test_quadratic_path_matches_scan_seeded():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, FULL_MAX_N)
        q = 1 << n
        exps = rng.sample([e for e in range(q) if e.bit_count() <= 2], rng.randint(2, 4))
        terms = {e: rng.randrange(1, q) for e in exps}
        terms[0] = rng.randrange(q)  # constant term, zero or not
        terms[1] = rng.randrange(q)  # linear term, zero or not
        f = UniPoly(create_field(n), terms)
        _check_against_scan(f, "power" if len([e for e in f.terms if e]) == 1 else "quadratic")


def _oracle_rank(vectors: list[int]) -> int:
    """Rank over GF(2) of a list of ints, by an XOR basis keyed by bit length."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            t = v.bit_length()
            if t not in pivots:
                pivots[t] = v
                break
            v ^= pivots[t]
    return len(pivots)


def _oracle_quadratic_rank(fv: list[int], n: int, a: int) -> int:
    """Rank of x -> f(x+a) + f(x) + f(a) + f(0) from its images of 1, 2, 4, ..., 2^(n-1),
    one row a at a time, from the value table fv of f."""
    shift = fv[a] ^ fv[0]
    return _oracle_rank([fv[u ^ a] ^ fv[u] ^ shift for u in (1 << i for i in range(n))])


def _quadratic_cases(rng: random.Random, n: int) -> list[UniPoly]:
    """Quadratic f with a constant term, linear terms, exponents >= q, and an
    additive-only f; every exponent has binary weight <= 2."""
    ctx = create_field(n)
    q = ctx.order
    # exponents >= q where DEGREE_CAP allows them (n <= 14), else near the cap
    beyond = [e for e in (2 * q + 1, 4 * q + 8) if e <= DEGREE_CAP] or [2**15 + 1, 2**14 + 8]
    cases = [
        {3: 1, 12: 1, 0: q - 1},
        {e: rng.randrange(1, q) for e in beyond} | {1: rng.randrange(1, q)},
        {e: rng.randrange(1, q) for e in (1, 1 << (n // 2), 1 << min(n + 1, 16))} | {0: rng.randrange(q)},
    ]
    exps = [e for e in range(1, min(4 * q, DEGREE_CAP + 1)) if e.bit_count() <= 2]
    for _ in range(2):
        terms = {e: rng.randrange(1, q) for e in rng.sample(exps, min(len(exps), 3))}
        terms[0] = rng.randrange(q)
        terms[1] = rng.randrange(q)
        cases.append(terms)
    return [UniPoly(ctx, terms) for terms in cases]


def test_quadratic_ranks_match_per_row_oracle():
    rng = random.Random(14)
    for n in range(1, 11):
        for f in _quadratic_cases(rng, n):
            fv = f.value_table()
            expected = bytes(_oracle_quadratic_rank(fv, n, a) for a in range(1, f.ctx.order))
            assert ddt_module._quadratic_ranks(f) == expected, f


@pytest.mark.parametrize("n", [15, 16, 17])
def test_quadratic_ranks_match_oracle_on_sampled_a(n):
    # above SCAN_MAX_N, where no scan can cross-check the quadratic path
    rng = random.Random(n)
    for f in _quadratic_cases(rng, n)[:3]:  # the constant, top-exponent and additive cases
        fv = f.value_table()
        ranks = ddt_module._quadratic_ranks(f)
        assert len(ranks) == f.ctx.order - 1
        for a in [1, f.ctx.order - 1] + rng.sample(range(2, f.ctx.order - 1), 100):
            assert ranks[a - 1] == _oracle_quadratic_rank(fv, n, a), (f, a)


def test_quadratic_spectrum_at_n18_ranks_every_row_at_once():
    # one GF(2) elimination per row took about 3.5 s on a 2-core x86_64
    # host; the one elimination over q-bit masks for every row about 0.7 s
    f = UniPoly(create_field(18), {3: 1, 12: 5})
    start = time.perf_counter()
    spectrum = diff_spectrum(f)
    assert time.perf_counter() - start < 2.0
    assert spectrum.histogram() == [(0, 53674278912), (4, 12910067712), (8, 2134867968)]


def test_fast_paths_match_scan_on_exponents_beyond_q():
    ctx = create_field(4)  # q = 16: x^17 = x^2, x^(2^5 + 2^9) = x^(2 + 2)
    _check_against_scan(UniPoly(ctx, {17: 1}), "power")
    _check_against_scan(UniPoly(ctx, {2**5 + 2**9: 3, 3: 1}), "quadratic")
    _check_against_scan(UniPoly(ctx, {2**4 + 2**6: 5, 2**8 + 1: 7, 0: 1}), "quadratic")
    ctx = create_field(5)
    _check_against_scan(UniPoly(ctx, {2**7 + 2**10: 1, 5: 9, 2**6: 2}), "quadratic")
    _check_against_scan(UniPoly(ctx, {3 * 31 + 7: 1}), "power")


def test_fast_paths_match_scan_on_additive_functions():
    for n in (1, 3, 6):
        ctx = create_field(n)
        q = ctx.order
        _check_against_scan(UniPoly(ctx, {4: 1, 2: 1, 1: q - 1, 0: 1}), "quadratic")
        _check_against_scan(UniPoly(ctx, {2: 1, 1: 1}), "quadratic")
        _check_against_scan(UniPoly(ctx, {8: 1}), "power")
        _check_against_scan(UniPoly(ctx, {0: 1}), "quadratic")
        spec = diff_spectrum(UniPoly(ctx, {4: 1, 1: 1}))
        assert spec.uniformity == q  # one value b takes every x


@pytest.mark.parametrize(
    "spec,path",
    [
        (FamilySpec("gold", 9, 2), "power"),
        (FamilySpec("kasami-welch", 9, 2), "power"),
        (FamilySpec("welch", 9, 4), "power"),
        (FamilySpec("niho", 9, 4), "power"),
        (FamilySpec("inverse", 9, 4), "power"),
        (FamilySpec("gold", 10, 3), "power"),
        (FamilySpec("dobbertin", 10, 2), "power"),
        (FamilySpec("ekp", 10), "quadratic"),
    ],
)
def test_fast_paths_match_scan_on_named_families(spec, path):
    _check_against_scan(family_poly(spec), path)


def test_general_inputs_take_the_scan():
    cases = [(5, {9: 1, 7: 1}), (5, {7: 1, 3: 1}), (5, {11: 3, 5: 1, 0: 2})]
    cases.append((4, {25: 0xB, 6: 0xE, 3: 8}))  # rows 1..5 have counts <= 2, row 6 does not
    for n, terms in cases:
        f = UniPoly(create_field(n), terms)
        assert _spectrum_path(f) == "scan"
        assert is_apn(f) == diff_spectrum(f).is_apn()


def _difference_row(fv: list[int], a: int) -> dict[int, int]:
    """b -> #{x : f(x+a) + f(x) = b}, from the value table fv of f: the
    per-element oracle for the pair kernel."""
    per_b: dict[int, int] = {}
    for x in range(len(fv)):
        b = fv[x ^ a] ^ fv[x]
        per_b[b] = per_b.get(b, 0) + 1
    return per_b


def _row_histogram(per_b: dict[int, int], q: int) -> tuple[tuple[int, int], ...]:
    """((count, #b with that count), ...) ascending, for one row b -> count
    of the table."""
    hist: dict[int, int] = {}
    for c in per_b.values():
        hist[c] = hist.get(c, 0) + 1
    missed = q - len(per_b)
    if missed:
        hist[0] = missed
    return tuple(sorted(hist.items()))


def _oracle_rows(f: UniPoly) -> dict[int, dict[int, int]]:
    fv = [f.evaluate(x) for x in range(f.ctx.order)]
    return {a: _difference_row(fv, a) for a in range(1, f.ctx.order)}


def _oracle_square_sum(g: UniPoly) -> int:
    return sum(c * c for row in _oracle_rows(g).values() for c in row.values())


def _check_against_oracle(f: UniPoly, monkeypatch):
    """The row classes, the full table, is_apn and the point count agree
    with the per-element oracle; the point count is recomputed with the
    oracle's square sum in place of the kernel's."""
    q = f.ctx.order
    rows = _oracle_rows(f)
    hists = Counter(_row_histogram(row, q) for row in rows.values())
    apn = all(max(row.values()) <= 2 for row in rows.values())
    assert diff_spectrum(f).rows == hists, f
    full = diff_spectrum(f, full=True)
    assert (full.rows, full.table) == (hists, rows), f
    assert is_apn(f) == apn, f
    points = projective_point_count(f)
    with monkeypatch.context() as patch:
        patch.setattr(ddt_module, "_square_sum", _oracle_square_sum)
        assert projective_point_count(f) == points, f


def _seeded_polys(rng: random.Random, n: int, count: int) -> list[UniPoly]:
    """Polynomials with constant terms, exponents >= q and weight-3 exponents."""
    ctx = create_field(n)
    q = ctx.order
    polys = []
    for _ in range(count):
        terms = {e: rng.randrange(1, q) for e in rng.sample(range(1, 4 * q + 8), rng.randint(1, 3))}
        terms[rng.choice([7, 11, 13, 14, 19, 21, 25])] = rng.randrange(1, q)  # weight 3
        terms[0] = rng.randrange(q)
        polys.append(UniPoly(ctx, terms))
    return polys


def test_kernel_matches_oracle_every_monomial(monkeypatch):
    for n in range(1, 8):
        ctx = create_field(n)
        for d in range(1, 71):
            _check_against_oracle(UniPoly(ctx, {d: 1}), monkeypatch)


def test_kernel_matches_oracle_seeded(monkeypatch):
    rng = random.Random(11)
    for n in range(1, 9):
        for f in _seeded_polys(rng, n, 12 if n < 8 else 4):
            _check_against_oracle(f, monkeypatch)


def test_pooled_kernel_matches_oracle(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    rng = random.Random(12)
    for n in (6, 7, 8):
        for f in _seeded_polys(rng, n, 2):
            rows = _oracle_rows(f)
            spec = diff_spectrum(f, full=True, jobs=3)
            assert spec.table == rows, f
            assert spec.rows == Counter(_row_histogram(row, f.ctx.order) for row in rows.values())
    assert pool_sizes == [3] * 6


def test_square_sum_matches_oracle():
    rng = random.Random(13)
    for n in range(1, 8):
        ctx = create_field(n)
        cases = [UniPoly(ctx, {d: 1}) for d in (3, 5, 7, 9, 11, 13)]  # power
        cases.append(UniPoly(ctx, {5: ctx.order - 1, 3: 1, 1: 1, 0: 1}))  # quadratic
        cases += _seeded_polys(rng, n, 4)  # scan
        for g in cases:
            assert ddt_module._square_sum(g) == _oracle_square_sum(g), g


def test_square_sum_counter_stays_within_q(monkeypatch):
    # the shared Counter is emptied once it holds q values, and the sums
    # taken before each emptying are kept
    sizes = []

    class Recording(Counter):
        def update(self, *args, **kwargs):
            super().update(*args, **kwargs)
            sizes.append(len(self))

    monkeypatch.setattr(ddt_module, "Counter", Recording)
    g = UniPoly(create_field(8), {9: 1, 7: 1})
    q = g.ctx.order
    assert ddt_module._square_sum(g) == _oracle_square_sum(g)
    assert max(sizes) >= q  # the bound is reached
    assert max(sizes) < q + q // 2  # one row of q/2 values past it at most


def test_a_missing_row_is_caught(monkeypatch):
    kernel = ddt_module._pair_differences

    def drops_last_row(fv, a_list):
        a_list = list(a_list)
        return kernel(fv, a_list[:-1])

    monkeypatch.setattr(ddt_module, "_pair_differences", drops_last_row)
    with pytest.raises(AssertionError, match="must have a row"):
        diff_spectrum(UniPoly(create_field(5), {9: 1, 7: 1}))


def _spectrum_of(n: int, rows: dict) -> DiffSpectrum:
    ctx = create_field(n)
    return DiffSpectrum(ctx=ctx, poly=UniPoly(ctx, {3: 1}), rows=Counter(rows))


def test_row_classes_keep_the_spectrum_invariants():
    q = 16
    good = ((0, 8), (2, 8))
    _spectrum_of(4, {good: q - 1})
    for total in (q - 2, q):  # one row short, one row too many
        with pytest.raises(AssertionError, match="must have a row"):
            _spectrum_of(4, {good: total})
        with pytest.raises(AssertionError, match="must have a row"):
            _spectrum_of(4, {good: total - 1, ((0, 10), (2, 4), (4, 2)): 1})
    odd = ((0, 7), (1, 2), (2, 7))  # sums to q, but a count is odd
    short = ((0, 9), (2, 7))  # even counts summing to 14
    for bad, message in ((odd, "odd solution count"), (short, "sum to the field size")):
        with pytest.raises(AssertionError, match=message):
            _spectrum_of(4, {bad: q - 1})
        with pytest.raises(AssertionError, match=message):
            _spectrum_of(4, {good: q - 2, bad: 1})  # one row of fifteen


def test_equal_scan_rows_merge_into_one_class():
    # the full table forces the scan; a power map's rows all share row 1's
    # histogram, a quadratic map's rows one histogram per rank
    ctx = create_field(6)
    q = ctx.order
    power = diff_spectrum(UniPoly(ctx, {5: 1}), full=True)
    assert power.rows == Counter({((0, 48), (4, 16)): q - 1})
    quadratic = diff_spectrum(UniPoly(ctx, {33: 1, 3: 1}), full=True)
    per_a = Counter(_row_histogram(row, q) for row in quadratic.table.values())
    assert quadratic.rows == per_a
    assert 1 < len(quadratic.rows) <= ctx.n + 1
    assert max(quadratic.rows.values()) > 1


def test_row_classes_weigh_histogram_and_uniformity():
    spectrum = _spectrum_of(4, {((0, 8), (2, 8)): 13, ((0, 10), (2, 4), (4, 2)): 2})
    assert spectrum.histogram() == [(0, 13 * 8 + 2 * 10), (2, 13 * 8 + 2 * 4), (4, 2 * 2)]
    assert spectrum.uniformity == 4
    spectrum = _spectrum_of(4, {((0, 8), (2, 8)): 14, ((0, 12), (4, 4)): 1})
    assert spectrum.histogram() == [(0, 14 * 8 + 12), (2, 14 * 8), (4, 4)]
    assert spectrum.uniformity == 4


def test_spectrum_size_does_not_grow_with_q():
    # q - 1 = 65535 differences, one entry per distinct row histogram
    ctx = create_field(16)
    q = ctx.order
    apn_row = ((0, 32768), (2, 32768))
    power = diff_spectrum(UniPoly(ctx, {57: 1}))
    assert power.rows == Counter({apn_row: q - 1})
    assert power.histogram() == [(0, 2147450880), (2, 2147450880)]
    quadratic = diff_spectrum(UniPoly(ctx, {3: 1, 12: 5}))
    assert len(quadratic.rows) <= ctx.n + 1
    assert sum(quadratic.rows.values()) == q - 1
    assert quadratic.rows == Counter({apn_row: q - 1})
    assert quadratic.histogram() == [(0, 2147450880), (2, 2147450880)]
    ranked = diff_spectrum(UniPoly(ctx, {33: 1, 3: 1}))  # four ranks occur
    assert ranked.rows == Counter({
        apn_row: 38280,
        ((0, 49152), (4, 16384)): 25560,
        ((0, 57344), (8, 8192)): 1680,
        ((0, 61440), (16, 4096)): 15,
    })
    assert ranked.histogram() == [
        (0, 2607943680), (2, 1254359040), (4, 418775040), (8, 13762560), (16, 61440)
    ]


def test_power_histogram_matches_per_row_oracle():
    for n, d in ((4, 5), (5, 7), (6, 9), (7, 57), (8, 11)):
        f = UniPoly(create_field(n), {d: 3, 0: 1})
        q = f.ctx.order
        expected: dict[int, int] = {}
        for row in _oracle_rows(f).values():
            for c, m in _row_histogram(row, q):
                expected[c] = expected.get(c, 0) + m
        spectrum = diff_spectrum(f)
        assert _spectrum_path(f) == "power"
        assert spectrum.histogram() == sorted(expected.items()), (n, d)
        assert spectrum.uniformity == max(expected), (n, d)


def test_scan_cap_is_below_the_fast_path_cap():
    n = SCAN_MAX_N + 1
    ctx = create_field(n)
    general = UniPoly(ctx, {7: 1, 3: 1})
    with pytest.raises(ConstraintViolated, match=f"n <= {SCAN_MAX_N}"):
        diff_spectrum(general)
    with pytest.raises(ConstraintViolated, match=f"n <= {SCAN_MAX_N}"):
        is_apn(general)
    with pytest.raises(ConstraintViolated, match="full table"):
        diff_spectrum(UniPoly(ctx, {3: 1}), full=True)
    assert SCAN_MAX_N < SPECTRUM_MAX_N
    assert diff_spectrum(UniPoly(ctx, {3: 1})).is_apn()  # gcd(1, 15) = 1


def test_full_table_cap_starts_no_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("started a scan above the full-table cap")

    monkeypatch.setattr(ddt_module, "_spectrum_rows", no_scan)
    monkeypatch.setattr(UniPoly, "value_table", no_scan)
    assert FULL_MAX_N < SCAN_MAX_N
    for f in (UniPoly(create_field(FULL_MAX_N + 1), {9: 1, 7: 1}),
              UniPoly(create_field(SCAN_MAX_N), {3: 1})):
        with pytest.raises(ConstraintViolated, match=f"a full table .* n <= {FULL_MAX_N}"):
            diff_spectrum(f, full=True)


def test_prop1_known_cases():
    ctx4 = create_field(4)
    holds, witness = prop1_check(UniPoly(ctx4, {3: 1}))
    assert holds and witness is None
    holds, witness = prop1_check(UniPoly(ctx4, {5: 1}))
    assert not holds
    x, y, z = witness
    assert len({x, y, z}) == 3 and x ^ y ^ z not in {x, y, z}
    holds, _ = prop1_check(UniPoly(create_field(5), {13: 1}))
    assert holds


def test_prop1_cap():
    with pytest.raises(ConstraintViolated):
        prop1_check(UniPoly(create_field(8), {3: 1}))


def test_corollary_bound_formula():
    assert corollary_bound(9, 64) == 1540
    assert corollary_bound(9, 32) == 772


def _log_tables(ctx: FieldCtx) -> tuple[list[int], dict[int, int]]:
    g = next(a for a in range(1, ctx.order) if ctx.element_order(a) == ctx.order - 1)
    exp = [1]
    for _ in range(ctx.order - 2):
        exp.append(ctx.mul(exp[-1], g))
    return exp, {v: i for i, v in enumerate(exp)}


def _grid_values(p: TriPoly, xs, ys, zs):
    """p at every point of xs x ys x zs, in itertools.product order.

    Brute force with log/antilog arithmetic: substitute x, then y, then
    evaluate the leftover polynomial in z at every z.  Exponents are first
    reduced by v^e = v^((e - 1) mod (q - 1) + 1) for e >= 1, which holds at
    every point of GF(q) and bounds the size of the substituted polynomials.
    TriPoly.eval at every point would take over a minute on the x^d set at
    n = 4; the next test checks that both give the same values.
    """
    exp, log = _log_tables(p.ctx)
    order = p.ctx.order - 1

    def term(c, v, e):  # c * v^e, with 0^0 = 1
        if e == 0:
            return c
        return exp[(log[c] + log[v] * e) % order] if v else 0

    def substitute(terms, v):
        out: dict = {}
        for (e, *rest), c in terms.items():
            t = term(c, v, e)
            if t:
                out[tuple(rest)] = out.get(tuple(rest), 0) ^ t
        return {k: c for k, c in out.items() if c}

    reduced: dict = {}
    for key, c in p.terms.items():
        key = tuple((e - 1) % order + 1 if e else 0 for e in key)
        reduced[key] = reduced.get(key, 0) ^ c
    reduced = {k: c for k, c in reduced.items() if c}
    for x in xs:
        yz = substitute(reduced, x)
        for y in ys:
            z_terms = substitute(yz, y)
            for z in zs:
                acc = 0
                for (k,), c in z_terms.items():
                    acc ^= term(c, z, k)
                yield acc


def _brute_point_count(f: UniPoly) -> int:
    """Zeros of phi_f at every point of GF(q)^3, plus zeros of its top
    homogeneous part at the q^2 + q + 1 representatives of P^2."""
    phi = build_phi(f)
    parts = phi.homogeneous_parts()
    top = parts[max(parts)] if parts else phi
    field = range(f.ctx.order)
    values = itertools.chain(
        _grid_values(phi, field, field, field),
        _grid_values(top, [1], field, field),
        _grid_values(top, [0], [1], field),
        _grid_values(top, [0], [0], [1]),
    )
    return sum(v == 0 for v in values)


def test_brute_force_evaluator_matches_tri_eval():
    for n, terms in ((1, {5: 1}), (2, {9: 2, 7: 1, 0: 3}), (3, {13: 5, 6: 1, 1: 7})):
        phi = build_phi(UniPoly(create_field(n), terms))
        field = range(1 << n)
        want = [phi.eval(x, y, z) for x, y, z in itertools.product(field, repeat=3)]
        assert list(_grid_values(phi, field, field, field)) == want


def test_projective_count_matches_brute_force_monomials():
    for n in range(1, 5):
        ctx = create_field(n)
        for d in range(41):
            f = UniPoly(ctx, {d: 1})
            assert projective_point_count(f) == _brute_point_count(f), (n, d)


def test_projective_count_matches_brute_force_polynomials():
    rng = random.Random(2)
    cases = [
        (4, {7: 1, 0: 1}),  # constant term
        (4, {16: 1, 5: 1}),  # power-of-two top exponent
        (4, {4: 1, 2: 1}),  # additive: phi_f = 0
        (4, {4: 3, 3: 1, 1: 2}),  # top part phi_3 = 1: nothing at infinity
        (5, {9: 1, 7: 1}),
        (5, {6: 3, 5: 1, 0: 7}),
        (5, {12: 1, 11: 0x15}),
    ]
    for _ in range(40):
        n = rng.randint(1, 4)
        terms = {rng.randint(0, 70): rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 5))}
        cases.append((n, terms))
    for n, terms in cases:
        f = UniPoly(create_field(n), terms)
        assert projective_point_count(f) == _brute_point_count(f), (n, terms)


def test_projective_count_golden_x9_x7():
    f = UniPoly(create_field(5), {9: 1, 7: 1})
    assert projective_point_count(f) == 1058


@pytest.mark.parametrize(
    "n,terms,expected",
    [
        (6, {9: 1, 7: 1}, 5660),
        (7, {9: 1, 7: 1}, 16346),
        (4, {16: 1, 5: 1}, 529),
        # phi_5 = (x + w*y + w^2*z)(x + w^2*y + w*z), w in GF(4) \ GF(2): two
        # conjugate planes for odd n, meeting only in the line x = y = z, which
        # holds q affine points and one at infinity
        (9, {5: 1}, (1 << 9) + 1),
        (11, {5: 1}, (1 << 11) + 1),
        (13, {5: 1}, (1 << 13) + 1),
    ],
)
def test_projective_count_goldens(n, terms, expected):
    assert projective_point_count(UniPoly(create_field(n), terms)) == expected


def test_projective_count_cap(monkeypatch):
    # the count is capped by what its difference rows cost, not by n alone
    def no_table(*args):
        raise AssertionError("built a value table above the cap")

    monkeypatch.setattr(UniPoly, "value_table", no_table)
    with pytest.raises(ConstraintViolated, match=f"n <= {SCAN_MAX_N}"):
        projective_point_count(UniPoly(create_field(SCAN_MAX_N + 1), {9: 1, 7: 1}))
    with pytest.raises(ConstraintViolated, match=f"n <= {SPECTRUM_MAX_N}"):
        projective_point_count(UniPoly(create_field(SPECTRUM_MAX_N + 1), {9: 1}))


def test_projective_count_above_16_reads_tables():
    # the bit-serial fallback this replaced took about 18 s on a 2-core
    # x86_64 host; with the log tables, building them included, under 1 s
    start = time.perf_counter()
    count = projective_point_count(UniPoly(create_field(17), {57: 1}))
    assert time.perf_counter() - start < 5.0
    assert count == 2**17 + 1


def test_projective_count_degenerate_surface():
    # phi of x^3 is the constant 1: no zeros anywhere
    assert projective_point_count(UniPoly(create_field(4), {3: 1})) == 0


@pytest.mark.parametrize(
    "spec,expected",
    [
        (FamilySpec("gold", 10, 3), 9),
        (FamilySpec("gold", 4, 1), 3),
        (FamilySpec("kasami-welch", 5, 2), 13),
        (FamilySpec("welch", 5, 2), 7),
        (FamilySpec("niho", 5, 2), 5),
        (FamilySpec("niho", 7, 3), 2**3 + 2**5 - 1),
        (FamilySpec("inverse", 5, 2), 15),
        (FamilySpec("dobbertin", 5, 1), 29),
    ],
)
def test_family_exponents(spec, expected):
    assert family_exponent(spec) == expected


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("gold", 4, 2),
        FamilySpec("kasami-welch", 4, 2),
        FamilySpec("kasami-welch", 4, 1),
        FamilySpec("welch", 6, 2),
        FamilySpec("dobbertin", 6, 1),
        FamilySpec("bcl", 10, 0, 1),
        FamilySpec("bcl", 12, 0, 3),
        FamilySpec("nosuch", 5, 1),
    ],
)
def test_family_constraints_enforced(spec):
    with pytest.raises(ConstraintViolated):
        family_exponent(spec)


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("kasami-welch", 11, 9),  # 2^18 - 2^9 + 1 = 261633
        FamilySpec("gold", 17, 16),  # 2^16 + 1
        FamilySpec("inverse", 19, 9),  # 2^18 - 1
        FamilySpec("niho", 23, 11),  # 2^11 + 2^17 - 1
        FamilySpec("bcl", 24, 0, 1),  # its second term is x^(2^16 + 2^9)
    ],
)
def test_family_exponent_above_degree_cap_is_refused(spec, monkeypatch):
    def no_field(*args):
        raise AssertionError("built a field for an exponent over the cap")

    monkeypatch.setattr(ddt_module, "create_field", no_field)
    with pytest.raises(ConstraintViolated, match="exceeds cap 65536"):
        family_exponent(spec)


def test_family_soundness_small_fields():
    for n in range(4, 8):
        for family in ("gold", "kasami-welch", "welch", "niho", "inverse", "dobbertin"):
            for r in range(1, n + 1):
                try:
                    f = family_poly(FamilySpec(family, n, r))
                except ConstraintViolated:
                    continue
                assert is_apn(f), (family, n, r)


def test_ekp_admissible_set():
    ctx = create_field(10)
    us = ekp_admissible_u(ctx)
    assert len(us) == 62
    w_orders = {ctx.element_order(u) for u in us}
    assert all(o % 3 == 0 for o in w_orders)


def test_ekp_admissible_set_matches_order_3_search():
    # ekp_admissible_u as it was: w the first element of order 3 in a scan
    ctx = create_field(10)
    w = next(a for a in range(2, ctx.order) if ctx.pow(a, 3) == 1)
    assert w == 236 == ctx.subfield_elements(2)[2]
    sub = [v for v in ctx.subfield_elements(5) if v]
    want = {ctx.mul(w, v) for v in sub} | {ctx.mul(ctx.sqr(w), v) for v in sub}
    assert ekp_admissible_u(ctx) == sorted(want)


def test_ekp_instance_is_apn():
    f = family_poly(FamilySpec("ekp", 10))
    assert f.degree() == 36
    assert is_apn(f)


def test_bcl_instance_shape():
    f = family_poly(FamilySpec("bcl", 12, 0, 1))
    ctx = f.ctx
    assert ctx.n == 12
    assert sorted(f.terms) == [2**1 + 1, 2**4 + 2**9]
    w = f.terms[2**4 + 2**9]
    assert ctx.element_order(w) == 2**8 + 2**4 + 1
