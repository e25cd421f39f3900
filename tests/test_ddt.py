import itertools
import json
import math
import multiprocessing
import operator
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

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
from apnforge.field import FieldCtx, create_field, log_tables, prime_factors
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

        def starmap(self, fn, chunks):
            return [fn(*chunk) for chunk in chunks]

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
        ranks = _ranks(f)
        for a, row in scan.table.items():
            r = ranks[a - 1]
            assert max(row.values()) == 1 << (n - r), (f, a)
            assert _row_histogram(row, q) == ((0, q - (1 << r)), (1 << (n - r), 1 << r)), (f, a)
    assert is_apn(f) == scan.is_apn(), (f, path)


def test_power_path_matches_scan_every_monomial():
    for n in range(1, 8):
        ctx = create_field(n)
        for d in range(1, 71):
            # an additive monomial reaches no term of phi_f
            _check_against_scan(UniPoly(ctx, {d: 1}), "power" if d & (d - 1) else "quadratic")
        # coefficients, a constant and additive terms only relabel b
        _check_against_scan(UniPoly(ctx, {13: ctx.order - 1, 0: 1}), "power")
        _check_against_scan(UniPoly(ctx, {13: 1, 8: 1, 1: ctx.order - 1, 0: 1}), "power")


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
        # additive and constant terms do not count towards a power map
        _check_against_scan(f, "power" if len([e for e in f.terms if e & (e - 1)]) == 1 else "quadratic")


def _ranks(f: UniPoly) -> bytes:
    return ddt_module._quadratic_ranks(ddt_module._bilinear_form(f))


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


def _oracle_quadratic_rank(value, n: int, a: int) -> int:
    """Rank of x -> f(x+a) + f(x) + f(a) + f(0) from its images of 1, 2, 4, ..., 2^(n-1),
    one row a at a time, with value(x) = f(x)."""
    shift = value(a) ^ value(0)
    return _oracle_rank([value(u ^ a) ^ value(u) ^ shift for u in (1 << i for i in range(n))])


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
    # the oracle's values come from bit-serial evaluate, not the log tables
    # that the fast path reads
    rng = random.Random(14)
    for n in range(1, 11):
        for f in _quadratic_cases(rng, n):
            fv = [f.evaluate(x) for x in range(f.ctx.order)]
            expected = bytes(
                _oracle_quadratic_rank(fv.__getitem__, n, a) for a in range(1, f.ctx.order)
            )
            assert _ranks(f) == expected, f


@pytest.mark.parametrize("n", [15, 16, 17])
def test_quadratic_ranks_match_oracle_on_sampled_a(n):
    # above SCAN_MAX_N, where no scan can cross-check the quadratic path
    rng = random.Random(n)
    for f in _quadratic_cases(rng, n)[:3]:  # the constant, top-exponent and additive cases
        ranks = _ranks(f)
        assert len(ranks) == f.ctx.order - 1
        for a in [1, f.ctx.order - 1] + rng.sample(range(2, f.ctx.order - 1), 100):
            assert ranks[a - 1] == _oracle_quadratic_rank(f.evaluate, n, a), (f, a)


@pytest.mark.parametrize(
    "n,terms,rows,apn,square_sum",
    [
        (10, {34: 0x1C9, 12: 0x2C9, 10: 0x3}, {2: 589, 4: 396, 8: 38}, False, 3139584),
        (10, {2**11 + 2**3: 0x155, 2**10 + 1: 0x2F, 2: 0x3FF, 1: 7, 0: 0x2A}, {4: 1023}, False, 4190208),
        (20, {3: 1, 12: 5}, {2: 2**20 - 1}, True, 2199021158400),
    ],
)
def test_quadratic_paths_build_no_value_table(monkeypatch, n, terms, rows, apn, square_sum):
    # the elimination reads f at the n(n+1)/2 + 1 points 0, e_i and e_i + e_j
    def no_table(*args):
        raise AssertionError("built a q-entry value table on the quadratic path")

    monkeypatch.setattr(UniPoly, "value_table", no_table)
    f = UniPoly(create_field(n), terms)
    q = f.ctx.order
    start = time.perf_counter()
    spectrum = diff_spectrum(f)
    assert is_apn(f) is apn
    assert ddt_module._affine_parts(f)[0] == square_sum
    # 1.4-1.8 s at n = 20 on a 2-core x86_64 host, log tables included;
    # about 5 s when each call built the whole value table
    assert time.perf_counter() - start < 4.0
    assert spectrum.rows == Counter({((0, q - q // c), (c, q // c)): k for c, k in rows.items()})


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
        _check_against_scan(UniPoly(ctx, {8: 1}), "quadratic")
        _check_against_scan(UniPoly(ctx, {0: 1}), "quadratic")
        _check_against_scan(UniPoly(ctx, {7: 1, 4: 1, 1: 1, 0: 1}), "power")  # affine tail
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


def _oracle_plane_and_line(g: UniPoly) -> tuple[int, int]:
    """projective_point_count's plane and line counts from g' and the line
    polynomial evaluated at every t."""
    ctx, field = g.ctx, range(g.ctx.order)
    derivative = UniPoly(ctx, {j - 1: c for j, c in g.terms.items() if j % 2})
    line = UniPoly(ctx, {j - 3: c for j, c in g.terms.items() if j % 4 == 3})
    fibres = Counter(derivative.evaluate(t) for t in field).values()
    return sum(k * (k - 1) for k in fibres), sum(line.evaluate(t) == 0 for t in field)


def _oracle_affine_parts(g: UniPoly) -> tuple[int, int, int]:
    return _oracle_square_sum(g), *_oracle_plane_and_line(g)


def _check_against_oracle(f: UniPoly, monkeypatch):
    """The row classes, the full table, is_apn and the point count agree
    with the per-element oracle; the point count is recomputed with the
    oracle's square sum, plane and line counts in place of the kernel's."""
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
        patch.setattr(ddt_module, "_affine_parts", _oracle_affine_parts)
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


def _scan_polys(rng: random.Random, n: int, count: int) -> list[UniPoly]:
    """count seeded polynomials (_seeded_polys) that take the scan path."""
    polys = []
    while len(polys) < count:
        polys += [f for f in _seeded_polys(rng, n, 1) if _spectrum_path(f) == "scan"]
    return polys


def test_kernel_matches_oracle_on_16_bit_lanes(monkeypatch):
    # above q = 256 a row's values need 16-bit lanes
    rng = random.Random(27)
    for n, count in ((9, 2), (10, 1)):
        for f in _scan_polys(rng, n, count):
            _check_against_oracle(f, monkeypatch)


def test_pooled_kernel_matches_oracle_on_16_bit_lanes(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    (f,) = _scan_polys(random.Random(28), 9, 1)
    rows = _oracle_rows(f)
    spec = diff_spectrum(f, full=True, jobs=2)
    assert pool_sizes == [2]
    assert spec.table == rows, f
    assert spec.rows == Counter(_row_histogram(row, f.ctx.order) for row in rows.values())


def _direct_pair_row(fv: list[int], a: int) -> list[int]:
    """fv[x + a] ^ fv[x] for the x without a's top bit, ascending."""
    t = 1 << (a.bit_length() - 1)
    return [fv[x ^ a] ^ fv[x] for x in range(len(fv)) if not x & t]


@pytest.mark.parametrize("n", [8, 9])  # the last 8-bit and the first 16-bit lanes
def test_pair_differences_on_each_side_of_the_lane_switch(n):
    q = 1 << n
    rng = random.Random(n)
    fv = [q - 1, 0] + [rng.randrange(q) for _ in range(q - 2)]  # the top lane bit is used
    a_lists = [range(1, q), sorted(rng.sample(range(1, q), 40)), [q - 1, q - 2, 1]]
    for a_list in a_lists:
        rows = [(a, list(values)) for a, values in ddt_module._pair_differences(fv, a_list)]
        assert rows == [(a, _direct_pair_row(fv, a)) for a in a_list]


def test_square_sum_matches_oracle():
    rng = random.Random(13)
    for n in range(1, 8):
        ctx = create_field(n)
        cases = [UniPoly(ctx, {d: 1}) for d in (3, 5, 7, 9, 11, 13)]  # power
        cases.append(UniPoly(ctx, {5: ctx.order - 1, 3: 1, 1: 1, 0: 1}))  # quadratic
        cases += _seeded_polys(rng, n, 4)  # scan
        for g in cases:
            assert ddt_module._affine_parts(g)[0] == _oracle_square_sum(g), g


def test_a_missing_row_is_caught(monkeypatch):
    kernel = ddt_module._pair_differences

    def drops_last_row(fv, a_list):
        a_list = list(a_list)
        return kernel(fv, a_list[:-1])

    monkeypatch.setattr(ddt_module, "_pair_differences", drops_last_row)
    with pytest.raises(AssertionError, match="must have a row"):
        diff_spectrum(UniPoly(create_field(5), {9: 1, 7: 1}))


def _class_cases(rng: random.Random, n: int) -> list[UniPoly]:
    """Inputs whose row classes differ in kind: binomials with random
    coefficients, three terms with GF(2) and GF(4) coefficients, exponents
    >= q and = 0 mod q - 1, constant and additive terms, and two terms
    that are not additive among additive ones."""
    ctx = create_field(n)
    q = ctx.order

    def coeff():
        return rng.randrange(1, q)

    small = [c for c in ctx.subfield_elements(2 if n % 2 == 0 else 1) if c]
    weight3 = [7, 11, 13, 14, 19, 21, 25]
    cases = [{e: coeff(), d: coeff()} for e, d in ((7, 3), (19, 14), (13, 5), (25, 6))]
    cases += [{e: rng.choice(small) for e in (3, 7, 21)}, {e: rng.choice(small) for e in (5, 11, 13)}]
    cases.append({q + 6: coeff(), 3 * q + 4: coeff(), 2 * q - 1: coeff()})
    cases.append({q - 1: coeff(), 2 * (q - 1): coeff(), rng.choice(weight3): coeff()})
    cases.append({11: coeff(), 6: coeff(), 4: coeff(), 1: coeff(), 0: coeff()})
    cases.append({rng.choice(weight3): coeff(), 5: coeff(), 8: coeff(), 2: coeff(), 1: coeff(), 0: coeff()})
    return [UniPoly(ctx, terms) for terms in cases]


def test_row_classes_match_the_all_rows_scan():
    rng = random.Random(18)
    scanned = 0
    for n in range(1, 10):
        for f in _class_cases(rng, n):
            full = diff_spectrum(f, full=True)
            assert diff_spectrum(f).rows == full.rows, f
            assert ddt_module._affine_parts(f)[0] == sum(
                c * c for row in full.table.values() for c in row.values()
            ), f
            scanned += _spectrum_path(f) == "scan"
    assert scanned >= 80


def test_scan_square_sums_above_n9_match_the_spectrum():
    # the oracle tests stop at n = 9; above it the square sum is checked
    # against the spectrum's rows, and one binomial against its full table
    rng = random.Random(40)
    cases = []
    for n in (10, 11, 12):
        q = 1 << n
        cases.append(UniPoly(create_field(n), {9: rng.randrange(1, q), 7: rng.randrange(1, q)}))
    ctx = create_field(12)
    gf4 = [c for c in ctx.subfield_elements(2) if c]
    cases.append(UniPoly(ctx, {e: rng.choice(gf4) for e in (13, 11, 5)}))
    cases.append(UniPoly(create_field(10), {13: 100, 11: 9, 5: 7, 1: 3}))  # generic
    for g in cases:
        assert _spectrum_path(g) == "scan", g
        rows = diff_spectrum(g).rows
        square_sum = sum(size * sum(c * c * m for c, m in hist) for hist, size in rows.items())
        assert ddt_module._affine_parts(g)[0] == square_sum, g
    table = diff_spectrum(cases[0], full=True).table
    assert ddt_module._affine_parts(cases[0])[0] == sum(
        c * c for row in table.values() for c in row.values()
    )


@pytest.mark.parametrize("n", [9, 10])
def test_pair_histogram_matches_the_oracle_at_the_byte_edges(n):
    # counts of 1, 255 (the largest byte), 256 (past it) and q/2 (one value
    # takes every pair); each row holds q/2 pairs
    q = 1 << n
    half = q >> 1
    rng = random.Random(n)
    shapes = [[1] * half, [half], [255] + [1] * (half - 255), [256] + [1] * (half - 256)]
    shapes.append([255, 255] + [2] * ((half - 510) // 2) if half > 510 else [255, 1])
    mixed = []
    while sum(mixed) < half:
        mixed.append(min(rng.choice([1, 1, 2, 3, 5, 255]), half - sum(mixed)))
    shapes.append(mixed)
    for counts in shapes:
        assert sum(counts) == half, counts
        values = rng.sample(range(q), len(counts))
        pairs = Counter(dict(zip(values, counts)))
        per_b = {b: 2 * c for b, c in pairs.items()}
        assert ddt_module._pair_histogram(pairs, q) == _row_histogram(per_b, q), counts


@pytest.mark.parametrize("n", [9, 10])  # the zero difference takes 255 and 511 pairs
def test_full_table_of_x_to_q_minus_1_matches_the_power_path(n):
    ctx = create_field(n)
    q = ctx.order
    f = UniPoly(ctx, {q - 1: 1})
    full = diff_spectrum(f, full=True)
    assert full.rows == diff_spectrum(f).rows
    assert full.uniformity == q - 2


def test_scanned_rows_square_sum_matches_affine_parts_at_n5_to_n10():
    # the spectrum's rows count through _pair_histogram, _affine_parts
    # through its own Counter of each row
    rng = random.Random(29)
    for n in range(5, 11):  # 16-bit lanes from n = 9
        ctx = create_field(n)
        q = ctx.order
        checked = 0
        while checked < 4:
            exponents = [rng.choice([7, 11, 13, 14, 19, 21, 25]), *rng.sample(range(1, 4 * q), 2)]
            f = UniPoly(ctx, {e: rng.randrange(1, q) for e in exponents})
            if len(f.terms) != 3 or _spectrum_path(f) != "scan":
                continue
            rows = diff_spectrum(f).rows
            square_sum = sum(size * sum(c * c * m for c, m in hist) for hist, size in rows.items())
            assert ddt_module._affine_parts(f)[0] == square_sum, f
            checked += 1


def test_row_classes_cover_every_difference_once():
    # _row_classes serves the scan, whose inputs have two or more exponents
    # reaching phi_f
    rng = random.Random(19)
    scanned = 0
    for n in range(1, 10):
        for f in _class_cases(rng, n):
            if _spectrum_path(f) != "scan":
                continue
            classes = ddt_module._row_classes(f)
            assert sum(size for _, size in classes) == f.ctx.order - 1, f
            assert [a for a, _ in classes] == sorted({a for a, _ in classes}), f
            scanned += 1
    assert scanned >= 80


def _cyclotomic_coset_count(n: int) -> int:
    m = (1 << n) - 1
    return len({min((x << k) % m for k in range(n)) for x in range(m)})


def test_binomial_scan_reads_one_row_per_cyclotomic_coset(monkeypatch):
    read = []
    kernel = ddt_module._pair_differences

    def counting(fv, a_list):
        for a, values in kernel(fv, a_list):
            read.append(a)
            yield a, values

    monkeypatch.setattr(ddt_module, "_pair_differences", counting)
    rng = random.Random(20)
    for n, e, d in ((10, 7, 3), (9, 19, 14), (8, 13, 6), (7, 9, 7)):
        ctx = create_field(n)
        q = ctx.order
        assert math.gcd(e - d, q - 1) == 1
        f = UniPoly(ctx, {e: rng.randrange(1, q), d: rng.randrange(1, q)})
        read.clear()
        rows = diff_spectrum(f).rows
        assert len(read) == _cyclotomic_coset_count(n), (n, e, d)
        read.clear()
        assert diff_spectrum(f, full=True).rows == rows
        assert sorted(read) == list(range(1, q))
    assert _cyclotomic_coset_count(10) == 107


@pytest.mark.parametrize(
    "n,exponents,cosets",
    [(10, (13, 11, 5), 107), (12, (13, 11, 5), 351), (10, (19, 13, 11, 5), 107)],
)
def test_row_classes_turn_short_cosets_to_one_key(n, exponents, cosets):
    # L_2 = 6 log a lies in a coset shorter than n for some a; the key takes
    # the least of the turns that fix rep[L_2], so every Frobenius class of
    # (L_2, L_3, ...) is read once (114, 360 and 114 classes without the turn)
    f = UniPoly(create_field(n), dict.fromkeys(exponents, 1))
    assert len(ddt_module._row_classes(f)) == cosets == _cyclotomic_coset_count(n)
    every_row = [(a, 1) for a in range(1, f.ctx.order)]
    rows, _ = ddt_module._spectrum_rows(f, every_row, False)
    assert diff_spectrum(f).rows == rows


def test_generic_input_still_reads_every_row():
    # three terms with coefficients outside every proper subfield: almost
    # no two differences share a class
    f = UniPoly(create_field(9), {13: 100, 11: 9, 5: 7, 1: 3})
    assert len(ddt_module._row_classes(f)) == f.ctx.order - 1


def test_cyclotomic_canon_builds_shift_only_where_the_scan_runs():
    # only _row_classes reads shift, and the scan refuses n > SCAN_MAX_N;
    # above it the power path reads rep, short and leaders alone
    rep, shift, _, _ = ddt_module._cyclotomic_canon(SCAN_MAX_N)
    assert len(shift) == len(rep) == 2**SCAN_MAX_N - 1
    assert SCAN_MAX_N < 15
    rep, shift, short, leaders = ddt_module._cyclotomic_canon(15)
    assert shift is None
    # {0}, 2 cosets of length 3 (GF(8)) and 6 of length 5 (GF(32)); the
    # rest have length 15, and together they cover every residue once
    assert len(short) == 9
    assert sum(short.values()) + 15 * len(leaders) == len(rep) == 2**15 - 1


def test_pooled_classes_match_serial(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 1000)
    f = UniPoly(create_field(7), {9: 1, 7: 1})
    pooled = diff_spectrum(f, jobs=1000)
    assert pool_sizes == [19]  # one worker per row class
    assert pooled.rows == diff_spectrum(f).rows == diff_spectrum(f, full=True).rows


def test_scan_reaches_n14_binomial_in_seconds():
    f = UniPoly(create_field(14), {7: 0x1234, 3: 1})
    start = time.perf_counter()
    spectrum = diff_spectrum(f)  # DiffSpectrum checks its invariants
    assert time.perf_counter() - start < 8
    assert sum(spectrum.rows.values()) == f.ctx.order - 1


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


def _value_table_pairs(f: UniPoly) -> Counter:
    """Row 1 of f as b -> #pairs {x, x + 1}, from f's whole value table: the
    pairs are {2i, 2i + 1}, so the row counts fv[1::2] ^ fv[0::2]."""
    fv = f.value_table()
    return Counter(map(operator.xor, fv[1::2], fv[0::2]))


def _value_table_row(f: UniPoly) -> tuple[tuple[int, int], ...]:
    pairs = _value_table_pairs(f)
    return _row_histogram({b: 2 * c for b, c in pairs.items()}, f.ctx.order)


def test_power_row_matches_value_table_row():
    # one x per Frobenius orbit against every pair {x, x + 1}; d beyond q,
    # d = 0 mod q - 1 and d sharing a factor with q - 1 (where
    # F(x) = x^d + (x + 1)^d can vanish) are all drawn
    rng = random.Random(20)
    seen: Counter = Counter()
    for n in range(1, 17):
        ctx = create_field(n)
        q, m = ctx.order, ctx.order - 1
        ds = {1, 3, m, 2 * m, q, q + 2, 4 * q + 7}
        ds |= {rng.randrange(1, 8 * q) for _ in range(12 if n < 12 else 3)}
        ds |= {p * rng.randrange(1, 40) for p in prime_factors(m)}
        for d in sorted(e for e in ds if e <= DEGREE_CAP):
            monic = UniPoly(ctx, {d: 1})
            assert ddt_module._power_row(ctx, d) == _value_table_row(monic), (n, d)
            f = UniPoly(ctx, {d: rng.randrange(1, q), 0: rng.randrange(q)})
            assert diff_spectrum(f).rows == Counter({_value_table_row(f): m}), f
            assert is_apn(f) == (max(_value_table_pairs(f).values()) == 1), f
            zeros = _value_table_pairs(monic)[0]
            assert not zeros or math.gcd(d, m) > 1, (n, d)
            seen["beyond q"] += d >= q
            seen["multiple of q - 1"] += d % m == 0 and n > 1
            seen["F vanishes off 0, 1"] += d % m != 0 and zeros > 0
    assert min(seen.values()) >= 20, seen


def _count_rows_read(monkeypatch) -> list[int]:
    """Patch _pair_differences so each row it yields appends its a to the returned list."""
    read: list[int] = []
    pair_differences = ddt_module._pair_differences

    def counting(fv, a_list):
        for a, values in pair_differences(fv, a_list):
            read.append(a)
            yield a, values

    monkeypatch.setattr(ddt_module, "_pair_differences", counting)
    return read


@pytest.mark.parametrize(
    "terms, classes",
    [({201: 0x31, 39: 0xA8}, 23), ({228: 0xB0, 78: 0x36}, 9)],
)
def test_is_apn_scan_reads_one_row_per_class(monkeypatch, terms, classes):
    # two APN binomials over GF(2^8) on the scan path: row 1 first, then
    # one row per other class, not q - 1 rows
    f = UniPoly(create_field(8), terms)
    assert _spectrum_path(f) == "scan"
    assert diff_spectrum(f).is_apn()
    leaders = [a for a, _ in ddt_module._row_classes(f)]
    assert len(leaders) == classes and leaders[0] == 1
    read = _count_rows_read(monkeypatch)
    assert is_apn(f)
    assert read == leaders


def test_is_apn_scan_failing_row_1_builds_no_classes(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a value table or the row classes after row 1 failed")

    ctx = create_field(8)
    # row 1 repeats inside the prefix: no value table, no row, no class
    f = UniPoly(ctx, {7: 0x1D, 3: 0x5C, 5: 1})
    # row 1 first repeats at pair 64 ({128, 129}), past the prefix's
    # q/4 = 64 pairs: the scan reads row 1 and stops there
    g = UniPoly(ctx, {15: 4, 7: 0x72})
    for h in (f, g):
        assert _spectrum_path(h) == "scan"
        assert max(_value_table_pairs(h).values()) > 1
    assert ddt_module._row_1_prefix_repeats(f)
    assert not ddt_module._row_1_prefix_repeats(g)
    read = _count_rows_read(monkeypatch)
    monkeypatch.setattr(ddt_module, "_row_classes", refuse)
    with monkeypatch.context() as patched:
        patched.setattr(UniPoly, "value_table", refuse)
        assert not is_apn(f)
    assert read == []
    assert not is_apn(g)
    assert read == [1]


def _oracle_cases(rng: random.Random, n: int, count: int) -> list[UniPoly]:
    """Seeded inputs over GF(2^n), exponents below 4q: count each of one
    exponent, two or three of binary weight 2, and two whose first has
    weight >= 3, each with a constant and with an additive term at
    probability 0.3; plus the Gold map x^3 + c x^(q + 2) = (1 + c) x^3,
    which takes the quadratic path."""
    ctx = create_field(n)
    q = ctx.order
    top = min(4 * q, DEGREE_CAP + 1)
    weight_2 = [e for e in range(3, top) if e.bit_count() == 2]
    heavy = [e for e in range(7, top) if e.bit_count() > 2]
    supports = []
    for _ in range(count):
        supports.append([rng.choice(weight_2 + heavy)])
        supports.append(rng.sample(weight_2, min(len(weight_2), rng.randint(2, 3))))
        supports.append([rng.choice(heavy), rng.choice(weight_2 + heavy)])
    cases = []
    for support in supports:
        terms = {e: rng.randrange(1, q) for e in support}
        if rng.random() < 0.3:
            terms[0] = rng.randrange(1, q)
        if rng.random() < 0.3:
            terms[1 << rng.randrange(n)] = rng.randrange(1, q)
        cases.append(UniPoly(ctx, terms))
    if n >= 2:
        cases.append(UniPoly(ctx, {3: 1, q + 2: rng.randrange(2, q)}))
    return cases


def test_is_apn_matches_the_spectrum_on_every_path():
    # the row-1 prefix and the row-1 rank change no answer: is_apn agrees
    # with the spectrum, and the row-1 rank with byte 0 of the elimination
    rng = random.Random(25)
    seen: Counter = Counter()
    for n in range(1, 12):
        cases = _oracle_cases(rng, n, {10: 3, 11: 1}.get(n, 20))
        if n == 10:
            cases += [UniPoly(create_field(10), {3: 1, 36: u, 1: 1}) for u in (0x3F, 0x17B)]
        for f in cases:
            path, apn = _spectrum_path(f), is_apn(f)
            assert apn == diff_spectrum(f).is_apn(), f
            q = f.ctx.order
            seen["constant"] += 0 in f.terms
            seen["additive"] += any(e and not e & (e - 1) for e in f.terms)
            seen["exponent >= q"] += max(f.terms) >= q
            if path == "scan":
                prefix = ddt_module._row_1_prefix_repeats(f)
                assert not (prefix and apn), f
                kind = "refuted by the prefix" if prefix else "not refuted" if not apn else "apn"
                seen["scan, " + kind] += 1
            elif path == "quadratic":
                rank = ddt_module._row_1_rank(ddt_module._bilinear_form(f))
                assert rank == _ranks(f)[0], f
                kind = "apn" if apn else "row 1 of rank n - 1" if rank == n - 1 else "refuted at row 1"
                seen["quadratic, " + kind] += 1
    kinds = {
        "scan, refuted by the prefix", "scan, not refuted", "scan, apn",
        "quadratic, refuted at row 1", "quadratic, row 1 of rank n - 1", "quadratic, apn",
        "constant", "additive", "exponent >= q",
    }
    assert kinds <= seen.keys() and min(seen[k] for k in kinds) >= 20, seen


def test_row_1_rank_matches_the_elimination():
    # byte 0 of the elimination over q-bit masks, and the bit-serial rank
    rng = random.Random(12)
    for n in range(2, 13):
        for f in _quadratic_cases(rng, n):
            form = ddt_module._bilinear_form(f)
            rank = ddt_module._row_1_rank(form)
            assert rank == ddt_module._quadratic_ranks(form)[0], f
            assert rank == _oracle_quadratic_rank(f.evaluate, n, 1), f


def test_row_1_refutes_a_generic_input_at_n14_without_a_value_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("built a q-entry value table after row 1 failed")

    f = UniPoly(create_field(14), {13: 0x1A2B, 11: 0xC3D, 5: 0x2E4F, 1: 0x3A5B})
    assert _spectrum_path(f) == "scan"
    monkeypatch.setattr(UniPoly, "value_table", no_table)
    assert not is_apn(f)


def test_row_1_refutes_a_quadratic_input_at_n20_without_masks(monkeypatch):
    def no_masks(*args):
        raise AssertionError("ranked every row after row 1 failed")

    n = 20
    f = UniPoly(create_field(n), {5: 0xE7D81, 3: 0xB9097})
    assert _spectrum_path(f) == "quadratic"
    # the bit-serial oracle reads f at n + 2 points, not through the log tables
    assert _oracle_quadratic_rank(f.evaluate, n, 1) < n - 1
    monkeypatch.setattr(ddt_module, "_quadratic_ranks", no_masks)
    monkeypatch.setattr(ddt_module, "_lane_masks", no_masks)
    assert not is_apn(f)


@pytest.mark.parametrize("n", [1, 2])
def test_is_apn_below_the_prefix_matches_the_full_table(n):
    # q = 2 and q = 4: the prefix has no pair beyond x = 0, so it never
    # refutes, and every path gives the full table's answer
    ctx = create_field(n)
    seen: Counter = Counter()
    for support in itertools.combinations([2, 3, 5, 6, 7, 9, 11, 13, 14, 4 * ctx.order + 3], 2):
        for c in range(1, ctx.order):
            f = UniPoly(ctx, {support[0]: 1, support[1]: c, 1: c})
            path = _spectrum_path(f)
            if path == "scan":
                assert not ddt_module._row_1_prefix_repeats(f), f
            assert is_apn(f) == diff_spectrum(f, full=True).is_apn(), f
            seen[path] += 1
    assert len(seen) == 3, seen


def test_import_builds_no_table():
    # the tables are built on first use, never at import: a fresh
    # interpreter that imports apnforge holds none of them
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(ddt_module.__file__).parents[1])!r})\n"
        "import apnforge, apnforge.cli\n"
        "from apnforge import ddt, field\n"
        "caches = [field.log_tables, ddt._cyclotomic_canon, ddt._lane_masks, ddt._orbit_pairs]\n"
        "print(json.dumps([c.cache_info().currsize for c in caches]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == [0, 0, 0, 0]


def test_orbit_pairs_cover_the_field_and_match_value_table_row():
    # one x per orbit of x -> x^2 and x -> x + 1: the orbits cover every
    # x != 0, 1 once, each read at the coset with the smaller rep, and row 1
    # from them matches the value-table row; the cases drawn must include
    # self-paired cosets (x + 1 in C(x)), short cosets and gcd(d, q - 1) > 1
    rng = random.Random(23)
    seen: Counter = Counter()
    for n in range(1, 17):
        ctx = create_field(n)
        q, m = ctx.order, ctx.order - 1
        exp, log = log_tables(ctx)
        rep, _, short, _ = ddt_module._cyclotomic_canon(n)
        rs, ls, weights = ddt_module._orbit_pairs(ctx)
        split = len(rs) - len(weights)
        rest = list(zip(rs[split:], ls[split:], weights))
        orbits = [(r, l, 2 * n) for r, l in zip(rs[:split], ls[:split])] + rest
        cosets = []
        for r, l, weight in orbits:
            assert l == log[exp[r] ^ 1] and rep[r] == r <= rep[l], (n, r)
            size = short.get(r, n)
            assert weight == (size if rep[l] == r else 2 * size), (n, r)
            cosets += [r] if rep[l] == r else [r, rep[l]]
        assert sorted(cosets) == sorted(set(rep) - {0}), n
        assert sum(weight for _, _, weight in orbits) + 2 == q, n
        self_paired = any(rep[l] == r for r, l, _ in rest)
        short_read = any(r in short for r, _, _ in rest)
        ds = {3, 5, 7, m, q + 2} | {rng.randrange(1, 4 * q) for _ in range(6 if n < 12 else 2)}
        ds |= {p * rng.randrange(1, 20) for p in prime_factors(m)}
        for d in sorted(e for e in ds if 0 < e <= DEGREE_CAP):
            assert ddt_module._power_row(ctx, d) == _value_table_row(UniPoly(ctx, {d: 1})), (n, d)
            seen["self-paired coset"] += self_paired
            seen["short coset"] += short_read
            seen["gcd(d, q - 1) > 1"] += math.gcd(d, m) > 1
            seen["cases"] += 1
    assert min(seen.values()) >= 20, seen


def test_closed_form_point_count_matches_oracle(monkeypatch):
    # the closed plane and line counts against g' and the line polynomial at
    # every t, with the square sums from the per-element oracle
    rng = random.Random(21)
    seen: Counter = Counter()
    for n in range(5, 10):
        ctx = create_field(n)
        q = ctx.order
        exponents = (3, 6, 7, 9, 11, 13, 19, q + 2, 3 * (q - 1) + 1)
        cases = [UniPoly(ctx, {e: rng.randrange(1, q), 0: rng.randrange(q)}) for e in exponents]
        cases.append(UniPoly(ctx, {5: 1, 3: 1}))  # g' = (t + t^2)^2: a kernel of dimension 1
        weight2 = [e for e in range(1, 4 * q) if e.bit_count() <= 2]
        for _ in range(4 if n < 9 else 2):
            terms = {e: rng.randrange(1, q) for e in rng.sample(weight2, rng.randint(2, 4))}
            terms[3 if rng.random() < 0.5 else 0] = rng.randrange(1, q)
            cases.append(UniPoly(ctx, terms))
        for g in cases:
            path = _spectrum_path(g)
            fibres, line = _oracle_plane_and_line(g)
            assert ddt_module._affine_parts(g)[1:] == (fibres, line), g
            e = max((j for j in g.terms if j & (j - 1)), default=0)  # the power exponent
            seen["power, gcd(e - 1, q - 1) > 1"] += (
                path == "power" and e % 2 == 1 and math.gcd(e - 1, q - 1) > 1
            )
            seen["quadratic, k >= 1"] += path == "quadratic" and fibres > 0
            count = projective_point_count(g)
            with monkeypatch.context() as patch:
                patch.setattr(ddt_module, "_affine_parts", _oracle_affine_parts)
                assert projective_point_count(g) == count, g
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize(
    "terms,histogram,apn,square_sum,points",
    [
        ({21: 1}, [(0, 585156), (2, 401016), (4, 61380)], False, 2586144, 492545),
        ({57: 0x2C9, 0: 5}, [(0, 523776), (2, 523776)], True, 2095104, 1025),
        ({33: 7, 0: 1}, [(0, 1014816), (32, 32736)], False, 33521664, 31458305),
        ({3 * 1023: 1}, [(0, 1045506), (2, 1023), (1022, 1023)], False, 1068511224, 1067459585),
        ({6: 0x155}, [(0, 523776), (2, 523776)], True, 2095104, 3146753),
        ({34: 0x1C9, 12: 0x2C9, 10: 0x3}, [(0, 639744), (2, 301568), (4, 101376), (8, 4864)],
         False, 3139584, 4193281),
        ({5: 1, 3: 1}, [(0, 654336), (2, 262656), (4, 130560)], False, 3139584, 1049601),
        ({2**11 + 2**3: 0x155, 2**10 + 1: 0x2F, 2: 0x3FF, 1: 7, 0: 0x2A},
         [(0, 785664), (4, 261888)], False, 4190208, 2101249),
    ],
)
def test_power_and_quadratic_paths_build_no_value_table(
    monkeypatch, terms, histogram, apn, square_sum, points
):
    # every figure was recorded from the whole-field value tables at n = 10
    def no_table(*args):
        raise AssertionError("built a q-entry value table on a power or quadratic map")

    monkeypatch.setattr(UniPoly, "value_table", no_table)
    f = UniPoly(create_field(10), terms)
    assert _spectrum_path(f) in ("power", "quadratic")
    assert diff_spectrum(f).histogram() == histogram
    assert is_apn(f) is apn
    assert ddt_module._affine_parts(f)[0] == square_sum
    assert projective_point_count(f) == points


def test_power_map_at_n20_builds_no_value_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("built a q-entry value table on a power map")

    monkeypatch.setattr(UniPoly, "value_table", no_table)
    f = UniPoly(create_field(20), {57: 1})  # Kasami-Welch, gcd(3, 20) = 1
    q = f.ctx.order
    start = time.perf_counter()
    spectrum = diff_spectrum(f)
    apn = is_apn(f)
    square_sum = ddt_module._affine_parts(f)[0]
    points = projective_point_count(f)
    # about 1.5 s on a 2-core x86_64 host, log tables and coset table included
    assert time.perf_counter() - start < 4.0
    assert spectrum.histogram() == [(0, (q - 1) * q // 2), (2, (q - 1) * q // 2)]
    assert apn is True
    assert square_sum == 2199021158400 == (q - 1) * 2 * q
    assert points == q + 1


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


def test_row_lanes_hold_every_value_up_to_the_caps():
    # a row's lanes must hold q - 1 at the largest n any scan reads
    n = max(SCAN_MAX_N, FULL_MAX_N)
    q = 1 << n
    rng = random.Random(n)
    fv = [q - 1] + [rng.randrange(q) for _ in range(q - 1)]
    for a in (1, q - 1):
        ((_, values),) = ddt_module._pair_differences(fv, [a])
        assert 1 << (8 * memoryview(values).itemsize) > q - 1
        assert list(values) == _direct_pair_row(fv, a)


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


@pytest.mark.parametrize("n", range(1, 10))
def test_affine_terms_change_no_answer_on_any_path(n, monkeypatch):
    # a constant and additive terms relabel b in every row and leave phi_f
    # alone (EA-invariance), so f and f + L + c agree with each other and
    # with the full scan of f + L + c on every path
    rng = random.Random(30 + n)
    ctx = create_field(n)
    q = ctx.order

    def coeff():
        return rng.randrange(1, q)

    cases = [
        ({7: coeff()}, "power"),
        ({13: coeff()}, "power"),
        ({3: coeff(), 12: coeff()}, "quadratic"),
        ({9: coeff(), 7: coeff()}, "scan"),
        ({19: coeff(), 5: coeff(), 3: coeff()}, "scan"),
    ]

    def full_square_sum(h):
        table = diff_spectrum(h, full=True).table
        return sum(c * c for row in table.values() for c in row.values())

    for terms, path in cases:
        f = UniPoly(ctx, terms)
        # several additive terms, exponents beyond q among them, and a constant
        tail = {1 << k: coeff() for k in rng.sample(range(2 * n + 1), min(3, 2 * n + 1))}
        g = UniPoly(ctx, terms | tail | {0: coeff()})
        assert _spectrum_path(g) == path, g
        full = diff_spectrum(g, full=True)
        assert diff_spectrum(g).rows == full.rows == diff_spectrum(f).rows, g
        assert is_apn(g) == full.is_apn() == is_apn(f), g
        assert ddt_module._affine_parts(g)[0] == full_square_sum(g) == ddt_module._affine_parts(f)[0], g
        count = projective_point_count(g)
        assert count == projective_point_count(f), g
        with monkeypatch.context() as patch:
            patch.setattr(
                ddt_module, "_affine_parts", lambda h: (full_square_sum(h), *_oracle_plane_and_line(h))
            )
            assert projective_point_count(g) == count, g


@pytest.mark.parametrize(
    "n,terms,histogram,points,seconds",
    [
        (16, {7: 1, 1: 1}, [(0, 2497997595), (2, 1621598040), (4, 65535), (6, 175240590)],
         4206755841, 2.0),
        (20, {13: 1, 4: 1}, [(0, 641380821675), (2, 439803812250), (4, 1048575), (12, 18324896700)],
         2199005429761, 8.0),
    ],
)
def test_affine_tails_above_the_scan_cap_take_the_power_path(n, terms, histogram, points, seconds):
    # above SCAN_MAX_N no scan can answer: the additive term must leave x^e
    # on the power path; about 0.1 s and 1.5 s on a 2-core x86_64 host
    f = UniPoly(create_field(n), terms)
    start = time.perf_counter()
    spectrum = diff_spectrum(f)
    apn = is_apn(f)
    count = projective_point_count(f)
    assert time.perf_counter() - start < seconds
    assert spectrum.histogram() == histogram
    assert apn is False
    assert count == points
    monomial = UniPoly(f.ctx, {max(terms): 1})
    assert spectrum.rows == diff_spectrum(monomial).rows
    assert count == projective_point_count(monomial)


def test_power_map_point_count_runs_one_affine_count(monkeypatch):
    # phi_f = c_e phi_e: the cone at infinity is counted on f's own zeros
    calls = []
    affine = ddt_module._affine_zero_count

    def spy(g):
        calls.append(g)
        return affine(g)

    monkeypatch.setattr(ddt_module, "_affine_zero_count", spy)
    ctx = create_field(4)
    for terms, runs in (({5: 1}, 1), ({13: 3, 4: 1, 1: 2, 0: 1}, 1), ({9: 1, 7: 1}, 2)):
        calls.clear()
        f = UniPoly(ctx, terms)
        count = projective_point_count(f)
        assert len(calls) == runs, terms
        assert count == _brute_point_count(f), terms


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
