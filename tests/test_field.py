import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apnforge.field import (
    LOG_TABLE_MAX_N,
    FieldCtx,
    _pmod,
    _x_pow_2e_mod,
    create_field,
    is_irreducible,
    log_tables,
    subfield_embedding,
)


def brute_irreducible(m: int) -> bool:
    """Trial division by every lower-degree polynomial."""
    deg = m.bit_length() - 1
    if deg < 1:
        return False
    return all(_pmod(m, f) != 0 for f in range(2, 1 << deg))


def carryless_product(a: int, b: int) -> int:
    """a*b in GF(2)[x], one shifted copy of a per set bit of b."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def test_x_pow_2e_mod_matches_repeated_products():
    rng = random.Random(5)
    for m in [0b11, 0b110, 0x11B] + [rng.getrandbits(bits) | 1 << bits for bits in (9, 64, 700)]:
        r = _pmod(2, m)
        for e in range(12):
            assert _x_pow_2e_mod(e, m) == r, (m, e)
            r = _pmod(carryless_product(r, r), m)


@pytest.mark.parametrize("n", range(1, 9))
def test_default_modulus_is_irreducible_bruteforce(n):
    ctx = create_field(n)
    assert ctx.modulus.bit_length() == n + 1
    assert brute_irreducible(ctx.modulus)


@pytest.mark.parametrize("n", range(1, 25))
def test_default_modulus_passes_builtin_test(n):
    assert is_irreducible(create_field(n).modulus, n)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        create_field(4, 0b10101)  # x^4+x^2+1 = (x^2+x+1)^2


def test_modulus_degree_must_match_n():
    with pytest.raises(ValueError):
        create_field(4, 0b1011)


@pytest.mark.parametrize("n", range(1, 7))
def test_mul_commutative_associative_exhaustive(n):
    ctx = create_field(n)
    q = ctx.order
    for a in range(q):
        for b in range(q):
            assert ctx.mul(a, b) == ctx.mul(b, a)
    for a in range(0, q, max(1, q // 8)):
        for b in range(q):
            for c in range(0, q, max(1, q // 8)):
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


@given(a=st.integers(0, 2**12 - 1), b=st.integers(0, 2**12 - 1), c=st.integers(0, 2**12 - 1))
def test_mul_laws_randomized_n12(a, b, c):
    ctx = create_field(12)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


@pytest.mark.parametrize("n", range(1, 7))
def test_frobenius_additive_exhaustive(n):
    ctx = create_field(n)
    for a in range(ctx.order):
        for b in range(ctx.order):
            assert ctx.sqr(a ^ b) == ctx.sqr(a) ^ ctx.sqr(b)


def test_inverse_and_pow():
    ctx = create_field(8)
    for a in range(1, 256):
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.pow(a, ctx.order - 1) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # square-and-multiply: one square per bit below the top, one product per set bit
    ctx = create_field(8)
    calls = 0
    mul = FieldCtx.mul

    def counting_mul(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(FieldCtx, "mul", counting_mul)
    for a in (0, 1, 2, 0x53, 0xFF):
        expected = 1
        for e in range(1, 600):
            expected = mul(ctx, expected, a)
            calls = 0
            assert ctx.pow(a, e) == expected, (a, e)
            assert calls == e.bit_count() + e.bit_length() - 1, (a, e)
    calls = 0
    assert mul(ctx, ctx.inv(0x53), 0x53) == 1
    assert calls == 2 * ctx.n - 2  # 2^n - 2 has n - 1 set bits and n bits


def test_element_order_divides_group_order():
    ctx = create_field(6)
    for a in range(1, 64):
        assert 63 % ctx.element_order(a) == 0
    assert ctx.element_order(1) == 1


def test_element_order_gf4_generator():
    ctx = create_field(2)
    assert ctx.element_order(0b10) == 3


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_subfield_closed_under_add_and_mul(k):
    ctx = create_field(12)
    sub = ctx.subfield_elements(k)
    assert len(sub) == 1 << k
    elems = set(sub)
    for a in sub:
        for b in sub:
            assert a ^ b in elems
            assert ctx.mul(a, b) in elems


def test_subfield_tower_containment():
    ctx = create_field(12)
    assert set(ctx.subfield_elements(2)) <= set(ctx.subfield_elements(4))
    assert set(ctx.subfield_elements(3)) <= set(ctx.subfield_elements(6))
    assert set(ctx.subfield_elements(1)) == {0, 1}


def test_subfield_requires_divisor_degree():
    ctx = create_field(6)
    with pytest.raises(ValueError):
        ctx.subfield_elements(4)


def test_embedding_is_ring_homomorphism():
    src = create_field(3)
    dst = create_field(9)
    emb = subfield_embedding(src, dst)
    for a in range(8):
        for b in range(8):
            assert emb(a ^ b) == emb(a) ^ emb(b)
            assert emb(src.mul(a, b)) == dst.mul(emb(a), emb(b))
    assert emb(0) == 0 and emb(1) == 1


def test_embedding_requires_divisibility():
    with pytest.raises(ValueError):
        subfield_embedding(create_field(3), create_field(8))


def test_validate_rejects_out_of_range():
    ctx = create_field(4)
    with pytest.raises(ValueError):
        ctx.validate(16)
    with pytest.raises(ValueError):
        ctx.validate(-1)


def test_ctx_is_hashable_and_frozen():
    a = create_field(5)
    b = create_field(5)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(Exception):
        a.n = 6


def test_n_bounds():
    with pytest.raises(ValueError):
        create_field(0)
    with pytest.raises(ValueError):
        create_field(25)


@pytest.mark.parametrize("n,modulus", [(1, None), (4, None), (8, None), (8, 0x11D), (10, None)])
def test_log_tables_invert_each_other_and_multiply(n, modulus):
    ctx = create_field(n, modulus)
    exp, log = log_tables(ctx)
    q = ctx.order
    assert sorted(exp) == list(range(1, q))  # the generator reaches every nonzero element
    assert all(log[exp[i]] == i for i in range(q - 1))
    for a in range(1, q, 7):
        for b in range(1, q, 5):
            assert exp[(log[a] + log[b]) % (q - 1)] == ctx.mul(a, b)


def test_log_tables_at_their_cap_on_sampled_pairs():
    # every pair is O(q^2) at n = 20, so the products are sampled
    ctx = create_field(LOG_TABLE_MAX_N)
    exp, log = log_tables(ctx)
    q = ctx.order
    assert len(exp) == q - 1 and set(exp) == set(range(1, q))
    rng = random.Random(20)
    for _ in range(500):
        i, a, b = rng.randrange(q - 1), rng.randrange(1, q), rng.randrange(1, q)
        assert log[exp[i]] == i and exp[log[a]] == a
        assert exp[(log[a] + log[b]) % (q - 1)] == ctx.mul(a, b)


def test_log_tables_stop_at_their_cap():
    with pytest.raises(ValueError):
        log_tables(create_field(LOG_TABLE_MAX_N + 1))
